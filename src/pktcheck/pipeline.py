"""Packet pipeline: drive an NF over a packet stream with its contracts.

Per packet in Development mode the flow is ingress contract → transform →
egress contract (the egress phase applies to rewritten packets, whose
shape the contract describes). In Production only the transform runs.
Packets flow one at a time, in input order, through one loop picked per
run: the checked loop (Development with a contract) times each phase; the
transform-only loop runs ``Packet.from_bytes`` and ``nf.apply`` with no
timers and keeps only counters and transform drops. A pcap input is read
lazily; each emitted record goes to a sink as it is produced, by default
the list ``summary.out_records``.

Violation policies:

``continue``
    Emit every packet the transform produces; report violations.
``drop``
    Violating packets are not emitted.
``abort``
    Stop the run at the first violating packet (which is not emitted).

Independently of policy, a transform may drop a packet itself (e.g. a
full SRv6 segment list); such drops are counted and carry a reason but
are not contract violations.

The summary always conserves packets: in == out + dropped.
"""

from __future__ import annotations

import os
import statistics
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from .engine import BuildMode, ContractRuntime, Violation, run_egress, run_ingress
from .exceptions import ConfigError
from .generator import GeneratorSpec, generate_records
from .headers import Packet
from .nfs import NetworkFunction, make_nf
from .pcap import PcapRecord, PcapWriter, iter_pcap
from .registry import Registry, standard_registry

POLICIES = ("drop", "continue", "abort")


@dataclass
class RunConfig:
    """Everything one `run` needs: the NF, where packets come from and go,
    the build mode, and how to react to violations."""

    nf_name: str
    input_path: str | None = None
    generator: GeneratorSpec | None = None
    output_path: str | None = None
    mode: BuildMode = BuildMode.DEVELOPMENT
    policy: str = "continue"

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise ConfigError(
                f"unknown policy {self.policy!r} (known: {', '.join(POLICIES)})"
            )
        if (self.input_path is None) == (self.generator is None):
            raise ConfigError(
                "exactly one input source required: a pcap path or a generator spec"
            )


@dataclass
class RunSummary:
    """What one run did. ``timings`` are measured in Development only and
    stay zero in Production, whose loop runs no timer. ``out_records`` holds
    the emitted records only when ``run_records`` keeps its default sink."""

    nf_name: str
    mode: BuildMode
    policy: str
    packets_in: int = 0
    packets_out: int = 0
    packets_dropped: int = 0
    violations: list[Violation] = field(default_factory=list)
    violations_by_check: dict[str, int] = field(default_factory=dict)
    drops: list[tuple[int, str]] = field(default_factory=list)
    timings: dict[str, int] = field(
        default_factory=lambda: {
            "ingress_contract_ns": 0,
            "transform_ns": 0,
            "egress_contract_ns": 0,
        }
    )
    snapshots_built: int = 0
    checks_evaluated: int = 0
    aborted: bool = False
    out_records: list[PcapRecord] = field(default_factory=list)

    def exit_code(self) -> int:
        return 1 if self.violations else 0

    def to_json(self) -> dict:
        return {
            "nf": self.nf_name,
            "mode": self.mode.value,
            "policy": self.policy,
            "packets_in": self.packets_in,
            "packets_out": self.packets_out,
            "packets_dropped": self.packets_dropped,
            "violations": [v.to_json() for v in self.violations],
            "violations_by_check": dict(self.violations_by_check),
            "transform_drops": [
                {"packet_index": index, "reason": reason}
                for index, reason in self.drops
            ],
            "timings": dict(self.timings),
            "snapshots_built": self.snapshots_built,
            "checks_evaluated": self.checks_evaluated,
            "aborted": self.aborted,
        }


def _check_key(violation: Violation) -> str:
    index = "order" if violation.check_index is None else violation.check_index
    return f"{violation.phase}#{index}"


def run_records(
    nf: NetworkFunction,
    records: Iterable[PcapRecord],
    registry: Registry,
    *,
    runtime: ContractRuntime | None = None,
    policy: str = "continue",
    out=None,
) -> RunSummary:
    """Run each record through the NF, in order, and aggregate a RunSummary.

    ``records`` may be any iterable and is pulled one record at a time, so
    a lazy reader never holds the whole input. Under ``abort`` no record
    after the violating one is pulled. Each emitted record goes to
    ``out``, any object with ``append`` (a ``PcapWriter`` streams it to a
    file); by default it is ``summary.out_records``.
    """
    if policy not in POLICIES:
        raise ConfigError(f"unknown policy {policy!r}")
    if runtime is None:
        runtime = ContractRuntime()
    summary = RunSummary(nf_name=nf.name, mode=runtime.mode, policy=policy)
    emit = (summary.out_records if out is None else out).append
    if runtime.mode is BuildMode.DEVELOPMENT and nf.contract is not None:
        _run_checked(nf, records, runtime, policy, summary, emit)
    else:
        _run_transform_only(nf, records, summary, emit)
    summary.snapshots_built = runtime.snapshots_built
    summary.checks_evaluated = runtime.checks_evaluated
    return summary


def _run_transform_only(nf, records, summary: RunSummary, emit) -> None:
    # Looked up per call, not at import, so that wrappers installed on
    # Packet or the NF's class (e.g. a tracer's) still see every call.
    from_bytes, apply = Packet.from_bytes, nf.apply
    drops = summary.drops
    index = -1
    for index, record in enumerate(records):
        result = apply(from_bytes(record.data))
        if result.dropped:
            drops.append((index, result.drop_reason or ""))
        else:
            emit(PcapRecord(bytes(result.packet.data), record.ts_sec, record.ts_usec))
    summary.packets_in = index + 1
    summary.packets_dropped = len(drops)
    summary.packets_out = summary.packets_in - summary.packets_dropped


def _run_checked(
    nf, records, runtime: ContractRuntime, policy: str, summary: RunSummary, emit
) -> None:
    # Looked up per call, as in _run_transform_only, so that a tracer's
    # wrappers and clock still see every call.
    contract, from_bytes, apply = nf.contract, Packet.from_bytes, nf.apply
    ingress, egress, clock = run_ingress, run_egress, time.perf_counter_ns
    found, by_check, drops = summary.violations, summary.violations_by_check, summary.drops
    strict = policy != "continue"
    ingress_ns = transform_ns = egress_ns = 0
    index, dropped = -1, 0
    for index, record in enumerate(records):
        packet = from_bytes(record.data)

        t0 = clock()
        violations, snapshot = ingress(contract, packet, runtime, index)
        ingress_ns += clock() - t0

        t0 = clock()
        result = apply(packet)
        transform_ns += clock() - t0

        out = result.packet
        if out is not None and result.rewritten:
            t0 = clock()
            violations += egress(contract, out, snapshot, runtime, index)
            egress_ns += clock() - t0

        for violation in violations:
            found.append(violation)
            key = _check_key(violation)
            by_check[key] = by_check.get(key, 0) + 1
        if out is None:
            dropped += 1
            drops.append((index, result.drop_reason or ""))
        elif violations and strict:
            dropped += 1
        else:
            emit(PcapRecord(bytes(out.data), record.ts_sec, record.ts_usec))
        if violations and policy == "abort":
            summary.aborted = True
            break
    summary.packets_in = index + 1
    summary.packets_dropped = dropped
    summary.packets_out = summary.packets_in - dropped
    timings = summary.timings
    timings["ingress_contract_ns"] = ingress_ns
    timings["transform_ns"] = transform_ns
    timings["egress_contract_ns"] = egress_ns


def run_pipeline(
    config: RunConfig, registry: Registry | None = None
) -> RunSummary:
    """Build the NF (elaborating its contract), then stream the configured
    input through it. Elaboration failures surface before any I/O; a pcap
    input is read lazily, record by record. Output streams into
    ``<output>.part``, which replaces the output only when the run completes
    and is deleted on any error; with no output path the records are
    dropped. ``summary.out_records`` stays empty either way."""
    if registry is None:
        registry = standard_registry()
    nf = make_nf(config.nf_name, registry)
    if config.input_path is not None:
        records = iter_pcap(config.input_path)
    else:
        records = generate_records(config.generator)
    runtime = ContractRuntime(config.mode)
    if config.output_path is None:
        return run_records(
            nf, records, registry, runtime=runtime, policy=config.policy,
            out=deque(maxlen=0),
        )
    part = Path(f"{config.output_path}.part")
    try:
        with open(part, "wb") as fobj:
            summary = run_records(
                nf, records, registry, runtime=runtime, policy=config.policy,
                out=PcapWriter(fobj),
            )
        os.replace(part, config.output_path)
    except BaseException:
        part.unlink(missing_ok=True)
        raise
    return summary


def bench(
    nf_name: str,
    records: list[PcapRecord],
    registry: Registry | None = None,
    *,
    repetitions: int = 1,
) -> dict:
    """Time the three pipeline phases over ``repetitions`` full passes.

    Contracts-on passes run in Development, contracts-off in Production;
    the report carries per-phase mean/stdev, each kind of pass's wall time
    as a whole, and the ingress share of total contract overhead.
    """
    if repetitions < 1:
        raise ConfigError("repetitions must be >= 1")
    if registry is None:
        registry = standard_registry()
    nf = make_nf(nf_name, registry)

    phase_samples = {"ingress_contract_ns": [], "transform_ns": [], "egress_contract_ns": []}
    on_totals, off_totals = [], []
    for _ in range(repetitions):
        t0 = time.perf_counter_ns()
        on = run_records(
            nf, records, registry, runtime=ContractRuntime(BuildMode.DEVELOPMENT)
        )
        t1 = time.perf_counter_ns()
        run_records(
            nf, records, registry, runtime=ContractRuntime(BuildMode.PRODUCTION)
        )
        t2 = time.perf_counter_ns()
        on_totals.append(t1 - t0)
        off_totals.append(t2 - t1)
        for phase in phase_samples:
            phase_samples[phase].append(on.timings[phase])

    def stats(samples):
        return {
            "mean_ns": statistics.fmean(samples),
            "stdev_ns": statistics.stdev(samples) if len(samples) > 1 else 0.0,
        }

    ingress_mean = statistics.fmean(phase_samples["ingress_contract_ns"])
    egress_mean = statistics.fmean(phase_samples["egress_contract_ns"])
    contract_overhead = ingress_mean + egress_mean
    return {
        "nf": nf_name,
        "packets": len(records),
        "repetitions": repetitions,
        "phases": {phase: stats(samples) for phase, samples in phase_samples.items()},
        "contracts_on_total_ns": stats(on_totals),
        "contracts_off_total_ns": stats(off_totals),
        "contract_overhead_ns": contract_overhead,
        "ingress_share_of_contract_overhead": (
            ingress_mean / contract_overhead if contract_overhead else 0.0
        ),
    }
