"""Packet pipeline: drive an NF over a packet stream with its contracts.

Per packet in Development mode the flow is ingress contract → transform →
egress contract. The egress phase applies to each output whose bytes differ
from its input record's: the loop observes what the NF changed, the NF
reports nothing. It needs the ingress snapshot when the contract has an
ingress phase: a packet whose ingress walk failed has that order violation
as its one root cause. A packet outside the contract's ``when:`` guard
(its ingress phase returns ``OUTSIDE``) runs no egress: a changed output
gets the one frame violation, keyed ``egress#frame``, and an unchanged
output or a transform drop gets none.
In Production only the transform runs. Packets flow one at a time, in
input order, through one loop picked per run:

- the checked loop (Development with a contract) calls each phase's
  generated function (``Phase.run``, described in ``contracts``) itself,
  with the semantics of ``engine.run_ingress`` and ``engine.run_egress``,
  the one-packet API that the tests hold it to. Each call returns the
  packet's Violations, a walk refusal's included, and whether the walk
  accepted the packet, which the loop counts in locals and adds to the
  runtime once, also when the run raises. It reads the clock once per
  phase boundary, ``t0 | ingress | t1 | transform | t2 | egress | t3``:
  4 reads for a packet that runs egress or breaks the frame condition, 3
  for any other. Between two reads there is only that phase's call and
  its walk count, plus the previous phase's running sum and, before
  egress, the test whether egress runs, whose byte comparison also picks
  what is emitted and decides the frame condition;
- the transform-only loop runs ``Packet.from_bytes`` and ``nf.apply``
  with no timers, keeps only counters and transform drops, and makes the
  same byte comparison to pick what is emitted.

Neither loop copies a packet: the NF gets the record's own ``bytes``, an
output whose bytes equal the record's is emitted as that record, so
``out_records`` may share record objects with the input, and a rewritten
packet becomes a new ``PcapRecord`` around the NF's own output ``bytes``.

Each loop returns what it counted, and ``run_records`` builds one fresh
``RunSummary`` from that after the loop; the per-check violation counts
are derived from the violations when read, not kept as the loop runs. A
pcap input is read lazily; each emitted record goes to a sink as it is
produced, by default the list ``summary.out_records``.

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

The summary conserves packets by construction: ``packets_out`` is
``packets_in - packets_dropped``.
"""

from __future__ import annotations

import math
import os
import statistics
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .engine import (
    OUTSIDE,
    BuildMode,
    ContractRuntime,
    Violation,
    _frame,
    check_build_mode,
    check_policy,
    # Not called here: the checked loop calls each phase itself. Kept
    # because pktbench/test_pktbench.py::test_uninstall_restores_every_binding
    # reads pipeline.run_ingress.
    run_egress,
    run_ingress,
)
from .exceptions import ConfigError
from .generator import GeneratorSpec, generate_records
from .headers import Packet
from .nfs import NetworkFunction, make_nf
from .pcap import _BUFFER_BYTES, PcapRecord, PcapWriter, iter_pcap
from .registry import Registry


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
        check_build_mode(self.mode)
        check_policy(self.policy)
        if (self.input_path is None) == (self.generator is None):
            raise ConfigError(
                "exactly one input source required: a pcap path or a generator spec"
            )


@dataclass(slots=True)
class RunSummary:
    """What one run did. ``timings`` are measured in Development only and
    stay zero in Production, whose loop runs no timer. ``out_records`` holds
    the emitted records only when ``run_records`` keeps its default sink.
    ``packets_out`` and ``violations_by_check`` are derived, on each read,
    from the packet counts and from ``violations``."""

    nf_name: str
    mode: BuildMode
    policy: str
    packets_in: int
    packets_dropped: int
    violations: list[Violation]
    drops: list[tuple[int, str]]
    timings: dict[str, int]
    snapshots_built: int
    checks_evaluated: int
    aborted: bool
    out_records: list[PcapRecord]

    @property
    def packets_out(self) -> int:
        return self.packets_in - self.packets_dropped

    @property
    def violations_by_check(self) -> dict[str, int]:
        """Violations per check, keyed ``phase#index`` (``phase#kind`` for
        an order or frame violation), in the order each key first failed."""
        counts = {}
        for violation in self.violations:
            key = violation.key()
            counts[key] = counts.get(key, 0) + 1
        return counts

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
            "violations_by_check": self.violations_by_check,
            "transform_drops": [
                {"packet_index": index, "reason": reason}
                for index, reason in self.drops
            ],
            "timings": dict(self.timings),
            "snapshots_built": self.snapshots_built,
            "checks_evaluated": self.checks_evaluated,
            "aborted": self.aborted,
        }


def run_records(
    nf: NetworkFunction,
    records: Iterable[PcapRecord],
    registry: Registry | None,
    *,
    runtime: ContractRuntime | None = None,
    policy: str = "continue",
    out=None,
) -> RunSummary:
    """Run each record through the NF, in order, and return a RunSummary.

    ``records`` may be any iterable and is pulled one record at a time, so
    a lazy reader never holds the whole input. Under ``abort`` no record
    after the violating one is pulled. Each emitted record goes to
    ``out``, any object with ``append`` (a ``PcapWriter`` streams it to a
    file); by default it is ``summary.out_records``. An output whose
    bytes equal its input record's reaches ``out`` as that record itself,
    not a copy, so the sink may share objects with ``records``. Every call
    returns a summary, lists and dicts of its own.
    """
    check_policy(policy)
    if runtime is None:
        runtime = ContractRuntime()
    out_records = []
    emit = (out_records if out is None else out).append
    # a reused runtime's counters already hold earlier runs' counts
    snapshots, checks = runtime.snapshots_built, runtime.checks_evaluated
    if runtime.mode is BuildMode.DEVELOPMENT and nf.contract is not None:
        packets_in, dropped, violations, drops, timings, aborted = _run_checked(
            nf, records, runtime, policy, emit
        )
    else:
        packets_in, drops = _run_transform_only(nf, records, emit)
        dropped, violations, aborted = len(drops), [], False
        timings = {"ingress_contract_ns": 0, "transform_ns": 0, "egress_contract_ns": 0}
    return RunSummary(
        nf.name, runtime.mode, policy, packets_in, dropped, violations, drops, timings,
        runtime.snapshots_built - snapshots, runtime.checks_evaluated - checks, aborted,
        out_records,
    )


def _run_transform_only(nf, records, emit) -> tuple[int, list]:
    """Returns (packets in, transform drops)."""
    # Looked up per call, not at import, so that wrappers installed on
    # Packet or the NF's class (e.g. a tracer's) still see every call.
    from_bytes, apply = Packet.from_bytes, nf.apply
    drops = []
    index = -1
    for index, record in enumerate(records):
        result = apply(from_bytes(record.data))
        out = result.packet
        if out is None:
            drops.append((index, result.drop_reason or ""))
        elif out.data == record.data:
            emit(record)
        else:
            emit(PcapRecord(out.data, record.ts_sec, record.ts_usec))
    return index + 1, drops


def _run_checked(nf, records, runtime: ContractRuntime, policy: str, emit) -> tuple:
    """Returns (packets in, packets dropped, violations, transform drops,
    phase timings, aborted); the module docstring gives its clock reads."""
    # Looked up per call, as in _run_transform_only, so that a tracer's
    # wrappers and clock still see every call.
    contract, from_bytes, apply = nf.contract, Packet.from_bytes, nf.apply
    clock = time.perf_counter_ns
    name, ingress, egress = contract.nf_name, contract.ingress, contract.egress
    run_in = ingress.run if ingress is not None else None
    run_out = egress.run if egress is not None else None
    found, drops = [], []
    strict, aborted = policy != "continue", False
    ingress_ns = transform_ns = egress_ns = 0
    index, dropped, walks_in, walks_out, outside = -1, 0, 0, 0, 0
    try:
        for index, record in enumerate(records):
            packet = from_bytes(record.data)

            t0 = clock()
            if run_in is None:
                violations, snapshot = [], None
            else:
                violations, snapshot = run_in(packet.data, name, index)
                if snapshot is OUTSIDE:
                    outside += 1
                else:
                    walks_in += snapshot is not None
            t1 = clock()
            ingress_ns += t1 - t0

            result = apply(packet)
            t2 = clock()
            transform_ns += t2 - t1

            out = result.packet
            # egress checks each changed output, with the snapshot unless there is no
            # ingress; outside the guard, a changed output breaks the frame condition
            changed = out is not None and out.data != record.data
            if changed:
                if snapshot is OUTSIDE:
                    violations.append(_frame(name, index))
                    egress_ns += clock() - t2
                elif run_out is not None and (snapshot is not None or run_in is None):
                    failed, walked = run_out(out.data, snapshot, name, index)
                    violations += failed
                    walks_out += walked
                    egress_ns += clock() - t2

            found += violations
            if out is None:
                dropped += 1
                drops.append((index, result.drop_reason or ""))
            elif violations and strict:
                dropped += 1
            elif changed:
                emit(PcapRecord(out.data, record.ts_sec, record.ts_usec))
            else:
                emit(record)
            if violations and policy == "abort":
                aborted = True
                break
    finally:
        runtime.snapshots_built += walks_in
        if walks_in or outside:
            guard = len(ingress.guard)
            runtime.checks_evaluated += walks_in * (guard + len(ingress.compiled)) + outside * guard
        if walks_out:
            runtime.checks_evaluated += walks_out * len(egress.compiled)
    timings = {
        "ingress_contract_ns": ingress_ns,
        "transform_ns": transform_ns,
        "egress_contract_ns": egress_ns,
    }
    return index + 1, dropped, found, drops, timings, aborted


def run_pipeline(
    config: RunConfig, registry: Registry | None = None
) -> RunSummary:
    """Build the NF (elaborating its contract), then stream the configured
    input through it. Elaboration failures surface before any I/O; a pcap
    input is read lazily, record by record. Output streams into
    ``<output>.part``, which replaces the output only when the run completes
    and is deleted on any error; with no output path the records are
    dropped. ``summary.out_records`` stays empty either way."""
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
        with open(part, "wb", buffering=_BUFFER_BYTES) as fobj:
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
    """Time the three pipeline phases over ``repetitions`` full passes,
    then each record's latency on its own.

    Contracts-on passes run in Development, contracts-off in Production;
    the report carries per-phase mean/stdev, each kind of pass's wall time
    as a whole, and the ingress share of total contract overhead, all from
    the passes. After them, ``latency_us`` gives per mode (``dev``,
    ``prod``) the nearest-rank p50 and p99 of a closed loop: each record in
    turn through ``run_records`` on its own, the next only after the
    previous returned.
    """
    if type(repetitions) is not int:  # a bool is an int, but no count
        raise ConfigError(f"repetitions must be an int, not {repetitions!r}")
    if repetitions < 1:
        raise ConfigError("repetitions must be >= 1")
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

    latency_us = {}
    for mode in (BuildMode.DEVELOPMENT, BuildMode.PRODUCTION):
        runtime = ContractRuntime(mode)
        calls = []
        for record in records:
            t0 = time.perf_counter_ns()
            run_records(nf, [record], registry, runtime=runtime)
            calls.append((time.perf_counter_ns() - t0) / 1000)
        calls.sort()
        latency_us[mode.value] = {
            "p50": _nearest_rank(calls, 50), "p99": _nearest_rank(calls, 99)
        }

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
        "latency_us": latency_us,
    }


def _nearest_rank(ordered: list[float], q: int) -> float:
    """The ``q``-th percentile of the sorted ``ordered``, by nearest rank;
    0.0 when it is empty."""
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(len(ordered) * q / 100) - 1)]
