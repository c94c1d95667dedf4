"""End-to-end measurement: the bare, prod and dev paths, closed-loop latency,
set-up time, peak memory, and the output-correctness gate.

Every path goes through pktcheck's public entry points, looked up on their
modules at call time so that a traced run (see ``tracing.py``) sees its
timing shims:

- bare: ``read_pcap`` -> ``Packet.from_bytes`` -> ``nf.apply`` -> ``write_pcap``;
- prod / dev: ``run_pipeline`` in Production / Development.

Timings are host-corrected by ``refclock.ReferenceClock``.
"""

from __future__ import annotations

import gc
import math
import os
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from pktcheck import headers, nfs, pcap, pipeline, registry as registry_mod
from pktcheck.engine import BuildMode, ContractRuntime

from refclock import NOMINAL_S, ReferenceClock
from workloads import Workload, output_ok

SRC = Path(__file__).resolve().parent.parent / "src"
PATHS = ["bare", "prod", "dev"]
MODES = {"prod": BuildMode.PRODUCTION, "dev": BuildMode.DEVELOPMENT}

SETUPS_PER_ROUND = 5
MIN_ROUNDS = 4

#: Packets in the fresh-process memory probe: enough that held records,
#: outputs and violations outweigh the interpreter's own footprint.
RSS_PACKETS = 10_000


def bare_pass(nf, in_path: Path, out_path: Path) -> None:
    out = []
    for record in pcap.read_pcap(in_path):
        result = nf.apply(headers.Packet.from_bytes(record.data))
        if not result.dropped:
            out.append(
                pcap.PcapRecord(bytes(result.packet.data), record.ts_sec, record.ts_usec)
            )
    pcap.write_pcap(out_path, out)


def pipeline_pass(nf_name: str, mode: str, in_path: Path, out_path: Path, registry):
    config = pipeline.RunConfig(
        nf_name=nf_name, input_path=str(in_path), output_path=str(out_path),
        mode=MODES[mode], policy="continue",
    )
    return pipeline.run_pipeline(config, registry)


def quantile(samples: list, q: float):
    """Nearest-rank quantile; 0.0 when every item failed the gate."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(len(ordered) * q) - 1)]


class Gate:
    """Output-correctness bookkeeping for one run.

    A packet fails when a path raises on it, when its output bytes differ
    from the bare path's, when the bare output itself is not what the
    workload's NF must emit, or when a pipeline summary does not conserve
    packets (in == out + dropped). Contract violations are not failures.
    Until a bare pass has given the reference, every packet fails.
    """

    def __init__(self, workload: Workload, inputs: list):
        self.workload = workload
        self.inputs = inputs
        self.attempted = 0
        self.failed = 0
        self.expected: list[bytes | None] = [None] * len(inputs)
        self.expected_pcap = b""

    def set_reference(self, bare_out: Path) -> None:
        """Adopt a bare pass's output as the reference for every later pass;
        packets the oracle rejects count as failed wherever they appear."""
        outputs = [r.data for r in pcap.read_pcap(bare_out)]
        outputs += [None] * (len(self.inputs) - len(outputs))
        self.expected = [
            out if output_ok(self.workload, rec.data, out) else None
            for rec, out in zip(self.inputs, outputs)
        ]
        self.expected_pcap = bare_out.read_bytes()

    def check_pass(self, out_path: Path, summary=None) -> int:
        """Account for one full pass; returns the packets it failed."""
        n = len(self.inputs)
        bad = sum(e is None for e in self.expected)
        if out_path.read_bytes() != self.expected_pcap:
            got = [r.data for r in pcap.read_pcap(out_path)]
            bad = sum(e is None or g != e for g, e in zip(got, self.expected))
            bad += abs(len(got) - n)
        if summary is not None and not (
            summary.packets_in == n
            and summary.packets_in == summary.packets_out + summary.packets_dropped
        ):
            bad = n
        return self.count(n, min(bad, n))

    def check_one(self, index: int, summary) -> int:
        """Account for one packet run through ``run_records`` on its own."""
        ok = (
            summary.packets_in == 1
            and summary.packets_out + summary.packets_dropped == 1
            and self.expected[index] is not None
            and [r.data for r in summary.out_records] == [self.expected[index]]
        )
        return self.count(1, 0 if ok else 1)

    def count(self, attempted: int, failed: int) -> int:
        self.attempted += attempted
        self.failed += failed
        return failed


def _report_exception(what: str) -> None:
    print(f"{what} raised:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def _rotate(items: list, by: int) -> list:
    return items[by % len(items):] + items[:by % len(items)]


def build_seconds(nf_name: str, builds: int) -> list[float]:
    """Wall time of each of ``builds`` runs of ``standard_registry()`` plus
    ``make_nf``: contract parse, order verification, static assertions."""
    samples = []
    for _ in range(builds):
        t0 = time.perf_counter()
        nfs.make_nf(nf_name, registry_mod.standard_registry())
        samples.append(time.perf_counter() - t0)
    return samples


def run_pass(path: str, workload, nf, registry, paths, gate, reference: bool = False):
    """One full pcap-in/pcap-out pass of ``path``, checked by the gate.

    Returns (packets failed, the pipeline's ``RunSummary`` or None). A pass
    that raises fails every packet. With ``reference``, the pass's output
    first becomes the gate's reference.
    """
    out_path = paths.out(path)
    summary = None
    try:
        if path == "bare":
            bare_pass(nf, paths.input, out_path)
        else:
            summary = pipeline_pass(workload.nf, path, paths.input, out_path, registry)
    except Exception:
        _report_exception(f"{path} pass")
        return gate.count(len(gate.inputs), len(gate.inputs)), None
    if reference:
        gate.set_reference(out_path)
    return gate.check_pass(out_path, summary), summary


def latency_window(client, records, registry, gate) -> list[float]:
    """Closed loop, one client: every record in turn, each through
    ``run_records`` on its own and the next only after the previous
    returned. Returns per-call microseconds."""
    nf, runtime = client
    clock = time.perf_counter_ns
    run_records = pipeline.run_records
    samples = []
    for index in range(len(records)):
        try:
            t0 = clock()
            summary = run_records(nf, [records[index]], registry, runtime=runtime)
            elapsed = clock() - t0
        except Exception:
            _report_exception(f"packet {index}")
            gate.count(1, 1)
            continue
        if gate.check_one(index, summary) == 0:
            samples.append(elapsed / 1000)
    return samples


def peak_rss_mib(workload: Workload, seed: int, paths, gate) -> float:
    """Peak resident memory of a Development ``run_pipeline`` over
    RSS_PACKETS packets, in a fresh interpreter; 0.0 when it raised, with
    every packet counted as failed."""
    pcap.write_pcap(paths.rss_input, workload.records(seed, RSS_PACKETS))
    probe = Path(__file__).with_name("rss_probe.py")
    done = subprocess.run(
        [sys.executable, str(probe), workload.nf, str(paths.rss_input), str(paths.out("rss"))],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=120,
    )
    if done.returncode != 0:
        print(f"rss probe raised:\n{done.stderr}", file=sys.stderr)
        gate.count(RSS_PACKETS, RSS_PACKETS)
        return 0.0
    return int(done.stdout.split()[-1]) / 1024


def end_to_end(workload, seed: int, seconds: float, paths) -> tuple[dict, Gate]:
    """One untraced run; returns {metric: (value, unit, samples)} and the gate.

    Rounds repeat until ``seconds`` have passed. Each round times one pass
    of every path, SETUPS_PER_ROUND NF builds and one latency window per
    mode, in rotating order, so that every metric samples the whole run.
    A latency window sends every record once, so all windows see the same
    packet mix and differ only by noise.
    """
    records = workload.records(seed, paths.packets)
    n = len(records)
    pcap.write_pcap(paths.input, records)
    gate = Gate(workload, records)
    registry = registry_mod.standard_registry()
    nf = nfs.make_nf(workload.nf, registry)

    # Warm-up passes, untimed: the bare one becomes the reference output.
    for path in PATHS:
        run_pass(path, workload, nf, registry, paths, gate, reference=path == "bare")

    clients = {
        mode: (nfs.make_nf(workload.nf, registry), ContractRuntime(build))
        for mode, build in MODES.items()
    }
    clock = ReferenceClock()
    passes = {path: [] for path in PATHS}  # (wall s, clock position)
    latencies = {mode: [] for mode in MODES}  # (per-call us, clock position)
    setups = []  # (wall s per build, clock position)
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        for path in _rotate(PATHS, rounds):
            gc.collect()
            (failed, _), wall, at = clock.measure(
                lambda: run_pass(path, workload, nf, registry, paths, gate))
            if not failed:
                passes[path].append((wall, at))
        builds, _, at = clock.measure(lambda: build_seconds(workload.nf, SETUPS_PER_ROUND))
        setups.append((builds, at))
        for mode in _rotate(list(MODES), rounds):
            window, _, at = clock.measure(
                lambda: latency_window(clients[mode], records, registry, gate))
            latencies[mode].append((window, at))
        rounds += 1

    kernel_ms = statistics.median(clock.kernel_s) * 1000
    print(f"# {workload.name}: reference kernel {kernel_ms:.3f} ms median over "
          f"{len(clock.kernel_s)} runs (nominal {NOMINAL_S * 1000:.3f} ms); wall "
          "times are scaled by nominal/measured")
    # Interference the kernel misses only ever slows an item down, so each
    # figure is the lower quartile of its scaled items, not their median.
    setup = [b * clock.scale(at) for builds, at in setups for b in builds]
    metrics = {"setup_s": (quantile(setup, 0.25), "s", len(setup))}
    for path, items in passes.items():
        times = [wall * clock.scale(at) for wall, at in items]
        low = quantile(times, 0.25)
        metrics[f"{path}_pps"] = (n / low if low else 0.0, "pkt/s", len(times))
    for mode, windows in latencies.items():
        calls = sum(len(w) for w, _ in windows)
        for q in (50, 99):
            # only windows with at least 10 samples beyond the percentile
            per_window = [quantile(w, q / 100) * clock.scale(at)
                          for w, at in windows if len(w) * (100 - q) >= 1000]
            metrics[f"{mode}_lat_p{q}_us"] = (quantile(per_window, 0.25), "us", calls)
    metrics["peak_rss_mb"] = (peak_rss_mib(workload, seed, paths, gate), "MiB", 1)
    return metrics, gate
