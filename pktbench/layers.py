"""The traced run: per-layer metrics for one workload.

Each round runs the bare, prod and dev paths untraced, then prod and dev
with the timing shims of ``tracing.py`` installed. The untraced passes give
the ratios, the garbage-collector counts, the ingress share and the
tracing overhead; the traced passes give call counts and time per layer.
Timed values are medians over the rounds in which no pass failed; a pass
that raises counts its packets as failed. Traced times include some of the
shims' own cost, so end-to-end figures come only from untraced runs.
"""

from __future__ import annotations

import gc
import statistics
import time

from pktcheck import nfs, pcap, registry as registry_mod

from measure import PATHS, Gate, run_pass
from tracing import Tracer

TRACE_ROUNDS = 5
SETUP_REPEATS = 20

#: Calls that Production builds must elide entirely.
ELIDED = ("registry.parse_chain", "registry.match_chain",
          "engine.build_snapshot", "engine.eval_check")


def timer_ns_per_call() -> float:
    """Cost of one ``time.perf_counter_ns()`` call, loop overhead removed."""
    calls = 200_000
    clock = time.perf_counter_ns
    samples = []
    for _ in range(5):
        t0 = clock()
        for _ in range(calls):
            clock()
        t1 = clock()
        for _ in range(calls):
            pass
        t2 = clock()
        samples.append(((t1 - t0) - (t2 - t1)) / calls)
    return statistics.median(samples)


def _gc_collections() -> list[int]:
    return [generation["collections"] for generation in gc.get_stats()]


def _span_ms(tracer: Tracer, pass_index: int, name: str) -> float:
    """Median duration in ms of the spans called ``name`` in one pass."""
    _, lo, hi, _ = tracer.passes[pass_index]
    nid = tracer.names.index(name) if name in tracer.names else -1
    durations = [tracer.end[i] - tracer.start[i] for i in range(lo, hi) if tracer.name[i] == nid]
    return statistics.median(durations) / 1e6 if durations else 0.0


def per_layer(workload, seed: int, seconds: float, paths) -> tuple[dict, Gate, list]:
    """One traced run; returns {metric: (value, unit, samples)}, the gate and
    the traced names the program no longer has."""
    records = workload.records(seed, paths.trace_packets)
    n = len(records)
    pcap.write_pcap(paths.input, records)
    gate = Gate(workload, records)
    registry = registry_mod.standard_registry()
    nf = nfs.make_nf(workload.nf, registry)
    run_pass("bare", workload, nf, registry, paths, gate, reference=True)

    tracer = Tracer()
    with tracer.installed():
        with tracer.traced_pass("setup"):
            for _ in range(SETUP_REPEATS):
                nfs.make_nf(workload.nf, registry_mod.standard_registry())
    setup_pass = len(tracer.passes) - 1

    rounds, tried = [], 0
    elided = dict.fromkeys((*ELIDED, "snapshots_built", "checks_evaluated"), 0)
    deadline = time.perf_counter() + seconds
    for attempt in range(TRACE_ROUNDS):
        if attempt and time.perf_counter() >= deadline:
            break
        tried += 1
        wall, summaries, failed = {}, {}, 0
        for path in PATHS:
            gc.collect()
            before = _gc_collections()
            t0 = time.perf_counter()
            bad, summaries[path] = run_pass(path, workload, nf, registry, paths, gate)
            wall[path] = time.perf_counter() - t0
            gc_delta = [b - a for a, b in zip(before, _gc_collections())]
            failed += bad

        traced = {}
        with tracer.installed():
            for mode in ("prod", "dev"):
                gc.collect()
                with tracer.traced_pass(mode):
                    t0 = time.perf_counter()
                    bad, summary = run_pass(mode, workload, nf, registry, paths, gate)
                    wall[f"traced_{mode}"] = time.perf_counter() - t0
                traced[mode] = tracer.stats(len(tracer.passes) - 1)
                failed += bad
                if mode == "prod" and summary is not None:
                    counts = {name: traced[mode].calls[name] for name in ELIDED}
                    counts["snapshots_built"] = summary.snapshots_built
                    counts["checks_evaluated"] = summary.checks_evaluated
                    for name, count in counts.items():
                        elided[name] += count
                    if any(counts.values()):
                        failed += gate.count(0, n - bad)
        if not failed:
            # gc_delta is the dev pass's: it runs last
            rounds.append((wall, summaries["dev"], gc_delta, traced))

    def median(fn, unit):
        values = [fn(*r) for r in rounds]
        return (statistics.median(values) if values else 0.0), unit, len(values)

    def dev_calls(name):
        return median(lambda w, s, g, t: t["dev"].calls[name] / n, "calls/pkt")

    def dev_ns(counter, name):
        return median(lambda w, s, g, t: getattr(t["dev"], counter)[name] / n, "ns/pkt")

    def ingress_share(w, s, g, t):
        ingress = s.timings["ingress_contract_ns"]
        total = ingress + s.timings["egress_contract_ns"]
        return ingress / total if total else 0.0

    timer_ns = timer_ns_per_call()
    metrics = {
        "pcap.read_ns_per_pkt": dev_ns("incl_ns", "pcap.read"),
        "pcap.write_ns_per_pkt": dev_ns("incl_ns", "pcap.write"),
        "headers.parse_header_calls_per_pkt": dev_calls("headers.parse_header"),
        "headers.parse_header_ns_per_pkt": dev_ns("incl_ns", "headers.parse_header"),
        "headers.decode_calls_per_pkt": dev_calls("headers.decode"),
        "headers.emit_calls_per_pkt": dev_calls("headers.emit"),
        "headers.emit_ns_per_pkt": dev_ns("incl_ns", "headers.emit"),
        "checksum.calls_per_pkt": dev_calls("checksum.internet"),
        "checksum.ns_per_pkt": median(
            lambda w, s, g, t: (t["dev"].self_ns["checksum.pseudo_header"]
                                + t["dev"].self_ns["checksum.internet"]) / n,
            "ns/pkt",
        ),
        "registry.parse_chain_calls_per_pkt": dev_calls("registry.parse_chain"),
        "registry.parse_chain_self_ns_per_pkt": dev_ns("self_ns", "registry.parse_chain"),
        "registry.match_chain_calls_per_pkt": dev_calls("registry.match_chain"),
        "registry.match_chain_ns_per_pkt": dev_ns("incl_ns", "registry.match_chain"),
        "engine.build_snapshot_ns_per_pkt": dev_ns("incl_ns", "engine.build_snapshot"),
        "engine.build_snapshot_self_ns_per_pkt": dev_ns("self_ns", "engine.build_snapshot"),
        "engine.eval_check_calls_per_pkt": dev_calls("engine.eval_check"),
        "engine.eval_check_ns_per_pkt": dev_ns("incl_ns", "engine.eval_check"),
        "engine.run_ingress_self_ns_per_pkt": dev_ns("self_ns", "engine.run_ingress"),
        "engine.run_egress_self_ns_per_pkt": dev_ns("self_ns", "engine.run_egress"),
        "engine.violations_per_pkt": median(
            lambda w, s, g, t: len(s.violations) / n, "count/pkt"),
        "engine.snapshots_per_pkt": median(
            lambda w, s, g, t: s.snapshots_built / n, "count/pkt"),
        "engine.checks_per_pkt": median(
            lambda w, s, g, t: s.checks_evaluated / n, "count/pkt"),
        "engine.ingress_share": median(ingress_share, "ratio"),
        "nfs.apply_self_ns_per_pkt": median(
            lambda w, s, g, t: t["prod"].self_ns["nfs.apply"] / n, "ns/pkt"),
        "pipeline.self_ns_per_pkt": median(
            lambda w, s, g, t: t["prod"].self_ns["pipeline.run_records"] / n, "ns/pkt"),
        "pipeline.prod_over_bare": median(lambda w, s, g, t: w["prod"] / w["bare"], "ratio"),
        "pipeline.dev_over_bare": median(lambda w, s, g, t: w["dev"] / w["bare"], "ratio"),
        "pipeline.timer_ns_per_call": (timer_ns, "ns", 5),
        "pipeline.timer_calls_per_pkt": median(
            lambda w, s, g, t: t["prod"].timer_calls / n, "calls/pkt"),
        "pipeline.timer_ns_per_pkt": median(
            lambda w, s, g, t: t["prod"].timer_calls / n * timer_ns, "ns/pkt"),
        "dev.pipeline.timer_calls_per_pkt": median(
            lambda w, s, g, t: t["dev"].timer_calls / n, "calls/pkt"),
        "prod.headers.parse_header_calls_per_pkt": median(
            lambda w, s, g, t: t["prod"].calls["headers.parse_header"] / n, "calls/pkt"),
        "prod.headers.emit_calls_per_pkt": median(
            lambda w, s, g, t: t["prod"].calls["headers.emit"] / n, "calls/pkt"),
        **{f"prod.{name}_calls": (elided[name], "count", tried) for name in ELIDED},
        "prod.snapshots_built": (elided["snapshots_built"], "count", tried),
        "prod.checks_evaluated": (elided["checks_evaluated"], "count", tried),
        "contracts.parse_ms": (_span_ms(tracer, setup_pass, "contracts.parse"), "ms", SETUP_REPEATS),
        "contracts.elaborate_ms": (
            _span_ms(tracer, setup_pass, "contracts.elaborate"), "ms", SETUP_REPEATS),
        "gc.gen0_per_kpkt": median(lambda w, s, g, t: g[0] * 1000 / n, "1/kpkt"),
        "gc.gen2_per_kpkt": median(lambda w, s, g, t: g[2] * 1000 / n, "1/kpkt"),
        "trace.overhead_ratio": median(lambda w, s, g, t: w["traced_dev"] / w["dev"], "ratio"),
        "trace.absent_targets": (len(tracer.absent), "count", 1),
    }
    tracer.write(paths.spans)
    return metrics, gate, tracer.absent
