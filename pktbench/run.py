"""pktcheck benchmark: bare / prod / dev packet rate, latency, set-up time and
peak memory on three traffic mixes, plus a traced per-layer run.

Run from the repository root:

    python3 pktbench/run.py --workload mtu-oversize --seed 1 --seconds 20 --trace 0
    python3 pktbench/run.py --workload all --seed 1 --seconds 20 --trace 1

``--trace 0`` measures the end-to-end metrics, ``--trace 1`` the per-layer
ones (see README.md). One line per metric goes to standard output, with its
unit and sample count, and the last line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. pktcheck is imported from
``src/`` beside this directory; without it the run fails before measuring.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Packets per throughput pass and per traced pass.
PACKETS = 2000
TRACE_PACKETS = 1000


@dataclass
class Paths:
    """Where one run keeps its pcaps (removed afterwards) and its spans."""

    work: Path
    spans: Path
    packets: int = PACKETS
    trace_packets: int = TRACE_PACKETS

    @property
    def input(self) -> Path:
        return self.work / "in.pcap"

    @property
    def rss_input(self) -> Path:
        return self.work / "rss-in.pcap"

    def out(self, name: str) -> Path:
        return self.work / f"out-{name}.pcap"


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    import layers
    import measure

    paths = Paths(
        work=OUT / f"run-{os.getpid()}-{workload.name}",
        spans=OUT / f"spans-{workload.name}.csv",
    )
    paths.work.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            metrics, gate, absent = layers.per_layer(workload, seed, seconds, paths)
            for name in absent:
                print(f"# {workload.name}: traced name absent from the program: {name}")
        else:
            metrics, gate = measure.end_to_end(workload, seed, seconds, paths)
    finally:
        shutil.rmtree(paths.work, ignore_errors=True)

    for name, (value, unit, samples) in metrics.items():
        print(f"{workload.name:13s} {name:42s} {value:14.6g} {unit:10s} n={samples}")
    failed_frac = gate.failed / gate.attempted
    print(f"{workload.name:13s} {'failed_frac':42s} {failed_frac:14.6g} {'ratio':10s} "
          f"n={gate.attempted}")
    return {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="mtu-oversize | mtu-small | srv6-insert | all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "pktcheck" / "__init__.py").is_file():
        print(f"pktbench: pktcheck sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload == "all":
        chosen = list(WORKLOADS.values())
    elif args.workload in WORKLOADS:
        chosen = [WORKLOADS[args.workload]]
    else:
        parser.error(f"unknown workload {args.workload!r} (known: {', '.join(WORKLOADS)}, all)")

    results = {w.name: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in chosen}
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{workload}.{name}": metric
                for workload, r in results.items()
                for name, metric in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
