#!/usr/bin/env python3
"""Where does contract time go?

Benchmarks `mtu-too-big` with contracts on (Development) and off
(Production) and breaks the per-phase cost down. The ingress phase
carries the snapshot build — decoding each header into an object with its
codec, and keeping those objects as the snapshot — so it dominates the
contract overhead even though the egress phase evaluates six checks to
ingress's one. Each phase runs as one function generated from the contract
on its first Development use; the egress one builds no header objects, but
reads the fields its checks name straight from the reply's bytes.
"""

from pktcheck import GeneratorSpec, bench, generate_records
from pktcheck.registry import standard_registry


def main() -> None:
    registry = standard_registry()
    records = generate_records(GeneratorSpec(count=5000, payload_len=1300, seed=2))

    report = bench("mtu-too-big", records, registry, repetitions=3)
    print(f"== bench: {report['packets']} packets x "
          f"{report['repetitions']} repetitions ==")
    for phase, stats in report["phases"].items():
        per_packet = stats["mean_ns"] / report["packets"]
        print(f"  {phase:22s} {per_packet:8.0f} ns/packet "
              f"(stdev {stats['stdev_ns'] / report['packets']:5.0f})")
    on = report["contracts_on_total_ns"]["mean_ns"] / report["packets"]
    off = report["contracts_off_total_ns"]["mean_ns"] / report["packets"]
    share = report["ingress_share_of_contract_overhead"]
    print(f"  contracts on : {on:8.0f} ns/packet")
    print(f"  contracts off: {off:8.0f} ns/packet")
    print(f"  ingress share of contract overhead: {share:.1%}")


if __name__ == "__main__":
    main()
