#!/usr/bin/env python3
"""The pipeline and the dev/prod split.

Streams generated traffic through `mtu-too-big` twice — once in
Development mode (contracts on) and once in Production mode (contracts
compiled out) — and shows that production evaluates nothing, builds no
snapshots, and still emits byte-identical output. Also demonstrates the
three violation policies: on undersized packets, which fall outside the
contract's guard and are left alone, and on oversized SRv6 packets, which
are inside it and break the ingress header order.
"""

import tempfile
from pathlib import Path

from pktcheck import (
    BuildMode,
    ContractRuntime,
    GeneratorSpec,
    RunConfig,
    generate_records,
    make_nf,
    pcap_bytes,
    run_pipeline,
    run_records,
)
from pktcheck.registry import standard_registry


def main() -> None:
    registry = standard_registry()
    nf = make_nf("mtu-too-big", registry)
    records = generate_records(GeneratorSpec(count=2000, payload_len=1300, seed=3))

    print("== development vs production over the same 2,000 packets ==")
    dev = run_records(
        nf, records, registry, runtime=ContractRuntime(BuildMode.DEVELOPMENT)
    )
    prod = run_records(
        nf, records, registry, runtime=ContractRuntime(BuildMode.PRODUCTION)
    )
    for label, s in (("dev ", dev), ("prod", prod)):
        print(f"  {label}: snapshots={s.snapshots_built:5d} "
              f"checks={s.checks_evaluated:6d} "
              f"ingress={s.timings['ingress_contract_ns'] / 1e6:7.1f} ms "
              f"egress={s.timings['egress_contract_ns'] / 1e6:6.1f} ms")
    identical = pcap_bytes(dev.out_records) == pcap_bytes(prod.out_records)
    print(f"  output pcaps byte-identical: {identical}")

    print("\n== violation policies ==")
    # undersized packets are outside the guard (payload_len must exceed
    # 1280) and pass under every policy; oversized SRv6 packets are inside
    # it, the ingress walk refuses them where it expects TCP, and each
    # policy reacts differently
    streams = {
        "small tcp6": GeneratorSpec(count=6, payload_len=200, seed=4),
        "big srv6": GeneratorSpec(count=6, template="srv6", payload_len=1300, seed=4),
    }
    for label, spec in streams.items():
        for policy in ("continue", "drop", "abort"):
            with tempfile.TemporaryDirectory() as tmp:
                out = Path(tmp) / "out.pcap"
                summary = run_pipeline(
                    RunConfig(
                        nf_name="mtu-too-big",
                        generator=spec,
                        output_path=str(out),
                        policy=policy,
                    ),
                    registry,
                )
                print(f"  {label:10s} {policy:8s} in={summary.packets_in} "
                      f"out={summary.packets_out} dropped={summary.packets_dropped} "
                      f"violations={len(summary.violations)} "
                      f"aborted={summary.aborted}")


if __name__ == "__main__":
    main()
