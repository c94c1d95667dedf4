#!/usr/bin/env python3
"""Contracts end to end: write one, elaborate it, watch it catch a bug.

An NF's contract is plain text with two phases. The ingress phase states
which arriving packets the contract covers (its `when:` guard) and what
the NF assumes about them; the egress phase states what it guarantees
about rewritten ones. Before any traffic flows, elaboration
verifies the header orders against the registry and proves the static
assertions. Per packet (in dev builds only), each phase checks header
order and then evaluates its checks — egress checks can compare against
a snapshot of the packet as it looked on arrival.
"""

from pktcheck import (
    ChainOrderError,
    ElaborationError,
    GeneratorSpec,
    elaborate,
    explain_contract,
    generate_records,
    make_nf,
    parse_contract_spec,
    run_records,
)
from pktcheck.nfs import MTU_TOO_BIG_CONTRACT
from pktcheck.registry import standard_registry


def main() -> None:
    registry = standard_registry()

    print("== the contract, as written ==")
    print(MTU_TOO_BIG_CONTRACT.strip())

    print("\n== the contract, as elaborated ==")
    nf = make_nf("mtu-too-big", registry)
    print(explain_contract(nf.contract))

    print("== a clean run ==")
    records = generate_records(GeneratorSpec(count=3, payload_len=1300, seed=1))
    summary = run_records(nf, records, registry)
    print(f"  {summary.packets_in} packets, {len(summary.violations)} violations, "
          f"{summary.checks_evaluated} checks evaluated, "
          f"{summary.snapshots_built} snapshots built")

    print("\n== the same NF with its IPv6 address swap deleted ==")
    buggy = make_nf("mtu-too-big", registry, omit_ipv6_swap=True)
    summary = run_records(buggy, records, registry)
    for violation in summary.violations:
        print(f"  {violation.text()}")
    print("  -> exactly two per packet, naming the two unswapped fields")

    print("\n== static assertions fail the build, not the packet ==")
    bad_constant = (
        "check(IPV6_MIN_MTU = 1200, ETH_HDR_SIZE = 14) "
        "static: [IPV6_MIN_MTU + ETH_HDR_SIZE == 1294]"
    )
    try:
        elaborate(parse_contract_spec(bad_constant, nf_name="demo"), registry)
    except ElaborationError as exc:
        print(f"  rejected: {exc}")

    print("\n== impossible header orders fail the build too ==")
    misordered = """
    check()
    post { order: [EthHdr => Ipv6Hdr => Icmpv6PktTooBig<Ipv6Hdr> => Ipv6Hdr],
           checks: [(payload_len[Ipv6Hdr], ==, 1240)] }
    """
    try:
        elaborate(parse_contract_spec(misordered, nf_name="demo"), registry)
    except (ChainOrderError, ElaborationError) as exc:
        print(f"  rejected: {exc}")


if __name__ == "__main__":
    main()
