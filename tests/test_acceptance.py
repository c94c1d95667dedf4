"""Acceptance gate: one test per shipped criterion.

Each test prints a single ``[PASS]``/``[FAIL]`` line (visible with
``pytest -s tests/test_acceptance.py``) and then asserts, so the suite is
both a human-readable checklist and a hard gate.
"""

import random
import struct
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from pktcheck import (
    BuildMode,
    ChainOrderError,
    ContractRuntime,
    ElaborationError,
    EthHdr,
    GeneratorSpec,
    Icmpv6PktTooBig,
    Ipv6Hdr,
    NetworkFunction,
    PcapRecord,
    Srv6RoutingHdr,
    TcpHdr,
    bench,
    elaborate,
    generate_records,
    internet_checksum,
    make_nf,
    parse_contract_spec,
    pcap_bytes,
    read_pcap,
    run_records,
)
from pktcheck.engine import COMPARATORS
from pktcheck.nfs import send_too_big
from pktcheck.registry import standard_registry

import io

from oracles import build_tcp6_bytes, ones_complement_oracle

_REGISTRY = standard_registry()


def _verdict(number: int, label: str, problems: list[str]) -> None:
    status = "PASS" if not problems else "FAIL"
    print(f"[{status}] criterion {number}: {label}")
    assert not problems, f"criterion {number}: " + "; ".join(problems)


def _expect(problems: list[str], condition: bool, description: str) -> None:
    if not condition:
        problems.append(description)


# --- 1. oversized packet becomes a correct reply, end to end -----------------


def test_criterion_1_oversize_reply_end_to_end():
    problems: list[str] = []
    nf = make_nf("mtu-too-big", _REGISTRY)
    records = generate_records(GeneratorSpec(count=1, payload_len=1300, seed=0))

    started = time.perf_counter()
    summary = run_records(nf, records, _REGISTRY)
    elapsed = time.perf_counter() - started

    _expect(problems, summary.violations == [],
            f"expected zero violations, got {len(summary.violations)}")
    _expect(problems, summary.checks_evaluated == 7,
            f"expected all 7 checks to run, ran {summary.checks_evaluated}")
    _expect(problems, summary.packets_out == 1, "reply packet not emitted")
    out = summary.out_records[0].data
    reply_payload_len = int.from_bytes(out[18:20], "big")
    _expect(problems, reply_payload_len == 1240,
            f"reply payload length {reply_payload_len} != 1240")
    _expect(problems, len(out) == 1294, f"reply frame is {len(out)} bytes")
    _expect(problems, elapsed < 1.0, f"took {elapsed:.3f}s (>= 1s)")
    _verdict(1, "payload 1300 in dev mode: zero violations, reply payload 1240, "
                "< 1 s", problems)


# --- 2. address-swap mutants are caught precisely -----------------------------


def test_criterion_2_swap_mutants_flagged_exactly():
    problems: list[str] = []
    count = 50
    records = generate_records(GeneratorSpec(count=count, payload_len=1300, seed=0))

    baseline = run_records(make_nf("mtu-too-big", _REGISTRY), records, _REGISTRY)
    _expect(problems, baseline.violations == [], "baseline run is not clean")

    no_ip = run_records(
        make_nf("mtu-too-big", _REGISTRY, omit_ipv6_swap=True), records, _REGISTRY
    )
    _expect(problems, len(no_ip.violations) == 2 * count,
            f"IPv6-swap mutant: {len(no_ip.violations)} violations, "
            f"expected {2 * count}")
    _expect(problems,
            {v.lhs for v in no_ip.violations} == {"src[Ipv6Hdr]", "dst[Ipv6Hdr]"},
            f"IPv6-swap mutant named {sorted({v.lhs for v in no_ip.violations})}")
    _expect(problems,
            set(no_ip.violations_by_check) == {"egress#2", "egress#3"},
            f"other checks regressed: {no_ip.violations_by_check}")

    no_eth = run_records(
        make_nf("mtu-too-big", _REGISTRY, omit_eth_swap=True), records, _REGISTRY
    )
    _expect(problems, len(no_eth.violations) == 2 * count,
            f"Ethernet-swap mutant: {len(no_eth.violations)} violations, "
            f"expected {2 * count}")
    _expect(problems,
            {v.lhs for v in no_eth.violations} == {"src[EthHdr]", "dst[EthHdr]"},
            f"Ethernet-swap mutant named {sorted({v.lhs for v in no_eth.violations})}")
    _expect(problems,
            set(no_eth.violations_by_check) == {"egress#4", "egress#5"},
            f"other checks regressed: {no_eth.violations_by_check}")
    _verdict(2, "each omitted swap yields exactly 2 violations per packet, "
                "naming the swapped fields; nothing else regresses", problems)


# --- 3. misordered egress chain is rejected before any packet flows ----------


_MISORDERED_CONTRACT = """
check(IPV6_MIN_MTU = 1280)
pre  { order: [EthHdr => Ipv6Hdr => TcpHdr<Ipv6Hdr>],
       checks: [(payload_len[Ipv6Hdr], >, IPV6_MIN_MTU)] }
post { order: [EthHdr => Ipv6Hdr => Icmpv6PktTooBig<Ipv6Hdr> => Ipv6Hdr],
       checks: [(payload_len[Ipv6Hdr], ==, 1240)] }
"""


def test_criterion_3_bad_order_rejected_before_traffic():
    problems: list[str] = []
    runtime = ContractRuntime()
    records = generate_records(GeneratorSpec(count=5, payload_len=1300, seed=0))
    packets_processed = 0
    error: Exception | None = None

    try:
        spec = parse_contract_spec(_MISORDERED_CONTRACT, nf_name="misordered")
        contract = elaborate(spec, _REGISTRY)
        nf = NetworkFunction(
            name="misordered", transform=send_too_big, contract=contract
        )
        summary = run_records(nf, records, _REGISTRY, runtime=runtime)
        packets_processed = summary.packets_in
    except (ChainOrderError, ElaborationError) as exc:
        error = exc

    _expect(problems, error is not None, "misordered chain was not rejected")
    message = str(error)
    _expect(problems, "Ipv6Hdr" in message and "Icmpv6PktTooBig" in message,
            f"error does not name the adjacent pair: {message!r}")
    _expect(problems, packets_processed == 0,
            f"{packets_processed} packets were processed")
    _expect(problems, runtime.snapshots_built == 0 and runtime.checks_evaluated == 0,
            "contract machinery ran despite the rejection")
    _verdict(3, "Ipv6Hdr-after-Icmpv6PktTooBig order fails at elaboration, "
                "naming the pair, before any packet flows", problems)


# --- 4. constant arithmetic is proven at build time, in both modes -----------


_STATIC_OK = (
    "check(IPV6_MIN_MTU = 1280, ETH_HDR_SIZE = 14) "
    "static: [IPV6_MIN_MTU + ETH_HDR_SIZE == 1294]"
)
_STATIC_BAD = _STATIC_OK.replace("1280", "1200")


def test_criterion_4_static_assertion_both_modes():
    problems: list[str] = []
    for mode in (BuildMode.DEVELOPMENT, BuildMode.PRODUCTION):
        ContractRuntime(mode)  # the intended build mode; elaboration ignores it
        try:
            elaborate(parse_contract_spec(_STATIC_OK, nf_name="ok"), _REGISTRY)
        except ElaborationError as exc:
            problems.append(f"1280+14==1294 rejected in {mode.value}: {exc}")

        try:
            elaborate(parse_contract_spec(_STATIC_BAD, nf_name="bad"), _REGISTRY)
            problems.append(f"1200+14==1294 accepted in {mode.value} mode")
        except ElaborationError as exc:
            message = str(exc)
            _expect(problems, "IPV6_MIN_MTU + ETH_HDR_SIZE == 1294" in message,
                    f"failure does not show the assertion: {message!r}")
    _verdict(4, "IPV6_MIN_MTU+ETH_HDR_SIZE==1294 passes; 1280->1200 fails "
                "elaboration in both build modes", problems)


# --- 5. production elides every dynamic check, output unchanged --------------


def test_criterion_5_production_elision_10k():
    problems: list[str] = []
    nf = make_nf("mtu-too-big", _REGISTRY)
    records = generate_records(GeneratorSpec(count=10_000, payload_len=1300, seed=0))

    dev = run_records(
        nf, records, _REGISTRY, runtime=ContractRuntime(BuildMode.DEVELOPMENT)
    )
    prod = run_records(
        nf, records, _REGISTRY, runtime=ContractRuntime(BuildMode.PRODUCTION)
    )

    _expect(problems, prod.snapshots_built == 0,
            f"production built {prod.snapshots_built} snapshots")
    _expect(problems, prod.checks_evaluated == 0,
            f"production evaluated {prod.checks_evaluated} checks")
    _expect(problems, dev.snapshots_built == 10_000, "dev mode skipped snapshots")
    dev_pcap, prod_pcap = pcap_bytes(dev.out_records), pcap_bytes(prod.out_records)
    _expect(problems, dev_pcap == prod_pcap,
            "dev and prod output pcaps differ")
    _verdict(5, "10,000-packet prod run: snapshots_built == 0, "
                "checks_evaluated == 0, output pcap byte-identical to dev",
             problems)


# --- 6. size consequences tracked against the ingress snapshot ---------------


def test_criterion_6_srv6_consequence_tracking():
    problems: list[str] = []
    count = 200
    records = generate_records(
        GeneratorSpec(count=count, template="srv6", payload_len=(24, 400),
                      seed=20260819)
    )

    summary = run_records(make_nf("srv6-change-pkt", _REGISTRY), records, _REGISTRY)
    _expect(problems, summary.violations == [],
            f"{len(summary.violations)} violations on the correct transform")
    _expect(problems, summary.packets_out == count, "packets were lost")
    _expect(problems, summary.checks_evaluated == count * 6,
            f"expected {count * 6} checks, ran {summary.checks_evaluated}")

    # independent byte-level delta oracle, per packet
    for index, (before, after) in enumerate(
        zip(records, summary.out_records)
    ):
        b, a = before.data, after.data
        payload_delta = (
            int.from_bytes(a[18:20], "big") - int.from_bytes(b[18:20], "big")
        )
        hel_delta = a[55] - b[55]
        last_entry_delta = a[58] - b[58]
        if (payload_delta, hel_delta, last_entry_delta) != (16, 2, 1):
            problems.append(
                f"packet {index}: deltas payload={payload_delta} "
                f"hdr_ext_len={hel_delta} last_entry={last_entry_delta}"
            )
            break

    # every egress check that constrains a consequence field reads the
    # snapshot of the original packet
    contract = make_nf("srv6-change-pkt", _REGISTRY).contract
    snapshot_reads = [
        ref for check in contract.egress.checks
        for ref in check.rhs.field_refs()
    ]
    _expect(problems,
            snapshot_reads and all(r.source.name == "INGRESS_SNAPSHOT"
                                   for r in snapshot_reads),
            "egress checks do not read the ingress snapshot")

    mutant = run_records(
        make_nf("srv6-change-pkt", _REGISTRY, omit_payload_len_update=True),
        records, _REGISTRY,
    )
    flagged = {v.packet_index for v in mutant.violations
               if v.phase == "egress" and v.check_index == 0}
    _expect(problems, flagged == set(range(count)),
            f"stale-length mutant caught on {len(flagged)}/{count} packets")
    _verdict(6, "200 random srv6 packets: +16/+2/+1 deltas verified via "
                "snapshot-based egress checks; stale-length mutant caught on "
                "100% of packets", problems)


# --- 7. ingress dominates contract overhead ----------------------------------


def test_criterion_7_ingress_share_of_overhead():
    problems: list[str] = []
    records = generate_records(GeneratorSpec(count=10_000, payload_len=1300, seed=0))
    report = bench("mtu-too-big", records, _REGISTRY, repetitions=1)
    share = report["ingress_share_of_contract_overhead"]
    _expect(problems, report["packets"] == 10_000, "wrong packet count")
    _expect(problems, share > 0.5,
            f"ingress share is {share:.1%}, expected > 50%")
    _verdict(7, f"bench over 10,000 packets: ingress share of contract "
                f"overhead = {share:.1%} (> 50%)", problems)


# --- 8. checksum equals an independent accumulator ---------------------------


def test_criterion_8_checksum_oracle_equivalence():
    problems: list[str] = []
    rng = random.Random(0x1071)
    for index in range(1000):
        buf = rng.randbytes(rng.randint(0, 1500))
        ours, oracle = internet_checksum(buf), ones_complement_oracle(buf)
        if ours != oracle:
            problems.append(
                f"buffer {index} ({len(buf)} bytes): 0x{ours:04X} != 0x{oracle:04X}"
            )
            break
    worked = internet_checksum(bytes.fromhex("0001f203f4f5f6f7"))
    _expect(problems, worked == 0x220D,
            f"worked example yields 0x{worked:04X}, expected 0x220D")
    _verdict(8, "agrees with a brute-force one's-complement accumulator on "
                "1,000 random buffers; worked example = 0x220D", problems)


# --- 9. five property suites, >= 500 randomized cases each -------------------


_PROPERTY_SETTINGS = settings(max_examples=500, deadline=None, derandomize=True)

_macs = st.binary(min_size=6, max_size=6)
_addrs = st.binary(min_size=16, max_size=16)
_u8 = st.integers(0, 0xFF)
_u16 = st.integers(0, 0xFFFF)
_u20 = st.integers(0, 0xFFFFF)
_u32 = st.integers(0, 0xFFFFFFFF)


@st.composite
def _tcp_headers(draw):
    options = draw(st.binary(max_size=40).filter(lambda b: len(b) % 4 == 0))
    return TcpHdr(
        src_port=draw(_u16), dst_port=draw(_u16), seq=draw(_u32), ack=draw(_u32),
        data_offset=5 + len(options) // 4, flags=draw(st.integers(0, 0x1FF)),
        window=draw(_u16), checksum=draw(_u16), urgent_ptr=draw(_u16),
        options=options,
    )


@st.composite
def _srv6_headers(draw):
    segments = draw(st.lists(_addrs, min_size=1, max_size=5))
    return Srv6RoutingHdr(
        next_header=draw(_u8),
        segments_left=draw(st.integers(0, len(segments))),
        segments=b"".join(segments),
        flags=draw(_u8),
        tag=draw(_u16),
    )


_any_header = st.one_of(
    st.builds(EthHdr, dst=_macs, src=_macs, ether_type=_u16),
    st.builds(
        Ipv6Hdr, src=_addrs, dst=_addrs, payload_len=_u16, next_header=_u8,
        hop_limit=_u8, traffic_class=_u8, flow_label=_u20,
    ),
    _tcp_headers(),
    st.builds(
        Icmpv6PktTooBig, checksum=_u16, mtu=_u32,
        invoking_packet=st.binary(max_size=1232),
    ),
    _srv6_headers(),
)

_record_lists = st.lists(
    st.builds(
        PcapRecord,
        data=st.binary(max_size=120),
        ts_sec=_u32,
        ts_usec=st.integers(0, 999_999),
    ),
    max_size=6,
)


@_PROPERTY_SETTINGS
@given(records=_record_lists)
def _suite_pcap_round_trip(records):
    back = read_pcap(io.BytesIO(pcap_bytes(records)))
    assert [(r.data, r.ts_sec, r.ts_usec) for r in back] == [
        (r.data, r.ts_sec, r.ts_usec) for r in records
    ]


@_PROPERTY_SETTINGS
@given(header=_any_header)
def _suite_emit_parse_identity(header):
    raw = header.emit()
    parsed, consumed = type(header).parse(raw)
    assert parsed == header
    assert consumed == len(raw)


@_PROPERTY_SETTINGS
@given(a=st.integers(-(2**40), 2**40), b=st.integers(-(2**40), 2**40))
def _suite_comparator_sanity(a, b):
    assert COMPARATORS["=="](a, b) == (a == b)
    assert COMPARATORS["neq"](a, b) == (a != b)
    assert COMPARATORS["<"](a, b) == (a < b)
    assert COMPARATORS["<="](a, b) == (a <= b)
    assert COMPARATORS[">"](a, b) == (a > b)
    assert COMPARATORS[">="](a, b) == (a >= b)
    assert COMPARATORS["neq"](a, b) == (not COMPARATORS["=="](a, b))
    assert COMPARATORS["<="](a, b) == (COMPARATORS["<"](a, b) or a == b)
    assert COMPARATORS[">="](a, b) == (COMPARATORS[">"](a, b) or a == b)
    assert sum((a < b, a == b, a > b)) == 1


@_PROPERTY_SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(1, 3),
    payload=st.tuples(st.integers(60, 1500), st.integers(60, 1500)),
)
def _suite_non_interference(seed, count, payload):
    lo, hi = min(payload), max(payload)
    records = generate_records(
        GeneratorSpec(count=count, payload_len=(lo, hi), seed=seed)
    )
    nf = make_nf("mtu-too-big", _REGISTRY)
    dev = run_records(
        nf, records, _REGISTRY, runtime=ContractRuntime(BuildMode.DEVELOPMENT)
    )
    prod = run_records(
        nf, records, _REGISTRY, runtime=ContractRuntime(BuildMode.PRODUCTION)
    )
    assert pcap_bytes(dev.out_records) == pcap_bytes(prod.out_records)
    assert (dev.packets_in, dev.packets_out, dev.packets_dropped) == (
        prod.packets_in, prod.packets_out, prod.packets_dropped
    )


@_PROPERTY_SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(0, 4),
    payload=st.tuples(st.integers(60, 1500), st.integers(60, 1500)),
    policy=st.sampled_from(["continue", "drop", "abort"]),
    omit_ipv6=st.booleans(),
)
def _suite_summary_conservation(seed, count, payload, policy, omit_ipv6):
    lo, hi = min(payload), max(payload)
    records = generate_records(
        GeneratorSpec(count=count, payload_len=(lo, hi), seed=seed)
    )
    nf = make_nf("mtu-too-big", _REGISTRY, omit_ipv6_swap=omit_ipv6)
    summary = run_records(nf, records, _REGISTRY, policy=policy)
    assert summary.packets_in == summary.packets_out + summary.packets_dropped
    assert sum(summary.violations_by_check.values()) == len(summary.violations)
    if not summary.aborted:
        assert summary.packets_in == count


def test_criterion_9_property_suites():
    problems: list[str] = []
    suites = [
        ("pcap round-trip identity", _suite_pcap_round_trip),
        ("header emit/parse identity", _suite_emit_parse_identity),
        ("comparator sanity", _suite_comparator_sanity),
        ("non-interference of contracts", _suite_non_interference),
        ("summary conservation", _suite_summary_conservation),
    ]
    for label, suite in suites:
        try:
            suite()
        except Exception as exc:  # report which suite fell over, then fail
            problems.append(f"{label}: {type(exc).__name__}: {exc}")
    _verdict(9, "pcap round-trip, emit/parse identity, comparator sanity, "
                "non-interference, summary conservation "
                "(500 randomized cases each)", problems)
