"""The order walk: ``parse_chain`` along each catalog order, and the phase
functions generated from the catalog contracts and from hand-built egress
phases that read every field of every codec.

The error table pins the exact ``ChainOrderError`` of every way a packet
can fail the three catalog orders: its arguments, its message and the
``ParseError`` it chains from, and that the generated phases along the
same orders return that error's order violation instead of raising it.
One property compares the walk with a reference written here, which
chains ``Packet.parse_header`` calls with linkage checks; another compares
each generated phase function with ``parse_chain``, ``build_snapshot`` and
``eval_check`` of each check, down to each Violation's texts and rendered
values, refusals included, and what the phase says of its walk, and
checks that every ingress packet the walk accepts re-encodes to its
header bytes, so the snapshot holds the packet's ingress bytes. The
reference decides a ``when:`` guard with ``CompiledCheck.test`` once
``parse_chain`` has walked the last header it reads. A third makes the
same comparison for random well-typed contracts, guards included, over
every order the registry accepts, up to five headers. All run on flipped,
truncated and extended packets, and the third on every cut of each packet
it builds, so that each run of fixed parts that a walk reads at once is
cut at each of its bytes.
"""

import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pktcheck import (
    ChainOrderError,
    Check,
    ContractSpec,
    FieldRef,
    GeneratorSpec,
    Operand,
    OrderElement,
    OrderSpec,
    Packet,
    ParseError,
    PhaseSpec,
    elaborate,
    generate_records,
    make_nf,
    order,
    parse_contract_spec,
    standard_registry,
    verify_order,
)
from pktcheck.engine import (COMPARATORS, OUTSIDE, Source, _refusal, build_snapshot,
                             eval_check)
from pktcheck.headers import HEADER_TYPES
from pktcheck.registry import parse_chain

from oracles import PRECONDITION_CONTRACT

TCP6 = order("EthHdr", "Ipv6Hdr", ("TcpHdr", "Ipv6Hdr"))
PTB = order("EthHdr", "Ipv6Hdr", ("Icmpv6PktTooBig", "Ipv6Hdr"))
SRV6 = order("EthHdr", "Ipv6Hdr", "Srv6RoutingHdr")
ORDERS = (TCP6, PTB, SRV6)

ETH = bytes.fromhex("020000000002020000000001") + struct.pack("!H", 0x86DD)


def _ipv6(payload_len, next_header, version=6):
    return struct.pack("!IHBB", version << 28, payload_len, next_header, 64) + bytes(
        range(32)
    )


def _tcp6(data_offset=5, **ipv6):
    tcp = struct.pack("!HHIIHHHH", 4242, 80, 1, 2, (data_offset << 12) | 0x18, 8192, 0, 0)
    return ETH + _ipv6(len(tcp) + 40, ipv6.pop("next_header", 6), **ipv6) + tcp + bytes(40)


def _ptb(msg_type=2, code=0, body=64, next_header=58):
    icmp = struct.pack("!BBHI", msg_type, code, 0x1234, 1280) + bytes(body)
    return ETH + _ipv6(len(icmp), next_header) + icmp


def _srv6(hdr_ext_len=4, routing_type=4, segments_left=1, last_entry=1, next_header=43,
          segments=2):
    srh = struct.pack(
        "!BBBBBBH", 6, hdr_ext_len, routing_type, segments_left, last_entry, 0, 0
    ) + bytes(16 * segments)
    return ETH + _ipv6(len(srh) + 20, next_header) + srh + bytes(20)


def _walk(packet, spec, registry):
    return parse_chain(packet, verify_order(registry, spec))


def _mismatch(i, prev, link, actual, header, proto):
    return (f"order mismatch at index {i}: {prev} {link}={actual:#x} does not "
            f"announce {header} (protocol {proto:#x})")


def _cannot(i, header, reason):
    return f"order mismatch at index {i}: cannot parse {header}: {reason}"


def _truncated(what, need, offset, have):
    return f"truncated {what}: need {need} bytes at offset {offset}, have {have}"


# (order, packet bytes, index, expected header, message, chains a ParseError)
ERROR_TABLE = [
    # linkage mismatches at index 1 and index 2
    (TCP6, ETH[:12] + b"\x08\x00" + _tcp6()[14:], 1, "Ipv6Hdr",
     _mismatch(1, "EthHdr", "ether_type", 0x800, "Ipv6Hdr", 0x86DD), False),
    (PTB, ETH[:12] + b"\x88\xb5" + _ptb()[14:], 1, "Ipv6Hdr",
     _mismatch(1, "EthHdr", "ether_type", 0x88B5, "Ipv6Hdr", 0x86DD), False),
    (SRV6, ETH[:12] + b"\x00\x00" + _srv6()[14:], 1, "Ipv6Hdr",
     _mismatch(1, "EthHdr", "ether_type", 0, "Ipv6Hdr", 0x86DD), False),
    (TCP6, _tcp6(next_header=17), 2, "TcpHdr",
     _mismatch(2, "Ipv6Hdr", "next_header", 17, "TcpHdr", 6), False),
    (PTB, _tcp6(), 2, "Icmpv6PktTooBig",
     _mismatch(2, "Ipv6Hdr", "next_header", 6, "Icmpv6PktTooBig", 58), False),
    (SRV6, _ptb(), 2, "Srv6RoutingHdr",
     _mismatch(2, "Ipv6Hdr", "next_header", 58, "Srv6RoutingHdr", 43), False),
    # truncation inside each header
    (TCP6, _tcp6()[:9], 0, "EthHdr",
     _cannot(0, "EthHdr", _truncated("Ethernet header", 14, 0, 9)), True),
    (TCP6, b"", 0, "EthHdr",
     _cannot(0, "EthHdr", _truncated("Ethernet header", 14, 0, 0)), True),
    (PTB, _ptb()[:14], 1, "Ipv6Hdr",
     _cannot(1, "Ipv6Hdr", _truncated("IPv6 header", 40, 14, 0)), True),
    (SRV6, _srv6()[:53], 1, "Ipv6Hdr",
     _cannot(1, "Ipv6Hdr", _truncated("IPv6 header", 40, 14, 39)), True),
    (TCP6, _tcp6()[:73], 2, "TcpHdr",
     _cannot(2, "TcpHdr", _truncated("TCP header", 20, 54, 19)), True),
    (TCP6, _tcp6(data_offset=15)[:100], 2, "TcpHdr",
     _cannot(2, "TcpHdr", _truncated("TCP header with options", 60, 54, 46)), True),
    (PTB, _ptb()[:61], 2, "Icmpv6PktTooBig",
     _cannot(2, "Icmpv6PktTooBig",
             _truncated("ICMPv6 Packet Too Big header", 8, 54, 7)), True),
    (SRV6, _srv6()[:60], 2, "Srv6RoutingHdr",
     _cannot(2, "Srv6RoutingHdr", _truncated("SRv6 routing header", 8, 54, 6)), True),
    (SRV6, _srv6()[:80], 2, "Srv6RoutingHdr",
     _cannot(2, "Srv6RoutingHdr",
             _truncated("SRv6 routing header segments", 40, 54, 26)), True),
    # every codec ParseError the three orders reach
    (TCP6, _tcp6(version=4), 1, "Ipv6Hdr",
     _cannot(1, "Ipv6Hdr", "IPv6 version nibble is 4, expected 6"), True),
    (SRV6, _srv6()[:14] + b"\x00" + _srv6()[15:], 1, "Ipv6Hdr",
     _cannot(1, "Ipv6Hdr", "IPv6 version nibble is 0, expected 6"), True),
    (TCP6, _tcp6(data_offset=4), 2, "TcpHdr",
     _cannot(2, "TcpHdr", "TCP data offset 4 below minimum 5"), True),
    (SRV6, _srv6(routing_type=3), 2, "Srv6RoutingHdr",
     _cannot(2, "Srv6RoutingHdr", "routing type 3, expected 4 (SRv6)"), True),
    (SRV6, _srv6(hdr_ext_len=3), 2, "Srv6RoutingHdr",
     _cannot(2, "Srv6RoutingHdr",
             "SRv6 header extension length 3 cannot hold 16-byte segments"), True),
    (SRV6, _srv6(hdr_ext_len=0), 2, "Srv6RoutingHdr",
     _cannot(2, "Srv6RoutingHdr",
             "SRv6 header extension length 0 cannot hold 16-byte segments"), True),
    (SRV6, _srv6(last_entry=2), 2, "Srv6RoutingHdr",
     _cannot(2, "Srv6RoutingHdr", "SRv6 last entry 2 disagrees with 2 segments"), True),
    (SRV6, _srv6(segments_left=3), 2, "Srv6RoutingHdr",
     _cannot(2, "Srv6RoutingHdr", "SRv6 segments left 3 exceeds segment count 2"), True),
    (PTB, _ptb(msg_type=1), 2, "Icmpv6PktTooBig",
     _cannot(2, "Icmpv6PktTooBig",
             "not an ICMPv6 Packet Too Big message: type 1, code 0"), True),
    (PTB, _ptb(code=3), 2, "Icmpv6PktTooBig",
     _cannot(2, "Icmpv6PktTooBig",
             "not an ICMPv6 Packet Too Big message: type 2, code 3"), True),
    (PTB, _ptb(body=1233), 2, "Icmpv6PktTooBig",
     _cannot(2, "Icmpv6PktTooBig",
             "Packet Too Big message of 1241 bytes exceeds the minimum-MTU "
             "reply budget of 1240 bytes"), True),
]


@pytest.mark.parametrize(
    "spec, data, index, expected, message, chained", ERROR_TABLE,
    ids=[f"{i}-{row[3]}" for i, row in enumerate(ERROR_TABLE)],
)
def test_walk_error_of_each_failure(registry, spec, data, index, expected, message,
                                    chained):
    with pytest.raises(ChainOrderError) as excinfo:
        _walk(Packet.from_bytes(data), spec, registry)
    exc = excinfo.value
    assert type(exc) is ChainOrderError
    assert (exc.index, exc.expected, exc.found, exc.reason) == (
        index, expected, None, message
    )
    assert exc.args == (message,) and str(exc) == message
    if chained:
        assert type(exc.__cause__) is ParseError
        assert message.endswith(": " + str(exc.__cause__))
    else:
        assert exc.__cause__ is None
    # the generated phases along the same order return, not raise, that
    # error's order violation, and say that the walk refused the packet
    phase = PhaseSpec(spec, ())
    contract = elaborate(ContractSpec("walk", {}, (), phase, phase), registry)
    for name, refused in (("ingress", None), ("egress", False)):
        (violation,), walked = _generated_phase(contract, name, data, None)
        assert walked is refused
        assert violation == _refusal(exc, "walk", name, INDEX)
        assert (violation.kind, violation.phase, violation.packet_index) == ("order", name, INDEX)
        assert (violation.rhs_value, violation.lhs_value, violation.message) == (
            expected, None, message
        )


CLEAN = [
    (TCP6, _tcp6(), [14, 54, 74]),
    (TCP6, _tcp6(data_offset=8), [14, 54, 86]),
    (PTB, _ptb(), [14, 54, 126]),
    (PTB, _ptb(body=1232), [14, 54, 1294]),
    (SRV6, _srv6(), [14, 54, 94]),
    (SRV6, _srv6(hdr_ext_len=2, last_entry=0, segments=1), [14, 54, 78]),
]


@pytest.mark.parametrize("spec, data, ends", CLEAN, ids=[str(i) for i in range(len(CLEAN))])
def test_walk_accepts_each_clean_packet(registry, spec, data, ends):
    headers, walked_ends = _walk(Packet.from_bytes(data), spec, registry)
    assert [type(h).__name__ for h in headers] == [e.header_type for e in spec]
    assert walked_ends == ends
    assert b"".join(h.emit() for h in headers) == data[: ends[-1]]


# --- the walk against a parse_header reference ------------------------------------


def _reference(packet, spec, registry):
    """``Packet.parse_header`` along ``spec``, cross-checking each linkage
    field before the header it announces."""
    decoded, prev = [], None
    for i, element in enumerate(spec):
        name = element.header_type
        layout = registry.get(name).READ
        proto = layout.proto
        if prev is not None and prev.linkage and proto is not None:
            actual = getattr(decoded[-1], prev.linkage)
            if actual != proto:
                raise ChainOrderError(
                    i, name, None,
                    _mismatch(i, spec.elements[i - 1].header_type, prev.linkage, actual,
                              name, proto),
                )
        try:
            header, _ = packet.parse_header(name)
        except ParseError as exc:
            raise ChainOrderError(i, name, None, _cannot(i, name, exc)) from exc
        decoded.append(header)
        prev = layout
    return decoded, [entry.offset + entry.length for entry in packet.chain]


def _outcome(parse, raw, spec, registry):
    try:
        return "parsed", parse(Packet.from_bytes(raw), spec, registry)
    except ChainOrderError as exc:
        cause = exc.__cause__
        return "error", (type(exc), exc.args, exc.index, exc.expected, exc.found,
                         str(exc), type(cause), str(cause))


BASES = [
    record.data
    for template, lengths in (("tcp6", (60, 1400)), ("srv6", (24, 400)))
    for record in generate_records(
        GeneratorSpec(count=4, template=template, payload_len=lengths, seed=606)
    )
]
#: The linkage and type bytes: ether_type, the IPv6 version nibble and
#: next_header, the SRv6 fixed fields after the IPv6 header and the TCP
#: data offset.
HOT_BYTES = [12, 13, 14, 20, 54, 55, 56, 57, 58, 66, 67]


def _mutated(base, kind, data, span=96):
    raw = bytearray(base)
    if kind == "flip":
        at = st.one_of(st.sampled_from(HOT_BYTES), st.integers(0, span - 1)).filter(
            lambda i: i < len(raw)
        )
        for i, mask in data.draw(st.lists(st.tuples(at, st.integers(1, 255)),
                                          min_size=1, max_size=3)):
            raw[i] ^= mask
    elif kind == "truncate":
        del raw[data.draw(st.integers(0, len(raw) - 1)):]
    else:
        raw += data.draw(st.binary(min_size=1, max_size=64))
    return raw


MUTATIONS = st.sampled_from(("flip", "truncate", "extend"))


@settings(max_examples=400, deadline=None)
@given(base=st.sampled_from(BASES), kind=MUTATIONS, data=st.data())
def test_walk_agrees_with_a_parse_header_reference(registry, base, kind, data):
    raw = _mutated(base, kind, data)
    for spec in ORDERS:
        assert _outcome(_walk, raw, spec, registry) == _outcome(
            _reference, raw, spec, registry
        )


# --- the generated phases against parse_chain and eval_check ----------------------


#: The packet index each phase is run at, so that its Violations carry one.
INDEX = 7


def _refused(exc, nf, phase):
    """What a phase returns for a packet its walk refuses with ``exc``: the
    one order Violation, then None at ingress (no snapshot) and False at
    egress (not walked)."""
    assert type(exc) is ChainOrderError and exc.args == (str(exc),)
    return [_refusal(exc, nf, phase, INDEX)], None if phase == "ingress" else False


def _generated_phase(contract, phase, raw, snapshot):
    """What the generated phase function returns for ``raw``."""
    if phase == "ingress":
        return contract.ingress.run(bytearray(raw), contract.nf_name, INDEX)
    return contract.egress.run(bytearray(raw), snapshot, contract.nf_name, INDEX)


def _reference_phase(contract, phase, raw, snapshot):
    """What ``parse_chain``, ``build_snapshot`` at ingress and ``eval_check``
    of each check say of ``raw``, in the shape of ``_generated_phase``: the
    Violations with their texts and rendered values, then the snapshot at
    ingress and True at egress, or the refusal of ``parse_chain``'s error
    when the walk refuses the packet. At ingress a guard is decided on the
    headers up to the last one it reads, before the rest are walked: a
    packet outside it is ``([], OUTSIDE)``. An ingress packet the walk
    accepts must re-encode to its header bytes, so that the snapshot holds
    exactly what arrived."""
    packet = Packet.from_bytes(raw)
    ingress = phase == "ingress"
    walk = contract.ingress.walk if ingress else contract.egress.walk
    try:
        if ingress and contract.ingress.guard:
            last = max(max(c.lhs_index, *(j for _, _, _, j, _ in c.reads), 0)
                       for c in contract.ingress.guard)
            decoded, _ = parse_chain(packet, walk[:last + 1])
            if any(c.test(decoded, None) is not None for c in contract.ingress.guard):
                return [], OUTSIDE
        decoded, ends = parse_chain(packet, walk)
    except ChainOrderError as exc:
        return _refused(exc, contract.nf_name, phase)
    if ingress:
        assert b"".join(h.emit() for h in decoded) == raw[:ends[-1]]
        snapshot = build_snapshot(decoded)
    failed = [
        violation
        for check in (contract.ingress.compiled if ingress else contract.egress.compiled)
        if (violation := eval_check(check, decoded, snapshot, contract.nf_name, phase, INDEX))
    ]
    return failed, snapshot if ingress else True


#: Every catalog NF variant, each with its own contract.
CATALOG = [
    make_nf(name, standard_registry(), **options)
    for name, options in (
        ("mtu-too-big", {}), ("mtu-too-big", {"omit_ipv6_swap": True}),
        ("srv6-change-pkt", {}),
        ("srv6-change-pkt", {"omit_payload_len_update": True}),
    )
]
_ETH_STEP = ("EthHdr", None, None)
_IPV6_STEP = ("Ipv6Hdr", "ether_type", 0x86DD)
_SRV6_WALK = (_ETH_STEP, _IPV6_STEP, ("Srv6RoutingHdr", "next_header", 43))
#: Each catalog variant's (ingress, egress) walks, as (header type, linkage
#: field, protocol number) per step, by position.
WALKS = [
    ((_ETH_STEP, _IPV6_STEP, ("TcpHdr", "next_header", 6)),
     (_ETH_STEP, _IPV6_STEP, ("Icmpv6PktTooBig", "next_header", 58))),
] * 2 + [(_SRV6_WALK, _SRV6_WALK)] * 2


def test_catalog_walks():
    for nf, walks in zip(CATALOG, WALKS, strict=True):
        phases = (nf.contract.ingress, nf.contract.egress)
        for phase, pinned in zip(phases, walks):
            walk = phase.walk
            assert [(s.header_type, s.linkage, s.proto) for s in walk] == list(pinned)
            assert all(s.codec is HEADER_TYPES[s.header_type] for s in walk)


OVERSIZE = [
    record.data for record in generate_records(
        GeneratorSpec(count=3, template="tcp6", payload_len=(1281, 1400), seed=607)
    )
]
#: The first of them again with the 3 reserved TCP bits set (byte 66 holds
#: the data offset and those bits), which the snapshot must keep too.
OVERSIZE.append(OVERSIZE[0][:66] + bytes([OVERSIZE[0][66] | 0x0E]) + OVERSIZE[0][67:])
#: An oversized SRv6 packet, inside mtu-too-big's guard, whose TCP step the
#: ingress walk then refuses.
OVERSIZE += [record.data for record in generate_records(
    GeneratorSpec(count=1, template="srv6", payload_len=1300, seed=607)
)]


def _phase_cases():
    """(contract, phase, base bytes, snapshot): every catalog ingress phase
    on every base, and every egress phase on each packet its NF rewrote,
    with the snapshot of the packet it came from."""
    cases = []
    for nf in CATALOG:
        contract = nf.contract
        for base in BASES + OVERSIZE:
            cases.append((contract, "ingress", base, None))
            result = nf.apply(Packet.from_bytes(base))
            if not result.dropped and result.packet.data != base:
                decoded, _ = parse_chain(Packet.from_bytes(base), contract.ingress.walk)
                snapshot = build_snapshot(decoded)
                cases.append((contract, "egress", bytes(result.packet.data), snapshot))
    return cases


PHASE_CASES = _phase_cases()


def test_phase_cases_cover_every_catalog_phase():
    covered = {(id(contract), phase) for contract, phase, _, _ in PHASE_CASES}
    assert covered == {(id(nf.contract), phase) for nf in CATALOG
                       for phase in ("ingress", "egress")}


def _every_field_phase(*elements):
    """An egress phase along ``elements`` whose checks read every registry
    attribute of every header: each integer is compared with 0 by ``<``
    and each byte sequence with itself by ``neq``, so every check fails and
    reports the value it read, and a sum per header of several integers
    reads them on the right-hand side."""
    registry = standard_registry()
    spec = order(*elements)
    checks, seen = [], {}
    for element in spec:
        name = element.header_type
        occurrence = seen[name] = seen.get(name, -1) + 1
        ints = []
        for attribute, kind in registry.get(name).READ.kinds().items():
            ref = FieldRef(attribute, name, element.param, occurrence)
            if kind == "bytes":
                checks.append(Check(ref, "neq", Operand.ref(ref)))
            else:
                checks.append(Check(ref, "<", Operand.literal(0)))
                ints.append(ref)
        if len(ints) > 1:
            checks.append(Check(ints[0], "==", Operand(tuple(
                (sign, ref) for sign, ref in zip((1, -1) * len(ints), ints[1:])
            ))))
    return elaborate(ContractSpec("fields", {}, (), None, PhaseSpec(spec, tuple(checks))),
                     registry)


def _eth(rng):
    return rng.randbytes(12) + struct.pack("!H", 0x86DD)


def _ipv6_fields(rng, rest, next_header):
    return struct.pack("!IHBB", (6 << 28) | rng.getrandbits(28), len(rest), next_header,
                       rng.getrandbits(8)) + rng.randbytes(32) + rest


def _tcp_fields(rng, data_offset):
    return struct.pack(
        "!HHIIHHHH", rng.getrandbits(16), rng.getrandbits(16), rng.getrandbits(32),
        rng.getrandbits(32), (data_offset << 12) | rng.getrandbits(12),
        rng.getrandbits(16), rng.getrandbits(16), rng.getrandbits(16),
    ) + rng.randbytes(4 * data_offset - 20) + rng.randbytes(rng.randint(0, 40))


def _srh_fields(rng, next_header, segments, rest):
    return struct.pack(
        "!BBBBBBH", next_header, 2 * segments, 4, rng.randint(0, segments), segments - 1,
        rng.getrandbits(8), rng.getrandbits(16),
    ) + rng.randbytes(16 * segments) + rest


def _ptb_fields(rng, body):
    return struct.pack("!BBHI", 2, 0, rng.getrandbits(16), rng.getrandbits(32)) + (
        rng.randbytes(body)
    )


def _field_cases():
    """(contract, "egress", base bytes, None, span): hand-built egress phases
    that reach every codec's field read, TCP options and a TCP header under
    two SRv6 headers included, each on packets with random field values;
    ``span`` covers each base's header bytes."""
    rng = random.Random(608)
    tcp6 = _every_field_phase("EthHdr", "Ipv6Hdr", ("TcpHdr", "Ipv6Hdr"))
    srv6_tcp = _every_field_phase("EthHdr", "Ipv6Hdr", "Srv6RoutingHdr", "Srv6RoutingHdr",
                                  ("TcpHdr", "Ipv6Hdr"))
    ptb = _every_field_phase("EthHdr", "Ipv6Hdr", ("Icmpv6PktTooBig", "Ipv6Hdr"))
    cases = []
    for data_offset in (5, 6, 15):
        raw = _eth(rng) + _ipv6_fields(rng, _tcp_fields(rng, data_offset), 6)
        cases.append((tcp6, raw, 54 + 4 * data_offset))
        srhs = _srh_fields(rng, 43, 1, _srh_fields(rng, 6, 2, _tcp_fields(rng, data_offset)))
        cases.append((srv6_tcp, _eth(rng) + _ipv6_fields(rng, srhs, 43),
                      54 + 24 + 40 + 4 * data_offset))
    for body in (0, 64, 1232):
        cases.append((ptb, _eth(rng) + _ipv6_fields(rng, _ptb_fields(rng, body), 58), 62))
    return [(contract, "egress", raw, None, span) for contract, raw, span in cases]


FIELD_CASES = _field_cases()


@settings(max_examples=600, deadline=None)
@given(case=st.sampled_from([case + (96,) for case in PHASE_CASES] + FIELD_CASES),
       kind=MUTATIONS, data=st.data())
def test_generated_phase_agrees_with_the_walk_and_each_check(case, kind, data):
    contract, phase, base, snapshot, span = case
    raw = _mutated(base, kind, data, span)
    assert _generated_phase(contract, phase, raw, snapshot) == _reference_phase(
        contract, phase, raw, snapshot
    )


def test_generated_phase_agrees_on_every_unmutated_case():
    for contract, phase, base, snapshot, _ in FIELD_CASES:
        generated = _generated_phase(contract, phase, base, snapshot)
        # each case's walk accepts it, so every check by < or neq fails and
        # reports what it read
        assert {c.index for c in contract.egress.compiled if c.op != "=="} <= {
            violation.check_index for violation in generated[0]
        }
        assert generated == _reference_phase(contract, phase, base, snapshot)
    # no catalog ingress check fails on a packet its walk accepts (the SRv6
    # layout refuses what srv6-change-pkt's two test), so mtu-too-big's
    # guard stated as an ingress check brings the failing ones
    precondition = elaborate(parse_contract_spec(PRECONDITION_CONTRACT, nf_name="mtu-too-big"),
                             standard_registry())
    assert not precondition.ingress.guard
    failing, outcomes = set(), set()
    for contract, phase, base, snapshot in PHASE_CASES + [
        (precondition, "ingress", base, None) for base in BASES
    ]:
        generated = _generated_phase(contract, phase, base, snapshot)
        assert generated == _reference_phase(contract, phase, base, snapshot)
        failed, walked = generated
        if failed and failed[0].kind == "check":  # not a refusal
            failing.add(phase)
        if contract.ingress.guard and phase == "ingress":
            outcomes.add("outside" if walked is OUTSIDE else type(walked).__name__)
    # the cases reach failing checks in both phases, not only passing ones,
    # and packets on both sides of mtu-too-big's guard and refused inside it
    assert failing == {"ingress", "egress"}
    assert outcomes == {"outside", "tuple", "NoneType"}


# --- random contracts against the reference -----------------------------------------


def _accepted_orders(registry, longest=5):
    """Every order of at most ``longest`` elements that ``verify_order``
    accepts, grown element by element: what it refuses, it refuses in every
    longer order too."""
    elements = [OrderElement(name, param)
                for name in HEADER_TYPES for param in (None, *HEADER_TYPES)]
    found, frontier = [], [()]
    for _ in range(longest):
        grown = []
        for prefix in frontier:
            for element in elements:
                try:
                    verify_order(registry, OrderSpec(prefix + (element,)))
                except ChainOrderError:
                    continue
                grown.append(prefix + (element,))
        found += grown
        frontier = grown
    return [OrderSpec(elements) for elements in found]


ACCEPTED_ORDERS = _accepted_orders(standard_registry())
#: Values some generated field always holds (version 6, routing type 4, the
#: protocol numbers and the IPv6 ethertype), so that checks against
#: literals hold as well as fail.
LITERALS = st.sampled_from((0, 2, 4, 6, 43, 58, 64, 0x86DD)) | st.integers(0, 2**32)


def _reads(spec, source):
    """(kind, FieldRef) of every attribute of every header of ``spec``, by
    occurrence, with and without the element's parameter."""
    registry, reads, seen = standard_registry(), [], {}
    for element in spec:
        name = element.header_type
        occurrence = seen[name] = seen.get(name, -1) + 1
        for attribute, kind in registry.get(name).READ.kinds().items():
            for param in {None, element.param}:
                reads.append((kind, FieldRef(attribute, name, param, occurrence, source)))
    return reads


def _random_check(draw, current, operands, constants):
    """A well-typed check: a byte field compared by == or neq with a byte
    field; an int field compared by any comparator with a signed sum of
    literals, constants and int fields, the first term negated or not, or
    with itself plus -1, 0 or 1, so that each comparator meets its boundary.
    Each operand may be the left-hand side itself."""
    kind, lhs = draw(st.sampled_from(current))
    same_kind = st.just(lhs) | st.sampled_from([ref for k, ref in operands if k == kind])
    if kind == "bytes":
        return Check(lhs, draw(st.sampled_from(("==", "neq"))), Operand.ref(draw(same_kind)))
    term = same_kind | LITERALS
    if constants:
        term |= st.sampled_from(sorted(constants))
    terms = draw(
        st.lists(st.tuples(st.sampled_from((1, -1)), term), min_size=1, max_size=3)
        | st.sampled_from([[(1, lhs)], [(1, lhs), (1, 1)], [(1, lhs), (-1, 1)]])
    )
    return Check(lhs, draw(st.sampled_from(sorted(COMPARATORS))), Operand(tuple(terms)))


@st.composite
def _random_contracts(draw):
    """An elaborated contract over two accepted orders: ingress checks and
    the ingress guard, when drawn, read the packet in hand, egress checks
    that packet and the ingress snapshot."""
    ingress = draw(st.sampled_from(ACCEPTED_ORDERS))
    egress = draw(st.sampled_from(ACCEPTED_ORDERS))
    constants = draw(st.dictionaries(st.sampled_from(("A", "B")), LITERALS, max_size=2))
    ingress_reads = _reads(ingress, Source.CURRENT_PACKET)
    egress_reads = _reads(egress, Source.CURRENT_PACKET)
    phases = []
    for order_spec, current, operands in (
        (ingress, ingress_reads, ingress_reads),
        (egress, egress_reads, egress_reads + _reads(ingress, Source.INGRESS_SNAPSHOT)),
    ):
        checks = [_random_check(draw, current, operands, constants)
                  for _ in range(draw(st.integers(1, 4)))]
        phases.append(PhaseSpec(order_spec, tuple(checks)))
    if draw(st.booleans()):
        when = [_random_check(draw, ingress_reads, ingress_reads, constants)
                for _ in range(draw(st.integers(1, 3)))]
        phases[0] = PhaseSpec(ingress, phases[0].checks, when=tuple(when))
    return elaborate(ContractSpec("random", constants, (), *phases), standard_registry())


def _packet_along(rng, spec):
    """Random field values along ``spec``, each header announcing the next,
    then random bytes."""
    rest, proto = rng.randbytes(rng.randint(0, 24)), rng.choice((6, 43, 58, 59))
    for element in reversed(spec.elements):
        name = element.header_type
        if name == "TcpHdr":
            rest, proto = _tcp_fields(rng, rng.choice((5, 6, 15))), 6
        elif name == "Icmpv6PktTooBig":
            rest, proto = _ptb_fields(rng, rng.choice((0, 64))), 58
        elif name == "Srv6RoutingHdr":
            rest, proto = _srh_fields(rng, proto, rng.randint(1, 3), rest), 43
        elif name == "Ipv6Hdr":
            rest = _ipv6_fields(rng, rest, proto)
        else:
            rest = _eth(rng) + rest
    return rest


@settings(max_examples=150, deadline=None)
@given(contract=_random_contracts(), seed=st.integers(0, 2**32),
       kinds=st.tuples(MUTATIONS | st.just("none"), MUTATIONS | st.just("none")),
       data=st.data())
def test_generated_phases_of_random_contracts_agree_with_the_reference(
        contract, seed, kinds, data):
    # the snapshot comes from the ingress packet as built, whichever side of
    # the guard it falls on; each phase then sees it as built or mutated,
    # and ingress answers with its checks' outcome, a refusal or OUTSIDE
    rng = random.Random(seed)
    bases = [_packet_along(rng, contract.ingress.order),
             _packet_along(rng, contract.egress.order)]
    snapshot = build_snapshot(parse_chain(Packet.from_bytes(bases[0]), contract.ingress.walk)[0])
    for phase, base, kind in zip(("ingress", "egress"), bases, kinds):
        raw = base if kind == "none" else _mutated(base, kind, data, len(base))
        assert _generated_phase(contract, phase, raw, snapshot) == _reference_phase(
            contract, phase, raw, snapshot
        )
        # every cut of the packet as built: the buffer ends at each byte of
        # each run of fixed parts, so that each run's fast path and its
        # steps' refusals both meet every boundary
        for cut in range(len(base) + 1):
            assert _generated_phase(contract, phase, base[:cut], snapshot) == _reference_phase(
                contract, phase, base[:cut], snapshot
            )
