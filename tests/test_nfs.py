import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pktcheck import (
    ConfigError,
    EmitError,
    GeneratorSpec,
    Packet,
    Srv6RoutingHdr,
    generate_records,
    internet_checksum,
    make_nf,
    order,
    verify_order,
)
from pktcheck import headers, nfs
from pktcheck.contracts import elaborate, explain_contract
from pktcheck.engine import OUTSIDE
from pktcheck.headers import EthHdr, Ipv6Hdr
from pktcheck.nfs import (
    CATALOG,
    DEFAULT_SEGMENT,
    MAX_SRV6_SEGMENTS,
    send_too_big,
    srv6_add_segment,
)
from pktcheck.pcap import PcapRecord
from pktcheck.pipeline import run_records
from pktcheck.registry import parse_chain

from oracles import (
    build_tcp6_bytes,
    ones_complement_oracle,
    parse_eth,
    parse_ipv6,
    parse_srv6,
    parse_tcp,
    reference_send_too_big,
)
from test_fuzz import CLEAN, MUTANTS

import builtins
import re
import struct


def _srv6_bytes(n_segments=2, payload=b"", segments_left=1):
    srh = Srv6RoutingHdr(
        next_header=59,
        segments_left=segments_left,
        segments=b"".join(bytes([i]) * 16 for i in range(1, n_segments + 1)),
    )
    body = srh.emit() + payload
    ipv6 = Ipv6Hdr(
        src=bytes(range(16)), dst=bytes(range(16, 32)),
        payload_len=len(body), next_header=43, hop_limit=64,
    )
    eth = EthHdr(
        dst=bytes.fromhex("020000000002"), src=bytes.fromhex("020000000001"),
        ether_type=0x86DD,
    )
    return eth.emit() + ipv6.emit() + body


# --- send_too_big ---------------------------------------------------------------


def test_oversized_packet_becomes_icmpv6_reply(registry):
    original = build_tcp6_bytes(payload_len=1300)
    result = send_too_big(Packet.from_bytes(original))
    out = result.packet
    assert out.data != original
    reply = order("EthHdr", "Ipv6Hdr", ("Icmpv6PktTooBig", "Ipv6Hdr"))
    (eth, ipv6, icmp), _ = parse_chain(out, verify_order(registry, reply))
    assert eth.dst == original[6:12] and eth.src == original[0:6]
    assert ipv6.src == original[38:54] and ipv6.dst == original[22:38]
    assert ipv6.payload_len == 1240
    assert ipv6.next_header == 58
    assert ipv6.hop_limit == 64
    assert icmp.msg_type == 2 and icmp.code == 0
    assert icmp.mtu == 1280
    assert len(out.data) == 14 + 40 + 1240 == 1294


def test_reply_carries_truncated_original(registry):
    original = build_tcp6_bytes(payload_len=1300)
    result = send_too_big(Packet.from_bytes(original))
    result.packet.parse_header("EthHdr")
    result.packet.parse_header("Ipv6Hdr")
    icmp, _ = result.packet.parse_header("Icmpv6PktTooBig")
    assert icmp.invoking_packet == original[14 : 14 + 1232]


def test_reply_checksum_verifies_against_pseudo_header():
    original = build_tcp6_bytes(payload_len=1300)
    out = bytes(send_too_big(Packet.from_bytes(original)).packet.data)
    src, dst = out[22:38], out[38:54]
    body = out[54:]
    pseudo = src + dst + struct.pack("!I3xB", len(body), 58)
    # a correct checksum makes the whole covered span sum to zero
    assert internet_checksum(pseudo + body) == 0
    assert ones_complement_oracle(pseudo + body) == 0


def test_threshold_is_strict():
    at_limit = Packet.from_bytes(build_tcp6_bytes(payload_len=1280))
    assert send_too_big(at_limit).packet is at_limit

    above = build_tcp6_bytes(payload_len=1281)
    assert send_too_big(Packet.from_bytes(above)).packet.data != above


def test_non_tcp_packets_pass_through():
    srv6 = Packet.from_bytes(_srv6_bytes())
    assert send_too_big(srv6).packet is srv6

    not_ipv6 = bytearray(build_tcp6_bytes(payload_len=1300))
    not_ipv6[12:14] = b"\x08\x00"
    not_ipv6 = Packet.from_bytes(bytes(not_ipv6))
    assert send_too_big(not_ipv6).packet is not_ipv6

    truncated = Packet.from_bytes(build_tcp6_bytes(payload_len=1300)[:40])
    assert send_too_big(truncated).packet is truncated


_LENGTHS = st.sampled_from([20, 100, 1260, 1280, 1281, 1300]) | st.integers(20, 1500)


@st.composite
def _mutated_tcp6(draw):
    """A tcp6 frame of any payload length with, optionally, a rewritten
    TCP data offset, a claimed IPv6 payload length, a few header bytes
    overwritten and a truncation."""
    data = bytearray(build_tcp6_bytes(payload_len=draw(_LENGTHS)))
    if draw(st.booleans()):
        # below 5 refuses the TCP header; above 5 claims options
        data[66] = draw(st.integers(0, 15)) << 4 | data[66] & 0x0F
    if draw(st.booleans()):
        claimed = draw(st.sampled_from([1280, 1281]) | st.integers(0, 0xFFFF))
        data[18:20] = claimed.to_bytes(2, "big")
    for _ in range(draw(st.integers(0, 3))):
        data[draw(st.integers(0, min(79, len(data) - 1)))] = draw(st.integers(0, 255))
    if draw(st.booleans()):
        del data[draw(st.integers(0, len(data))):]
    return bytes(data)


def _bad_tcp_offset(payload_len):
    data = bytearray(build_tcp6_bytes(payload_len=payload_len))
    data[66] = 4 << 4 | data[66] & 0x0F  # TCP data offset below 5
    return bytes(data)


@settings(max_examples=400, deadline=None)
@example(data=_bad_tcp_offset(1280), omit_ipv6_swap=False, omit_eth_swap=False)
@example(data=_bad_tcp_offset(1281), omit_ipv6_swap=False, omit_eth_swap=False)
@example(data=build_tcp6_bytes(payload_len=1300)[:60], omit_ipv6_swap=False,
         omit_eth_swap=False)
@example(data=build_tcp6_bytes(payload_len=1300), omit_ipv6_swap=True,
         omit_eth_swap=False)
@given(
    data=st.binary(max_size=120) | _mutated_tcp6(),
    omit_ipv6_swap=st.booleans(),
    omit_eth_swap=st.booleans(),
)
def test_pass_through_decided_first_matches_the_full_decode(
    data, omit_ipv6_swap, omit_eth_swap
):
    # send_too_big settles pass-through before it decodes TCP; the reference
    # decodes all three headers first, so any malformed TCP header, whatever
    # the payload length, must give the same outcome under both orders
    flags = {"omit_ipv6_swap": omit_ipv6_swap, "omit_eth_swap": omit_eth_swap}
    packet, reference_input = Packet.from_bytes(data), Packet.from_bytes(data)
    got = send_too_big(packet, **flags)
    want = reference_send_too_big(reference_input, **flags)
    assert (got.packet is packet, got.drop_reason) == (
        want.packet is reference_input, want.drop_reason
    )
    assert bytes(got.packet.data) == bytes(want.packet.data)
    # a pass-through returns its input, and a rewrite new bytes, so the
    # checked loop's byte comparison finds exactly the rewrites
    assert (got.packet is packet) == (got.packet.data == data)


def test_transform_is_deterministic():
    original = build_tcp6_bytes(payload_len=1350)
    first = send_too_big(Packet.from_bytes(original))
    second = send_too_big(Packet.from_bytes(original))
    assert bytes(first.packet.data) == bytes(second.packet.data)


def test_swap_omission_changes_only_addresses():
    original = build_tcp6_bytes(payload_len=1300)
    good = bytes(send_too_big(Packet.from_bytes(original)).packet.data)
    no_ip = bytes(
        send_too_big(Packet.from_bytes(original), omit_ipv6_swap=True).packet.data
    )
    no_eth = bytes(
        send_too_big(Packet.from_bytes(original), omit_eth_swap=True).packet.data
    )
    # the unswapped variants differ from the correct output only in the
    # address fields; in particular the checksum bytes are identical,
    # because a one's-complement sum is insensitive to the src/dst swap
    assert no_ip[54:58] == good[54:58]
    assert no_ip[22:54] == good[38:54] + good[22:38]
    assert no_eth[0:12] == good[6:12] + good[0:6]
    assert no_eth[12:] == good[12:]


# --- srv6_add_segment --------------------------------------------------------------


def test_segment_append_updates_dependent_fields():
    original = _srv6_bytes(n_segments=2, payload=b"\xaa" * 30)
    result = srv6_add_segment(Packet.from_bytes(original))
    out = result.packet
    assert len(out.data) == len(original) + 16

    ipv6, _ = Ipv6Hdr.parse(out.data, 14)
    srh, srh_size = Srv6RoutingHdr.parse(out.data, 54)
    before_ipv6, _ = Ipv6Hdr.parse(original, 14)
    before_srh, _ = Srv6RoutingHdr.parse(original, 54)

    assert ipv6.payload_len == before_ipv6.payload_len + 16
    assert srh.hdr_ext_len == before_srh.hdr_ext_len + 2
    assert srh.last_entry == before_srh.last_entry + 1
    assert srh.segments_left == before_srh.segments_left
    assert srh.segments[:-16] == before_srh.segments
    assert srh.segments[-16:] == DEFAULT_SEGMENT
    assert out.data[54 + srh_size :] == b"\xaa" * 30  # trailing bytes untouched


def test_full_segment_list_drops_with_reason():
    packet = Packet.from_bytes(_srv6_bytes(n_segments=MAX_SRV6_SEGMENTS))
    result = srv6_add_segment(packet)
    assert result.dropped
    assert result.packet is None
    assert "full" in result.drop_reason


def test_segment_limit_comes_from_the_layout():
    # hdr_ext_len counts 8-byte units, two per segment, in its declared width
    widths = {name: bits for name, bits, _, _ in Srv6RoutingHdr.READ.wire()}
    assert widths["hdr_ext_len"] == 8
    assert MAX_SRV6_SEGMENTS == ((1 << widths["hdr_ext_len"]) - 1) // 2 == 127
    assert headers.MAX_SRV6_SEGMENTS is MAX_SRV6_SEGMENTS
    full = Srv6RoutingHdr(next_header=59, segments_left=0,
                          segments=b"".join(bytes([i]) * 16 for i in range(MAX_SRV6_SEGMENTS)))
    assert Srv6RoutingHdr.parse(full.emit()) == (full, 8 + 16 * MAX_SRV6_SEGMENTS)
    full.segments += bytes(16)
    with pytest.raises(EmitError, match="hdr_ext_len out of range for 8-bit field: 256"):
        full.emit()


def test_payload_length_overflow_drops_with_reason(registry):
    # a hostile IPv6 payload length near 0xFFFF has no room for 16 more
    # bytes; the transform drops the packet instead of raising EmitError
    raw = bytearray(_srv6_bytes())
    raw[18:20] = b"\xff\xf8"
    result = srv6_add_segment(Packet.from_bytes(bytes(raw)))
    assert result.dropped
    assert result.drop_reason == (
        "IPv6 payload length 65528 cannot grow by 16 bytes within its 16-bit field"
    )
    stale = srv6_add_segment(
        Packet.from_bytes(bytes(raw)), omit_payload_len_update=True
    )
    assert stale.packet.data != raw
    summary = run_records(
        make_nf("srv6-change-pkt", registry), [PcapRecord(data=bytes(raw))], registry
    )
    assert (summary.packets_out, summary.packets_dropped) == (0, 1)


def test_stale_length_mutant_leaves_payload_len(registry):
    original = _srv6_bytes(n_segments=3)
    out = srv6_add_segment(
        Packet.from_bytes(original), omit_payload_len_update=True
    ).packet
    out.parse_header("EthHdr")
    ipv6, _ = out.parse_header("Ipv6Hdr")
    before_ipv6, _ = Ipv6Hdr.parse(original, 14)
    assert ipv6.payload_len == before_ipv6.payload_len  # stale on purpose


def test_srv6_passes_through_foreign_packets():
    tcp6 = Packet.from_bytes(build_tcp6_bytes(payload_len=100))
    assert srv6_add_segment(tcp6).packet is tcp6


def test_output_reparses_cleanly(registry):
    packet = Packet.from_bytes(_srv6_bytes(n_segments=4, payload=b"xyz"))
    out = srv6_add_segment(packet).packet
    srv6 = order("EthHdr", "Ipv6Hdr", "Srv6RoutingHdr")
    _, ends = parse_chain(out, verify_order(registry, srv6))
    assert ends == [14, 54, 54 + 8 + 16 * 5]
    assert out.data[ends[-1] :] == b"xyz"


# --- the generated readers ------------------------------------------------------
#
# Each NF reads its fields through a reader generated at import from the
# codecs' layout steps. The hand-written parsers of tests/oracles.py, with
# each linkage cross-check spelled out, are what they are held to.


def _reference_l3(data):
    """Ethernet, its linkage to IPv6 and IPv6 by the hand-written parsers:
    both headers and the IPv6 header's end, or None where any refuses."""
    try:
        eth, at = parse_eth(data)
        if eth.ether_type != 0x86DD:
            return None
        ipv6, size = parse_ipv6(data, at)
    except headers.ParseError:
        return None
    return eth, ipv6, at + size


def _reference_read_ipv6(data):
    if (l3 := _reference_l3(data)) is None:
        return None
    eth, ipv6, end = l3
    return eth.dst, eth.src, ipv6.src, ipv6.dst, ipv6.payload_len, ipv6.next_header, end


def _reference_accept_tcp(data, at, next_header):
    if next_header != 6:
        return None
    try:
        _, size = parse_tcp(data, at)
    except headers.ParseError:
        return None
    return (at + size,)


def _reference_read_srv6(data):
    if (l3 := _reference_l3(data)) is None or l3[1].next_header != 43:
        return None
    _, ipv6, at = l3
    try:
        srh, size = parse_srv6(data, at)
    except headers.ParseError:
        return None
    return (ipv6.src, ipv6.dst, ipv6.payload_len, ipv6.next_header, ipv6.hop_limit,
            ipv6.traffic_class, ipv6.flow_label, srh.next_header, srh.segments_left,
            srh.segments, srh.flags, srh.tag, at + size)


def _readers_agree(data):
    """Run each reader on ``data`` (none may raise) and assert it returns
    what the reference does; return which of them accepted it."""
    got = nfs._READ_IPV6(data)
    assert got == _reference_read_ipv6(data)
    accepted = {"ipv6": got is not None}
    if got is not None:
        *_, next_header, end = got
        for proto in {next_header, 6}:
            tcp = nfs._ACCEPT_TCP(data, end, proto)
            assert tcp == _reference_accept_tcp(data, end, proto)
            accepted["tcp"] = accepted.get("tcp", False) or tcp is not None
    srv6 = nfs._READ_SRV6(data)
    assert srv6 == _reference_read_srv6(data)
    accepted["srv6"] = srv6 is not None
    return accepted


#: Frames the mutations start from: tcp6 with and without options, srv6 of
#: one to three segments with and without a payload.
_FRAMES = [build_tcp6_bytes(payload_len=n) for n in (20, 100, 1300)] + [
    _srv6_bytes(n_segments=n, payload=payload)
    for n in (1, 3) for payload in (b"", b"tail")
]
_FRAMES.append(_FRAMES[1][:66] + bytes([0x70]) + _FRAMES[1][67:])  # 8 bytes of TCP options


@st.composite
def _mutated_frame(draw):
    """A frame with up to 3 header bytes flipped, then cut or extended."""
    data = bytearray(draw(st.sampled_from(_FRAMES)))
    for _ in range(draw(st.integers(0, 3))):
        data[draw(st.integers(0, min(95, len(data) - 1)))] ^= draw(st.integers(1, 255))
    end = draw(st.sampled_from(("keep", "cut", "extend")))
    if end == "cut":
        del data[draw(st.integers(0, len(data))):]
    elif end == "extend":
        data += draw(st.binary(min_size=1, max_size=64))
    return bytes(data)


def _with(data, at, value):
    return data[:at] + bytes([value]) + data[at + 1:]


@settings(max_examples=300, deadline=None)
@example(data=_with(_FRAMES[0], 12, 0x08))  # not the IPv6 ethertype
@example(data=_with(_FRAMES[0], 14, 0x40))  # IPv6 version 4
@example(data=_with(_FRAMES[0], 66, 0x40))  # TCP data offset 4
@example(data=_FRAMES[-1][:70])  # cut inside the TCP options
@example(data=_with(_FRAMES[3], 56, 3))  # routing type 3
@example(data=_with(_FRAMES[3], 55, 3))  # odd extension length
@example(data=_with(_FRAMES[3], 58, 1))  # last entry disagrees
@example(data=_with(_FRAMES[3], 57, 2))  # segments left past the count
@example(data=_FRAMES[3][:70])  # cut inside the segment list
@given(data=st.binary(max_size=140) | _mutated_frame())
def test_readers_accept_what_the_reference_chain_accepts(data):
    _readers_agree(data)


def test_readers_agree_on_every_cut_of_each_frame():
    # the buffer ends at each byte of each run of fixed parts, so that each
    # run's bounds test and condition both meet every boundary
    for frame in _FRAMES:
        for cut in range(len(frame) + 1):
            _readers_agree(frame[:cut])


def test_readers_agree_with_the_reference_over_the_fuzz_traffic():
    outcomes = {}
    for record in MUTANTS + CLEAN:
        for reader, accepted in _readers_agree(record.data).items():
            outcomes.setdefault(reader, set()).add(accepted)
    # every reader both accepts and refuses some of this traffic
    assert outcomes == {reader: {True, False} for reader in ("ipv6", "tcp", "srv6")}


# --- the fast path ------------------------------------------------------------------
#
# A generated walk reads each run of two or more fixed parts with one
# ``unpack_from`` of the run's joined Struct, ``unpacka_b`` in its globals
# for steps a to b; a step's own ``unpackk`` runs in a run of one step, or
# in a phase for a packet that the run's condition refuses. A reader
# returns None there at once.


def _unpack_calls(monkeypatch, functions):
    """Wrap each ``unpack_from`` in the globals of ``functions``, by label,
    and return the list of their calls as (label, global, bytes read)."""
    calls = []
    for label, function in functions.items():
        for name, unpack in list(function.__globals__.items()):
            if re.fullmatch(r"unpack\d+(_\d+)?", name):
                def counted(data, at, label=label, name=name, unpack=unpack):
                    calls.append((label, name, unpack.__self__.size))
                    return unpack(data, at)

                monkeypatch.setitem(function.__globals__, name, counted)
    return calls


def _in_a_run(function, name):
    """Whether ``name`` is the ``unpack_from`` of a step inside a run of two
    or more steps of ``function``."""
    runs = [tuple(map(int, m.groups())) for g in function.__globals__
            if (m := re.fullmatch(r"unpack(\d+)_(\d+)", g))]
    step = re.fullmatch(r"unpack(\d+)", name)
    return step is not None and any(a <= int(step[1]) <= b for a, b in runs)


def test_clean_traffic_takes_every_fast_path(registry, monkeypatch):
    nfs_built = {name: make_nf(name, registry) for name in ("mtu-too-big", "srv6-change-pkt")}
    functions = {"read ipv6": nfs._READ_IPV6, "accept tcp": nfs._ACCEPT_TCP,
                 "read srv6": nfs._READ_SRV6}
    for name, nf in nfs_built.items():
        functions[f"{name} ingress"] = nf.contract.ingress.run
        functions[f"{name} egress"] = nf.contract.egress.run
    calls = _unpack_calls(monkeypatch, functions)
    small = generate_records(GeneratorSpec(count=20, template="tcp6", payload_len=(20, 200),
                                           seed=41))
    for name, records in (("mtu-too-big", CLEAN + small), ("srv6-change-pkt", CLEAN[40:])):
        summary = run_records(nfs_built[name], records, registry)
        assert summary.violations == [] and summary.packets_out == len(records)
    # every reader and phase read, each run with its one unpack_from, and no
    # step of a run on its own
    assert {label for label, _, _ in calls} == set(functions)
    assert [call for call in calls if _in_a_run(functions[call[0]], call[1])] == []
    runs = {(label, name, size) for label, name, size in calls if "_" in name}
    assert runs == {
        ("read ipv6", "unpack0_1", 54), ("read srv6", "unpack0_2", 62),
        ("mtu-too-big ingress", "unpack0_1", 54), ("mtu-too-big egress", "unpack0_2", 62),
        ("srv6-change-pkt ingress", "unpack0_2", 62), ("srv6-change-pkt egress", "unpack0_2", 62),
    }


def test_a_packet_outside_the_guard_reads_one_run_and_no_tcp(registry, monkeypatch):
    nf = make_nf("mtu-too-big", registry)
    ingress = nf.contract.ingress.run
    calls = _unpack_calls(monkeypatch, {"ingress": ingress, "read ipv6": nfs._READ_IPV6,
                                        "accept tcp": nfs._ACCEPT_TCP})
    packet = Packet.from_bytes(build_tcp6_bytes(payload_len=100))
    assert ingress(packet.data, nf.name, 0) == ([], OUTSIDE)
    assert nf.apply(packet).packet is packet
    assert calls == [("ingress", "unpack0_1", 54), ("read ipv6", "unpack0_1", 54)]


def test_pass_through_frames_make_at_most_one_read_per_reader(registry, monkeypatch):
    # a frame a reader refuses costs it one run's read at most: a tcp6 frame
    # through srv6-change-pkt, refused at the routing header's linkage, and
    # a non-IPv6 one through mtu-too-big make no read of a single step
    srv6, mtu = make_nf("srv6-change-pkt", registry), make_nf("mtu-too-big", registry)
    calls = _unpack_calls(monkeypatch, {"read ipv6": nfs._READ_IPV6, "accept tcp": nfs._ACCEPT_TCP,
                                        "read srv6": nfs._READ_SRV6})
    tcp6 = build_tcp6_bytes(payload_len=100)
    for nf, data in ((srv6, tcp6), (mtu, _with(tcp6, 12, 0x08)), (mtu, tcp6[:42])):
        packet = Packet.from_bytes(data)
        assert nf.apply(packet).packet is packet
    assert calls == [("read srv6", "unpack0_2", 62), ("read ipv6", "unpack0_1", 54)]


def test_make_nf_generates_nothing(registry, monkeypatch):
    # the readers are generated at import, and every NF built reads
    # through the same ones, so make_nf compiles no source
    assert nfs._READ_IPV6.__code__.co_filename == "<walk reader>"
    compiled, reads = [], []
    real_compile, real_read = builtins.compile, nfs._READ_IPV6
    monkeypatch.setattr(builtins, "compile", lambda *a, **k: compiled.append(a) or
                        real_compile(*a, **k))
    monkeypatch.setattr(nfs, "_READ_IPV6", lambda data: reads.append(data) or real_read(data))
    nfs_built = [make_nf("mtu-too-big", registry), make_nf("mtu-too-big", registry,
                                                           omit_eth_swap=True)]
    assert compiled == []
    packet = Packet.from_bytes(build_tcp6_bytes(payload_len=1300))
    for nf in nfs_built:
        assert nf.apply(packet).packet.data != packet.data
    assert reads == [packet.data, packet.data]


# --- catalog ------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(nfs.CATALOG))
def test_make_nf_defaults_to_the_standard_registry(registry, name):
    assert (explain_contract(make_nf(name).contract)
            == explain_contract(make_nf(name, registry).contract))


def test_make_nf_unknown_name(registry):
    with pytest.raises(ConfigError, match="unknown NF"):
        make_nf("nat64", registry)


def test_make_nf_refuses_an_unhashable_name_as_unknown(registry):
    with pytest.raises(ConfigError) as excinfo:
        make_nf(["x"], registry)
    assert str(excinfo.value) == "unknown NF ['x'] (known: mtu-too-big, srv6-change-pkt)"


def test_catalog_nfs_have_contracts(registry):
    for name in ("mtu-too-big", "srv6-change-pkt"):
        nf = make_nf(name, registry)
        assert nf.contract is not None
        assert nf.contract.nf_name == name
        assert nf.contract.ingress is not None
        assert nf.contract.egress is not None


@pytest.mark.parametrize("name, switches, message", [
    ("mtu-too-big", {"bogus": True},
     "unknown switch 'bogus' for NF 'mtu-too-big' (known: omit_eth_swap, omit_ipv6_swap)"),
    ("mtu-too-big", {"omit_payload_len_update": True, "bogus": True},
     "unknown switch 'bogus', 'omit_payload_len_update' for NF 'mtu-too-big' "
     "(known: omit_eth_swap, omit_ipv6_swap)"),
    ("srv6-change-pkt", {"segment": DEFAULT_SEGMENT},
     "unknown switch 'segment' for NF 'srv6-change-pkt' "
     "(known: omit_payload_len_update)"),
    ("srv6-change-pkt", {"name": "renamed"},
     "unknown switch 'name' for NF 'srv6-change-pkt' "
     "(known: omit_payload_len_update)"),
], ids=["bogus", "another-nfs-switches", "segment", "name"])
def test_make_nf_refuses_an_unknown_switch_when_built(registry, name, switches, message):
    with pytest.raises(ConfigError) as excinfo:
        make_nf(name, registry, **switches)
    assert str(excinfo.value) == message


def test_a_clean_catalog_nf_calls_its_transform_itself(registry):
    # no wrapper between NetworkFunction.apply and the transform
    assert make_nf("mtu-too-big", registry).transform is send_too_big
    assert make_nf("srv6-change-pkt", registry).transform is srv6_add_segment


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_a_switch_never_changes_the_contract(registry, name):
    # a switch plants a fault in the transform; the one contract, written
    # for the correct NF, is the one that must catch it
    contract = make_nf(name, registry).contract
    for switch in sorted(CATALOG[name][1]):
        assert make_nf(name, registry, **{switch: True}).contract == contract


def test_each_catalog_nf_elaborates_its_one_spec(registry):
    for name, (_, _, spec) in CATALOG.items():
        assert make_nf(name, registry).contract == elaborate(spec, registry)


@pytest.mark.parametrize("name, switch, value", [
    pytest.param("srv6-change-pkt", "omit_payload_len_update", "no", id="srv6-payload-len-no"),
    ("mtu-too-big", "omit_ipv6_swap", 1),
    ("srv6-change-pkt", "omit_payload_len_update", None),
])
def test_make_nf_refuses_a_switch_that_is_not_a_bool(registry, monkeypatch, name, switch,
                                                     value):
    # a truthy "no" or 1 would turn the switch on: refused before elaboration
    def elaborated(*args):
        raise AssertionError("elaborated a contract for a refused switch")

    monkeypatch.setattr(nfs, "elaborate", elaborated)
    with pytest.raises(ConfigError) as excinfo:
        make_nf(name, registry, **{switch: value})
    assert str(excinfo.value) == f"switch {switch!r} takes a bool, not {value!r}"
