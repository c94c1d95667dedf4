import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pktcheck import (
    ConfigError,
    EmitError,
    Packet,
    Srv6RoutingHdr,
    internet_checksum,
    make_nf,
    order,
    verify_order,
)
from pktcheck import headers, nfs
from pktcheck.contracts import elaborate
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

from oracles import build_tcp6_bytes, ones_complement_oracle, reference_send_too_big

import struct


def _srv6_bytes(n_segments=2, payload=b"", segments_left=1):
    srh = Srv6RoutingHdr(
        next_header=59,
        segments_left=segments_left,
        segments=[bytes([i]) * 16 for i in range(1, n_segments + 1)],
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
    assert srh.segments[:-1] == before_srh.segments
    assert srh.segments[-1] == DEFAULT_SEGMENT
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
    assert [s.size for s in headers._SRV6_SEGMENTS] == [16 * n for n in range(128)]
    full = Srv6RoutingHdr(next_header=59, segments_left=0,
                          segments=[bytes([i]) * 16 for i in range(MAX_SRV6_SEGMENTS)])
    assert Srv6RoutingHdr.parse(full.emit()) == (full, 8 + 16 * MAX_SRV6_SEGMENTS)
    full.segments.append(bytes(16))
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


# --- catalog ------------------------------------------------------------------------


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
