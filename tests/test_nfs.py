import pytest

from pktcheck import (
    ConfigError,
    Packet,
    Srv6RoutingHdr,
    internet_checksum,
    make_nf,
    order,
    parse_chain,
    send_too_big,
    srv6_add_segment,
    verify_order,
)
from pktcheck.headers import EthHdr, Ipv6Hdr
from pktcheck.nfs import DEFAULT_SEGMENT, MAX_SRV6_SEGMENTS
from pktcheck.pcap import PcapRecord
from pktcheck.pipeline import run_records

from conftest import build_tcp6_bytes, ones_complement_oracle

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
    assert result.rewritten
    out = result.packet
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
    result = send_too_big(at_limit)
    assert not result.rewritten
    assert result.packet is at_limit

    above = Packet.from_bytes(build_tcp6_bytes(payload_len=1281))
    assert send_too_big(above).rewritten


def test_non_tcp_packets_pass_through():
    srv6 = Packet.from_bytes(_srv6_bytes())
    assert not send_too_big(srv6).rewritten

    not_ipv6 = bytearray(build_tcp6_bytes(payload_len=1300))
    not_ipv6[12:14] = b"\x08\x00"
    assert not send_too_big(Packet.from_bytes(bytes(not_ipv6))).rewritten

    truncated = Packet.from_bytes(build_tcp6_bytes(payload_len=1300)[:40])
    assert not send_too_big(truncated).rewritten


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
    assert result.rewritten
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


def test_segment_append_visit_new_bumps_segments_left():
    packet = Packet.from_bytes(_srv6_bytes(n_segments=2, segments_left=1))
    out = srv6_add_segment(packet, visit_new=True).packet
    out.parse_header("EthHdr")
    out.parse_header("Ipv6Hdr")
    srh, _ = out.parse_header("Srv6RoutingHdr")
    assert srh.segments_left == 2


def test_segment_append_custom_segment():
    target = bytes(range(100, 116))
    packet = Packet.from_bytes(_srv6_bytes())
    out = srv6_add_segment(packet, segment=target).packet
    out.parse_header("EthHdr")
    out.parse_header("Ipv6Hdr")
    srh, _ = out.parse_header("Srv6RoutingHdr")
    assert srh.segments[-1] == target


def test_full_segment_list_drops_with_reason():
    packet = Packet.from_bytes(_srv6_bytes(n_segments=MAX_SRV6_SEGMENTS))
    result = srv6_add_segment(packet)
    assert result.dropped
    assert result.packet is None
    assert "full" in result.drop_reason


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
    assert stale.rewritten
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
    assert not srv6_add_segment(tcp6).rewritten


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


def test_catalog_nfs_have_contracts(registry):
    for name in ("mtu-too-big", "srv6-change-pkt"):
        nf = make_nf(name, registry)
        assert nf.contract is not None
        assert nf.contract.nf_name == name
        assert nf.contract.ingress is not None
        assert nf.contract.egress is not None
