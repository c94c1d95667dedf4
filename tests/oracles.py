"""Independent references that the tests compare the package with.

``ones_complement_oracle`` and ``build_tcp6_bytes`` compute without the
package's checksum code or header classes. ``REFERENCE_PARSE`` holds a
hand-written ``parse`` per codec, each test and ``ParseError`` text spelled
out; the codecs' own ``parse`` is generated from their ``READ`` layouts,
so these are what ``tests/test_headers.py`` holds it to.
"""

import struct

from pktcheck import EthHdr, Icmpv6PktTooBig, Ipv6Hdr, ParseError, Srv6RoutingHdr, TcpHdr
from pktcheck.headers import ICMPV6_PKT_TOO_BIG, SRV6_ROUTING_TYPE


def ones_complement_oracle(data: bytes) -> int:
    """Independent checksum reference: fold after every 16-bit word."""
    if len(data) % 2:
        data = data + b"\x00"
    total = 0
    for i in range(0, len(data), 2):
        total += (data[i] << 8) | data[i + 1]
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


def build_tcp6_bytes(
    payload_len: int = 1300,
    eth_src: bytes = bytes.fromhex("020000000001"),
    eth_dst: bytes = bytes.fromhex("020000000002"),
    ip_src: bytes = bytes(range(16)),
    ip_dst: bytes = bytes(range(16, 32)),
) -> bytes:
    """Hand-packed Eth/IPv6/TCP packet, independent of the header classes."""
    eth = eth_dst + eth_src + struct.pack("!H", 0x86DD)
    ipv6 = struct.pack("!IHBB", 6 << 28, payload_len, 6, 64) + ip_src + ip_dst
    tcp = struct.pack("!HHIIHHHH", 4242, 80, 1, 2, (5 << 12) | 0x018, 8192, 0, 0)
    return eth + ipv6 + tcp + bytes(payload_len - len(tcp))


def _need(buf, offset, n, what):
    if offset + n > len(buf):
        raise ParseError(
            f"truncated {what}: need {n} bytes at offset {offset}, "
            f"have {len(buf) - offset}"
        )


def parse_eth(buf, offset=0):
    if offset + 14 > len(buf):
        _need(buf, offset, 14, "Ethernet header")
    dst, src, ether_type = struct.unpack_from("!6s6sH", buf, offset)
    return EthHdr(dst, src, ether_type), 14


def parse_ipv6(buf, offset=0):
    if offset + 40 > len(buf):
        _need(buf, offset, 40, "IPv6 header")
    v_tc_fl, payload_len, next_header, hop_limit, src, dst = struct.unpack_from(
        "!IHBB16s16s", buf, offset
    )
    version = v_tc_fl >> 28
    if version != 6:
        raise ParseError(f"IPv6 version nibble is {version}, expected 6")
    hdr = Ipv6Hdr(
        src, dst, payload_len, next_header, hop_limit,
        version, (v_tc_fl >> 20) & 0xFF, v_tc_fl & 0xFFFFF,
    )
    return hdr, 40


def parse_tcp(buf, offset=0):
    if offset + 20 > len(buf):
        _need(buf, offset, 20, "TCP header")
    src_port, dst_port, seq, ack, off_flags, window, checksum, urgent = (
        struct.unpack_from("!HHIIHHHH", buf, offset)
    )
    data_offset = off_flags >> 12
    if data_offset < 5:
        raise ParseError(f"TCP data offset {data_offset} below minimum 5")
    size = data_offset * 4
    if offset + size > len(buf):
        _need(buf, offset, size, "TCP header with options")
    options = bytes(buf[offset + 20 : offset + size]) if size > 20 else b""
    hdr = TcpHdr(
        src_port, dst_port, seq, ack, data_offset, off_flags & 0x1FF,
        window, checksum, urgent, options, (off_flags >> 9) & 0x7,
    )
    return hdr, size


def parse_icmpv6_ptb(buf, offset=0):
    if offset + 8 > len(buf):
        _need(buf, offset, 8, "ICMPv6 Packet Too Big header")
    msg_type, code, checksum, mtu = struct.unpack_from("!BBHI", buf, offset)
    if msg_type != ICMPV6_PKT_TOO_BIG or code != 0:
        raise ParseError(
            f"not an ICMPv6 Packet Too Big message: type {msg_type}, code {code}"
        )
    size = len(buf) - offset
    if size > 1240:
        raise ParseError(
            f"Packet Too Big message of {size} bytes exceeds the "
            "minimum-MTU reply budget of 1240 bytes"
        )
    body = bytes(buf[offset + 8 :])
    return Icmpv6PktTooBig(checksum, mtu, body, msg_type, code), size


def parse_srv6(buf, offset=0):
    if offset + 8 > len(buf):
        _need(buf, offset, 8, "SRv6 routing header")
    next_header, hdr_ext_len, routing_type, segments_left, last_entry, flags, tag = (
        struct.unpack_from("!BBBBBBH", buf, offset)
    )
    if routing_type != SRV6_ROUTING_TYPE:
        raise ParseError(
            f"routing type {routing_type}, expected {SRV6_ROUTING_TYPE} (SRv6)"
        )
    if hdr_ext_len < 2 or hdr_ext_len % 2:
        raise ParseError(
            f"SRv6 header extension length {hdr_ext_len} cannot hold "
            "16-byte segments"
        )
    size = 8 + 8 * hdr_ext_len
    if offset + size > len(buf):
        _need(buf, offset, size, "SRv6 routing header segments")
    n_segments = hdr_ext_len // 2
    if last_entry != n_segments - 1:
        raise ParseError(
            f"SRv6 last entry {last_entry} disagrees with "
            f"{n_segments} segments"
        )
    if segments_left > last_entry + 1:
        raise ParseError(
            f"SRv6 segments left {segments_left} exceeds "
            f"segment count {n_segments}"
        )
    segments = [
        bytes(buf[offset + 8 + 16 * i : offset + 24 + 16 * i]) for i in range(n_segments)
    ]
    hdr = Srv6RoutingHdr(next_header, segments_left, segments, flags, tag, routing_type)
    return hdr, size


REFERENCE_PARSE = {
    EthHdr: parse_eth,
    Ipv6Hdr: parse_ipv6,
    TcpHdr: parse_tcp,
    Icmpv6PktTooBig: parse_icmpv6_ptb,
    Srv6RoutingHdr: parse_srv6,
}
