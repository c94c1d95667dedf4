"""Independent references that the tests compare the package with.

``ones_complement_oracle`` and ``build_tcp6_bytes`` compute without the
package's checksum code or header classes. ``REFERENCE_PARSE`` holds a
hand-written ``parse`` per codec, each test and ``ParseError`` text spelled
out; ``REFERENCE_EMIT`` holds a hand-written ``emit`` per codec, with its
``struct`` format, its width and range checks and each ``EmitError`` text
spelled out. The codecs' own ``parse`` and ``emit`` are generated from their
``READ`` layouts, so these are what ``tests/test_headers.py`` holds them to.
``reference_send_too_big`` is mtu-too-big's transform in its earlier
order, the whole Eth/IPv6/TCP chain decoded before the length decides
pass-through, which ``tests/test_nfs.py`` holds the reordered one to.
``PRECONDITION_CONTRACT`` is mtu-too-big's contract in its earlier form,
its ``when:`` guard stated as an ingress check: a precondition that every
packet must meet, small ones included.
"""

import struct

from pktcheck import (
    EmitError,
    EthHdr,
    Icmpv6PktTooBig,
    Ipv6Hdr,
    Packet,
    ParseError,
    Srv6RoutingHdr,
    TcpHdr,
    TransformResult,
    pseudo_header_checksum,
)
from pktcheck.headers import ICMPV6_PKT_TOO_BIG, SRV6_ROUTING_TYPE
from pktcheck.nfs import MAX_INVOKING_BYTES, MTU_TOO_BIG_CONTRACT

PRECONDITION_CONTRACT = MTU_TOO_BIG_CONTRACT.replace(
    "when: [(payload_len[Ipv6Hdr], >, IPV6_MIN_MTU)],\n    checks: []",
    "checks: [(payload_len[Ipv6Hdr], >, IPV6_MIN_MTU)]",
)


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
    segments = bytes(buf[offset + 8 : offset + size])
    hdr = Srv6RoutingHdr(next_header, segments_left, segments, flags, tag, routing_type)
    return hdr, size


REFERENCE_PARSE = {
    EthHdr: parse_eth,
    Ipv6Hdr: parse_ipv6,
    TcpHdr: parse_tcp,
    Icmpv6PktTooBig: parse_icmpv6_ptb,
    Srv6RoutingHdr: parse_srv6,
}


#: What a reference ``emit`` may raise on a field its pack or its shifts
#: refuse; the ordered checks then name the field, and if none fails, it
#: re-raises the error.
_REFUSED = (struct.error, TypeError)

# Each reference ``emit`` checks in one order: each address's width, the
# range of each field the header holds, then what ``parse`` would refuse in
# the header's own bytes, with the ``ParseError`` texts above, and last the
# range of each field it derives.


def _check_width(value, n, what):
    if len(value) != n:
        raise EmitError(f"{what} must be {n} bytes")


def _check_range(value, bits, what):
    if not 0 <= value < (1 << bits):
        raise EmitError(f"{what} out of range for {bits}-bit field: {value}")


def emit_eth(h):
    try:
        if len(h.dst) == 6 and len(h.src) == 6:
            return struct.pack("!6s6sH", h.dst, h.src, h.ether_type)
    except _REFUSED as exc:
        refused = exc
    _check_width(h.dst, 6, "dst")
    _check_width(h.src, 6, "src")
    _check_range(h.ether_type, 16, "ether_type")
    raise refused


def emit_ipv6(h):
    try:
        if (
            len(h.src) == 16
            and len(h.dst) == 16
            and 0 <= h.traffic_class < 0x100
            and 0 <= h.flow_label < 0x100000
            and h.version == 6
        ):
            return struct.pack(
                "!IHBB16s16s",
                (h.version << 28) | (h.traffic_class << 20) | h.flow_label,
                h.payload_len, h.next_header, h.hop_limit, h.src, h.dst,
            )
    except _REFUSED as exc:
        refused = exc
    _check_width(h.src, 16, "src")
    _check_width(h.dst, 16, "dst")
    _check_range(h.version, 4, "version")
    _check_range(h.traffic_class, 8, "traffic_class")
    _check_range(h.flow_label, 20, "flow_label")
    _check_range(h.payload_len, 16, "payload_len")
    _check_range(h.next_header, 8, "next_header")
    _check_range(h.hop_limit, 8, "hop_limit")
    if h.version != 6:
        raise EmitError(f"IPv6 version nibble is {h.version}, expected 6")
    raise refused


def emit_tcp(h):
    try:
        if (
            0 <= h.reserved < 0x8
            and 0 <= h.flags < 0x200
            and h.data_offset >= 5
            and h.data_offset * 4 == 20 + len(h.options)
        ):
            return struct.pack(
                "!HHIIHHHH", h.src_port, h.dst_port, h.seq, h.ack,
                (h.data_offset << 12) | (h.reserved << 9) | h.flags,
                h.window, h.checksum, h.urgent_ptr,
            ) + h.options
    except _REFUSED as exc:
        refused = exc
    _check_range(h.src_port, 16, "src_port")
    _check_range(h.dst_port, 16, "dst_port")
    _check_range(h.seq, 32, "seq")
    _check_range(h.ack, 32, "ack")
    _check_range(h.data_offset, 4, "data_offset")
    _check_range(h.reserved, 3, "reserved")
    _check_range(h.flags, 9, "flags")
    _check_range(h.window, 16, "window")
    _check_range(h.checksum, 16, "checksum")
    _check_range(h.urgent_ptr, 16, "urgent_ptr")
    if h.data_offset < 5:
        raise EmitError(f"TCP data offset {h.data_offset} below minimum 5")
    if h.data_offset * 4 != 20 + len(h.options):
        raise EmitError(
            f"TCP header size {h.data_offset * 4} (data_offset * 4) disagrees "
            f"with 20 + {len(h.options)} bytes of options"
        )
    raise refused


def emit_icmpv6_ptb(h):
    size = 8 + len(h.invoking_packet)
    try:
        if h.msg_type == 2 and h.code == 0 and size <= 1240:
            return struct.pack("!BBHI", h.msg_type, h.code, h.checksum, h.mtu) + (
                h.invoking_packet
            )
    except _REFUSED as exc:
        refused = exc
    _check_range(h.msg_type, 8, "msg_type")
    _check_range(h.code, 8, "code")
    _check_range(h.checksum, 16, "checksum")
    _check_range(h.mtu, 32, "mtu")
    if h.msg_type != 2 or h.code != 0:
        raise EmitError(
            f"not an ICMPv6 Packet Too Big message: type {h.msg_type}, code {h.code}"
        )
    if size > 1240:
        raise EmitError(
            f"Packet Too Big message of {size} bytes exceeds the "
            "minimum-MTU reply budget of 1240 bytes"
        )
    raise refused


def emit_srv6(h):
    segments = h.segments
    hdr_ext_len = len(segments) // 8
    count = hdr_ext_len // 2
    try:
        if (
            h.routing_type == 4
            and segments
            and not len(segments) % 16
            and h.segments_left <= count
        ):
            return struct.pack(
                "!BBBBBBH", h.next_header, hdr_ext_len, h.routing_type,
                h.segments_left, count - 1, h.flags, h.tag,
            ) + segments
    except _REFUSED as exc:
        refused = exc
    _check_range(h.next_header, 8, "next_header")
    _check_range(h.routing_type, 8, "routing_type")
    _check_range(h.segments_left, 8, "segments_left")
    _check_range(h.flags, 8, "flags")
    _check_range(h.tag, 16, "tag")
    if h.routing_type != 4:
        raise EmitError(f"routing type {h.routing_type}, expected 4 (SRv6)")
    if hdr_ext_len < 2 or hdr_ext_len % 2:
        raise EmitError(
            f"SRv6 header extension length {hdr_ext_len} cannot hold 16-byte segments"
        )
    # the last entry is derived from the extension length, so it agrees
    if h.segments_left > count:
        raise EmitError(
            f"SRv6 segments left {h.segments_left} exceeds segment count {count}"
        )
    if len(segments) % 8:
        raise EmitError(
            f"SRv6 routing header size {8 + 8 * hdr_ext_len} (8 + 8 * hdr_ext_len) "
            f"disagrees with 8 + {len(segments)} bytes of segments"
        )
    _check_range(hdr_ext_len, 8, "hdr_ext_len")
    _check_range(count - 1, 8, "last_entry")
    raise refused


REFERENCE_EMIT = {
    EthHdr: emit_eth,
    Ipv6Hdr: emit_ipv6,
    TcpHdr: emit_tcp,
    Icmpv6PktTooBig: emit_icmpv6_ptb,
    Srv6RoutingHdr: emit_srv6,
}


def _parse_tcp6(packet):
    data = packet.data
    try:
        eth, _ = EthHdr.parse(data)
        if eth.ether_type != 0x86DD:
            return None
        ipv6, _ = Ipv6Hdr.parse(data, 14)
        if ipv6.next_header != 6:
            return None
        tcp, _ = TcpHdr.parse(data, 54)
    except ParseError:
        return None
    return eth, ipv6, tcp


def reference_send_too_big(packet, *, omit_ipv6_swap=False, omit_eth_swap=False):
    parsed = _parse_tcp6(packet)
    if parsed is None:
        return TransformResult(packet)
    eth, ipv6, _ = parsed
    if ipv6.payload_len <= 1280:
        return TransformResult(packet)

    if omit_eth_swap:
        new_eth = EthHdr(dst=eth.dst, src=eth.src, ether_type=0x86DD)
    else:
        new_eth = EthHdr(dst=eth.src, src=eth.dst, ether_type=0x86DD)
    new_src, new_dst = (
        (ipv6.src, ipv6.dst) if omit_ipv6_swap else (ipv6.dst, ipv6.src)
    )
    new_ipv6 = Ipv6Hdr(
        src=new_src, dst=new_dst, payload_len=1240, next_header=58, hop_limit=64
    )
    end = min(54 + ipv6.payload_len, len(packet.data), 14 + MAX_INVOKING_BYTES)
    invoking = bytes(packet.data[14:end])
    icmp = Icmpv6PktTooBig(checksum=0, mtu=1280, invoking_packet=invoking)
    body = icmp.emit()
    icmp.checksum = pseudo_header_checksum(new_src, new_dst, 58, body)
    out = Packet.from_bytes(new_eth.emit() + new_ipv6.emit() + icmp.emit())
    return TransformResult(out)
