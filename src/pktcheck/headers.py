"""Byte-level packet model: header structs with parse/emit, and the packet.

Wire layouts follow Ethernet II, the 40-byte fixed IPv6 header, TCP,
ICMPv6 Packet Too Big (type 2, code 0), and the SRv6 Routing extension
header (routing type 4). All multi-byte integers are big-endian on the
wire and are decoded to host ints.

Every packet pays for decoding, so each ``parse`` reads its fixed part
with one ``struct.Struct`` compiled at import time. The format's ``s``
fields yield MAC and IPv6 addresses as ``bytes``, the header is built from
positional arguments, and the length check is a comparison that calls
``_need`` only to raise its message.

Each ``emit`` has one serializer: the same ``Struct`` as its ``parse``,
which range-checks the 8-, 16- and 32-bit fields itself. The sub-byte
fields and the lengths (addresses, TCP options, each SRv6 segment, the
invoking packet) are tested first in one condition, since ``s`` fields pad
or truncate silently. The ordered checks after it only name a refusal:
when the test fails or the pack refuses a field, they raise the
``EmitError`` for the first bad field in a fixed order. A failed test
always fails one of them, so if they all pass the field is in range but
not an integer, and ``emit`` re-raises what the pack raised.

Next to each ``parse``, the codec's ``READ`` is a ``FieldRead``: the same
``Struct``, acceptance tests and size, written as source text that a
generated egress phase splices in to read a header's fields straight from
the bytes, without building the header or copying its variable part.

A ``Packet`` is its bytes: the network functions and the order walks call
the codecs at running offsets and build new packets rather than edit one.
``Packet.parse_header``/``decode`` and their chain serve only the
benchmark's tracer and the tests.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import NamedTuple

from .exceptions import EmitError, ParseError

ETH_HDR_SIZE = 14
IPV6_HDR_SIZE = 40
IPV6_MIN_MTU = 1280

ETHERTYPE_IPV6 = 0x86DD
PROTO_TCP = 6
PROTO_SRV6 = 43
PROTO_ICMPV6 = 58
PROTO_NONE = 59

ICMPV6_PKT_TOO_BIG = 2
SRV6_ROUTING_TYPE = 4

_ETH = struct.Struct("!6s6sH")
_IPV6 = struct.Struct("!IHBB16s16s")
_TCP = struct.Struct("!HHIIHHHH")
_ICMPV6_PTB = struct.Struct("!BBHI")
_SRV6 = struct.Struct("!BBBBBBH")
#: By segment count: the SRv6 segment list as that many 16-byte fields
#: (an 8-bit extension length holds at most 127 segments).
_SRV6_SEGMENTS = [struct.Struct("16s" * n) for n in range(128)]


def _need(buf, offset, n, what):
    if offset + n > len(buf):
        raise ParseError(
            f"truncated {what}: need {n} bytes at offset {offset}, "
            f"have {len(buf) - offset}"
        )


#: What an ``emit`` may raise on a field its ``Struct`` or its shifts
#: refuse; the ordered checks then name the field, and if none fails,
#: ``emit`` re-raises the error.
_REFUSED = (struct.error, TypeError)
#: Every SRv6 segment is an IPv6 address.
_ADDRESS_LENGTH = {16}


class FieldRead(NamedTuple):
    """How a generated phase reads one header's fields from the bytes.

    ``unpack`` is the codec's ``Struct`` and ``fields`` names the values it
    yields, in order. ``tests`` are the codec's acceptance tests in its
    ``parse`` order, ``size`` is the header's length in bytes, and
    ``attributes`` gives each registry attribute that is not itself a
    field. Each is Python source in which ``{name}`` stands for a field,
    ``{at}`` for the header's offset and ``{length}`` for the buffer's
    length. The packet holds the header when the buffer has ``unpack.size``
    bytes at ``{at}`` and every test holds, exactly when ``parse`` returns.
    """

    unpack: struct.Struct
    fields: tuple[str, ...]
    tests: tuple[str, ...]
    size: str
    attributes: dict[str, str]


def _check_range(value, bits, what):
    if not 0 <= value < (1 << bits):
        raise EmitError(f"{what} out of range for {bits}-bit field: {value}")


@dataclass(slots=True)
class EthHdr:
    """Ethernet II header: dst MAC, src MAC, ethertype. 14 bytes."""

    dst: bytes
    src: bytes
    ether_type: int

    SIZE = ETH_HDR_SIZE
    READ = FieldRead(_ETH, ("dst", "src", "ether_type"), (), str(ETH_HDR_SIZE), {})

    @classmethod
    def parse(cls, buf: bytes, offset: int = 0) -> tuple["EthHdr", int]:
        if offset + ETH_HDR_SIZE > len(buf):
            _need(buf, offset, ETH_HDR_SIZE, "Ethernet header")
        return cls(*_ETH.unpack_from(buf, offset)), ETH_HDR_SIZE

    def emit(self) -> bytes:
        try:
            if len(self.dst) == 6 == len(self.src):
                return _ETH.pack(self.dst, self.src, self.ether_type)
        except _REFUSED as exc:
            refused = exc
        if len(self.dst) != 6 or len(self.src) != 6:
            raise EmitError("MAC addresses must be 6 bytes")
        _check_range(self.ether_type, 16, "ether_type")
        raise refused


@dataclass(slots=True)
class Ipv6Hdr:
    """Fixed 40-byte IPv6 header. ``payload_len`` counts every byte after it."""

    src: bytes
    dst: bytes
    payload_len: int
    next_header: int
    hop_limit: int
    version: int = 6
    traffic_class: int = 0
    flow_label: int = 0

    SIZE = IPV6_HDR_SIZE
    READ = FieldRead(
        _IPV6, ("v_tc_fl", "payload_len", "next_header", "hop_limit", "src", "dst"),
        ("{v_tc_fl} >> 28 == 6",),
        str(IPV6_HDR_SIZE),
        {"version": "{v_tc_fl} >> 28", "traffic_class": "{v_tc_fl} >> 20 & 0xFF",
         "flow_label": "{v_tc_fl} & 0xFFFFF"},
    )

    @classmethod
    def parse(cls, buf: bytes, offset: int = 0) -> tuple["Ipv6Hdr", int]:
        if offset + IPV6_HDR_SIZE > len(buf):
            _need(buf, offset, IPV6_HDR_SIZE, "IPv6 header")
        v_tc_fl, payload_len, next_header, hop_limit, src, dst = _IPV6.unpack_from(
            buf, offset
        )
        version = v_tc_fl >> 28
        if version != 6:
            raise ParseError(f"IPv6 version nibble is {version}, expected 6")
        hdr = cls(
            src, dst, payload_len, next_header, hop_limit,
            version, (v_tc_fl >> 20) & 0xFF, v_tc_fl & 0xFFFFF,
        )
        return hdr, IPV6_HDR_SIZE

    def emit(self) -> bytes:
        try:
            if (
                self.version == 6
                and 0 <= self.traffic_class < 0x100
                and 0 <= self.flow_label < 0x100000
                and len(self.src) == 16 == len(self.dst)
            ):
                return _IPV6.pack(
                    (self.version << 28) | (self.traffic_class << 20) | self.flow_label,
                    self.payload_len, self.next_header, self.hop_limit,
                    self.src, self.dst,
                )
        except _REFUSED as exc:
            refused = exc
        if self.version != 6:
            raise EmitError(f"IPv6 version must be 6, got {self.version}")
        _check_range(self.traffic_class, 8, "traffic_class")
        _check_range(self.flow_label, 20, "flow_label")
        _check_range(self.payload_len, 16, "payload_len")
        _check_range(self.next_header, 8, "next_header")
        _check_range(self.hop_limit, 8, "hop_limit")
        if len(self.src) != 16 or len(self.dst) != 16:
            raise EmitError("IPv6 addresses must be 16 bytes")
        raise refused


@dataclass(slots=True)
class TcpHdr:
    """TCP header over IPv6. Options are carried as opaque bytes.

    ``flags`` is the 9-bit NS..FIN block; ``data_offset`` is the header
    length in 32-bit words, so the serialized size is data_offset * 4.
    ``reserved`` holds the 3 bits between them, carried so that parse then
    emit gives back the original bytes.
    """

    src_port: int
    dst_port: int
    seq: int
    ack: int
    data_offset: int
    flags: int
    window: int
    checksum: int
    urgent_ptr: int
    options: bytes = b""
    reserved: int = 0

    MIN_SIZE = 20
    READ = FieldRead(
        _TCP, ("src_port", "dst_port", "seq", "ack", "off_flags", "window", "checksum",
               "urgent_ptr"),
        ("{off_flags} >> 12 >= 5", "{at} + ({off_flags} >> 12) * 4 <= {length}"),
        "({off_flags} >> 12) * 4",
        {"data_offset": "{off_flags} >> 12", "flags": "{off_flags} & 0x1FF"},
    )

    @classmethod
    def parse(cls, buf: bytes, offset: int = 0) -> tuple["TcpHdr", int]:
        if offset + 20 > len(buf):
            _need(buf, offset, 20, "TCP header")
        src_port, dst_port, seq, ack, off_flags, window, checksum, urgent = (
            _TCP.unpack_from(buf, offset)
        )
        data_offset = off_flags >> 12
        if data_offset < 5:
            raise ParseError(f"TCP data offset {data_offset} below minimum 5")
        size = data_offset * 4
        if offset + size > len(buf):
            _need(buf, offset, size, "TCP header with options")
        options = bytes(buf[offset + 20 : offset + size]) if size > 20 else b""
        hdr = cls(
            src_port, dst_port, seq, ack, data_offset, off_flags & 0x1FF,
            window, checksum, urgent, options, (off_flags >> 9) & 0x7,
        )
        return hdr, size

    def emit(self) -> bytes:
        try:
            if (
                5 <= self.data_offset < 0x10
                and 0 <= self.reserved < 0x8
                and 0 <= self.flags < 0x200
                and self.data_offset * 4 == self.MIN_SIZE + len(self.options)
            ):
                return _TCP.pack(
                    self.src_port, self.dst_port, self.seq, self.ack,
                    (self.data_offset << 12) | (self.reserved << 9) | self.flags,
                    self.window, self.checksum, self.urgent_ptr,
                ) + self.options
        except _REFUSED as exc:
            refused = exc
        _check_range(self.src_port, 16, "src_port")
        _check_range(self.dst_port, 16, "dst_port")
        _check_range(self.seq, 32, "seq")
        _check_range(self.ack, 32, "ack")
        _check_range(self.data_offset, 4, "data_offset")
        _check_range(self.reserved, 3, "reserved")
        _check_range(self.flags, 9, "flags")
        _check_range(self.window, 16, "window")
        _check_range(self.checksum, 16, "checksum")
        _check_range(self.urgent_ptr, 16, "urgent_ptr")
        if self.data_offset < 5:
            raise EmitError(f"TCP data offset {self.data_offset} below minimum 5")
        if self.data_offset * 4 != self.MIN_SIZE + len(self.options):
            raise EmitError(
                f"TCP data offset {self.data_offset} disagrees with "
                f"{len(self.options)} option bytes"
            )
        raise refused


@dataclass(slots=True)
class Icmpv6PktTooBig:
    """ICMPv6 Packet Too Big message: type 2, code 0, 32-bit MTU, then as
    much of the invoking packet as fits the minimum-MTU reply budget.

    The message runs to the end of the buffer, and both parse and emit
    refuse one longer than that budget (RFC 4443 section 2.4(c)), so parse
    then emit gives back the original bytes."""

    checksum: int
    mtu: int
    invoking_packet: bytes
    msg_type: int = ICMPV6_PKT_TOO_BIG
    code: int = 0

    MIN_SIZE = 8
    MAX_SIZE = IPV6_MIN_MTU - IPV6_HDR_SIZE
    READ = FieldRead(
        _ICMPV6_PTB, ("msg_type", "code", "checksum", "mtu"),
        (f"{{msg_type}} == {ICMPV6_PKT_TOO_BIG} and {{code}} == 0",
         f"{{length}} - {{at}} <= {MAX_SIZE}"),
        "{length} - {at}",
        {},
    )

    @classmethod
    def parse(cls, buf: bytes, offset: int = 0) -> tuple["Icmpv6PktTooBig", int]:
        if offset + 8 > len(buf):
            _need(buf, offset, 8, "ICMPv6 Packet Too Big header")
        msg_type, code, checksum, mtu = _ICMPV6_PTB.unpack_from(buf, offset)
        if msg_type != ICMPV6_PKT_TOO_BIG or code != 0:
            raise ParseError(
                f"not an ICMPv6 Packet Too Big message: type {msg_type}, code {code}"
            )
        size = len(buf) - offset
        if size > cls.MAX_SIZE:
            raise ParseError(
                f"Packet Too Big message of {size} bytes exceeds the "
                f"minimum-MTU reply budget of {cls.MAX_SIZE} bytes"
            )
        body = bytes(buf[offset + 8 :])
        return cls(checksum, mtu, body, msg_type, code), size

    def emit(self) -> bytes:
        try:
            if (
                self.msg_type == ICMPV6_PKT_TOO_BIG
                and self.code == 0
                and len(self.invoking_packet) <= self.MAX_SIZE - self.MIN_SIZE
            ):
                return _ICMPV6_PTB.pack(
                    self.msg_type, self.code, self.checksum, self.mtu
                ) + self.invoking_packet
        except _REFUSED as exc:
            refused = exc
        if self.msg_type != ICMPV6_PKT_TOO_BIG or self.code != 0:
            raise EmitError(
                f"Packet Too Big requires type 2 code 0, "
                f"got type {self.msg_type} code {self.code}"
            )
        _check_range(self.checksum, 16, "checksum")
        _check_range(self.mtu, 32, "mtu")
        if self.MIN_SIZE + len(self.invoking_packet) > self.MAX_SIZE:
            raise EmitError(
                "Packet Too Big body exceeds the minimum-MTU reply budget of "
                f"{self.MAX_SIZE} bytes"
            )
        raise refused


@dataclass(slots=True)
class Srv6RoutingHdr:
    """IPv6 Segment Routing header (routing type 4).

    Serialized size is 8 + 8 * hdr_ext_len; the segment list holds
    last_entry + 1 addresses of 16 bytes each, so hdr_ext_len is twice
    the segment count.
    """

    next_header: int
    segments_left: int
    segments: list[bytes]
    flags: int = 0
    tag: int = 0
    routing_type: int = SRV6_ROUTING_TYPE

    MIN_SIZE = 8
    READ = FieldRead(
        _SRV6, ("next_header", "hdr_ext_len", "routing_type", "segments_left",
                "last_entry", "flags", "tag"),
        (f"{{routing_type}} == {SRV6_ROUTING_TYPE}",
         "{hdr_ext_len} >= 2 and not {hdr_ext_len} % 2",
         "{at} + 8 + 8 * {hdr_ext_len} <= {length}",
         "{last_entry} == {hdr_ext_len} // 2 - 1",
         "{segments_left} <= {last_entry} + 1"),
        "8 + 8 * {hdr_ext_len}",
        {},
    )

    @property
    def hdr_ext_len(self) -> int:
        return 2 * len(self.segments)

    @property
    def last_entry(self) -> int:
        return len(self.segments) - 1

    @classmethod
    def parse(cls, buf: bytes, offset: int = 0) -> tuple["Srv6RoutingHdr", int]:
        if offset + 8 > len(buf):
            _need(buf, offset, 8, "SRv6 routing header")
        next_header, hdr_ext_len, routing_type, segments_left, last_entry, flags, tag = (
            _SRV6.unpack_from(buf, offset)
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
        segments = list(_SRV6_SEGMENTS[n_segments].unpack_from(buf, offset + 8))
        hdr = cls(next_header, segments_left, segments, flags, tag, routing_type)
        return hdr, size

    def emit(self) -> bytes:
        segments = self.segments
        try:
            if (
                self.routing_type == SRV6_ROUTING_TYPE
                and self.segments_left <= len(segments)
                and set(map(len, segments)) == _ADDRESS_LENGTH
            ):
                return _SRV6.pack(
                    self.next_header, 2 * len(segments), self.routing_type,
                    self.segments_left, len(segments) - 1, self.flags, self.tag,
                ) + b"".join(segments)
        except _REFUSED as exc:
            refused = exc
        if self.routing_type != SRV6_ROUTING_TYPE:
            raise EmitError(f"routing type must be {SRV6_ROUTING_TYPE}")
        if not self.segments:
            raise EmitError("SRv6 routing header requires at least one segment")
        if any(len(s) != 16 for s in self.segments):
            raise EmitError("SRv6 segments must be 16-byte addresses")
        _check_range(self.next_header, 8, "next_header")
        _check_range(self.hdr_ext_len, 8, "hdr_ext_len")
        _check_range(self.last_entry, 8, "last_entry")
        _check_range(self.segments_left, 8, "segments_left")
        _check_range(self.flags, 8, "flags")
        _check_range(self.tag, 16, "tag")
        if self.segments_left > self.last_entry + 1:
            raise EmitError(
                f"segments left {self.segments_left} exceeds "
                f"segment count {len(self.segments)}"
            )
        raise refused


HEADER_TYPES = {
    "EthHdr": EthHdr,
    "Ipv6Hdr": Ipv6Hdr,
    "TcpHdr": TcpHdr,
    "Icmpv6PktTooBig": Icmpv6PktTooBig,
    "Srv6RoutingHdr": Srv6RoutingHdr,
}


@dataclass(slots=True)
class ChainEntry:
    """Where a header decoded by ``Packet.parse_header`` sits in the bytes."""

    header_type: str
    offset: int
    length: int


@dataclass(slots=True)
class Packet:
    """A packet's bytes, plus the ``chain`` of headers that
    :meth:`parse_header` has decoded from them (empty when fresh)."""

    data: bytearray
    chain: list[ChainEntry] = field(default_factory=list)

    @classmethod
    def from_bytes(cls, data: bytes) -> "Packet":
        return cls(bytearray(data))

    def parse_header(self, header_type: str, at_offset: int | None = None):
        """Decode one header at ``at_offset`` (default: where the chain ends)
        and append its chain entry; return (header, consumed)."""
        cls = HEADER_TYPES.get(header_type)
        if cls is None:
            raise ParseError(f"unknown header type {header_type!r}")
        if at_offset is None:
            last = self.chain[-1] if self.chain else None
            at_offset = last.offset + last.length if last else 0
        header, consumed = cls.parse(self.data, at_offset)
        self.chain.append(ChainEntry(header_type, at_offset, consumed))
        return header, consumed

    def decode(self, entry: ChainEntry):
        """Re-decode the header value at a chain entry from the buffer."""
        header, _ = HEADER_TYPES[entry.header_type].parse(self.data, entry.offset)
        return header
