import struct
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pktcheck import (
    EmitError,
    EthHdr,
    Icmpv6PktTooBig,
    Ipv6Hdr,
    Packet,
    ParseError,
    Srv6RoutingHdr,
    TcpHdr,
    standard_registry,
)
from pktcheck.headers import ICMPV6_PKT_TOO_BIG, SRV6_ROUTING_TYPE

from conftest import build_tcp6_bytes

macs = st.binary(min_size=6, max_size=6)
addrs = st.binary(min_size=16, max_size=16)
u8 = st.integers(0, 0xFF)
u16 = st.integers(0, 0xFFFF)
u20 = st.integers(0, 0xFFFFF)
u32 = st.integers(0, 0xFFFFFFFF)


# --- Ethernet ---------------------------------------------------------------


@given(dst=macs, src=macs, ether_type=u16)
def test_eth_emit_parse_identity(dst, src, ether_type):
    hdr = EthHdr(dst=dst, src=src, ether_type=ether_type)
    parsed, consumed = EthHdr.parse(hdr.emit())
    assert consumed == 14
    assert parsed == hdr


@given(raw=st.binary(min_size=14, max_size=22))
def test_eth_parse_emit_identity(raw):
    # every buffer of 14 bytes or more parses; trailing bytes allowed
    hdr, consumed = EthHdr.parse(raw)
    assert consumed == 14
    assert hdr.emit() == raw[:14]


def test_eth_field_offsets():
    raw = bytes(range(12)) + b"\x86\xdd"
    hdr, _ = EthHdr.parse(raw)
    assert hdr.dst == raw[0:6]
    assert hdr.src == raw[6:12]
    assert hdr.ether_type == 0x86DD


def test_eth_truncated():
    with pytest.raises(ParseError):
        EthHdr.parse(b"\x00" * 13)


# --- IPv6 --------------------------------------------------------------------


@given(
    src=addrs, dst=addrs, payload_len=u16, next_header=u8, hop_limit=u8,
    traffic_class=u8, flow_label=u20,
)
def test_ipv6_emit_parse_identity(
    src, dst, payload_len, next_header, hop_limit, traffic_class, flow_label
):
    hdr = Ipv6Hdr(
        src=src, dst=dst, payload_len=payload_len, next_header=next_header,
        hop_limit=hop_limit, traffic_class=traffic_class, flow_label=flow_label,
    )
    parsed, consumed = Ipv6Hdr.parse(hdr.emit())
    assert consumed == 40
    assert parsed == hdr


@given(data=st.data())
def test_ipv6_parse_emit_identity(data):
    # every buffer IPv6 parses: 40 bytes or more with version nibble 6,
    # anything at all in the other bits, trailing bytes allowed
    raw = bytearray(data.draw(st.binary(min_size=40, max_size=48)))
    raw[0] = 0x60 | (raw[0] & 0x0F)
    hdr, consumed = Ipv6Hdr.parse(bytes(raw))
    assert consumed == 40
    assert hdr.emit() == bytes(raw[:40])


def test_ipv6_field_offsets():
    hdr = Ipv6Hdr(
        src=bytes(range(16)), dst=bytes(range(16, 32)), payload_len=1300,
        next_header=6, hop_limit=64, traffic_class=0x12, flow_label=0x34567,
    )
    raw = hdr.emit()
    assert (raw[0] >> 4) == 6
    assert int.from_bytes(raw[4:6], "big") == 1300
    assert raw[6] == 6
    assert raw[7] == 64
    assert raw[8:24] == hdr.src
    assert raw[24:40] == hdr.dst


def test_ipv6_rejects_other_versions():
    raw = bytearray(Ipv6Hdr(
        src=bytes(16), dst=bytes(16), payload_len=0, next_header=59, hop_limit=1
    ).emit())
    raw[0] = 4 << 4
    with pytest.raises(ParseError):
        Ipv6Hdr.parse(bytes(raw))


def test_ipv6_emit_rejects_out_of_range():
    with pytest.raises(EmitError):
        Ipv6Hdr(
            src=bytes(16), dst=bytes(16), payload_len=0x10000,
            next_header=59, hop_limit=1,
        ).emit()


# --- TCP ---------------------------------------------------------------------


@given(
    src_port=u16, dst_port=u16, seq=u32, ack=u32,
    flags=st.integers(0, 0x1FF), window=u16, checksum=u16, urgent_ptr=u16,
    options=st.binary(max_size=40).filter(lambda b: len(b) % 4 == 0),
)
def test_tcp_emit_parse_identity(
    src_port, dst_port, seq, ack, flags, window, checksum, urgent_ptr, options
):
    hdr = TcpHdr(
        src_port=src_port, dst_port=dst_port, seq=seq, ack=ack,
        data_offset=5 + len(options) // 4, flags=flags, window=window,
        checksum=checksum, urgent_ptr=urgent_ptr, options=options,
    )
    parsed, consumed = TcpHdr.parse(hdr.emit())
    assert consumed == 20 + len(options)
    assert parsed == hdr


@given(data=st.data(), data_offset=st.integers(5, 15))
def test_tcp_parse_emit_identity(data, data_offset):
    # every buffer TCP parses: a data offset of 5..15 words, enough bytes to
    # hold it, anything at all in the other bits, trailing bytes allowed
    size = 4 * data_offset
    raw = bytearray(data.draw(st.binary(min_size=size, max_size=size + 8)))
    raw[12] = (data_offset << 4) | (raw[12] & 0x0F)
    hdr, consumed = TcpHdr.parse(bytes(raw))
    assert consumed == size
    assert hdr.emit() == bytes(raw[:size])


def test_tcp_reserved_bits_are_kept_apart_from_flags():
    raw = bytearray(build_tcp6_bytes()[54:74])
    raw[12] |= 0x0E
    hdr, _ = TcpHdr.parse(bytes(raw))
    assert (hdr.reserved, hdr.flags) == (0x7, 0x018)
    assert hdr.emit() == bytes(raw)
    with pytest.raises(EmitError, match="reserved"):
        TcpHdr(
            src_port=1, dst_port=2, seq=0, ack=0, data_offset=5,
            flags=0, window=0, checksum=0, urgent_ptr=0, reserved=8,
        ).emit()


def test_tcp_nine_bit_flags_packing():
    hdr = TcpHdr(
        src_port=1, dst_port=2, seq=0, ack=0, data_offset=5,
        flags=0x1FF, window=0, checksum=0, urgent_ptr=0,
    )
    word = int.from_bytes(hdr.emit()[12:14], "big")
    assert word >> 12 == 5
    assert word & 0x1FF == 0x1FF


def test_tcp_rejects_short_data_offset():
    raw = bytearray(TcpHdr(
        src_port=1, dst_port=2, seq=0, ack=0, data_offset=5,
        flags=0, window=0, checksum=0, urgent_ptr=0,
    ).emit())
    raw[12] = 4 << 4
    with pytest.raises(ParseError):
        TcpHdr.parse(bytes(raw))


def test_tcp_emit_rejects_inconsistent_options_length():
    with pytest.raises(EmitError):
        TcpHdr(
            src_port=1, dst_port=2, seq=0, ack=0, data_offset=5,
            flags=0, window=0, checksum=0, urgent_ptr=0, options=b"\x01" * 4,
        ).emit()


# --- ICMPv6 Packet Too Big ----------------------------------------------------


@given(checksum=u16, mtu=u32, body=st.binary(max_size=1232))
def test_icmpv6_emit_parse_identity(checksum, mtu, body):
    hdr = Icmpv6PktTooBig(checksum=checksum, mtu=mtu, invoking_packet=body)
    parsed, consumed = Icmpv6PktTooBig.parse(hdr.emit())
    assert consumed == 8 + len(body)
    assert parsed == hdr


@given(raw=st.binary(min_size=8, max_size=1240))
def test_icmpv6_parse_emit_identity(raw):
    # every buffer ICMPv6 PTB parses: type 2, code 0, 8 to 1240 bytes, which
    # the message consumes to the end
    raw = b"\x02\x00" + raw[2:]
    hdr, consumed = Icmpv6PktTooBig.parse(raw)
    assert consumed == len(raw)
    assert hdr.emit() == raw


def test_icmpv6_parse_rejects_body_over_reply_budget():
    # RFC 4443 2.4(c): a body that emit would refuse must not parse either
    fits = Icmpv6PktTooBig(checksum=0, mtu=1280, invoking_packet=bytes(1232)).emit()
    assert Icmpv6PktTooBig.parse(fits)[1] == 1240
    with pytest.raises(ParseError, match="budget"):
        Icmpv6PktTooBig.parse(fits + b"\x00")
    with pytest.raises(ParseError, match="budget"):
        Icmpv6PktTooBig.parse(fits[:8] + bytes(1300))


def test_icmpv6_rejects_other_types():
    raw = bytearray(Icmpv6PktTooBig(checksum=0, mtu=1280, invoking_packet=b"").emit())
    raw[0] = 1
    with pytest.raises(ParseError):
        Icmpv6PktTooBig.parse(bytes(raw))
    raw[0] = 2
    raw[1] = 1
    with pytest.raises(ParseError):
        Icmpv6PktTooBig.parse(bytes(raw))


def test_icmpv6_emit_caps_invoking_packet():
    # 8 header bytes + 1232 invoking bytes fill the 1240-byte budget.
    Icmpv6PktTooBig(checksum=0, mtu=1280, invoking_packet=bytes(1232)).emit()
    with pytest.raises(EmitError):
        Icmpv6PktTooBig(checksum=0, mtu=1280, invoking_packet=bytes(1233)).emit()


# --- SRv6 routing header -------------------------------------------------------


@given(
    next_header=u8,
    segments=st.lists(addrs, min_size=1, max_size=8),
    flags=u8,
    tag=u16,
    data=st.data(),
)
def test_srv6_emit_parse_identity(next_header, segments, flags, tag, data):
    segments_left = data.draw(st.integers(0, len(segments)))
    hdr = Srv6RoutingHdr(
        next_header=next_header, segments_left=segments_left,
        segments=segments, flags=flags, tag=tag,
    )
    parsed, consumed = Srv6RoutingHdr.parse(hdr.emit())
    assert consumed == 8 + 16 * len(segments)
    assert parsed == hdr


@given(data=st.data(), n_segments=st.integers(1, 127))
def test_srv6_parse_emit_identity(data, n_segments):
    # every buffer SRv6 parses: routing type 4, an even extension length
    # with a matching last entry, segments left within the list, anything
    # at all in the other bytes, trailing bytes allowed
    size = 8 + 16 * n_segments
    raw = bytearray(data.draw(st.binary(min_size=size, max_size=size + 8)))
    raw[1] = 2 * n_segments
    raw[2] = 4
    raw[3] = data.draw(st.integers(0, n_segments))
    raw[4] = n_segments - 1
    hdr, consumed = Srv6RoutingHdr.parse(bytes(raw))
    assert consumed == size
    assert hdr.emit() == bytes(raw[:size])


def test_srv6_derived_fields():
    hdr = Srv6RoutingHdr(
        next_header=59, segments_left=1,
        segments=[bytes(16), bytes(range(16))],
    )
    assert hdr.hdr_ext_len == 4
    assert hdr.last_entry == 1
    raw = hdr.emit()
    assert len(raw) == 8 + 8 * hdr.hdr_ext_len == 40
    assert raw[1] == 4
    assert raw[2] == 4  # routing type
    assert raw[4] == 1  # last entry


def test_srv6_parse_rejects_inconsistencies():
    good = Srv6RoutingHdr(
        next_header=59, segments_left=0, segments=[bytes(16)]
    ).emit()

    wrong_type = bytearray(good)
    wrong_type[2] = 3
    with pytest.raises(ParseError):
        Srv6RoutingHdr.parse(bytes(wrong_type))

    odd_len = bytearray(good)
    odd_len[1] = 3
    with pytest.raises(ParseError):
        Srv6RoutingHdr.parse(bytes(odd_len))

    bad_last_entry = bytearray(good)
    bad_last_entry[4] = 5
    with pytest.raises(ParseError):
        Srv6RoutingHdr.parse(bytes(bad_last_entry))

    bad_segments_left = bytearray(good)
    bad_segments_left[3] = 2
    with pytest.raises(ParseError):
        Srv6RoutingHdr.parse(bytes(bad_segments_left))

    with pytest.raises(ParseError):
        Srv6RoutingHdr.parse(good[:20])


def test_srv6_emit_rejects_bad_segments():
    with pytest.raises(EmitError):
        Srv6RoutingHdr(next_header=59, segments_left=0, segments=[]).emit()
    with pytest.raises(EmitError):
        Srv6RoutingHdr(
            next_header=59, segments_left=0, segments=[bytes(8)]
        ).emit()
    with pytest.raises(EmitError):
        Srv6RoutingHdr(
            next_header=59, segments_left=2, segments=[bytes(16)]
        ).emit()


# --- Packet ----------------------------------------------------------------------


def test_packet_chain_parsing(tcp6_packet):
    eth, consumed = tcp6_packet.parse_header("EthHdr")
    assert consumed == 14
    ipv6, _ = tcp6_packet.parse_header("Ipv6Hdr")
    tcp, _ = tcp6_packet.parse_header("TcpHdr")
    assert [(e.header_type, e.offset, e.length) for e in tcp6_packet.chain] == [
        ("EthHdr", 0, 14), ("Ipv6Hdr", 14, 40), ("TcpHdr", 54, 20),
    ]
    assert ipv6.payload_len == 1300
    assert tcp.src_port == 4242
    assert tcp6_packet.decode(tcp6_packet.chain[1]) == ipv6
    assert len(tcp6_packet.data) - 74 == 1300 - 20


def test_header_edit_in_place_changes_only_its_bytes(tcp6_packet):
    original = bytes(tcp6_packet.data)
    ipv6, _ = Ipv6Hdr.parse(tcp6_packet.data, 14)
    tcp6_packet.data[14:54] = replace(ipv6, payload_len=60).emit()
    assert Ipv6Hdr.parse(tcp6_packet.data, 14)[0].payload_len == 60
    assert len(tcp6_packet.data) == len(original)
    # only the two length bytes changed
    assert bytes(tcp6_packet.data[:18]) == original[:18]
    assert bytes(tcp6_packet.data[20:]) == original[20:]


def test_packet_parse_truncated():
    packet = Packet.from_bytes(build_tcp6_bytes()[:30])
    packet.parse_header("EthHdr")
    with pytest.raises(ParseError):
        packet.parse_header("Ipv6Hdr")


# --- every codec on hostile input ---------------------------------------------------

CODECS = [EthHdr, Ipv6Hdr, TcpHdr, Icmpv6PktTooBig, Srv6RoutingHdr]


def _nudge(codec, raw, at, data):
    """Set the bytes a codec checks first, so that drawn buffers also reach
    its later checks rather than failing on the first one."""
    if at + (13 if codec is TcpHdr else 5) > len(raw):
        return
    if codec is Ipv6Hdr:
        raw[at] = 0x60 | (raw[at] & 0x0F)
    elif codec is TcpHdr:
        raw[at + 12] = (data.draw(st.integers(5, 15)) << 4) | (raw[at + 12] & 0x0F)
    elif codec is Icmpv6PktTooBig:
        raw[at : at + 2] = b"\x02\x00"
    elif codec is Srv6RoutingHdr:
        n_segments = data.draw(st.integers(1, 3))
        raw[at + 1] = 2 * n_segments
        raw[at + 2] = 4
        raw[at + 3] = data.draw(st.integers(0, n_segments + 1))
        raw[at + 4] = data.draw(st.sampled_from([n_segments - 1, n_segments]))


@pytest.mark.parametrize("codec", CODECS, ids=lambda c: c.__name__)
@settings(max_examples=300)
@given(data=st.data())
def test_parse_returns_or_raises_parse_error(codec, data):
    # PAPER.md: a malformed packet can fail a check, never crash the
    # checker; at the codec level that means ParseError and nothing else
    offset = data.draw(st.integers(0, 8))
    raw = bytearray(data.draw(st.binary(max_size=offset + 64)))
    if data.draw(st.integers(0, 3)):
        _nudge(codec, raw, offset, data)
    buf = raw if data.draw(st.booleans()) else bytes(raw)
    try:
        hdr, consumed = codec.parse(buf, offset)
    except ParseError:
        return
    assert 0 < consumed <= len(buf) - offset
    assert hdr.emit() == bytes(buf[offset : offset + consumed])


ACCESSORS = {codec: standard_registry().get(codec.__name__).accessors for codec in CODECS}


def _field_read(codec, buf, at):
    """``codec.READ`` evaluated as a generated phase splices it in: None
    when the length guard or a test refuses the buffer, else the header's
    size and the value of each registry attribute."""
    rule = codec.READ
    if at + rule.unpack.size > len(buf):
        return None
    names = dict(zip(rule.fields, rule.fields), at="at", length="length")
    values = dict(zip(rule.fields, rule.unpack.unpack_from(buf, at)), at=at,
                  length=len(buf))

    def value(source):
        return eval(source.format_map(names), {}, values)

    if not all(value(test) for test in rule.tests):
        return None
    return value(rule.size), {
        name: values[name] if name in rule.fields else value(rule.attributes[name])
        for name in ACCESSORS[codec]
    }


@pytest.mark.parametrize("codec", CODECS, ids=lambda c: c.__name__)
@settings(max_examples=300)
@given(data=st.data())
def test_field_read_agrees_with_parse(codec, data):
    # what a generated egress phase reads without building the header
    offset = data.draw(st.integers(0, 8))
    raw = bytearray(data.draw(st.binary(max_size=offset + 64)))
    if data.draw(st.integers(0, 3)):
        _nudge(codec, raw, offset, data)
    # reach the Packet Too Big reply budget too
    raw += bytes(data.draw(st.one_of(st.just(0), st.integers(1220, 1250))))
    buf = raw if data.draw(st.booleans()) else bytes(raw)
    try:
        hdr, consumed = codec.parse(buf, offset)
    except ParseError:
        expected = None
    else:
        expected = consumed, {name: getattr(hdr, name) for name in ACCESSORS[codec]}
    assert _field_read(codec, buf, offset) == expected


def _tcp_with_options_cut():
    raw = bytearray(22)
    raw[12] = 6 << 4  # 24-byte header, 2 bytes short
    return bytes(raw)


def _srv6_with_segments_cut():
    good = Srv6RoutingHdr(
        next_header=59, segments_left=0, segments=[bytes(16), bytes(16)]
    ).emit()
    return good[:24]


@pytest.mark.parametrize(
    "codec, buf, offset, message",
    [
        (EthHdr, bytes(13), 0,
         "truncated Ethernet header: need 14 bytes at offset 0, have 13"),
        (EthHdr, bytes(20), 10,
         "truncated Ethernet header: need 14 bytes at offset 10, have 10"),
        (Ipv6Hdr, bytes(39), 0,
         "truncated IPv6 header: need 40 bytes at offset 0, have 39"),
        (TcpHdr, bytes(19), 0,
         "truncated TCP header: need 20 bytes at offset 0, have 19"),
        (TcpHdr, _tcp_with_options_cut(), 0,
         "truncated TCP header with options: need 24 bytes at offset 0, have 22"),
        (Icmpv6PktTooBig, bytes(7), 0,
         "truncated ICMPv6 Packet Too Big header: need 8 bytes at offset 0, have 7"),
        (Srv6RoutingHdr, bytes(7), 0,
         "truncated SRv6 routing header: need 8 bytes at offset 0, have 7"),
        (Srv6RoutingHdr, _srv6_with_segments_cut(), 0,
         "truncated SRv6 routing header segments: need 40 bytes at offset 0, "
         "have 24"),
    ],
    ids=["eth", "eth-offset", "ipv6", "tcp", "tcp-options", "icmpv6", "srv6",
         "srv6-segments"],
)
def test_truncation_messages(codec, buf, offset, message):
    # order violations embed these texts, so they are pinned exactly
    with pytest.raises(ParseError) as info:
        codec.parse(buf, offset)
    assert str(info.value) == message


# --- emit refusals ---------------------------------------------------------------
# The CLI reports a refusal by its text, as it does any PktCheckError, so
# each is pinned exactly, and a header with several bad fields names the
# first in the order below.


def _valid_headers():
    return {
        EthHdr: EthHdr(dst=bytes(6), src=bytes(6), ether_type=0x86DD),
        Ipv6Hdr: Ipv6Hdr(
            src=bytes(16), dst=bytes(16), payload_len=0, next_header=59, hop_limit=64
        ),
        TcpHdr: TcpHdr(
            src_port=1, dst_port=2, seq=3, ack=4, data_offset=5,
            flags=0x12, window=100, checksum=0, urgent_ptr=0,
        ),
        Icmpv6PktTooBig: Icmpv6PktTooBig(checksum=0, mtu=1280, invoking_packet=b""),
        Srv6RoutingHdr: Srv6RoutingHdr(
            next_header=59, segments_left=0, segments=[bytes(16)]
        ),
    }


#: Every range-checked field, codec by codec, in the order emit checks them.
RANGE_FIELDS = {
    EthHdr: [("ether_type", 16)],
    Ipv6Hdr: [("traffic_class", 8), ("flow_label", 20), ("payload_len", 16),
              ("next_header", 8), ("hop_limit", 8)],
    TcpHdr: [("src_port", 16), ("dst_port", 16), ("seq", 32), ("ack", 32),
             ("data_offset", 4), ("reserved", 3), ("flags", 9), ("window", 16),
             ("checksum", 16), ("urgent_ptr", 16)],
    Icmpv6PktTooBig: [("checksum", 16), ("mtu", 32)],
    Srv6RoutingHdr: [("next_header", 8), ("segments_left", 8), ("flags", 8),
                     ("tag", 16)],
}
#: Fields emit shifts into a shared word rather than packs on their own.
SHIFTED = {(Ipv6Hdr, "version"), (Ipv6Hdr, "traffic_class"), (Ipv6Hdr, "flow_label"),
           (TcpHdr, "data_offset"), (TcpHdr, "reserved"), (TcpHdr, "flags")}
RANGE_CASES = [
    (codec, name, bits, value)
    for codec, fields in RANGE_FIELDS.items()
    for name, bits in fields
    for value in (-1, 1 << bits)
]


def _emit_error(header) -> str:
    with pytest.raises(EmitError) as info:
        header.emit()
    return str(info.value)


@pytest.mark.parametrize(
    "codec, name, bits, value", RANGE_CASES,
    ids=[f"{c.__name__}.{n}={v}" for c, n, _, v in RANGE_CASES],
)
def test_emit_names_the_out_of_range_field(codec, name, bits, value):
    header = replace(_valid_headers()[codec], **{name: value})
    assert _emit_error(header) == f"{name} out of range for {bits}-bit field: {value}"


@pytest.mark.parametrize("codec", list(RANGE_FIELDS), ids=lambda c: c.__name__)
def test_emit_names_the_first_of_several_bad_fields(codec):
    fields = RANGE_FIELDS[codec]
    header = replace(
        _valid_headers()[codec], **{name: 1 << bits for name, bits in fields}
    )
    name, bits = fields[0]
    assert _emit_error(header) == f"{name} out of range for {bits}-bit field: {1 << bits}"
    # the last field checked, with one checked before it
    header = replace(_valid_headers()[codec], **{fields[-1][0]: -1, fields[0][0]: -1})
    assert _emit_error(header) == f"{name} out of range for {bits}-bit field: -1"


def test_emit_names_a_derived_field():
    header = Srv6RoutingHdr(next_header=59, segments_left=0, segments=[bytes(16)] * 128)
    assert _emit_error(header) == "hdr_ext_len out of range for 8-bit field: 256"


@pytest.mark.parametrize(
    "codec, changes, message",
    [
        (EthHdr, {"dst": bytes(5)}, "MAC addresses must be 6 bytes"),
        (EthHdr, {"src": bytes(7), "ether_type": -1}, "MAC addresses must be 6 bytes"),
        (Ipv6Hdr, {"version": 4, "payload_len": -1}, "IPv6 version must be 6, got 4"),
        (Ipv6Hdr, {"dst": bytes(15)}, "IPv6 addresses must be 16 bytes"),
        (Ipv6Hdr, {"src": bytes(17), "hop_limit": 256},
         "hop_limit out of range for 8-bit field: 256"),
        (TcpHdr, {"data_offset": 4}, "TCP data offset 4 below minimum 5"),
        (TcpHdr, {"data_offset": 6},
         "TCP data offset 6 disagrees with 0 option bytes"),
        (TcpHdr, {"options": bytes(3)},
         "TCP data offset 5 disagrees with 3 option bytes"),
        (Icmpv6PktTooBig, {"code": 1},
         "Packet Too Big requires type 2 code 0, got type 2 code 1"),
        (Icmpv6PktTooBig, {"invoking_packet": bytes(1233)},
         "Packet Too Big body exceeds the minimum-MTU reply budget of 1240 bytes"),
        (Srv6RoutingHdr, {"routing_type": 3, "segments": []}, "routing type must be 4"),
        (Srv6RoutingHdr, {"segments": []},
         "SRv6 routing header requires at least one segment"),
        (Srv6RoutingHdr, {"segments": [bytes(15), bytes(17)]},
         "SRv6 segments must be 16-byte addresses"),
        (Srv6RoutingHdr, {"segments": [bytes(16), bytes(15)], "tag": -1},
         "SRv6 segments must be 16-byte addresses"),
        (Srv6RoutingHdr, {"segments_left": 2},
         "segments left 2 exceeds segment count 1"),
    ],
    ids=lambda v: v.__name__ if isinstance(v, type) else None,
)
def test_emit_refusal_messages(codec, changes, message):
    assert _emit_error(replace(_valid_headers()[codec], **changes)) == message


FLOAT_CASES = [
    (codec, name) for codec, fields in RANGE_FIELDS.items() for name, _ in fields
] + [(Ipv6Hdr, "version")]


@pytest.mark.parametrize(
    "codec, name", FLOAT_CASES, ids=[f"{c.__name__}.{n}" for c, n in FLOAT_CASES]
)
def test_emit_refuses_a_float_field_as_before(codec, name):
    # in range, so no EmitError: the pack or the shift refuses it
    header = _valid_headers()[codec]
    header = replace(header, **{name: float(getattr(header, name))})
    with pytest.raises(TypeError if (codec, name) in SHIFTED else struct.error):
        header.emit()


# --- emit: the test and the ordered checks agree ---------------------------------
# An emit whose one test fails, or whose pack refuses a field, leaves it to the
# ordered checks to name the refusal; they must then raise, and an emit that
# passes must give back its header. Each header breaks at most two fields, so
# that every field is often the only bad one.


def _bits(bits):
    top = 1 << bits
    return st.integers(0, top - 1), st.sampled_from([-2, -1, top, top + 1])


def _binary(lengths):
    return lengths.flatmap(lambda n: st.binary(min_size=n, max_size=n))


def _length(n):
    return _binary(st.just(n)), _binary(st.sampled_from([0, n - 1, n + 1]))


def _bad_segment_list():
    return st.one_of(
        st.just([]),
        st.lists(addrs, min_size=128, max_size=129),
        st.tuples(st.lists(addrs, max_size=3), _length(16)[1], st.lists(addrs, max_size=3))
        .map(lambda t: t[0] + [t[1]] + t[2]),
    )


#: Per codec, each field as (valid values, bad values). TCP ``data_offset``
#: and SRv6 ``segments_left`` follow from the options and the segments, so
#: they are drawn after them.
EMIT_FIELDS = {
    EthHdr: {"dst": _length(6), "src": _length(6), "ether_type": _bits(16)},
    Ipv6Hdr: {
        "src": _length(16), "dst": _length(16), "payload_len": _bits(16),
        "next_header": _bits(8), "hop_limit": _bits(8),
        "version": (st.just(6), st.sampled_from([-1, 0, 4, 7, 16])),
        "traffic_class": _bits(8), "flow_label": _bits(20),
    },
    TcpHdr: {
        "src_port": _bits(16), "dst_port": _bits(16), "seq": _bits(32),
        "ack": _bits(32), "data_offset": (st.none(), st.integers(-1, 16)),
        "flags": _bits(9), "window": _bits(16), "checksum": _bits(16),
        "urgent_ptr": _bits(16), "reserved": _bits(3),
        "options": (_binary(st.integers(0, 10).map(lambda n: 4 * n)),
                    _binary(st.sampled_from([1, 2, 3, 41, 44]))),
    },
    Icmpv6PktTooBig: {
        "checksum": _bits(16), "mtu": _bits(32),
        "invoking_packet": (_binary(st.sampled_from([0, 1, 1231, 1232])),
                            _binary(st.integers(1233, 1235))),
        "msg_type": (st.just(ICMPV6_PKT_TOO_BIG), st.sampled_from([-1, 0, 3, 256])),
        "code": (st.just(0), st.sampled_from([-1, 1, 255, 256])),
    },
    Srv6RoutingHdr: {
        "next_header": _bits(8), "flags": _bits(8), "tag": _bits(16),
        "routing_type": (st.just(SRV6_ROUTING_TYPE), st.sampled_from([-1, 0, 3, 256])),
        "segments": (st.one_of(st.lists(addrs, min_size=1, max_size=3),
                               st.lists(addrs, min_size=126, max_size=127)),
                     _bad_segment_list()),
        "segments_left": (st.none(), st.none()),
    },
}


@st.composite
def _emit_inputs(draw, codec):
    fields = EMIT_FIELDS[codec]
    shuffled = draw(st.permutations(sorted(fields)))
    broken = set(shuffled[: draw(st.sampled_from([0, 1, 1, 2]))])
    values = {name: draw(fields[name][name in broken]) for name in fields}
    if "data_offset" in values and values["data_offset"] is None:
        values["data_offset"] = 5 + len(values["options"]) // 4
    if "segments_left" in values:
        count = len(values["segments"])
        values["segments_left"] = draw(
            st.one_of(st.just(count + 1), st.sampled_from([-1, 256]))
            if "segments_left" in broken
            else st.integers(0, count)
        )
    return codec(**values)


@pytest.mark.parametrize("codec", CODECS, ids=lambda c: c.__name__)
@settings(max_examples=300)
@given(data=st.data())
def test_emit_gives_back_its_header_or_raises_emit_error(codec, data):
    header = data.draw(_emit_inputs(codec))
    try:
        raw = header.emit()
    except EmitError:
        return
    assert isinstance(raw, bytes)
    assert codec.parse(raw) == (header, len(raw))
