import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pktcheck import (
    ConfigError,
    GeneratorSpec,
    generate,
    generate_records,
    internet_checksum,
    order,
    verify_order,
)
from pktcheck.registry import parse_chain

TCP6_ORDER = order("EthHdr", "Ipv6Hdr", ("TcpHdr", "Ipv6Hdr"))
SRV6_ORDER = order("EthHdr", "Ipv6Hdr", "Srv6RoutingHdr")


def test_same_spec_same_bytes():
    spec = GeneratorSpec(count=8, template="tcp6", payload_len=(60, 600), seed=99)
    first = [bytes(p.data) for p in generate(spec)]
    second = [bytes(p.data) for p in generate(spec)]
    assert first == second


def test_different_seeds_differ():
    base = GeneratorSpec(count=4, template="tcp6", payload_len=200, seed=1)
    other = GeneratorSpec(count=4, template="tcp6", payload_len=200, seed=2)
    assert [bytes(p.data) for p in generate(base)] != [
        bytes(p.data) for p in generate(other)
    ]


@settings(max_examples=40)
@given(seed=st.integers(min_value=0, max_value=2**31), length=st.integers(60, 1600))
def test_tcp6_packets_are_well_formed(registry, seed, length):
    spec = GeneratorSpec(count=2, template="tcp6", payload_len=length, seed=seed)
    for packet in generate(spec):
        decoded, _ = parse_chain(packet, verify_order(registry, TCP6_ORDER))
        ipv6 = decoded[1]
        assert ipv6.payload_len == length
        assert ipv6.src[:4] == bytes([0x20, 0x01, 0x0D, 0xB8])
        assert len(packet.data) == 14 + 40 + length

        # independent verification: TCP checksum over the pseudo-header
        # plus segment must fold to zero
        data = bytes(packet.data)
        pseudo = data[22:38] + data[38:54] + struct.pack("!I3xB", length, 6)
        assert internet_checksum(pseudo + data[54:]) == 0


@settings(max_examples=40)
@given(seed=st.integers(min_value=0, max_value=2**31), length=st.integers(24, 900))
def test_srv6_packets_are_well_formed(registry, seed, length):
    spec = GeneratorSpec(count=2, template="srv6", payload_len=length, seed=seed)
    for packet in generate(spec):
        decoded, _ = parse_chain(packet, verify_order(registry, SRV6_ORDER))
        ipv6, srh = decoded[1], decoded[2]
        assert ipv6.payload_len == length
        assert ipv6.next_header == 43
        assert 1 <= len(srh.segments) <= 4
        assert srh.segments_left <= srh.last_entry + 1
        assert len(packet.data) == 14 + 40 + length


def test_payload_range_respected():
    spec = GeneratorSpec(count=50, template="tcp6", payload_len=(20, 25), seed=3)
    lengths = {len(p.data) - 54 for p in generate(spec)}
    assert lengths <= set(range(20, 26))
    assert len(lengths) > 1  # actually varies


def test_minimum_payload_boundaries():
    assert generate(GeneratorSpec(count=1, template="tcp6", payload_len=20))
    with pytest.raises(ConfigError, match="below template minimum 20"):
        GeneratorSpec(count=1, template="tcp6", payload_len=19)
    assert generate(GeneratorSpec(count=1, template="srv6", payload_len=24))
    with pytest.raises(ConfigError, match="below template minimum 24"):
        GeneratorSpec(count=1, template="srv6", payload_len=23)


def test_spec_validation():
    with pytest.raises(ConfigError, match="unknown template"):
        GeneratorSpec(count=1, template="udp4")
    with pytest.raises(ConfigError, match="count must be non-negative"):
        GeneratorSpec(count=-1)
    with pytest.raises(ConfigError, match="empty payload length range"):
        GeneratorSpec(count=1, payload_len=(100, 60))
    with pytest.raises(ConfigError, match="16-bit"):
        GeneratorSpec(count=1, payload_len=65536)


@pytest.mark.parametrize("payload_len", [(100,), (60, 100, 200), [60, 100], "100",
                                         (60.0, 100), None, (True, 300)])
def test_spec_refuses_a_payload_length_of_another_shape(payload_len):
    with pytest.raises(ConfigError) as excinfo:
        GeneratorSpec(count=1, payload_len=payload_len)
    assert str(excinfo.value) == (
        f"payload length must be an int or a pair of ints, not {payload_len!r}"
    )


@pytest.mark.parametrize("count", [2.5, "3", None, True])
def test_spec_refuses_a_count_that_is_not_an_int(count):
    # a float count used to pass validation and fail inside generation
    with pytest.raises(ConfigError) as excinfo:
        GeneratorSpec(count=count)
    assert str(excinfo.value) == f"count must be an int, not {count!r}"


def test_records_have_sequential_timestamps():
    records = generate_records(GeneratorSpec(count=5, payload_len=30, seed=4))
    assert [r.ts_usec for r in records] == [0, 1, 2, 3, 4]
    assert all(r.ts_sec == 0 for r in records)
    packets = generate(GeneratorSpec(count=5, payload_len=30, seed=4))
    assert [r.data for r in records] == [bytes(p.data) for p in packets]


def test_timestamps_carry_into_seconds_at_a_million_records(monkeypatch):
    # count from record 999,998 instead of building a million packets
    from pktcheck import generator

    monkeypatch.setattr(generator, "enumerate",
                        lambda iterable: enumerate(iterable, 999_998), raising=False)
    records = generate_records(GeneratorSpec(count=3, payload_len=30, seed=4))
    assert [(r.ts_sec, r.ts_usec) for r in records] == [
        (0, 999_998), (0, 999_999), (1, 0)
    ]
