import random
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pktcheck import EmitError, internet_checksum, pseudo_header_checksum
from pktcheck.checksum import ICMPV6_PROTO, TCP_PROTO

from conftest import ones_complement_oracle


def test_worked_example():
    # Classic eight-byte example: 00 01 f2 03 f4 f5 f6 f7 -> 0x220D.
    assert internet_checksum(bytes.fromhex("0001f203f4f5f6f7")) == 0x220D


def test_empty_buffer():
    assert internet_checksum(b"") == 0xFFFF


def test_odd_length_pads_with_zero():
    assert internet_checksum(b"\xab") == internet_checksum(b"\xab\x00")
    assert internet_checksum(b"\x01\x02\x03") == internet_checksum(b"\x01\x02\x03\x00")


def test_brute_force_equivalence_on_random_buffers():
    rng = random.Random(20240817)
    for _ in range(1000):
        data = rng.randbytes(rng.randint(0, 300))
        assert internet_checksum(data) == ones_complement_oracle(data)


# Random bytes almost never sum to 0 or to a multiple of 0xFFFF, the one
# case where a remainder mod 0xFFFF must be told apart from a folded sum.


@pytest.mark.parametrize("length", [1, 2, 3, 4, 40, 1280, 1281])
def test_all_zero_buffer_sums_to_zero(length):
    data = bytes(length)
    assert internet_checksum(data) == ones_complement_oracle(data) == 0xFFFF


@pytest.mark.parametrize("length", [2, 4, 40, 1280])
def test_all_ones_buffer_folds_to_0xffff(length):
    data = b"\xff" * length
    assert internet_checksum(data) == ones_complement_oracle(data) == 0x0000


@given(st.lists(st.integers(0, 0xFFFF), max_size=64))
def test_nonzero_multiple_of_0xffff_gives_zero(words):
    # close the sum to a multiple of 0xFFFF with one last word
    words = words + [(-sum(words)) % 0xFFFF]
    if not any(words):
        words[-1] = 0xFFFF
    data = struct.pack(f"!{len(words)}H", *words)
    assert internet_checksum(data) == ones_complement_oracle(data) == 0x0000


def test_odd_lengths_match_oracle():
    rng = random.Random(3)
    short = [bytes([b]) for b in range(256)] + [
        b"\x00\x00\x00", b"\xff\xff\x00", b"\xff\xff\xff", b"\x00\x01\xfe",
    ] + [rng.randbytes(3) for _ in range(256)]
    for data in short:
        assert internet_checksum(data) == ones_complement_oracle(data), data


def test_largest_odd_buffer_matches_oracle():
    data = random.Random(65535).randbytes(65535)
    assert internet_checksum(data) == ones_complement_oracle(data)
    ones = b"\xff" * 65535
    assert internet_checksum(ones) == ones_complement_oracle(ones) == 0x00FF


@given(st.binary(max_size=512))
def test_matches_oracle(data):
    assert internet_checksum(data) == ones_complement_oracle(data)


@given(st.binary(max_size=256).filter(lambda d: len(d) % 2 == 0))
def test_verification_folds_to_zero(data):
    # Appending the checksum makes the whole buffer sum to the complement
    # of zero, which is how receivers verify.
    checksum = internet_checksum(data)
    assert internet_checksum(data + struct.pack("!H", checksum)) == 0


@given(
    src=st.binary(min_size=16, max_size=16),
    dst=st.binary(min_size=16, max_size=16),
    body=st.binary(max_size=200),
)
def test_pseudo_header_swap_invariance(src, dst, body):
    # One's-complement addition commutes, so swapping source and
    # destination addresses never changes the checksum.
    forward = pseudo_header_checksum(src, dst, len(body), TCP_PROTO, body)
    swapped = pseudo_header_checksum(dst, src, len(body), TCP_PROTO, body)
    assert forward == swapped


def test_pseudo_header_matches_manual_layout():
    src, dst = bytes(range(16)), bytes(range(16, 32))
    body = b"\x80\x00\x00\x00\x00\x00\x05\x00"
    pseudo = src + dst + struct.pack("!I3xB", len(body), ICMPV6_PROTO)
    assert pseudo_header_checksum(
        src, dst, len(body), ICMPV6_PROTO, body
    ) == ones_complement_oracle(pseudo + body)


def test_pseudo_header_rejects_bad_addresses():
    with pytest.raises(EmitError):
        pseudo_header_checksum(b"\x00" * 4, b"\x00" * 16, 0, TCP_PROTO, b"")
    with pytest.raises(EmitError):
        pseudo_header_checksum(b"\x00" * 16, b"\x00" * 15, 0, TCP_PROTO, b"")


def test_pseudo_header_rejects_length_mismatch():
    with pytest.raises(EmitError):
        pseudo_header_checksum(b"\x00" * 16, b"\x00" * 16, 5, TCP_PROTO, b"abc")
