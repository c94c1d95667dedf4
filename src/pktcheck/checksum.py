"""Internet checksum arithmetic (RFC 1071) and the IPv6 pseudo-header rule.

The one's-complement sum of 16-bit words is addition modulo 0xFFFF with
0xFFFF standing in for zero (RFC 1071 section 2, deferred carries): since
2**16 is 1 modulo 0xFFFF, a word's carry out of bit 15 wraps around to
bit 0 in the remainder. A buffer read as one big-endian integer is the sum
of its words, each scaled by a power of 2**16, so that integer modulo
0xFFFF is the folded sum and no per-word loop is needed. The only case the
remainder cannot tell apart is 0: a sum that is a nonzero multiple of
0xFFFF folds to 0xFFFF, and only an all-zero buffer sums to 0.
"""

from __future__ import annotations

import struct

from .exceptions import EmitError

TCP_PROTO = 6
ICMPV6_PROTO = 58


def internet_checksum(data: bytes) -> int:
    """One's-complement of the one's-complement 16-bit sum of ``data``.

    Odd-length input is padded with a trailing zero byte for summation.
    A result of 0xFFFF (zero sum) is returned as-is.
    """
    value = int.from_bytes(data, "big")
    if len(data) % 2:
        value <<= 8
    total = value % 0xFFFF
    if total == 0 and value:
        total = 0xFFFF
    return ~total & 0xFFFF


def pseudo_header_checksum(
    src: bytes, dst: bytes, upper_len: int, next_header: int, upper_layer_bytes: bytes
) -> int:
    """Checksum over the IPv6 pseudo-header followed by the upper-layer bytes.

    The pseudo-header is src | dst | 32-bit upper-layer length | 3 zero
    bytes | next-header. The checksum field inside ``upper_layer_bytes``
    must already be zeroed by the caller.
    """
    if len(src) != 16 or len(dst) != 16:
        raise EmitError("pseudo-header addresses must be 16 bytes")
    if upper_len != len(upper_layer_bytes):
        raise EmitError(
            f"upper-layer length mismatch: declared {upper_len}, "
            f"got {len(upper_layer_bytes)} bytes"
        )
    pseudo = src + dst + struct.pack("!I3xB", upper_len, next_header)
    return internet_checksum(pseudo + upper_layer_bytes)
