"""Deterministic synthetic packet generation.

Each template is one entry of ``TEMPLATES``: a builder that draws one IPv6
payload of the requested length and hands it to ``_frame``, which puts the
IPv6 and Ethernet headers in front, and the smallest length it takes.

Generation is reproducible: the same GeneratorSpec (including seed)
yields the same byte stream. Timestamps are sequential microseconds so
pcap output is stable too.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from .checksum import pseudo_header_checksum
from .exceptions import ConfigError
from .headers import (
    ETHERTYPE_IPV6,
    PROTO_SRV6,
    PROTO_NONE,
    PROTO_TCP,
    EthHdr,
    Ipv6Hdr,
    Srv6RoutingHdr,
    TcpHdr,
)
from .pcap import PcapRecord

TCP_FLAG_PSH_ACK = 0x018


@dataclass(frozen=True)
class GeneratorSpec:
    """What to generate: template, count, payload length (fixed or range),
    and the RNG seed."""

    count: int
    template: str = "tcp6"
    payload_len: int | tuple[int, int] = 1300
    seed: int = 0

    def __post_init__(self):
        try:  # an unhashable template is as unknown as a misspelt one
            _, minimum = TEMPLATES[self.template]
        except (KeyError, TypeError):
            raise ConfigError(
                f"unknown template {self.template!r} (known: {', '.join(TEMPLATES)})"
            ) from None
        # type() and not isinstance(): a bool is an int, but no count or
        # seed, and a seed of None would draw from the OS
        for name, value in (("count", self.count), ("seed", self.seed)):
            if type(value) is not int:
                raise ConfigError(f"{name} must be an int, not {value!r}")
        if self.count < 0:
            raise ConfigError("count must be non-negative")
        payload = self.payload_len
        if type(payload) is not int and not (
            isinstance(payload, tuple) and len(payload) == 2
            and all(type(n) is int for n in payload)
        ):
            raise ConfigError(
                f"payload length must be an int or a pair of ints, not {payload!r}"
            )
        lo, hi = self.payload_bounds()
        if lo > hi:
            raise ConfigError(f"empty payload length range {self.payload_len!r}")
        if lo < minimum:
            raise ConfigError(
                f"payload length {lo} below template minimum {minimum} "
                f"for {self.template!r}"
            )
        if hi > 65535:
            raise ConfigError("payload length exceeds the 16-bit IPv6 field")

    def payload_bounds(self) -> tuple[int, int]:
        if isinstance(self.payload_len, int):
            return self.payload_len, self.payload_len
        return self.payload_len


def _random_mac(rng: random.Random) -> bytes:
    # Locally administered unicast (02:...), never a real vendor OUI.
    return bytes([0x02]) + rng.randbytes(5)


def _random_addr(rng: random.Random) -> bytes:
    # 2001:db8::/32 documentation prefix.
    return bytes([0x20, 0x01, 0x0D, 0xB8]) + rng.randbytes(12)


def _frame(rng: random.Random, src: bytes, dst: bytes, next_header: int,
           payload: bytes) -> bytes:
    """``payload`` behind an IPv6 header whose payload length is its length,
    behind an Ethernet header with random MACs."""
    ipv6 = Ipv6Hdr(src=src, dst=dst, payload_len=len(payload), next_header=next_header,
                   hop_limit=64)
    eth = EthHdr(dst=_random_mac(rng), src=_random_mac(rng), ether_type=ETHERTYPE_IPV6)
    return eth.emit() + ipv6.emit() + payload


def _gen_tcp6(rng: random.Random, payload_len: int) -> bytes:
    """Eth/IPv6/TCP with a valid TCP checksum; ``payload_len`` counts the
    TCP header and its application bytes, so 1300 trips mtu-too-big's MTU
    threshold."""
    src, dst = _random_addr(rng), _random_addr(rng)
    app_bytes = rng.randbytes(payload_len - TcpHdr.READ.unpack.size)
    tcp = TcpHdr(
        src_port=rng.randint(1024, 65535),
        dst_port=rng.choice((80, 443, 8080)),
        seq=rng.getrandbits(32),
        ack=rng.getrandbits(32),
        data_offset=5,
        flags=TCP_FLAG_PSH_ACK,
        window=rng.randint(1024, 65535),
        checksum=0,
        urgent_ptr=0,
    )
    segment = tcp.emit() + app_bytes
    tcp_checksum = pseudo_header_checksum(src, dst, PROTO_TCP, segment)
    segment = replace(tcp, checksum=tcp_checksum).emit() + app_bytes
    return _frame(rng, src, dst, PROTO_TCP, segment)


def _gen_srv6(rng: random.Random, payload_len: int) -> bytes:
    """Eth/IPv6/SRv6 routing header of 1–4 segments, no more than fit,
    followed by opaque payload bytes."""
    max_segments = min(4, (payload_len - Srv6RoutingHdr.READ.unpack.size) // 16)
    n_segments = rng.randint(1, max(1, max_segments))
    srh = Srv6RoutingHdr(
        next_header=PROTO_NONE,
        segments_left=rng.randint(0, n_segments),
        segments=b"".join(_random_addr(rng) for _ in range(n_segments)),
        tag=rng.getrandbits(16),
    )
    srh_bytes = srh.emit()
    rest = rng.randbytes(payload_len - len(srh_bytes))
    src, dst = _random_addr(rng), _random_addr(rng)
    return _frame(rng, src, dst, PROTO_SRV6, srh_bytes + rest)


#: Every template by name: the function that builds one of its frames from
#: the RNG and an IPv6 payload length, and the smallest length it takes (a
#: bare TCP header, or an SRv6 routing header with one segment).
TEMPLATES = {
    "tcp6": (_gen_tcp6, TcpHdr.READ.unpack.size),
    "srv6": (_gen_srv6, Srv6RoutingHdr.READ.unpack.size + 16),
}


def _generate_bytes(spec: GeneratorSpec):
    rng = random.Random(spec.seed)
    build, _ = TEMPLATES[spec.template]
    lo, hi = spec.payload_bounds()
    return (
        build(rng, lo if lo == hi else rng.randint(lo, hi)) for _ in range(spec.count)
    )


def generate_records(spec: GeneratorSpec) -> list[PcapRecord]:
    """Generate ``spec.count`` packets wrapped in pcap records with
    sequential timestamps, one microsecond apart from 0; identical specs
    yield identical bytes."""
    return [
        PcapRecord(raw, *divmod(index, 1_000_000))
        for index, raw in enumerate(_generate_bytes(spec))
    ]
