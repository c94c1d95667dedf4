"""Example network functions with contracts attached.

Two NFs are provided, addressable by name:

``mtu-too-big``
    Rewrites oversized Eth/IPv6/TCP packets into ICMPv6 Packet Too Big
    replies returned to the sender (Ethernet and IPv6 addresses swapped,
    payload truncated to fit the IPv6 minimum MTU). Undersized or
    non-matching packets pass through untouched.

``srv6-change-pkt``
    Appends one segment to an SRv6 routing header and keeps the dependent
    fields consistent: last entry, header length, and the enclosing IPv6
    payload length. Its egress contract asserts each delta against the
    ingress snapshot, which is what catches the classic bug of growing
    the segment list while forgetting the outer length field.

The catalog is data: each NF's transform and its one contract, parsed
once, at import. ``make_nf``, the way in, elaborates the contract against a
registry and binds switches to the transform: fault-injection flags
(``omit_ipv6_swap``, ``omit_payload_len_update``, ...) that plant the bug a
contract written for the correct NF must catch; no switch changes it.
Transforms are pure functions of the packet bytes: they never consult the
ingress snapshot, so behavior is identical whether contracts run or not.
They report only their output: the checked loop, not the NF, decides which
outputs the egress contract checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

from .checksum import pseudo_header_checksum
from .contracts import Contract, ContractSpec, elaborate, parse_contract_spec
from .exceptions import ConfigError, ParseError
from .headers import (
    ETH_HDR_SIZE,
    ETHERTYPE_IPV6,
    IPV6_HDR_SIZE,
    IPV6_MIN_MTU,
    MAX_SRV6_SEGMENTS,
    PROTO_ICMPV6,
    PROTO_SRV6,
    PROTO_TCP,
    EthHdr,
    Icmpv6PktTooBig,
    Ipv6Hdr,
    Packet,
    Srv6RoutingHdr,
    TcpHdr,
)
from .registry import Registry

#: Largest invoking-packet slice that keeps the ICMPv6 reply's IPv6 payload
#: at exactly IPV6_MIN_MTU - IPV6_HDR_SIZE bytes.
MAX_INVOKING_BYTES = IPV6_MIN_MTU - IPV6_HDR_SIZE - Icmpv6PktTooBig.READ.unpack.size

#: Offset of the header after Ethernet and the fixed IPv6 header.
_L3_END = ETH_HDR_SIZE + IPV6_HDR_SIZE


@dataclass(slots=True)
class TransformResult:
    """Outcome of one NF transform application.

    ``packet`` is the outgoing packet, None when the transform drops it
    with ``drop_reason``. A pass-through returns the packet it was given.
    Which outputs the egress contract checks is not the NF's to say: the
    checked loop runs egress on each output whose bytes differ from its
    input's.
    """

    packet: Packet | None
    drop_reason: str | None = None

    @property
    def dropped(self) -> bool:
        return self.packet is None


@dataclass(frozen=True)
class NetworkFunction:
    """A named transform plus its elaborated contract (None = uncontracted)."""

    name: str
    transform: Callable[[Packet], TransformResult]
    contract: Contract | None

    def apply(self, packet: Packet) -> TransformResult:
        return self.transform(packet)


def _eth_ipv6(data: bytes, next_header: int) -> tuple[EthHdr, Ipv6Hdr] | None:
    """The Eth and IPv6 headers, or None unless both decode and lead to ``next_header``."""
    try:
        eth, _ = EthHdr.parse(data)
        if eth.ether_type != ETHERTYPE_IPV6:
            return None
        ipv6, _ = Ipv6Hdr.parse(data, ETH_HDR_SIZE)
    except ParseError:
        return None
    return (eth, ipv6) if ipv6.next_header == next_header else None


# --- mtu-too-big -------------------------------------------------------------

MTU_TOO_BIG_CONTRACT = """
check(IPV6_MIN_MTU = 1280, ETH_HDR_SIZE = 14)
pre {
    order: [EthHdr => Ipv6Hdr => TcpHdr<Ipv6Hdr>],
    checks: [(payload_len[Ipv6Hdr], >, IPV6_MIN_MTU)]
}
post {
    order: [EthHdr => Ipv6Hdr => Icmpv6PktTooBig<Ipv6Hdr>],
    checks: [(checksum[Icmpv6PktTooBig], neq, checksum[TcpHdr<Ipv6Hdr>]),
             (payload_len[Ipv6Hdr], ==, 1240),
             (src[Ipv6Hdr], ==, dst[Ipv6Hdr]),
             (dst[Ipv6Hdr], ==, src[Ipv6Hdr]),
             (.src[EthHdr], ==, .dst[EthHdr]),
             (.dst[EthHdr], ==, .src[EthHdr])]
}
static: [IPV6_MIN_MTU + ETH_HDR_SIZE == 1294]
"""


def send_too_big(
    packet: Packet,
    *,
    omit_ipv6_swap: bool = False,
    omit_eth_swap: bool = False,
) -> TransformResult:
    """Turn an oversized TCP/IPv6 packet into an ICMPv6 Packet Too Big reply.

    Packets that are not Eth/IPv6/TCP, or whose IPv6 payload length does
    not exceed the minimum MTU, pass through unchanged. The reply carries
    as much of the invoking packet as fits while keeping the reply's own
    IPv6 payload at exactly 1240 bytes, and is addressed back to the
    sender. The ``omit_*`` flags suppress the address swaps, simulating
    the bug the egress contract exists to catch.

    Pass-through is decided on the Ethernet and IPv6 headers alone, so
    that an undersized packet costs no TCP decode; an oversized one gets a
    reply only if its TCP header decodes too.
    """
    data = packet.data
    headers = _eth_ipv6(data, PROTO_TCP)
    if headers is None or headers[1].payload_len <= IPV6_MIN_MTU:
        return TransformResult(packet)
    eth, ipv6 = headers
    try:
        TcpHdr.parse(data, _L3_END)
    except ParseError:
        return TransformResult(packet)

    # _eth_ipv6 accepted only the IPv6 ethertype, so eth is the unswapped reply's
    new_eth = eth if omit_eth_swap else EthHdr(
        dst=eth.src, src=eth.dst, ether_type=ETHERTYPE_IPV6
    )
    new_src, new_dst = (ipv6.src, ipv6.dst) if omit_ipv6_swap else (ipv6.dst, ipv6.src)
    new_ipv6 = Ipv6Hdr(
        src=new_src,
        dst=new_dst,
        payload_len=IPV6_MIN_MTU - IPV6_HDR_SIZE,
        next_header=PROTO_ICMPV6,
        hop_limit=64,
    )

    end = min(_L3_END + ipv6.payload_len, len(data), ETH_HDR_SIZE + MAX_INVOKING_BYTES)
    invoking = data[ETH_HDR_SIZE:end]
    icmp = Icmpv6PktTooBig(checksum=0, mtu=IPV6_MIN_MTU, invoking_packet=invoking)
    body = icmp.emit()
    icmp.checksum = pseudo_header_checksum(new_ipv6.src, new_ipv6.dst, PROTO_ICMPV6, body)
    out = Packet.from_bytes(new_eth.emit() + new_ipv6.emit() + icmp.emit())
    return TransformResult(out)


# --- srv6-change-pkt ---------------------------------------------------------

#: The segment srv6-change-pkt appends: a stable documentation-range
#: address so identical inputs yield identical outputs.
DEFAULT_SEGMENT = bytes.fromhex("20010db8000000000000000000000099")


SRV6_CHANGE_PKT_CONTRACT = """
check(SEG_BYTES = 16, SRV6_TYPE = 4)
pre {
    order: [EthHdr => Ipv6Hdr => Srv6RoutingHdr],
    checks: [(routing_type[Srv6RoutingHdr], ==, SRV6_TYPE),
             (segments_left[Srv6RoutingHdr], <=, last_entry[Srv6RoutingHdr] + 1)]
}
post {
    order: [EthHdr => Ipv6Hdr => Srv6RoutingHdr],
    checks: [(payload_len[Ipv6Hdr], ==, payload_len[Ipv6Hdr] + SEG_BYTES),
             (hdr_ext_len[Srv6RoutingHdr], ==, hdr_ext_len[Srv6RoutingHdr] + 2),
             (last_entry[Srv6RoutingHdr], ==, last_entry[Srv6RoutingHdr] + 1),
             (segments_left[Srv6RoutingHdr], ==, segments_left[Srv6RoutingHdr])]
}
static: [SEG_BYTES * 8 == 128]
"""


def srv6_add_segment(packet: Packet, *, omit_payload_len_update: bool = False) -> TransformResult:
    """Append ``DEFAULT_SEGMENT`` to the packet's SRv6 routing header.

    Growing the segment list ripples into three other fields: last entry
    and the extension-header length inside the routing header, and the
    payload length of the enclosing IPv6 header. Segments-left and the IPv6
    destination stay as they were: the insert is pure record-keeping.
    A full segment list (another entry would overflow the 8-bit length), or
    an IPv6 payload length that the new segment would push past 16 bits,
    drops the packet with a reason.

    ``omit_payload_len_update`` leaves the IPv6 payload length stale — the
    consequence bug the egress contract flags on every affected packet.
    """
    data = packet.data
    if (headers := _eth_ipv6(data, PROTO_SRV6)) is None:
        return TransformResult(packet)
    eth, ipv6 = headers
    try:
        srh, srh_size = Srv6RoutingHdr.parse(data, _L3_END)
    except ParseError:
        return TransformResult(packet)

    if len(srh.segments) + 1 > MAX_SRV6_SEGMENTS:
        reason = (
            f"segment list full: {len(srh.segments)} segments; appending "
            "would overflow the routing header's 8-bit length field"
        )
        return TransformResult(None, reason)
    if not omit_payload_len_update and ipv6.payload_len + len(DEFAULT_SEGMENT) > 0xFFFF:
        reason = (
            f"IPv6 payload length {ipv6.payload_len} cannot grow by "
            f"{len(DEFAULT_SEGMENT)} bytes within its 16-bit field"
        )
        return TransformResult(None, reason)

    # srh and ipv6 were decoded just above, for this call alone, so they
    # are updated in place
    srh.segments.append(DEFAULT_SEGMENT)
    if not omit_payload_len_update:
        ipv6.payload_len += len(DEFAULT_SEGMENT)
    rest = data[_L3_END + srh_size :]
    out = Packet.from_bytes(eth.emit() + ipv6.emit() + srh.emit() + rest)
    return TransformResult(out)


# --- catalog -----------------------------------------------------------------


#: Each catalog NF's transform, the switches ``make_nf`` may bind to it and
#: its one contract, parsed once, at import.
CATALOG: dict[str, tuple[Callable[..., TransformResult], frozenset, ContractSpec]] = {
    "mtu-too-big": (send_too_big, frozenset({"omit_ipv6_swap", "omit_eth_swap"}),
                    parse_contract_spec(MTU_TOO_BIG_CONTRACT, nf_name="mtu-too-big")),
    "srv6-change-pkt": (srv6_add_segment, frozenset({"omit_payload_len_update"}),
                        parse_contract_spec(SRV6_CHANGE_PKT_CONTRACT, nf_name="srv6-change-pkt")),
}


def make_nf(name: str, registry: Registry, /, **switches) -> NetworkFunction:
    """Build a catalog NF by name: elaborate its parsed contract against
    ``registry`` and bind ``switches`` to its transform. A switch it does not
    take is refused here, before any packet flows; the clean NF calls the
    transform itself."""
    try:
        transform, known, spec = CATALOG[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        raise ConfigError(
            f"unknown NF {name!r} (known: {', '.join(sorted(CATALOG))})"
        ) from None
    unknown = sorted(set(switches) - known)
    if unknown:
        raise ConfigError(
            f"unknown switch {', '.join(map(repr, unknown))} for NF {name!r} "
            f"(known: {', '.join(sorted(known))})"
        )
    for switch, value in switches.items():
        if type(value) is not bool:  # a truthy "no" would turn the switch on
            raise ConfigError(f"switch {switch!r} takes a bool, not {value!r}")
    contract = elaborate(spec, registry)
    if switches:
        transform = partial(transform, **switches)
    return NetworkFunction(name=name, transform=transform, contract=contract)
