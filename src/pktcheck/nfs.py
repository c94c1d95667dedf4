"""Example network functions with contracts attached.

Two NFs are provided, addressable by name:

``mtu-too-big``
    Rewrites oversized Eth/IPv6/TCP packets into ICMPv6 Packet Too Big
    replies returned to the sender (Ethernet and IPv6 addresses swapped,
    payload truncated to fit the IPv6 minimum MTU). Undersized or
    non-matching packets pass through untouched. Its contract covers only
    oversized packets: its ``when:`` guard is decided at the IPv6 header,
    and any other IPv6 packet must leave unchanged.

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

Each transform reads its input through readers generated once, at import,
from the order it reads (``contracts.reader``): straight-line code of the
same layout steps and linkage cross-checks that a contract phase runs,
which returns only the values the transform uses and the offset where the
order ends, or None when any step refuses. It builds no input header;
of the headers it emits, it builds none: it writes its output chain with
one call of a writer generated at import from their layouts
(``headers.writer``), which packs their fixed parts at once and appends
the span. Every NF built shares the readers and the writers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

from .checksum import pseudo_header_checksum
from .contracts import Contract, ContractSpec, elaborate, parse_contract_spec, reader
from .exceptions import ConfigError
from .headers import (
    ETH_HDR_SIZE,
    ETHERTYPE_IPV6,
    ICMPV6_PKT_TOO_BIG,
    IPV6_HDR_SIZE,
    IPV6_MIN_MTU,
    MAX_SRV6_SEGMENTS,
    PROTO_ICMPV6,
    SRV6_ROUTING_TYPE,
    EthHdr,
    Icmpv6PktTooBig,
    Ipv6Hdr,
    Packet,
    Srv6RoutingHdr,
    writer,
)
from .registry import Registry, order, standard_registry, verify_order

#: Largest invoking-packet slice that keeps the ICMPv6 reply's IPv6 payload
#: at exactly IPV6_MIN_MTU - IPV6_HDR_SIZE bytes.
MAX_INVOKING_BYTES = IPV6_MIN_MTU - IPV6_HDR_SIZE - Icmpv6PktTooBig.READ.unpack.size


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


# --- mtu-too-big -------------------------------------------------------------

#: The order mtu-too-big reads. ``_READ_IPV6`` reads its first two headers
#: and returns both Ethernet addresses, the IPv6 addresses, payload length
#: and next header, and the IPv6 header's end; ``_ACCEPT_TCP`` reads the
#: TCP header there, given that end and next header, and returns only its
#: own end.
_TCP6 = verify_order(standard_registry(), order("EthHdr", "Ipv6Hdr", ("TcpHdr", "Ipv6Hdr")))
_READ_IPV6 = reader(_TCP6[:2], ((0, "dst"), (0, "src"), (1, "src"), (1, "dst"),
                                (1, "payload_len"), (1, "next_header")))
_ACCEPT_TCP = reader(_TCP6, (), 2)
#: The reply's writer, from the arguments of its three headers, and the
#: ICMPv6 header of every reply with its checksum zeroed, which the
#: checksum sums before the invoking packet.
_WRITE_REPLY = writer(EthHdr, Ipv6Hdr, Icmpv6PktTooBig)
_PTB_HEAD = Icmpv6PktTooBig(0, IPV6_MIN_MTU, b"").emit()

MTU_TOO_BIG_CONTRACT = """
check(IPV6_MIN_MTU = 1280, ETH_HDR_SIZE = 14)
pre {
    order: [EthHdr => Ipv6Hdr => TcpHdr<Ipv6Hdr>],
    when: [(payload_len[Ipv6Hdr], >, IPV6_MIN_MTU)],
    checks: []
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
    that an undersized packet costs no TCP read; an oversized one gets a
    reply only if its TCP header is accepted too.
    """
    data = packet.data
    if (read := _READ_IPV6(data)) is None:
        return TransformResult(packet)
    eth_dst, eth_src, src, dst, payload_len, next_header, l3_end = read
    if payload_len <= IPV6_MIN_MTU or _ACCEPT_TCP(data, l3_end, next_header) is None:
        return TransformResult(packet)

    reply_dst, reply_src = (eth_dst, eth_src) if omit_eth_swap else (eth_src, eth_dst)
    new_src, new_dst = (src, dst) if omit_ipv6_swap else (dst, src)
    end = min(l3_end + payload_len, len(data), ETH_HDR_SIZE + MAX_INVOKING_BYTES)
    invoking = data[ETH_HDR_SIZE:end]
    checksum = pseudo_header_checksum(new_src, new_dst, PROTO_ICMPV6, _PTB_HEAD + invoking)
    out = _WRITE_REPLY(
        reply_dst, reply_src, ETHERTYPE_IPV6,
        new_src, new_dst, IPV6_MIN_MTU - IPV6_HDR_SIZE, PROTO_ICMPV6, 64, 6, 0, 0,
        checksum, IPV6_MIN_MTU, invoking, ICMPV6_PKT_TOO_BIG, 0,
    )
    return TransformResult(Packet(out))


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

#: srv6-change-pkt's read of ``[EthHdr => Ipv6Hdr => Srv6RoutingHdr]``:
#: every IPv6 and routing header value that the rewrite emits again (the
#: layouts' tests fix IPv6 ``version`` at 6 and the routing type at 4),
#: then the routing header's end.
_READ_SRV6 = reader(
    verify_order(standard_registry(), order("EthHdr", "Ipv6Hdr", "Srv6RoutingHdr")),
    ((1, "src"), (1, "dst"), (1, "payload_len"), (1, "next_header"), (1, "hop_limit"),
     (1, "traffic_class"), (1, "flow_label"), (2, "next_header"), (2, "segments_left"),
     (2, "segments"), (2, "flags"), (2, "tag")),
)
#: srv6-change-pkt's writer, from the arguments of the IPv6 and routing
#: headers it emits again.
_WRITE_SRV6 = writer(Ipv6Hdr, Srv6RoutingHdr)


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
    if (read := _READ_SRV6(data)) is None:
        return TransformResult(packet)
    (src, dst, payload_len, next_header, hop_limit, traffic_class, flow_label,
     srh_next_header, segments_left, segments, flags, tag, end) = read

    if (count := len(segments) // 16) + 1 > MAX_SRV6_SEGMENTS:
        reason = (
            f"segment list full: {count} segments; appending "
            "would overflow the routing header's 8-bit length field"
        )
        return TransformResult(None, reason)
    if not omit_payload_len_update and payload_len + len(DEFAULT_SEGMENT) > 0xFFFF:
        reason = (
            f"IPv6 payload length {payload_len} cannot grow by "
            f"{len(DEFAULT_SEGMENT)} bytes within its 16-bit field"
        )
        return TransformResult(None, reason)

    if not omit_payload_len_update:
        payload_len += len(DEFAULT_SEGMENT)
    written = _WRITE_SRV6(
        src, dst, payload_len, next_header, hop_limit, 6, traffic_class, flow_label,
        srh_next_header, segments_left, segments + DEFAULT_SEGMENT, flags, tag, SRV6_ROUTING_TYPE,
    )
    # the Ethernet header and whatever follows the routing header are kept as read
    return TransformResult(Packet(data[:ETH_HDR_SIZE] + written + data[end:]))


# --- catalog -----------------------------------------------------------------


#: Each catalog NF's transform, the switches ``make_nf`` may bind to it and
#: its one contract, parsed once, at import.
CATALOG: dict[str, tuple[Callable[..., TransformResult], frozenset, ContractSpec]] = {
    "mtu-too-big": (send_too_big, frozenset({"omit_ipv6_swap", "omit_eth_swap"}),
                    parse_contract_spec(MTU_TOO_BIG_CONTRACT, nf_name="mtu-too-big")),
    "srv6-change-pkt": (srv6_add_segment, frozenset({"omit_payload_len_update"}),
                        parse_contract_spec(SRV6_CHANGE_PKT_CONTRACT, nf_name="srv6-change-pkt")),
}


def make_nf(name: str, registry: Registry | None = None, /, **switches) -> NetworkFunction:
    """Build a catalog NF by name: elaborate its parsed contract against
    ``registry`` (``standard_registry()`` when None) and bind ``switches``
    to its transform. A switch it does not take is refused here, before any
    packet flows; the clean NF calls the transform itself."""
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
    contract = elaborate(spec, standard_registry() if registry is None else registry)
    if switches:
        transform = partial(transform, **switches)
    return NetworkFunction(name=name, transform=transform, contract=contract)
