"""Header descriptor registry: predecessor rules, the kind of each readable
header attribute, and the order checks run at elaboration time.

``verify_order`` runs once, when a contract is elaborated: it proves an
order against the predecessor rules and compiles it into a walk, one
``OrderStep`` per element, holding the codec, the linkage field to
cross-check and what the step's error names. A contract's generated phase
functions follow its walks inline. ``parse_chain`` runs a walk on its own:
it calls each codec at a running offset and looks nothing up, and raises
the exact ``ChainOrderError`` of a packet the generated function refused.
A contract's checks name the header attributes they read; the registry
only says which names each header has and whether each is an integer or
a byte sequence. ``match_chain`` compares an already-parsed chain with an
order; the packet path does not call it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

from . import headers
from .exceptions import ChainOrderError, ParseError, RegistryError
from .headers import Packet

INT = "int"
BYTES = "bytes"


@dataclass
class HeaderDescriptor:
    """Registry entry for one header type.

    ``protocol_number`` is the value identifying this header in its
    predecessor's linkage field; ``linkage_accessor`` names this header's
    own next-protocol field, if it has one. ``parameter_slot`` is the one
    type an order element of this header may name as its ``<param>``.
    ``accessors`` maps each attribute a check may read to its kind, INT or
    BYTES.
    """

    header_type: str
    permitted_predecessors: frozenset[str]
    accessors: dict[str, str]
    parameter_slot: str | None = None
    protocol_number: int | None = None
    linkage_accessor: str | None = None

    def is_chain_root(self) -> bool:
        return not self.permitted_predecessors


@dataclass(frozen=True)
class OrderElement:
    header_type: str
    param: str | None = None

    def __str__(self) -> str:
        if self.param:
            return f"{self.header_type}<{self.param}>"
        return self.header_type


@dataclass(frozen=True)
class OrderSpec:
    """Expected header sequence, e.g. [EthHdr => Ipv6Hdr => TcpHdr<Ipv6Hdr>]."""

    elements: tuple[OrderElement, ...]

    def __post_init__(self):
        if not self.elements:
            raise RegistryError("an order spec cannot be empty")

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __str__(self) -> str:
        return "[" + " => ".join(str(e) for e in self.elements) + "]"


class OrderStep(NamedTuple):
    """One element of a verified order, compiled for the per-packet walk:
    its codec's ``parse``, the predecessor's linkage field (None when
    nothing is cross-checked) and the protocol number it must announce, and
    the index and header type its ``ChainOrderError`` names."""

    parse: Callable
    linkage: str | None
    proto: int | None
    index: int
    header_type: str


def order(*specs: str | tuple[str, str]) -> OrderSpec:
    """Build an OrderSpec from type names or (type, param) pairs."""
    elements = []
    for spec in specs:
        if isinstance(spec, tuple):
            elements.append(OrderElement(spec[0], spec[1]))
        else:
            elements.append(OrderElement(spec))
    return OrderSpec(tuple(elements))


class Registry:
    """Write-once store of header descriptors.

    Registration happens during setup; the registry is frozen before
    elaboration and shared read-only afterwards.
    """

    def __init__(self):
        self._descriptors: dict[str, HeaderDescriptor] = {}
        self._frozen = False

    def register(self, descriptor: HeaderDescriptor) -> HeaderDescriptor:
        if self._frozen:
            raise RegistryError("registry is frozen; no further registrations")
        if descriptor.header_type in self._descriptors:
            raise RegistryError(f"duplicate header type {descriptor.header_type!r}")
        known = set(self._descriptors) | {descriptor.header_type}
        for pred in descriptor.permitted_predecessors:
            if pred not in known:
                raise RegistryError(
                    f"{descriptor.header_type} names unknown predecessor {pred!r}"
                )
        if descriptor.parameter_slot and descriptor.parameter_slot not in known:
            raise RegistryError(
                f"{descriptor.header_type} names unknown parameter type "
                f"{descriptor.parameter_slot!r}"
            )
        self._descriptors[descriptor.header_type] = descriptor
        return descriptor

    def freeze(self) -> "Registry":
        self._frozen = True
        return self

    @property
    def frozen(self) -> bool:
        return self._frozen

    def get(self, header_type: str) -> HeaderDescriptor:
        try:
            return self._descriptors[header_type]
        except KeyError:
            raise RegistryError(f"unknown header type {header_type!r}") from None

    def known(self, header_type: str) -> bool:
        return header_type in self._descriptors

    def accessor(self, header_type: str, name: str) -> str:
        """The kind of accessor ``name`` of ``header_type``, INT or BYTES."""
        descriptor = self.get(header_type)
        try:
            return descriptor.accessors[name]
        except KeyError:
            raise RegistryError(
                f"header {header_type} has no accessor {name!r} "
                f"(known: {', '.join(sorted(descriptor.accessors))})"
            ) from None


def verify_order(registry: Registry, spec: OrderSpec) -> tuple[OrderStep, ...]:
    """Validate an order spec against the registry's predecessor rules and
    compile it into the walk that ``parse_chain`` runs per packet.

    Runs at elaboration/pipeline-construction time, never per packet.
    Raises ChainOrderError naming the offending adjacent pair, or the
    element whose ``<param>`` is out of scope or not its header's slot. A
    header type the registry does not know, wherever it stands, raises the
    ``RegistryError`` of ``registry.get``.
    """
    root = registry.get(spec.elements[0].header_type)
    for i in range(1, len(spec)):
        prev = spec.elements[i - 1]
        curr = spec.elements[i]
        descriptor = registry.get(curr.header_type)
        if prev.header_type not in descriptor.permitted_predecessors:
            raise ChainOrderError(
                i, curr.header_type, prev.header_type,
                f"{curr.header_type} cannot follow {prev.header_type}: permitted "
                f"predecessors are "
                f"{{{', '.join(sorted(descriptor.permitted_predecessors)) or 'none (chain root)'}}}",
            )
    for i, element in enumerate(spec):
        if element.param is not None:
            earlier = {e.header_type for e in spec.elements[:i]}
            if element.param not in earlier:
                raise ChainOrderError(
                    i, element.param, None,
                    f"{element} names parameter {element.param} but no earlier "
                    f"element in {spec} provides it",
                )
    if not root.is_chain_root():
        raise ChainOrderError(
            0, root.header_type, None,
            f"{root.header_type} is not a chain root and cannot start {spec}",
        )
    for i, element in enumerate(spec):
        slot = registry.get(element.header_type).parameter_slot
        if element.param is not None and element.param != slot:
            raise ChainOrderError(
                i, slot, element.param,
                f"{element} names parameter {element.param}, but "
                + (f"the parameter of {element.header_type} is {slot}" if slot
                   else f"{element.header_type} takes no parameter")
                + f" in {spec}",
            )
    walk = []
    prev = None
    for i, element in enumerate(spec):
        name = element.header_type
        codec = headers.HEADER_TYPES.get(name)
        if codec is None:
            raise ChainOrderError(i, name, None, f"{name} has no codec in {spec}")
        descriptor = registry.get(name)
        proto = descriptor.protocol_number
        linkage = None
        if prev is not None and proto is not None:
            linkage = prev.linkage_accessor
        walk.append(OrderStep(codec.parse, linkage, proto, i, name))
        prev = descriptor
    return tuple(walk)


def parse_chain(packet: Packet, walk: tuple[OrderStep, ...]) -> tuple[list, list]:
    """Decode ``packet`` header by header along a walk from ``verify_order``.

    Each step first cross-checks the predecessor's linkage field
    (ether_type / next_header) against its header's protocol number, so a
    packet whose bytes happen to decode under the wrong type still fails
    cleanly, then calls the codec at the running offset. Nothing is looked
    up and the packet's chain is left alone. Returns the decoded headers
    and their end offsets (header i spans ``ends[i - 1]:ends[i]``, from 0);
    raises ChainOrderError at the offending index.
    """
    data = packet.data
    decoded = []
    ends = []
    offset = 0
    header = None
    for parse, linkage, proto, index, name in walk:
        if linkage is not None:
            actual = getattr(header, linkage)
            if actual != proto:
                raise ChainOrderError(
                    index, name, None,
                    f"order mismatch at index {index}: {walk[index - 1].header_type} "
                    f"{linkage}={actual:#x} does not announce {name} "
                    f"(protocol {proto:#x})",
                )
        try:
            header, size = parse(data, offset)
        except ParseError as exc:
            raise ChainOrderError(
                index, name, None,
                f"order mismatch at index {index}: cannot parse {name}: {exc}",
            ) from exc
        decoded.append(header)
        offset += size
        ends.append(offset)
    return decoded, ends


def match_chain(packet: Packet, spec: OrderSpec) -> None:
    """Check that the packet's parsed chain equals the declared order, element for element.

    Parameter types (e.g. TcpHdr<Ipv6Hdr>) must appear earlier in the
    chain. Raises ChainOrderError at the mismatching index.
    """
    chain = packet.chain
    if len(chain) != len(spec):
        raise ChainOrderError(
            min(len(chain), len(spec)), str(spec), None,
            f"chain length {len(chain)} does not match order {spec} "
            f"({len(spec)} headers)",
        )
    for i, (entry, element) in enumerate(zip(chain, spec)):
        if entry.header_type != element.header_type:
            raise ChainOrderError(
                i, element.header_type, entry.header_type,
                f"order mismatch at index {i}: expected {element.header_type}, "
                f"found {entry.header_type}",
            )
        if element.param is not None:
            earlier = {e.header_type for e in chain[:i]}
            if element.param not in earlier:
                raise ChainOrderError(
                    i, element.param, None,
                    f"order mismatch at index {i}: {element} expects "
                    f"{element.param} earlier in the chain",
                )


def _accessors(kinds: dict[str, tuple[str, ...]]) -> dict[str, str]:
    """The kind of each attribute name, from ``kinds``' names by kind."""
    return {name: kind for kind, names in kinds.items() for name in names}


def standard_registry() -> Registry:
    """Registry of the framework's five header types.

    Predecessor sets generalize single-predecessor declarations so that
    extension headers chain: SRv6 may follow IPv6 or another SRv6 header,
    and TCP may sit under either.
    """
    reg = Registry()
    reg.register(HeaderDescriptor(
        header_type="EthHdr",
        permitted_predecessors=frozenset(),
        parameter_slot=None,
        protocol_number=None,
        linkage_accessor="ether_type",
        accessors=_accessors({
            BYTES: ("dst", "src"),
            INT: ("ether_type",),
        }),
    ))
    reg.register(HeaderDescriptor(
        header_type="Ipv6Hdr",
        permitted_predecessors=frozenset({"EthHdr"}),
        parameter_slot=None,
        protocol_number=headers.ETHERTYPE_IPV6,
        linkage_accessor="next_header",
        accessors=_accessors({
            INT: ("version", "traffic_class", "flow_label", "payload_len",
                  "next_header", "hop_limit"),
            BYTES: ("src", "dst"),
        }),
    ))
    reg.register(HeaderDescriptor(
        header_type="Srv6RoutingHdr",
        permitted_predecessors=frozenset({"Ipv6Hdr", "Srv6RoutingHdr"}),
        parameter_slot=None,
        protocol_number=headers.PROTO_SRV6,
        linkage_accessor="next_header",
        accessors=_accessors({
            INT: ("next_header", "hdr_ext_len", "routing_type", "segments_left",
                  "last_entry", "flags", "tag"),
        }),
    ))
    reg.register(HeaderDescriptor(
        header_type="TcpHdr",
        permitted_predecessors=frozenset({"Ipv6Hdr", "Srv6RoutingHdr"}),
        parameter_slot="Ipv6Hdr",
        protocol_number=headers.PROTO_TCP,
        linkage_accessor=None,
        accessors=_accessors({
            INT: ("src_port", "dst_port", "seq", "ack", "data_offset", "flags",
                  "window", "checksum", "urgent_ptr"),
        }),
    ))
    reg.register(HeaderDescriptor(
        header_type="Icmpv6PktTooBig",
        permitted_predecessors=frozenset({"Ipv6Hdr"}),
        parameter_slot="Ipv6Hdr",
        protocol_number=headers.PROTO_ICMPV6,
        linkage_accessor=None,
        accessors=_accessors({
            INT: ("msg_type", "code", "checksum", "mtu"),
        }),
    ))
    return reg.freeze()
