"""Header descriptor registry: predecessor rules, the kind of each readable
header attribute, and the order checks run at elaboration time.

Every header states its own chain rules next to its wire layout (the
``after``, ``slot``, ``proto`` and ``linkage`` of its codec's ``READ``),
and ``standard_registry`` is the one registry built from those layouts
at import, each descriptor also carrying the kind, integer or byte
sequence, of each attribute a contract's checks may read. A ``Registry``
checks its descriptors once, when it is built, and never changes.

``verify_order`` runs once, when a contract is elaborated: it proves an
order against the predecessor rules and compiles it into a walk, one
``OrderStep`` per element, holding the codec, the linkage field to
cross-check and what the step's error names. A contract's generated phase
functions follow its walks inline and raise the same errors, which
``walk_error`` builds for both. ``parse_chain`` runs a walk on its own,
outside the packet path: it calls each codec at a running offset and
looks nothing up, and the tests hold the generated phases to it, down to
each ``ChainOrderError`` text. ``match_chain`` compares an already-parsed
chain with an order; the packet path does not call it.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, NamedTuple

from . import headers
from .exceptions import ChainOrderError, ParseError, RegistryError
from .headers import Packet

INT = "int"
BYTES = "bytes"


@dataclass(frozen=True)
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
    accessors: Mapping[str, str]
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
    """Read-only store of header descriptors, checked whole when built: a
    duplicate type, a predecessor or parameter type it does not hold, or a
    linkage field that is not one of its header's integer accessors is
    refused with a ``RegistryError``."""

    def __init__(self, descriptors: Iterable[HeaderDescriptor]):
        self._descriptors: dict[str, HeaderDescriptor] = {}
        for descriptor in descriptors:
            if descriptor.header_type in self._descriptors:
                raise RegistryError(f"duplicate header type {descriptor.header_type!r}")
            self._descriptors[descriptor.header_type] = descriptor
        for name, descriptor in self._descriptors.items():
            for pred in sorted(descriptor.permitted_predecessors):
                if pred not in self._descriptors:
                    raise RegistryError(f"{name} names unknown predecessor {pred!r}")
            slot = descriptor.parameter_slot
            if slot and slot not in self._descriptors:
                raise RegistryError(f"{name} names unknown parameter type {slot!r}")
            linkage = descriptor.linkage_accessor
            if linkage is not None and descriptor.accessors.get(linkage) != INT:
                raise RegistryError(
                    f"{name} names linkage field {linkage!r}, which is not one of "
                    f"its integer accessors"
                )

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


def walk_error(walk: tuple[OrderStep, ...], index: int, actual: int | None = None,
               reason: object = None) -> ChainOrderError:
    """The ``ChainOrderError`` that ``walk`` raises at step ``index``: its
    codec refused the bytes for ``reason``, or, when there is no reason,
    its predecessor's linkage field reads ``actual``, which does not
    announce it. ``parse_chain`` and the generated phases both raise it."""
    step = walk[index]
    name = step.header_type
    if reason is not None:
        text = f"cannot parse {name}: {reason}"
    else:
        text = (f"{walk[index - 1].header_type} {step.linkage}={actual:#x} does not "
                f"announce {name} (protocol {step.proto:#x})")
    return ChainOrderError(index, name, None, f"order mismatch at index {index}: {text}")


def parse_chain(packet: Packet, walk: tuple[OrderStep, ...]) -> tuple[list, list]:
    """Decode ``packet`` header by header along a walk from ``verify_order``.

    Each step first cross-checks the predecessor's linkage field against
    its header's protocol number, so a packet whose bytes happen to decode
    under the wrong type still fails cleanly, then calls the codec at the
    running offset. Nothing is looked up and the packet's chain is left
    alone. Returns the decoded headers and their end offsets (header i
    spans ``ends[i - 1]:ends[i]``, from 0); raises the ``walk_error`` of
    the offending index.
    """
    data = packet.data
    decoded = []
    ends = []
    offset = 0
    header = None
    for parse, linkage, proto, index, _ in walk:
        if linkage is not None:
            actual = getattr(header, linkage)
            if actual != proto:
                raise walk_error(walk, index, actual)
        try:
            header, size = parse(data, offset)
        except ParseError as exc:
            raise walk_error(walk, index, reason=exc) from exc
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


def _descriptor(name: str, codec) -> HeaderDescriptor:
    """The descriptor of ``codec``, from its layout: its chain rules, and
    the kind of each attribute a check may read (every value on the wire
    but the hidden ones, with a packed word's sub-fields in its place,
    BYTES for a ``struct`` ``s`` field and INT otherwise)."""
    layout = codec.READ
    return HeaderDescriptor(
        header_type=name,
        permitted_predecessors=layout.after,
        accessors=MappingProxyType({
            field: BYTES if bits is None else INT
            for field, bits, _, _ in layout.wire()
            if field not in layout.hidden
        }),
        parameter_slot=layout.slot,
        protocol_number=layout.proto,
        linkage_accessor=layout.linkage,
    )


#: The registry of the framework's header types, built once, at import.
_STANDARD = Registry(
    _descriptor(name, codec) for name, codec in headers.HEADER_TYPES.items()
)


def standard_registry() -> Registry:
    """The registry of the framework's five header types, shared by every
    caller."""
    return _STANDARD
