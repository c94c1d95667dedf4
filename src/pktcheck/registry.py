"""The header registry: a read-only map from header type name to codec,
and the order checks run at elaboration time.

Every header states its own chain rules next to its wire layout, in its
codec's ``READ``: ``after`` names the types it may follow, ``slot`` the
type its order element may name as ``<param>``, ``proto`` the number that
announces it and ``linkage`` its own next-protocol field. A ``Registry``
reads them there, checks them once, when it is built, and derives each
codec's attribute kinds (``FieldRead.kinds``) then too; it never changes.
``standard_registry`` is the one registry of the framework's codecs, built
at import.

``verify_order`` runs once, when a contract is elaborated: in one pass,
in reading order, it proves each element of an order against those rules
and compiles it into a walk step (an ``OrderStep``: the codec, the
linkage field to cross-check and the protocol number it must read), so
the first faulty element is the one refused. A contract's generated phase
functions follow its walks inline and raise the same errors, which
``walk_error`` builds for both. ``parse_chain`` runs a walk on its own,
outside the packet path: it calls each codec at a running offset and
looks nothing up, and the tests hold the generated phases to it, down to
each ``ChainOrderError`` text. ``match_chain`` compares an already-parsed
chain with an order; the packet path does not call it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

from . import headers
from .exceptions import ChainOrderError, ParseError, RegistryError
from .headers import INT, Packet


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
    the registry's codec for it, the predecessor's linkage field (None when
    nothing is cross-checked) and the protocol number it must announce. Its
    index in the walk is its position there."""

    codec: type
    linkage: str | None
    proto: int | None

    @property
    def header_type(self) -> str:
        """The type its ``ChainOrderError`` names: a ``Registry`` names each
        codec by its class name."""
        return self.codec.__name__


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
    """Read-only map from header type name to codec, checked whole when
    built: a duplicate type, a packed word whose sub-fields do not fill it,
    a predecessor or parameter type it does not hold, or a linkage field
    that is not one of its header's integer attributes is refused with a
    ``RegistryError``. Each codec's attribute kinds are derived once, here,
    and every lookup reads them."""

    def __init__(self, codecs: Iterable[type]):
        self._codecs: dict[str, type] = {}
        for codec in codecs:
            name = codec.__name__
            if name in self._codecs:
                raise RegistryError(f"duplicate header type {name!r}")
            self._codecs[name] = codec
        self._kinds = {}
        for name, codec in self._codecs.items():
            layout = codec.READ
            try:
                self._kinds[name] = layout.kinds()
            except ValueError as exc:  # a packed word's sub-fields do not fill it
                raise RegistryError(f"{name}: {exc}") from None
            for pred in sorted(layout.after):
                if pred not in self._codecs:
                    raise RegistryError(f"{name} names unknown predecessor {pred!r}")
            if layout.slot and layout.slot not in self._codecs:
                raise RegistryError(f"{name} names unknown parameter type {layout.slot!r}")
            if layout.linkage is not None and self._kinds[name].get(layout.linkage) != INT:
                raise RegistryError(
                    f"{name} names linkage field {layout.linkage!r}, which is not one "
                    f"of its integer accessors"
                )

    def get(self, header_type: str) -> type:
        try:
            return self._codecs[header_type]
        except KeyError:
            raise RegistryError(f"unknown header type {header_type!r}") from None

    def known(self, header_type: str) -> bool:
        return header_type in self._codecs

    def accessor(self, header_type: str, name: str) -> str:
        """The kind of accessor ``name`` of ``header_type``, INT or BYTES."""
        self.get(header_type)
        kinds = self._kinds[header_type]
        try:
            return kinds[name]
        except KeyError:
            raise RegistryError(
                f"header {header_type} has no accessor {name!r} "
                f"(known: {', '.join(sorted(kinds))})"
            ) from None


def verify_order(registry: Registry, spec: OrderSpec) -> tuple[OrderStep, ...]:
    """Validate an order spec against its codecs' chain rules and compile
    it into the walk that ``parse_chain`` runs per packet.

    Runs at elaboration/pipeline-construction time, never per packet. One
    pass over the elements, in reading order: each element's type is looked
    up (an unknown one raises ``registry.get``'s ``RegistryError``), then
    the root (index 0) or its predecessor is checked, then its ``<param>``'s
    scope and slot, so the first faulty element raises a ChainOrderError.
    """
    walk: list[OrderStep] = []
    for i, element in enumerate(spec):
        name = element.header_type
        codec = registry.get(name)
        layout = codec.READ
        if i == 0 and layout.after:
            raise ChainOrderError(
                0, name, None, f"{name} is not a chain root and cannot start {spec}"
            )
        if i and (prev := walk[-1].header_type) not in layout.after:
            raise ChainOrderError(
                i, name, prev,
                f"{name} cannot follow {prev}: permitted predecessors are "
                f"{{{', '.join(sorted(layout.after)) or 'none (chain root)'}}}",
            )
        param, slot = element.param, layout.slot
        if param is not None and param not in {step.header_type for step in walk}:
            raise ChainOrderError(
                i, param, None,
                f"{element} names parameter {param} but no earlier element in {spec} provides it",
            )
        if param is not None and param != slot:
            raise ChainOrderError(
                i, slot, param,
                f"{element} names parameter {param}, but "
                + (f"the parameter of {name} is {slot}" if slot else f"{name} takes no parameter")
                + f" in {spec}",
            )
        linkage = walk[-1].codec.READ.linkage if i and layout.proto is not None else None
        walk.append(OrderStep(codec, linkage, layout.proto))
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
    for index, (codec, linkage, proto) in enumerate(walk):
        if linkage is not None:
            actual = getattr(header, linkage)
            if actual != proto:
                raise walk_error(walk, index, actual)
        try:
            header, size = codec.parse(data, offset)
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


#: The registry of the framework's header types, built once, at import.
_STANDARD = Registry(headers.HEADER_TYPES.values())


def standard_registry() -> Registry:
    """The registry of the framework's five header types, shared by every
    caller."""
    return _STANDARD
