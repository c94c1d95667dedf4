"""Runtime contract engine: ingress snapshots, check evaluation, violation
reporting, and build-mode gating.

All checks in a phase are evaluated; violations are collected rather than
thrown one at a time, so a single run can surface every failing condition.
In Production mode the dynamic machinery is a no-op: no snapshots are
built and no checks are evaluated.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass, field
from enum import Enum

from . import registry as registry_mod
from .exceptions import ChainOrderError, ConfigError, EmitError, RegistryError
from .headers import Packet
from .registry import Registry

COMPARATORS = {
    "==": lambda a, b: a == b,
    "neq": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

ORDERED_COMPARATORS = frozenset({"<", "<=", ">", ">="})


class Source(Enum):
    CURRENT_PACKET = "current"
    INGRESS_SNAPSHOT = "ingress"


class BuildMode(Enum):
    DEVELOPMENT = "dev"
    PRODUCTION = "prod"


@dataclass(frozen=True)
class FieldRef:
    """A field/accessor reference like payload_len[Ipv6Hdr] or
    checksum[TcpHdr<Ipv6Hdr>], read from the current packet or from the
    ingress snapshot."""

    accessor: str
    header_type: str
    param: str | None = None
    occurrence: int = 0
    source: Source = Source.CURRENT_PACKET

    def describe(self) -> str:
        hdr = self.header_type if not self.param else f"{self.header_type}<{self.param}>"
        occ = f"#{self.occurrence}" if self.occurrence else ""
        suffix = "@ingress" if self.source is Source.INGRESS_SNAPSHOT else ""
        return f"{self.accessor}[{hdr}{occ}]{suffix}"


@dataclass(frozen=True)
class Operand:
    """Right-hand side of a check: a signed sum of literals, (pre-elaboration)
    named constants, and field references.

    Fig-1-style operands are a single term; delta checks against the
    ingress snapshot add a literal offset, e.g. payload_len[Ipv6Hdr]@ingress + 16.
    """

    terms: tuple[tuple[int, object], ...]  # (sign, int | str constant | FieldRef)

    @classmethod
    def literal(cls, value: int) -> "Operand":
        return cls(((1, value),))

    @classmethod
    def constant(cls, name: str) -> "Operand":
        return cls(((1, name),))

    @classmethod
    def ref(cls, ref: FieldRef) -> "Operand":
        return cls(((1, ref),))

    def describe(self) -> str:
        parts = []
        for i, (sign, term) in enumerate(self.terms):
            text = term.describe() if isinstance(term, FieldRef) else str(term)
            if i == 0:
                parts.append(text if sign > 0 else f"-{text}")
            else:
                parts.append(f"{'+' if sign > 0 else '-'} {text}")
        return " ".join(parts)

    def field_refs(self):
        return [term for _, term in self.terms if isinstance(term, FieldRef)]

    def is_arithmetic(self) -> bool:
        return len(self.terms) > 1


@dataclass(frozen=True)
class Check:
    """One contract condition: lhs comparator rhs."""

    lhs: FieldRef
    op: str
    rhs: Operand

    def describe(self) -> str:
        return f"({self.lhs.describe()}, {self.op}, {self.rhs.describe()})"


@dataclass
class SnapshotEntry:
    values: dict[str, object]
    raw: bytes


@dataclass
class IngressSnapshot:
    """Immutable mirror of the packet as it entered the NF.

    Keyed by (header type, occurrence); every registered accessor value is
    materialized along with the header's raw bytes, so later mutation of
    the packet cannot leak into egress comparisons. The full original
    buffer is retained as well, for reporting and forensics.
    """

    entries: dict[tuple[str, int], SnapshotEntry] = field(default_factory=dict)
    raw_packet: bytes = b""

    def lookup(self, ref: FieldRef):
        entry = self.entries.get((ref.header_type, ref.occurrence))
        if entry is None:
            raise ResolutionError(
                f"{ref.header_type}#{ref.occurrence} was not captured in the "
                "ingress snapshot"
            )
        if ref.accessor not in entry.values:
            raise ResolutionError(
                f"ingress snapshot of {ref.header_type} has no accessor "
                f"{ref.accessor!r}"
            )
        return entry.values[ref.accessor]


class ResolutionError(Exception):
    """An operand could not be resolved against the packet or snapshot.

    Turned into a distinguished resolution-error Violation, never a silent
    pass or a crash."""


def render_value(value) -> object:
    """Human/JSON rendering: ints pass through, addresses become text."""
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, (bytes, bytearray)):
        if len(value) == 16:
            return str(ipaddress.IPv6Address(bytes(value)))
        if len(value) == 6:
            return ":".join(f"{b:02x}" for b in value)
        return bytes(value).hex()
    return str(value)


@dataclass
class Violation:
    """Structured record of one failed check (or failed order match)."""

    nf: str
    phase: str  # "ingress" | "egress"
    check_index: int | None
    lhs: str
    lhs_value: object
    op: str | None
    rhs: str
    rhs_value: object
    packet_index: int
    kind: str = "check"  # "check" | "order" | "resolution"
    message: str = ""

    def text(self) -> str:
        idx = "order" if self.check_index is None else str(self.check_index)
        return (
            f"NF {self.nf} [{self.phase}#{idx}] {self.lhs}={self.lhs_value} "
            f"{self.op or '??'} {self.rhs}={self.rhs_value} FAILED "
            f"(packet {self.packet_index})"
        )

    def to_json(self) -> dict:
        return {
            "nf": self.nf,
            "phase": self.phase,
            "check_index": self.check_index,
            "lhs": self.lhs,
            "lhs_value": self.lhs_value,
            "op": self.op,
            "rhs": self.rhs,
            "rhs_value": self.rhs_value,
            "packet_index": self.packet_index,
            "kind": self.kind,
            "message": self.message,
        }


class ContractRuntime:
    """Build-mode switch plus instrumentation counters.

    The mode is fixed before packets flow; flipping it afterwards is a
    configuration error.
    """

    def __init__(self, mode: BuildMode = BuildMode.DEVELOPMENT):
        self.mode = mode
        self.snapshots_built = 0
        self.checks_evaluated = 0
        self._packets_flowed = False

    def set_mode(self, mode: BuildMode) -> None:
        if self._packets_flowed and mode is not self.mode:
            raise ConfigError("build mode cannot change after packets have flowed")
        self.mode = mode

    def mark_packet_flow(self) -> None:
        self._packets_flowed = True

    @property
    def development(self) -> bool:
        return self.mode is BuildMode.DEVELOPMENT


class _DecodeCache:
    """Per-phase cache of decoded headers for the current packet."""

    def __init__(self, packet: Packet):
        self.packet = packet
        self._cache: dict[tuple[str, int], object] = {}

    def seed(self, headers) -> None:
        """Prime the cache with the headers decoded while parsing the chain."""
        for entry, header in zip(self.packet.chain, headers):
            self._cache[(entry.header_type, entry.occurrence)] = header

    def get(self, header_type: str, occurrence: int):
        key = (header_type, occurrence)
        if key not in self._cache:
            entry = self.packet.find(header_type, occurrence)
            if entry is None:
                raise ResolutionError(
                    f"{header_type}#{occurrence} is not present in the packet chain"
                )
            self._cache[key] = self.packet.decode(entry)
        return self._cache[key]


def build_snapshot(
    packet: Packet,
    registry: Registry,
    runtime: ContractRuntime | None = None,
) -> IngressSnapshot:
    """Materialize the ingress mirror of ``packet``.

    The chain must already be parsed (``parse_chain``); every accessor of
    every chain entry is evaluated and stored together with the header's
    raw bytes.
    """
    snapshot = IngressSnapshot(raw_packet=bytes(packet.data))
    for entry in packet.chain:
        descriptor = registry.get(entry.header_type)
        header = packet.decode(entry)
        values = {name: acc.get(header) for name, acc in descriptor.accessors.items()}
        raw = bytes(packet.data[entry.offset : entry.offset + entry.length])
        try:
            mirrored = header.emit()
        except EmitError as exc:
            raise ResolutionError(
                f"snapshot of {entry.header_type} cannot be re-encoded: {exc}"
            ) from None
        if mirrored != raw:
            raise ResolutionError(
                f"snapshot of {entry.header_type} does not re-encode to the "
                "original bytes; mirror would be unfaithful"
            )
        snapshot.entries[(entry.header_type, entry.occurrence)] = SnapshotEntry(
            values=values, raw=raw
        )
    if runtime is not None:
        runtime.snapshots_built += 1
    return snapshot


def _resolve_ref(
    ref: FieldRef,
    packet: Packet,
    snapshot: IngressSnapshot | None,
    registry: Registry,
    cache: _DecodeCache | None = None,
):
    if ref.source is Source.INGRESS_SNAPSHOT:
        if snapshot is None:
            raise ResolutionError(
                f"{ref.describe()} needs the ingress snapshot, but none is available"
            )
        return snapshot.lookup(ref)
    try:
        accessor = registry.accessor(ref.header_type, ref.accessor)
    except RegistryError as exc:
        raise ResolutionError(str(exc)) from None
    if cache is not None:
        header = cache.get(ref.header_type, ref.occurrence)
    else:
        entry = packet.find(ref.header_type, ref.occurrence)
        if entry is None:
            raise ResolutionError(
                f"{ref.header_type}#{ref.occurrence} is not present in the "
                "packet chain"
            )
        header = packet.decode(entry)
    return accessor.get(header)


def resolve_operand(
    operand: Operand,
    packet: Packet,
    snapshot: IngressSnapshot | None,
    registry: Registry,
    constants: dict[str, int] | None = None,
    cache: _DecodeCache | None = None,
):
    """Resolve an operand to an integer or byte-sequence value.

    Named constants resolve through ``constants`` (elaborated contracts
    have them inlined already). Arithmetic is integer-only.
    """
    total = 0
    byte_value = None
    for sign, term in operand.terms:
        if isinstance(term, FieldRef):
            value = _resolve_ref(term, packet, snapshot, registry, cache)
        elif isinstance(term, str):
            if constants is None or term not in constants:
                raise ResolutionError(f"unbound constant {term!r}")
            value = constants[term]
        else:
            value = term
        if isinstance(value, (bytes, bytearray)):
            if operand.is_arithmetic():
                raise ResolutionError(
                    f"byte-sequence value {render_value(value)} cannot take part "
                    "in arithmetic"
                )
            byte_value = bytes(value)
        else:
            total += sign * value
    return byte_value if byte_value is not None else total


def eval_check(
    check: Check,
    packet: Packet,
    snapshot: IngressSnapshot | None,
    registry: Registry,
    *,
    nf: str = "?",
    phase: str = "?",
    check_index: int = 0,
    packet_index: int = 0,
    constants: dict[str, int] | None = None,
    cache: _DecodeCache | None = None,
) -> Violation | None:
    """Evaluate one check; return None on pass, a populated Violation on fail.

    Resolution failures become resolution-kind violations rather than
    exceptions: a missing header is exactly the dependency bug the
    contract exists to surface.
    """
    try:
        lhs_value = _resolve_ref(check.lhs, packet, None, registry, cache)
        rhs_value = resolve_operand(
            check.rhs, packet, snapshot, registry, constants, cache
        )
        lhs_bytes = isinstance(lhs_value, (bytes, bytearray))
        rhs_bytes = isinstance(rhs_value, (bytes, bytearray))
        if lhs_bytes != rhs_bytes:
            raise ResolutionError(
                f"type mismatch: {check.lhs.describe()} is "
                f"{'bytes' if lhs_bytes else 'int'} but rhs is "
                f"{'bytes' if rhs_bytes else 'int'}"
            )
        if lhs_bytes and check.op in ORDERED_COMPARATORS:
            raise ResolutionError(
                f"byte-sequence values admit only == and neq, not {check.op}"
            )
    except ResolutionError as exc:
        return Violation(
            nf=nf,
            phase=phase,
            check_index=check_index,
            lhs=check.lhs.describe(),
            lhs_value=None,
            op=check.op,
            rhs=check.rhs.describe(),
            rhs_value=None,
            packet_index=packet_index,
            kind="resolution",
            message=f"could not resolve {check.describe()}: {exc}",
        )
    if COMPARATORS[check.op](lhs_value, rhs_value):
        return None
    violation = Violation(
        nf=nf,
        phase=phase,
        check_index=check_index,
        lhs=check.lhs.describe(),
        lhs_value=render_value(lhs_value),
        op=check.op,
        rhs=check.rhs.describe(),
        rhs_value=render_value(rhs_value),
        packet_index=packet_index,
    )
    violation.message = violation.text()
    return violation


def _order_violation(nf, phase, exc: ChainOrderError, packet_index) -> Violation:
    return Violation(
        nf=nf,
        phase=phase,
        check_index=None,
        lhs="order",
        lhs_value=exc.found,
        op=None,
        rhs="expected",
        rhs_value=exc.expected,
        packet_index=packet_index,
        kind="order",
        message=str(exc),
    )


def _run_checks(
    contract,
    phase_name: str,
    packet: Packet,
    decoded: list,
    snapshot: IngressSnapshot | None,
    registry: Registry,
    runtime: ContractRuntime,
    packet_index: int,
) -> list[Violation]:
    """Evaluate every check of one phase, without short-circuiting, on a
    packet that ``parse_chain`` has just parsed along the phase's order."""
    phase = getattr(contract, phase_name)
    cache = _DecodeCache(packet)
    cache.seed(decoded)
    violations = []
    for idx, check in enumerate(phase.checks):
        violation = eval_check(
            check,
            packet,
            snapshot,
            registry,
            nf=contract.nf_name,
            phase=phase_name,
            check_index=idx,
            packet_index=packet_index,
            cache=cache,
        )
        if violation is not None:
            violations.append(violation)
    runtime.checks_evaluated += len(phase.checks)
    return violations


def run_ingress(
    contract,
    packet: Packet,
    registry: Registry,
    runtime: ContractRuntime,
    packet_index: int = 0,
) -> tuple[list[Violation], IngressSnapshot | None]:
    """Evaluate the ingress phase: parse along the order, snapshot, then
    every check.

    No-op in Production. On an order mismatch the phase reports a single
    order violation; the checks are unresolvable without the declared
    chain and are not evaluated.
    """
    if not runtime.development or contract is None or contract.ingress is None:
        return [], None
    try:
        decoded = registry_mod.parse_chain(packet, contract.ingress.order, registry)
        snapshot = build_snapshot(packet, registry, runtime)
    except ChainOrderError as exc:
        return [_order_violation(contract.nf_name, "ingress", exc, packet_index)], None
    except ResolutionError as exc:
        return [
            Violation(
                nf=contract.nf_name,
                phase="ingress",
                check_index=None,
                lhs="snapshot",
                lhs_value=None,
                op=None,
                rhs="packet",
                rhs_value=None,
                packet_index=packet_index,
                kind="resolution",
                message=str(exc),
            )
        ], None
    violations = _run_checks(
        contract, "ingress", packet, decoded, snapshot, registry, runtime,
        packet_index,
    )
    return violations, snapshot


def run_egress(
    contract,
    packet: Packet,
    snapshot: IngressSnapshot | None,
    registry: Registry,
    runtime: ContractRuntime,
    packet_index: int = 0,
) -> list[Violation]:
    """Evaluate the egress phase against the outgoing packet, resolving
    snapshot-sourced operands from the ingress mirror. No-op in Production."""
    if not runtime.development or contract is None or contract.egress is None:
        return []
    try:
        decoded = registry_mod.parse_chain(packet, contract.egress.order, registry)
    except ChainOrderError as exc:
        return [_order_violation(contract.nf_name, "egress", exc, packet_index)]
    return _run_checks(
        contract, "egress", packet, decoded, snapshot, registry, runtime,
        packet_index,
    )
