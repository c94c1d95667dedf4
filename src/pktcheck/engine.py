"""Runtime contract engine: ingress snapshots, check evaluation, violation
reporting, and build-mode gating.

Each phase runs one function that ``contracts`` generated for the contract
on its first Development use: it decodes the packet along the phase's
verified order with the codecs, at running offsets and with the linkage
cross-checks inline, re-emits each ingress header to prove that the
snapshot mirrors the packet's bytes, and evaluates every check as one
inline comparison. The ingress snapshot is the tuple of the headers it
decoded. It returns the failing checks as ``(index, lhs, rhs)``, so only a
failing check builds a Violation, and its message is formatted only when
something reads it.

A packet the generated function refuses takes the slow path: ``parse_chain``
(and, at ingress, ``build_snapshot``) run again to raise the exact
``ChainOrderError`` or ``ResolutionError`` that becomes the packet's
violation. ``eval_check`` and ``CompiledCheck.test`` evaluate one check the
same way outside the packet path.

All checks in a phase are evaluated; violations are collected rather than
thrown one at a time, so a single run can surface every failing condition.
A packet whose ingress walk fails gives one violation, its root cause:
egress does not run without the snapshot. In Production mode the dynamic
machinery is a no-op: no snapshots are built, no checks are evaluated and
no phase function is generated.
"""

from __future__ import annotations

import ipaddress
import operator
from dataclasses import dataclass
from enum import Enum

from . import registry as registry_mod
from .exceptions import ChainOrderError, EmitError
from .headers import Packet
from .registry import BYTES, FieldAccessor

COMPARATORS = {
    "==": operator.eq,
    "neq": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


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
        """A sum of several terms, or one negated term."""
        return len(self.terms) > 1 or self.terms[0][0] < 0


@dataclass(frozen=True)
class Check:
    """One contract condition: lhs comparator rhs."""

    lhs: FieldRef
    op: str
    rhs: Operand

    def describe(self) -> str:
        return f"({self.lhs.describe()}, {self.op}, {self.rhs.describe()})"


class ResolutionError(Exception):
    """The ingress snapshot could not mirror the packet.

    Turned into a distinguished resolution-error Violation, never a silent
    pass or a crash."""


def render_value(value) -> object:
    """Human/JSON rendering: ints (and bools) pass through, addresses
    become text."""
    if isinstance(value, int):
        return value
    if isinstance(value, (bytes, bytearray)):
        if len(value) == 16:
            return str(ipaddress.IPv6Address(bytes(value)))
        if len(value) == 6:
            return ":".join(f"{b:02x}" for b in value)
        return bytes(value).hex()
    return str(value)


@dataclass(slots=True)
class Violation:
    """Structured record of one failed check (or failed order match).

    ``reason`` is the error text of an order or resolution violation and
    None for a failed check, whose ``message`` is its ``text()``, formatted
    only when read."""

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
    reason: str | None = None

    @property
    def message(self) -> str:
        return self.text() if self.reason is None else self.reason

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
    """Build mode plus instrumentation counters.

    The mode is fixed when the runtime is built; a run in the other mode
    takes a runtime of its own.
    """

    def __init__(self, mode: BuildMode = BuildMode.DEVELOPMENT):
        self.mode = mode
        self.snapshots_built = 0
        self.checks_evaluated = 0

    @property
    def development(self) -> bool:
        return self.mode is BuildMode.DEVELOPMENT


def build_snapshot(
    packet: Packet,
    headers: list,
    ends: list,
    runtime: ContractRuntime | None = None,
) -> tuple:
    """The ingress snapshot: the tuple of ``headers``, which ``parse_chain``
    has just decoded from ``packet`` and which end at ``ends``, by their
    position in the ingress order.

    Each header is emitted again and compared with its byte span, so a
    header that would not re-encode to the packet's bytes raises
    ResolutionError instead of misleading the egress checks. Transforms
    decode headers of their own, so later mutation of the packet cannot
    leak into egress comparisons.
    """
    data = packet.data
    start = 0
    for header, end in zip(headers, ends):
        try:
            mirrored = header.emit()
        except EmitError as exc:
            raise ResolutionError(
                f"snapshot of {type(header).__name__} cannot be re-encoded: {exc}"
            ) from None
        if mirrored != data[start:end]:
            raise ResolutionError(
                f"snapshot of {type(header).__name__} does not re-encode to the "
                "original bytes; mirror would be unfaithful"
            )
        start = end
    if runtime is not None:
        runtime.snapshots_built += 1
    return tuple(headers)


@dataclass(slots=True)
class CompiledCheck:
    """One check of an elaborated contract, resolved against its phase.

    The left-hand side reads ``lhs`` from the header at ``lhs_index`` of the
    headers decoded along the phase order. ``reads`` holds the right-hand
    field reads as ``(sign, from_snapshot, accessor, index)``, by index in
    the phase order or in the ingress snapshot, and ``const`` is the sum of
    the operand's literals and constants. ``lhs_text`` and ``rhs_text`` are
    the operands' ``describe()`` texts, fixed here so that a failing check
    only assembles its message. The generated phase functions read the
    same fields inline.
    """

    index: int
    check: Check
    lhs_text: str
    rhs_text: str
    lhs: FieldAccessor
    lhs_index: int
    reads: tuple[tuple[int, bool, FieldAccessor, int], ...]
    const: int

    def test(self, current, snapshot) -> tuple | None:
        """Evaluate the check through the registry's accessors on
        ``current``, the headers decoded along the phase order, and
        ``snapshot``: None when it holds, else ``(lhs_value, rhs_value)``.
        A byte-sequence operand is its one field."""
        lhs = self.lhs.get(current[self.lhs_index])
        values = [
            (sign, accessor.get((snapshot if from_snapshot else current)[j]))
            for sign, from_snapshot, accessor, j in self.reads
        ]
        if self.lhs.kind == BYTES:
            rhs = values[0][1]
        else:
            rhs = self.const + sum(sign * value for sign, value in values)
        return None if COMPARATORS[self.check.op](lhs, rhs) else (lhs, rhs)


def _violation(
    compiled: CompiledCheck,
    lhs,
    rhs,
    nf: str,
    phase: str,
    packet_index: int,
) -> Violation:
    """The Violation of a failing check, from the values it compared."""
    return Violation(
        nf, phase, compiled.index, compiled.lhs_text, render_value(lhs),
        compiled.check.op, compiled.rhs_text, render_value(rhs), packet_index,
    )


def eval_check(
    compiled: CompiledCheck,
    current: list,
    snapshot: tuple | None,
    nf: str = "?",
    phase: str = "?",
    packet_index: int = 0,
) -> Violation | None:
    """Evaluate one compiled check; return None on pass, a populated
    Violation on fail.

    ``current`` holds the headers ``parse_chain`` decoded along the phase
    order; ``snapshot`` is the ingress snapshot, which only a check that
    reads it needs. The phases evaluate the same comparison inline and
    build the same Violation through the same helper.
    """
    failed = compiled.test(current, snapshot)
    if failed is None:
        return None
    return _violation(compiled, *failed, nf, phase, packet_index)


def _refusal(contract, phase: str, packet: Packet, packet_index: int) -> Violation:
    """The violation of a packet that the generated ``phase`` refused:
    ``parse_chain``, and at ingress ``build_snapshot``, run again to raise
    the exact error. Raises RuntimeError if they accept the packet, since
    the generated function and the reference walk then disagree."""
    walk = contract.ingress_walk if phase == "ingress" else contract.egress_walk
    try:
        decoded, ends = registry_mod.parse_chain(packet, walk)
        if phase == "ingress":
            build_snapshot(packet, decoded, ends)
    except ChainOrderError as exc:
        return Violation(
            contract.nf_name, phase, None, "order", exc.found, None, "expected",
            exc.expected, packet_index, "order", str(exc),
        )
    except ResolutionError as exc:
        return Violation(
            contract.nf_name, phase, None, "snapshot", None, None, "packet", None,
            packet_index, "resolution", str(exc),
        )
    raise RuntimeError(
        f"generated {phase} phase of {contract.nf_name} refused packet "
        f"{packet_index}, which its order walk accepts"
    )


def run_ingress(
    contract,
    packet: Packet,
    runtime: ContractRuntime,
    packet_index: int = 0,
) -> tuple[list[Violation], tuple | None]:
    """Evaluate the ingress phase: parse along the order, snapshot, then
    every check, in the contract's generated ingress function.

    No-op in Production. On an order mismatch the phase reports a single
    order violation; the checks are unresolvable without the declared
    chain and are not evaluated. No snapshot is returned then, so egress
    evaluates nothing either.
    """
    if not runtime.development or contract is None or contract.ingress is None:
        return [], None
    outcome = contract.phases.ingress(packet.data)
    if outcome is None:
        return [_refusal(contract, "ingress", packet, packet_index)], None
    failed, snapshot = outcome
    runtime.snapshots_built += 1
    checks = contract.ingress_checks
    runtime.checks_evaluated += len(checks)
    nf = contract.nf_name
    return [
        _violation(checks[i], lhs, rhs, nf, "ingress", packet_index)
        for i, lhs, rhs in failed
    ], snapshot


def run_egress(
    contract,
    packet: Packet,
    snapshot: tuple | None,
    runtime: ContractRuntime,
    packet_index: int = 0,
) -> list[Violation]:
    """Evaluate the egress phase against the outgoing packet, reading
    snapshot operands from the ingress snapshot, in the contract's
    generated egress function. No-op in Production.

    Without a snapshot, a contract with an ingress phase evaluates nothing:
    its ingress order or mirror failed, and that violation is the packet's
    one root cause. A contract without one runs egress as usual, since
    elaboration refused every snapshot read in it.
    """
    if not runtime.development or contract is None or contract.egress is None:
        return []
    if snapshot is None and contract.ingress is not None:
        return []
    failed = contract.phases.egress(packet.data, snapshot)
    if failed is None:
        return [_refusal(contract, "egress", packet, packet_index)]
    checks = contract.egress_checks
    runtime.checks_evaluated += len(checks)
    nf = contract.nf_name
    return [
        _violation(checks[i], lhs, rhs, nf, "egress", packet_index)
        for i, lhs, rhs in failed
    ]
