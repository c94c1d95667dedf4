"""Runtime contract engine: ingress snapshots, check evaluation, violation
reporting, and build-mode gating.

Each phase decodes a packet's headers once, in ``parse_chain``, which runs
the walk elaboration compiled from the phase's order: codec calls at a
running offset, with the linkage cross-checks and error texts fixed in
advance. The ingress snapshot is the tuple of those headers. Elaboration
has compiled every check into a ``CompiledCheck`` whose one ``test`` call
indexes them through pre-bound accessors and which carries its operands'
texts, so no header is decoded again, no name is looked up per packet and
only a failing check builds a Violation.

All checks in a phase are evaluated; violations are collected rather than
thrown one at a time, so a single run can surface every failing condition.
A packet whose ingress walk fails gives one violation, its root cause:
egress does not run without the snapshot. In Production mode the dynamic
machinery is a no-op: no snapshots are built and no checks are evaluated.
"""

from __future__ import annotations

import ipaddress
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from . import registry as registry_mod
from .exceptions import ChainOrderError, EmitError
from .headers import Packet

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

    ``test(current, snapshot)`` evaluates the whole check in one call: it
    reads the left-hand field from ``current``, the headers decoded along
    the phase order, and the right-hand operand from them or from the
    ingress snapshot, by index and through pre-bound accessors, with the
    literals folded into one constant. It returns None when the check
    holds and ``(lhs_value, rhs_value)`` when it does not. ``lhs_text``
    and ``rhs_text`` are the operands' ``describe()`` texts, fixed here so
    that a failing check only assembles its message.
    """

    index: int
    check: Check
    lhs_text: str
    rhs_text: str
    test: Callable


def _violation(
    compiled: CompiledCheck,
    values: tuple,
    nf: str,
    phase: str,
    packet_index: int,
) -> Violation:
    """The Violation of a failing check, from the ``(lhs_value, rhs_value)``
    its ``test`` returned."""
    violation = Violation(
        nf=nf,
        phase=phase,
        check_index=compiled.index,
        lhs=compiled.lhs_text,
        lhs_value=render_value(values[0]),
        op=compiled.check.op,
        rhs=compiled.rhs_text,
        rhs_value=render_value(values[1]),
        packet_index=packet_index,
    )
    violation.message = violation.text()
    return violation


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
    reads it needs. ``_run_checks`` calls each check's ``test`` itself and
    builds the same Violation through the same helper.
    """
    failed = compiled.test(current, snapshot)
    if failed is None:
        return None
    return _violation(compiled, failed, nf, phase, packet_index)


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
    checks: tuple[CompiledCheck, ...],
    nf: str,
    phase: str,
    current: list,
    snapshot: tuple | None,
    runtime: ContractRuntime,
    packet_index: int,
) -> list[Violation]:
    """Evaluate every compiled check of one phase, without short-circuiting,
    on the headers ``parse_chain`` has just decoded along the phase's order.

    Each check is one ``test`` call; only a failing check builds a
    Violation, from the values its ``test`` returned, as ``eval_check``
    does."""
    violations = []
    for compiled in checks:
        failed = compiled.test(current, snapshot)
        if failed is not None:
            violations.append(_violation(compiled, failed, nf, phase, packet_index))
    runtime.checks_evaluated += len(checks)
    return violations


def run_ingress(
    contract,
    packet: Packet,
    runtime: ContractRuntime,
    packet_index: int = 0,
) -> tuple[list[Violation], tuple | None]:
    """Evaluate the ingress phase: parse along the order, snapshot, then
    every check.

    No-op in Production. On an order mismatch the phase reports a single
    order violation; the checks are unresolvable without the declared
    chain and are not evaluated. No snapshot is returned then, so egress
    evaluates nothing either.
    """
    if not runtime.development or contract is None or contract.ingress is None:
        return [], None
    try:
        decoded, ends = registry_mod.parse_chain(packet, contract.ingress_walk)
        snapshot = build_snapshot(packet, decoded, ends, runtime)
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
        contract.ingress_checks, contract.nf_name, "ingress", decoded, snapshot,
        runtime, packet_index,
    )
    return violations, snapshot


def run_egress(
    contract,
    packet: Packet,
    snapshot: tuple | None,
    runtime: ContractRuntime,
    packet_index: int = 0,
) -> list[Violation]:
    """Evaluate the egress phase against the outgoing packet, reading
    snapshot operands from the ingress snapshot. No-op in Production.

    Without a snapshot, a contract with an ingress phase evaluates nothing:
    its ingress order or mirror failed, and that violation is the packet's
    one root cause. A contract without one runs egress as usual, since
    elaboration refused every snapshot read in it.
    """
    if not runtime.development or contract is None or contract.egress is None:
        return []
    if snapshot is None and contract.ingress is not None:
        return []
    try:
        decoded, _ = registry_mod.parse_chain(packet, contract.egress_walk)
    except ChainOrderError as exc:
        return [_order_violation(contract.nf_name, "egress", exc, packet_index)]
    return _run_checks(
        contract.egress_checks, contract.nf_name, "egress", decoded, snapshot,
        runtime, packet_index,
    )
