"""Runtime contract engine: ingress snapshots, check evaluation, violation
reporting, and build-mode gating.

Each phase of an elaborated contract is a ``contracts.Phase`` and runs
one generated function (``Phase.run``) that returns its packet's
Violations, a walk refusal's order violation (built by ``_refusal``)
included; the ``contracts`` module docstring describes it in full.

A contract whose ingress phase has a ``when:`` guard covers only the
packets the guard holds for. The ingress function returns ``OUTSIDE``, a
sentinel tested by identity, in place of a snapshot for any other packet:
no precondition, no snapshot and no egress apply to it. Its frame condition
does instead: an output whose bytes differ from the input's is one
Violation of kind ``"frame"`` (built by ``_frame``), and a transform drop
is none.

``run_ingress`` and ``run_egress`` are the one-packet API: each runs one
phase's function on one packet and counts its walk into a
``ContractRuntime``; ``run_egress`` also applies the frame condition. The
pipeline's checked loop calls the phase functions itself, with the same
semantics, and the tests hold that loop to ``run_ingress`` → transform →
``run_egress``, packet by packet.

``parse_chain``, ``build_snapshot``, ``eval_check`` and
``CompiledCheck.test`` do what the phases do one step at a time, outside
the packet path, reading the attributes a check names with ``getattr``:
the tests hold the generated phases to them.

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

from .exceptions import ChainOrderError, ConfigError
from .headers import Packet

POLICIES = ("drop", "continue", "abort")
COMPARATORS = {
    "==": operator.eq,
    "neq": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


class _Outside:
    """The type of ``OUTSIDE``, which an ingress phase returns in place of a
    snapshot for a packet outside its guard."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "OUTSIDE"


OUTSIDE = _Outside()


class Source(Enum):
    CURRENT_PACKET = "current"
    INGRESS_SNAPSHOT = "ingress"


class BuildMode(Enum):
    DEVELOPMENT = "dev"
    PRODUCTION = "prod"


def check_build_mode(mode: BuildMode) -> None:
    """Refuse a ``mode`` that is not a ``BuildMode``: the phase entry points
    test it by identity, so its string value would silently run Production."""
    if not isinstance(mode, BuildMode):
        raise ConfigError(
            f"unknown build mode {mode!r} (known: {', '.join(m.value for m in BuildMode)})"
        )


def check_policy(policy: str) -> None:
    """Refuse a violation ``policy`` that is not one of ``POLICIES``."""
    if policy not in POLICIES:
        raise ConfigError(f"unknown policy {policy!r} (known: {', '.join(POLICIES)})")


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


def describe_sum(terms) -> str:
    """The text of a signed sum of ``(sign, term)`` pairs: ``a + b - c``,
    and ``-a + b`` when the first sign is negative. Every signed sum prints
    here: an operand, a static assertion's side and a generated phase's
    right-hand expression."""
    text = " ".join([f"+ {term}" if sign > 0 else f"- {term}" for sign, term in terms])
    return text[2:] if text[:1] == "+" else text[:1] + text[2:]


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
        return describe_sum([
            (sign, term.describe() if isinstance(term, FieldRef) else term)
            for sign, term in self.terms
        ])

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
    """Structured record of one failed check, failed order match or
    broken frame condition.

    ``reason`` is the error text of an order or frame violation, which is
    its ``message``, and None for a failed check, whose ``message`` is its
    ``text()``, formatted only when read. ``text()`` is the one-line
    report of any of them, tagged ``phase#index`` for a check and
    ``phase#kind`` for the others."""

    nf: str
    phase: str  # "ingress" | "egress"
    check_index: int | None
    lhs: str
    lhs_value: object
    op: str | None
    rhs: str
    rhs_value: object
    packet_index: int
    kind: str = "check"  # "check" | "order" | "frame"
    reason: str | None = None

    @property
    def message(self) -> str:
        return self.text() if self.reason is None else self.reason

    def key(self) -> str:
        """``phase#index`` for a failed check, ``phase#kind`` for the others."""
        return f"{self.phase}#{self.kind if self.check_index is None else self.check_index}"

    def text(self) -> str:
        if self.reason is not None:
            return f"NF {self.nf} [{self.key()}] {self.reason} (packet {self.packet_index})"
        return (
            f"NF {self.nf} [{self.phase}#{self.check_index}] "
            f"{self.lhs}={self.lhs_value} {self.op} {self.rhs}={self.rhs_value} "
            f"FAILED (packet {self.packet_index})"
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
        check_build_mode(mode)
        self.mode = mode
        self.snapshots_built = 0
        self.checks_evaluated = 0


def build_snapshot(headers: list, runtime: ContractRuntime | None = None) -> tuple:
    """The ingress snapshot: the tuple of ``headers``, which ``parse_chain``
    has just decoded along the ingress order, by their position in it. No
    transform edits them: each decodes headers of its own."""
    if runtime is not None:
        runtime.snapshots_built += 1
    return tuple(headers)


@dataclass(slots=True, unsafe_hash=True)
class CompiledCheck:
    """One check of an elaborated contract, resolved against its phase.

    The left-hand side reads the attribute named ``lhs`` of the header at
    ``lhs_index`` of the headers decoded along the phase order, and ``op``
    compares it with the right-hand side. ``reads`` holds the right-hand
    field reads as ``(sign, from_snapshot, name, index, codec)``, by index
    in the phase order or in the ingress snapshot, with that header's codec,
    and ``const`` is the sum of the operand's literals and constants. When
    ``is_bytes``, both sides are byte sequences and the right-hand side is
    its one read. ``lhs_text`` and ``rhs_text`` are the operands'
    ``describe()`` texts, constants inlined, fixed here so that a failing
    check only assembles its message.
    The generated phase functions read the same attributes inline.
    It hashes by value, since generated phases are cached on their checks,
    but is not frozen: a frozen dataclass takes several times as long to build.
    """

    index: int
    op: str
    lhs_text: str
    rhs_text: str
    lhs: str
    lhs_index: int
    reads: tuple[tuple[int, bool, str, int, type], ...]
    const: int
    is_bytes: bool

    def test(self, current, snapshot) -> tuple | None:
        """Evaluate the check with ``getattr`` on ``current``, the headers
        decoded along the phase order, and ``snapshot``: None when it
        holds, else ``(lhs_value, rhs_value)``."""
        lhs = getattr(current[self.lhs_index], self.lhs)
        values = [
            (sign, getattr((snapshot if from_snapshot else current)[j], name))
            for sign, from_snapshot, name, j, _ in self.reads
        ]
        if self.is_bytes:
            rhs = values[0][1]
        else:
            rhs = self.const + sum(sign * value for sign, value in values)
        return None if COMPARATORS[self.op](lhs, rhs) else (lhs, rhs)


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
    build the same Violation.
    """
    failed = compiled.test(current, snapshot)
    if failed is None:
        return None
    lhs, rhs = failed
    return Violation(
        nf, phase, compiled.index, compiled.lhs_text, render_value(lhs),
        compiled.op, compiled.rhs_text, render_value(rhs), packet_index,
    )


def _refusal(exc: ChainOrderError, nf: str, phase: str, packet_index: int) -> Violation:
    """The order violation of a packet whose walk refused it with ``exc``."""
    return Violation(
        nf, phase, None, "order", exc.found, None, "expected", exc.expected,
        packet_index, "order", str(exc),
    )


#: The text of every frame violation.
FRAME_REASON = "a packet outside the contract's guard left with its bytes changed"


def _frame(nf: str, packet_index: int) -> Violation:
    """The frame violation of a packet outside the guard whose output bytes
    differ from its input's."""
    return Violation(
        nf, "egress", None, "frame", "changed", None, "expected", "unchanged",
        packet_index, "frame", FRAME_REASON,
    )


def run_ingress(
    contract,
    packet: Packet,
    runtime: ContractRuntime,
    packet_index: int = 0,
) -> tuple[list[Violation], tuple | _Outside | None]:
    """Evaluate the ingress phase: parse along the order, decide the guard
    where its last field is read, snapshot, then every check, in the
    contract's generated ingress function.

    No-op in Production. On an order mismatch the phase reports a single
    order violation; the checks are unresolvable without the declared
    chain and are not evaluated. No snapshot is returned then, so egress
    evaluates nothing either, and no check counts, the guard's included. A
    packet outside the guard returns ``([], OUTSIDE)`` and counts only the
    guard's checks.
    """
    if (runtime.mode is not BuildMode.DEVELOPMENT or contract is None
            or contract.ingress is None):
        return [], None
    phase = contract.ingress
    violations, snapshot = phase.run(packet.data, contract.nf_name, packet_index)
    if snapshot is OUTSIDE:
        runtime.checks_evaluated += len(phase.guard)
    elif snapshot is not None:
        runtime.snapshots_built += 1
        runtime.checks_evaluated += len(phase.guard) + len(phase.compiled)
    return violations, snapshot


def run_egress(
    contract,
    packet: Packet,
    snapshot: tuple | None,
    runtime: ContractRuntime,
    packet_index: int = 0,
) -> list[Violation]:
    """Evaluate the egress phase against the outgoing packet, reading
    snapshot operands from the ingress snapshot, in the contract's
    generated egress function. No-op in Production. Called, like the
    checked loop's egress, only for an output whose bytes differ from its
    input's.

    Without a snapshot, a contract with an ingress phase evaluates nothing:
    its ingress order failed, and that order violation is the packet's one
    root cause. A contract without one runs egress as usual, since
    elaboration refused every snapshot read in it. For a packet outside
    the guard (``snapshot`` is ``OUTSIDE``) the one violation is the frame
    condition's.
    """
    if runtime.mode is not BuildMode.DEVELOPMENT or contract is None:
        return []
    if snapshot is OUTSIDE:
        return [_frame(contract.nf_name, packet_index)]
    if contract.egress is None:
        return []
    if snapshot is None and contract.ingress is not None:
        return []
    phase = contract.egress
    violations, walked = phase.run(packet.data, snapshot, contract.nf_name, packet_index)
    runtime.checks_evaluated += walked * len(phase.compiled)
    return violations
