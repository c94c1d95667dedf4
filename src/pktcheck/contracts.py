"""The contract language: parsing, elaboration and phase generation.

A contract block binds named constants, declares ingress (``pre``) and
egress (``post``) phases — each a header order plus a list of field
checks — and may add ``static:`` assertions over the constants.

Surface form::

    check(IPV6_MIN_MTU = 1280)
    pre {
        order: [EthHdr => Ipv6Hdr => TcpHdr<Ipv6Hdr>],
        checks: [(payload_len[Ipv6Hdr], >, IPV6_MIN_MTU)]
    }
    post {
        order: [EthHdr => Ipv6Hdr => Icmpv6PktTooBig<Ipv6Hdr>],
        checks: [(payload_len[Ipv6Hdr], ==, 1240),
                 (src[Ipv6Hdr], ==, dst[Ipv6Hdr])]
    }
    static: [IPV6_MIN_MTU + 14 == 1294]

Field references on a check's right-hand side read the current packet in
``pre`` checks and the ingress snapshot in ``post`` checks, so
``(src[Ipv6Hdr], ==, dst[Ipv6Hdr])`` in ``post`` asserts that the outgoing
source address equals the *original* destination address. Right-hand
operands may be sums/differences of literals, constants, and field
references (``payload_len[Ipv6Hdr] + 16``).

``elaborate`` turns a parsed spec into an executable contract in one walk
over each phase: every field reference is resolved against the registry
and the header orders, constants are inlined and folded with the literals
into one number, and each check is compiled into a ``CompiledCheck`` that
records its reads (header index, accessor, snapshot flag); then both
orders are verified, each compiled into the walk that parses packets along
it, and the static assertions are evaluated (in every build mode). All of
this happens once, before any packet flows.

On a contract's first Development use, each phase is generated as one
Python function from source text and compiled: it follows the phase's walk
with the linkage cross-checks inline, calls each codec at the running
offset, re-emits each ingress header against its byte span, and evaluates
every check as one inline comparison (see ``Phases``). Production never
generates them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple

from .engine import COMPARATORS, Check, CompiledCheck, FieldRef, Operand, Source
from .exceptions import (
    ContractSyntaxError,
    ElaborationError,
    EmitError,
    ParseError,
    RegistryError,
)
from .registry import (
    BYTES,
    INT,
    FieldAccessor,
    OrderElement,
    OrderSpec,
    OrderStep,
    Registry,
    verify_order,
)

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<int>0x[0-9A-Fa-f]+|\d+)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>=>|==|<=|>=|[(){}\[\],:=<>+\-*.])
    """,
    re.VERBOSE,
)

_COMPARATOR_PUNCT = {"==", "<", "<=", ">", ">="}


@dataclass(frozen=True)
class Token:
    kind: str  # "int" | "name" | punct text | "eof"
    value: object
    line: int
    column: int


def _tokenize(text: str) -> list[Token]:
    tokens = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ContractSyntaxError(
                f"unexpected character {text[pos]!r}", line, pos - line_start + 1
            )
        column = m.start() - line_start + 1
        if m.lastgroup == "int":
            tokens.append(Token("int", int(m.group(), 0), line, column))
        elif m.lastgroup == "name":
            tokens.append(Token("name", m.group(), line, column))
        elif m.lastgroup == "punct":
            tokens.append(Token(m.group(), m.group(), line, column))
        # whitespace/comments: track line numbers only
        newlines = m.group().count("\n")
        if newlines:
            line += newlines
            line_start = m.start() + m.group().rindex("\n") + 1
        pos = m.end()
    tokens.append(Token("eof", None, line, len(text) - line_start + 1))
    return tokens


# --- static assertion expressions -------------------------------------------
# AST: ("int", value) | ("const", name) | (op, lhs, rhs) with op in {+,-,*}


@dataclass(frozen=True)
class StaticAssertion:
    """A comparison over constants, decided at elaboration time."""

    lhs: tuple
    op: str
    rhs: tuple

    def text(self) -> str:
        return f"{_expr_text(self.lhs)} {self.op} {_expr_text(self.rhs)}"


def _expr_text(node: tuple) -> str:
    tag = node[0]
    if tag == "int":
        return str(node[1])
    if tag == "const":
        return node[1]
    return f"{_expr_text(node[1])} {tag} {_expr_text(node[2])}"


def _expr_eval(node: tuple, constants: dict[str, int]) -> int:
    tag = node[0]
    if tag == "int":
        return node[1]
    if tag == "const":
        if node[1] not in constants:
            raise ElaborationError(
                f"static assertion uses unbound constant {node[1]!r}"
            )
        return constants[node[1]]
    a = _expr_eval(node[1], constants)
    b = _expr_eval(node[2], constants)
    return a + b if tag == "+" else a - b if tag == "-" else a * b


@dataclass(frozen=True)
class PhaseSpec:
    """One contract phase: the declared header order plus its checks."""

    order: OrderSpec
    checks: tuple[Check, ...]


@dataclass(frozen=True)
class ContractSpec:
    """Parsed but not yet elaborated contract."""

    nf_name: str
    constants: dict[str, int]
    static_assertions: tuple[StaticAssertion, ...]
    ingress: PhaseSpec | None
    egress: PhaseSpec | None


class Phases(NamedTuple):
    """A contract's generated phase functions; a phase the contract lacks
    is None.

    ``ingress(data)`` returns None when the packet fails the ingress walk
    or its mirror, else ``(failed, snapshot)``. ``egress(data, snapshot)``
    returns None when the packet fails the egress walk, else ``failed``.
    ``failed`` lists each failing check as ``(index, lhs_value, rhs_value)``.
    """

    ingress: Callable | None
    egress: Callable | None


@dataclass(frozen=True)
class Contract(ContractSpec):
    """Elaborated, executable contract: orders verified, assertions proven,
    each phase's order compiled into the walk ``parse_chain`` runs, and
    each phase's checks, constants inlined, resolved into the reads they
    make. Immutable once built; its ``phases`` are generated on first use."""

    ingress_checks: tuple[CompiledCheck, ...] = field(compare=False, repr=False)
    egress_checks: tuple[CompiledCheck, ...] = field(compare=False, repr=False)
    ingress_walk: tuple[OrderStep, ...] = field(compare=False, repr=False)
    egress_walk: tuple[OrderStep, ...] = field(compare=False, repr=False)

    @cached_property
    def phases(self) -> Phases:
        """Each phase as one generated function, compiled when a
        Development run first needs it; Production never does."""
        return _generate_phases(self)


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    # -- token plumbing --
    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def error(self, message: str, tok: Token | None = None):
        tok = tok or self.peek()
        raise ContractSyntaxError(message, tok.line, tok.column)

    def expect(self, kind: str, what: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            shown = tok.value if tok.kind != "eof" else "end of input"
            self.error(f"expected {what or kind!r}, found {shown!r}")
        return self.advance()

    def expect_keyword(self, word: str) -> Token:
        tok = self.peek()
        if tok.kind != "name" or tok.value != word:
            shown = tok.value if tok.kind != "eof" else "end of input"
            self.error(f"expected keyword {word!r}, found {shown!r}")
        return self.advance()

    def at_keyword(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "name" and tok.value == word

    # -- grammar --
    def parse_spec(self, nf_name: str) -> ContractSpec:
        self.expect_keyword("check")
        self.expect("(")
        constants = self.parse_bindings()
        self.expect(")")
        ingress = self.parse_phase("pre") if self.at_keyword("pre") else None
        egress = self.parse_phase("post") if self.at_keyword("post") else None
        assertions = self.parse_asserts() if self.at_keyword("static") else ()
        tok = self.peek()
        if tok.kind != "eof":
            self.error(f"unexpected trailing input {tok.value!r}")
        return ContractSpec(
            nf_name=nf_name,
            constants=constants,
            static_assertions=assertions,
            ingress=ingress,
            egress=egress,
        )

    def parse_bindings(self) -> dict[str, int]:
        constants: dict[str, int] = {}
        if self.peek().kind == ")":
            return constants
        while True:
            name_tok = self.expect("name", "constant name")
            self.expect("=")
            value_tok = self.expect("int", "integer value")
            if name_tok.value in constants:
                self.error(f"duplicate constant {name_tok.value!r}", name_tok)
            constants[name_tok.value] = value_tok.value
            if self.peek().kind != ",":
                return constants
            self.advance()

    def parse_phase(self, keyword: str) -> PhaseSpec:
        rhs_source = (
            Source.CURRENT_PACKET if keyword == "pre" else Source.INGRESS_SNAPSHOT
        )
        self.expect_keyword(keyword)
        self.expect("{")
        if self.at_keyword("input"):  # accepted and ignored: names the packet
            self.advance()
            self.expect(":")
            self.expect("name", "packet name")
            self.expect(",")
        self.expect_keyword("order")
        self.expect(":")
        order = self.parse_order()
        self.expect(",")
        self.expect_keyword("checks")
        self.expect(":")
        self.expect("[")
        checks = [self.parse_check(rhs_source)]
        while self.peek().kind == ",":
            self.advance()
            checks.append(self.parse_check(rhs_source))
        self.expect("]")
        self.expect("}")
        return PhaseSpec(order=order, checks=tuple(checks))

    def parse_order(self) -> OrderSpec:
        self.expect("[")
        elements = [self.parse_hdr()]
        while self.peek().kind == "=>":
            self.advance()
            elements.append(self.parse_hdr())
        self.expect("]")
        return OrderSpec(tuple(elements))

    def parse_hdr(self) -> OrderElement:
        name = self.expect("name", "header type").value
        param = None
        if self.peek().kind == "<":
            self.advance()
            param = self.expect("name", "header type parameter").value
            self.expect(">")
        return OrderElement(header_type=name, param=param)

    def parse_check(self, rhs_source: Source) -> Check:
        self.expect("(")
        lhs = self.parse_fieldref(Source.CURRENT_PACKET)
        self.expect(",")
        op = self.parse_comparator()
        self.expect(",")
        rhs = self.parse_operand(rhs_source)
        self.expect(")")
        return Check(lhs=lhs, op=op, rhs=rhs)

    def parse_comparator(self) -> str:
        tok = self.peek()
        if tok.kind in _COMPARATOR_PUNCT:
            return self.advance().value
        if tok.kind == "name" and tok.value == "neq":
            self.advance()
            return "neq"
        self.error(
            "expected comparator (one of ==, neq, <, <=, >, >=), "
            f"found {tok.value!r}"
        )

    def parse_fieldref(self, source: Source) -> FieldRef:
        if self.peek().kind == ".":
            self.advance()
        accessor = self.expect("name", "field name").value
        self.expect("[")
        hdr = self.parse_hdr()
        self.expect("]")
        return FieldRef(
            accessor=accessor,
            header_type=hdr.header_type,
            param=hdr.param,
            source=source,
        )

    def parse_operand(self, source: Source) -> Operand:
        terms = [(1, self.parse_operand_term(source))]
        while self.peek().kind in ("+", "-"):
            sign = 1 if self.advance().kind == "+" else -1
            terms.append((sign, self.parse_operand_term(source)))
        return Operand(tuple(terms))

    def parse_operand_term(self, source: Source):
        tok = self.peek()
        if tok.kind == "int":
            return self.advance().value
        if tok.kind in ("name", "."):
            # A name followed by '[' is a field reference; bare is a constant.
            if tok.kind == "name" and self.tokens[self.pos + 1].kind != "[":
                return self.advance().value
            return self.parse_fieldref(source)
        self.error(
            f"expected integer, constant, or field reference, found {tok.value!r}"
        )

    def parse_asserts(self) -> tuple[StaticAssertion, ...]:
        self.expect_keyword("static")
        self.expect(":")
        self.expect("[")
        assertions = [self.parse_assert_expr()]
        while self.peek().kind == ",":
            self.advance()
            assertions.append(self.parse_assert_expr())
        self.expect("]")
        return tuple(assertions)

    def parse_assert_expr(self) -> StaticAssertion:
        lhs = self.parse_additive()
        op = self.parse_comparator()
        rhs = self.parse_additive()
        return StaticAssertion(lhs=lhs, op=op, rhs=rhs)

    def parse_additive(self) -> tuple:
        node = self.parse_multiplicative()
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            node = (op, node, self.parse_multiplicative())
        return node

    def parse_multiplicative(self) -> tuple:
        node = self.parse_atom()
        while self.peek().kind == "*":
            self.advance()
            node = ("*", node, self.parse_atom())
        return node

    def parse_atom(self) -> tuple:
        tok = self.peek()
        if tok.kind == "int":
            return ("int", self.advance().value)
        if tok.kind == "name":
            return ("const", self.advance().value)
        self.error(f"expected integer or constant, found {tok.value!r}")


def parse_contract_spec(text: str, nf_name: str = "nf") -> ContractSpec:
    """Parse a contract block into a ContractSpec.

    Syntax problems raise ContractSyntaxError with line/column; everything
    that needs the registry is checked by ``elaborate``.
    """
    return _Parser(text).parse_spec(nf_name)


def _resolve(
    ref: FieldRef,
    registry: Registry,
    phase_name: str,
    current: OrderSpec,
    ingress: OrderSpec | None,
) -> tuple[FieldAccessor, int]:
    """Check one field reference against the registry and the order it
    reads (``current`` or ``ingress``); return its accessor and the index
    of its header in that order."""
    if not registry.known(ref.header_type):
        raise ElaborationError(
            f"{phase_name} check references unknown header type "
            f"{ref.header_type!r}"
        )
    try:
        accessor = registry.accessor(ref.header_type, ref.accessor)
    except RegistryError as exc:
        raise ElaborationError(str(exc)) from None
    if ref.param is not None and not registry.known(ref.param):
        raise ElaborationError(
            f"{phase_name} check references unknown header type parameter "
            f"{ref.param!r}"
        )
    snapshot = ref.source is Source.INGRESS_SNAPSHOT
    where, order = ("ingress", ingress) if snapshot else (phase_name, current)
    elements = order.elements if order is not None else ()
    positions = [i for i, e in enumerate(elements) if e.header_type == ref.header_type]
    if not positions:
        raise ElaborationError(
            f"{phase_name} check references {ref.describe()}, but "
            f"{ref.header_type} is not in the {where} order"
            + (" (dangling snapshot reference)" if snapshot else "")
        )
    if not 0 <= ref.occurrence < len(positions):
        raise ElaborationError(
            f"{phase_name} check references {ref.describe()}, but the {where} "
            f"order holds {len(positions)} {ref.header_type} header(s)"
        )
    i = positions[ref.occurrence]
    if ref.param is not None and ref.param != elements[i].param:
        raise ElaborationError(
            f"{phase_name} check references {ref.describe()}, but the {where} "
            f"order holds {elements[i]}"
        )
    return accessor, i


def _compile_phase(
    spec: ContractSpec,
    phase: PhaseSpec | None,
    phase_name: str,
    registry: Registry,
) -> tuple[CompiledCheck, ...]:
    """Check, inline and compile each check of ``phase`` in one walk.

    Every reference is resolved once, against the phase order or the
    ingress order; constants are inlined and folded with the literals into
    one number; each read is bound to its header's index and accessor.
    """
    if phase is None:
        return ()
    for element in phase.order.elements:
        for name in (element.header_type, element.param):
            if name is not None and not registry.known(name):
                raise ElaborationError(
                    f"{phase_name} order references unknown header type {name!r}"
                )
    ingress = spec.ingress.order if spec.ingress is not None else None
    compiled = []
    for idx, check in enumerate(phase.checks):
        if check.lhs.source is not Source.CURRENT_PACKET:
            raise ElaborationError(
                f"{phase_name} check {check.describe()}: the left-hand side "
                "must read the packet in hand, not the ingress snapshot"
            )
        lhs, i = _resolve(check.lhs, registry, phase_name, phase.order, ingress)
        terms, term_kinds, reads, const = [], [], [], 0
        for sign, term in check.rhs.terms:
            if isinstance(term, FieldRef):
                accessor, j = _resolve(term, registry, phase_name, phase.order, ingress)
                term_kinds.append(accessor.kind)
                from_snapshot = term.source is Source.INGRESS_SNAPSHOT
                reads.append((sign, from_snapshot, accessor, j))
            else:
                if isinstance(term, str):
                    if term not in spec.constants:
                        raise ElaborationError(
                            f"{phase_name} check {check.describe()} uses unbound "
                            f"constant {term!r}"
                        )
                    term = spec.constants[term]
                term_kinds.append(INT)
                const += sign * term
            terms.append((sign, term))
        if check.rhs.is_arithmetic():
            if lhs.kind != INT or any(k != INT for k in term_kinds):
                raise ElaborationError(
                    f"{phase_name} check {check.describe()}: arithmetic "
                    "operands require integer fields"
                )
        elif term_kinds[0] != lhs.kind:
            raise ElaborationError(
                f"{phase_name} check {check.describe()}: cannot compare "
                f"{lhs.kind} field with {term_kinds[0]} operand"
            )
        if lhs.kind == BYTES and check.op not in ("==", "neq"):
            raise ElaborationError(
                f"{phase_name} check {check.describe()}: byte-sequence fields "
                f"admit only == and neq, not {check.op}"
            )
        if check.op not in COMPARATORS:
            raise ElaborationError(
                f"{phase_name} check {check.describe()}: unknown comparator "
                f"{check.op!r}"
            )
        rhs = Operand(tuple(terms))
        compiled.append(CompiledCheck(
            idx,
            Check(check.lhs, check.op, rhs),
            check.lhs.describe(),
            rhs.describe(),
            lhs,
            i,
            tuple(reads),
            const,
        ))
    return tuple(compiled)


def check_static_assertions(spec: ContractSpec) -> None:
    """Evaluate every static assertion; raise ElaborationError on failure,
    quoting the expression and the value of each side."""
    for assertion in spec.static_assertions:
        lhs = _expr_eval(assertion.lhs, spec.constants)
        rhs = _expr_eval(assertion.rhs, spec.constants)
        if not COMPARATORS[assertion.op](lhs, rhs):
            raise ElaborationError(
                f"static assertion failed: {assertion.text()} "
                f"(lhs = {lhs}, rhs = {rhs})"
            )


def elaborate(spec: ContractSpec, registry: Registry) -> Contract:
    """Produce the executable contract from its parsed form.

    Runs in every build mode, before any packet flows: checks every
    reference against the registry while inlining constants and compiling
    each check into the evaluator the engine runs per packet, then
    verifies both header orders, compiling each into its walk, and
    evaluates the static assertions.
    """
    if not registry.frozen:
        raise ElaborationError("registry must be frozen before elaboration")
    ingress_checks = _compile_phase(spec, spec.ingress, "ingress", registry)
    egress_checks = _compile_phase(spec, spec.egress, "egress", registry)
    ingress_walk, egress_walk = (
        verify_order(registry, phase.order) if phase is not None else ()
        for phase in (spec.ingress, spec.egress)
    )
    check_static_assertions(spec)
    return Contract(
        nf_name=spec.nf_name,
        constants=dict(spec.constants),
        static_assertions=spec.static_assertions,
        ingress=spec.ingress,
        egress=spec.egress,
        ingress_checks=ingress_checks,
        egress_checks=egress_checks,
        ingress_walk=ingress_walk,
        egress_walk=egress_walk,
    )


#: Python's spelling of each contract comparator.
_PY_OPS = {op: "!=" if op == "neq" else op for op in COMPARATORS}


def _rhs_source(compiled: CompiledCheck, read) -> str:
    """The right-hand operand of ``compiled`` as one expression; ``read``
    spells a ``(from_snapshot, accessor, index)`` field read."""
    if compiled.lhs.kind == BYTES:
        return read(*compiled.reads[0][1:])
    terms = [
        f"{'+' if sign > 0 else '-'} {read(from_snapshot, accessor, j)}"
        for sign, from_snapshot, accessor, j in compiled.reads
    ]
    if compiled.const or not terms:
        terms.append(f"+ {compiled.const!r}")
    expr = " ".join(terms)
    return expr[2:] if expr[0] == "+" else "-" + expr[2:]


def _phase_lines(
    name: str,
    walk: tuple[OrderStep, ...],
    checks: tuple[CompiledCheck, ...],
    namespace: dict,
) -> list[str]:
    """Source of one phase function (see ``Phases``), binding each step's
    codec in ``namespace``.

    Header ``k`` of the walk is ``hk`` and ends at offset ``ek``. Each step
    cross-checks its predecessor's linkage field, then parses at the
    running offset, as ``parse_chain`` does; at ingress every header is
    re-emitted and compared with its byte span, as ``build_snapshot``
    does. A snapshot read is ``sj = snap[j]`` at egress and ``hj`` at
    ingress, where the snapshot is the headers in hand.
    """
    ingress = name == "ingress"
    lines = [f"def {name}(data{'' if ingress else ', snap'}):", "    try:"]
    for k, step in enumerate(walk):
        parse = f"{name}_parse{k}"
        namespace[parse] = step.parse
        if step.linkage is not None:
            lines += [
                f"        if h{k - 1}.{step.linkage} != {step.proto!r}:",
                "            return None",
            ]
        if k == 0:
            lines.append(f"        h0, e0 = {parse}(data, 0)")
        else:
            lines.append(f"        h{k}, n = {parse}(data, e{k - 1})")
            if ingress or k < len(walk) - 1:
                lines.append(f"        e{k} = e{k - 1} + n")
    if ingress:
        mirror = " or ".join(
            f"h{k}.emit() != data[{f'e{k - 1}' if k else ''}:e{k}]"
            for k in range(len(walk))
        )
        lines += [f"        if {mirror}:", "            return None",
                  "    except (ParseError, EmitError):"]
    else:
        lines.append("    except ParseError:")
    lines += ["        return None", "    failed = []"]
    if not ingress:
        lines += [
            f"    s{j} = snap[{j}]"
            for j in sorted({j for c in checks for _, from_snapshot, _, j in c.reads
                             if from_snapshot})
        ]

    def read(from_snapshot, accessor, j):
        return f"{'s' if from_snapshot and not ingress else 'h'}{j}.{accessor.name}"

    for c in checks:
        lines += [
            f"    lhs = h{c.lhs_index}.{c.lhs.name}",
            f"    rhs = {_rhs_source(c, read)}",
            f"    if not lhs {_PY_OPS[c.check.op]} rhs:",
            f"        failed.append(({c.index}, lhs, rhs))",
        ]
    snapshot = ", ".join(f"h{k}" for k in range(len(walk)))
    lines.append(f"    return failed, ({snapshot},)" if ingress else "    return failed")
    return lines + [""]


def _generate_phases(contract: Contract) -> Phases:
    """Write each phase of ``contract`` as one function and compile both."""
    namespace = {"ParseError": ParseError, "EmitError": EmitError}
    lines = []
    for name, phase, walk, checks in (
        ("ingress", contract.ingress, contract.ingress_walk, contract.ingress_checks),
        ("egress", contract.egress, contract.egress_walk, contract.egress_checks),
    ):
        if phase is not None:
            lines += _phase_lines(name, walk, checks, namespace)
    source = "\n".join(lines) + "\n"
    exec(compile(source, f"<contract {contract.nf_name}>", "exec"), namespace)
    return Phases(namespace.get("ingress"), namespace.get("egress"))


def explain_contract(contract: Contract) -> str:
    """Render an elaborated contract as readable text (CLI `explain`)."""
    lines = [f"contract for NF {contract.nf_name}"]
    if contract.constants:
        lines.append("constants:")
        for name, value in contract.constants.items():
            lines.append(f"  {name} = {value}")
    if contract.static_assertions:
        lines.append("static assertions (proven at elaboration):")
        for assertion in contract.static_assertions:
            lines.append(f"  {assertion.text()}")
    for phase_name, phase, compiled in (
        ("ingress", contract.ingress, contract.ingress_checks),
        ("egress", contract.egress, contract.egress_checks),
    ):
        if phase is None:
            lines.append(f"{phase_name}: (none)")
            continue
        lines.append(f"{phase_name}:")
        lines.append(f"  order: {phase.order}")
        if compiled:
            lines.append("  checks:")
            for c in compiled:
                lines.append(f"    #{c.index} {c.check.describe()}")
        else:
            lines.append("  checks: (none)")
    return "\n".join(lines)
