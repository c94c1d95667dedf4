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
records its reads (header index, attribute name, snapshot flag); then both
orders are verified, each compiled into the walk that parses packets along
it, and the static assertions are evaluated (in every build mode). All of
this happens once, before any packet flows. Each phase of the result is
one ``Phase``: the parsed phase plus its name, walk and compiled checks.

On a phase's first Development use, ``Phase.run`` is generated as one
Python function from source text: it follows the phase's walk with the
linkage cross-checks inline and evaluates every check as one inline
comparison. Both phases are written by one generator: per step it splices
in the lines that each codec's ``READ`` writes (``headers.FieldRead.step``,
which the codec's generated ``parse`` runs too): one ``unpack_from`` plus
the layout's tests, each refusal raising the ``ChainOrderError`` of
``registry.walk_error``, as ``registry.parse_chain`` does. The ingress
function then builds each header from the fields read, as ``parse``
does, and the headers become the snapshot; the egress function builds
none and keeps only the fields its checks and linkage cross-checks name.
Phases of the same text share one compiled code object. Production never
generates them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple

from . import headers
from .engine import COMPARATORS, Check, CompiledCheck, FieldRef, Operand, Source
from .exceptions import ContractSyntaxError, ElaborationError, RegistryError
from .headers import BYTES, INT
from .registry import (
    OrderElement,
    OrderSpec,
    OrderStep,
    Registry,
    verify_order,
    walk_error,
)

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<int>0x[0-9A-Fa-f]+|\d+)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>=>|==|<=|>=|[(){}\[\],:=<>+\-*.])
  | (?P<bad>.)
    """,
    re.VERBOSE,
)

_COMPARATOR_PUNCT = {"==", "<", "<=", ">", ">="}


class Token(NamedTuple):
    kind: str  # "int" | "name" | punct text | "eof"
    value: object
    pos: int  # offset into the contract text


def _syntax_error(text: str, message: str, pos: int) -> ContractSyntaxError:
    """The error for ``message`` at offset ``pos`` of ``text``, with the
    line and column that offset falls on."""
    line, column = text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)
    return ContractSyntaxError(message, line, column)


def _tokenize(text: str) -> list[Token]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind, word, pos = m.lastgroup, m.group(), m.start()
        if kind == "bad":
            raise _syntax_error(text, f"unexpected character {word!r}", pos)
        if kind == "int":
            try:
                tokens.append(Token("int", int(word, 0), pos))
            except ValueError:
                raise _syntax_error(
                    text, f"invalid integer literal {word!r}", pos
                ) from None
        elif kind == "name":
            tokens.append(Token("name", word, pos))
        elif kind == "punct":
            tokens.append(Token(word, word, pos))
    tokens.append(Token("eof", None, len(text)))
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


@dataclass(frozen=True)
class Phase(PhaseSpec):
    """One elaborated phase, ``name`` "ingress" or "egress": its order
    compiled into the ``walk`` that ``run`` and ``parse_chain`` follow, and
    its checks, constants inlined, resolved into the ``compiled`` reads
    they make."""

    name: str
    walk: tuple[OrderStep, ...] = field(compare=False, repr=False)
    compiled: tuple[CompiledCheck, ...] = field(compare=False, repr=False)

    @cached_property
    def run(self) -> Callable:
        """The phase as one generated function, compiled when a Development
        run first needs it; Production never does.

        ``ingress(data)`` returns ``(failed, snapshot)`` and
        ``egress(data, snapshot)`` returns ``failed``, which lists each
        failing check as ``(index, lhs_value, rhs_value)``. A packet that
        fails the phase's walk raises the ``ChainOrderError`` that
        ``parse_chain`` raises for it.
        """
        return _generate(self)


@dataclass(frozen=True)
class Contract(ContractSpec):
    """Elaborated, executable contract: orders verified, assertions proven,
    and each phase a ``Phase``. Immutable once built."""


class _Parser:
    def __init__(self, text: str):
        self.text = text
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
        raise _syntax_error(self.text, message, tok.pos)

    def refuse(self, expected: str):
        """Raise the error of finding the next token where ``expected`` was
        due."""
        tok = self.peek()
        shown = tok.value if tok.kind != "eof" else "end of input"
        self.error(f"expected {expected}, found {shown!r}")

    def expect(self, kind: str, what: str | None = None) -> Token:
        if self.peek().kind != kind:
            self.refuse(repr(what or kind))
        return self.advance()

    def expect_keyword(self, word: str) -> Token:
        if not self.at_keyword(word):
            self.refuse(f"keyword {word!r}")
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
        self.refuse("comparator (one of ==, neq, <, <=, >, >=)")

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
        self.refuse("integer, constant, or field reference")

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
        self.refuse("integer or constant")


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
) -> tuple[str, int]:
    """Check one field reference against the registry and the order it
    reads (``current`` or ``ingress``); return the kind of its attribute
    and the index of its header in that order."""
    if not registry.known(ref.header_type):
        raise ElaborationError(
            f"{phase_name} check references unknown header type "
            f"{ref.header_type!r}"
        )
    try:
        kind = registry.accessor(ref.header_type, ref.accessor)
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
    return kind, i


def _compile_phase(
    spec: ContractSpec,
    phase: PhaseSpec | None,
    phase_name: str,
    registry: Registry,
) -> tuple[CompiledCheck, ...]:
    """Check, inline and compile each check of ``phase`` in one walk.

    Every reference is resolved once, against the phase order or the
    ingress order; constants are inlined and folded with the literals into
    one number; each read is bound to its header's index and attribute.
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
        if not check.rhs.terms:
            raise ElaborationError(
                f"{phase_name} check {check.describe()}: the right-hand side "
                "has no terms"
            )
        lhs_kind, i = _resolve(check.lhs, registry, phase_name, phase.order, ingress)
        terms, term_kinds, reads, const = [], [], [], 0
        for sign, term in check.rhs.terms:
            if sign not in (1, -1):
                raise ElaborationError(
                    f"{phase_name} check {check.describe()}: term sign {sign!r} "
                    "is not +1 or -1"
                )
            if isinstance(term, FieldRef):
                kind, j = _resolve(term, registry, phase_name, phase.order, ingress)
                term_kinds.append(kind)
                from_snapshot = term.source is Source.INGRESS_SNAPSHOT
                reads.append((sign, from_snapshot, term.accessor, j))
            else:
                if isinstance(term, str):
                    if term not in spec.constants:
                        raise ElaborationError(
                            f"{phase_name} check {check.describe()} uses unbound "
                            f"constant {term!r}"
                        )
                    term = spec.constants[term]
                elif type(term) is not int:
                    raise ElaborationError(
                        f"{phase_name} check {check.describe()}: literal {term!r} "
                        "is not an integer"
                    )
                term_kinds.append(INT)
                const += sign * term
            terms.append((sign, term))
        if check.rhs.is_arithmetic():
            if lhs_kind != INT or any(k != INT for k in term_kinds):
                raise ElaborationError(
                    f"{phase_name} check {check.describe()}: arithmetic "
                    "operands require integer fields"
                )
        elif term_kinds[0] != lhs_kind:
            raise ElaborationError(
                f"{phase_name} check {check.describe()}: cannot compare "
                f"{lhs_kind} field with {term_kinds[0]} operand"
            )
        if lhs_kind == BYTES and check.op not in ("==", "neq"):
            raise ElaborationError(
                f"{phase_name} check {check.describe()}: byte-sequence fields "
                f"admit only == and neq, not {check.op}"
            )
        if check.op not in COMPARATORS:
            raise ElaborationError(
                f"{phase_name} check {check.describe()}: unknown comparator "
                f"{check.op!r}"
            )
        compiled.append(CompiledCheck(
            idx,
            check.op,
            check.lhs.describe(),
            Operand(tuple(terms)).describe(),
            check.lhs.accessor,
            i,
            tuple(reads),
            const,
            lhs_kind == BYTES,
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

    Runs in every build mode, before any packet flows: refuses a constant
    that is not an ``int``, checks every reference of both phases against
    the registry while inlining constants and compiling each check into the
    reads the engine makes per packet, then verifies both header orders,
    compiling each into its walk, and evaluates the static assertions.
    """
    for name, value in spec.constants.items():
        if type(value) is not int:
            raise ElaborationError(f"constant {name!r} = {value!r} is not an integer")
    phases = (("ingress", spec.ingress), ("egress", spec.egress))
    # every check of both phases resolves before either order is verified
    compiled = [_compile_phase(spec, phase, name, registry) for name, phase in phases]
    ingress, egress = (
        None if phase is None else Phase(
            phase.order, phase.checks, name, verify_order(registry, phase.order), checks
        )
        for (name, phase), checks in zip(phases, compiled)
    )
    check_static_assertions(spec)
    return Contract(
        nf_name=spec.nf_name,
        constants=dict(spec.constants),
        static_assertions=spec.static_assertions,
        ingress=ingress,
        egress=egress,
    )


#: Python's spelling of each contract comparator.
_PY_OPS = {op: "!=" if op == "neq" else op for op in COMPARATORS}


def _rhs_source(compiled: CompiledCheck, read) -> str:
    """The right-hand operand of ``compiled`` as one expression; ``read``
    spells a ``(from_snapshot, name, index)`` field read."""
    if compiled.is_bytes:
        return read(*compiled.reads[0][1:])
    terms = [
        f"{'+' if sign > 0 else '-'} {read(from_snapshot, name, j)}"
        for sign, from_snapshot, name, j in compiled.reads
    ]
    if compiled.const or not terms:
        terms.append(f"+ {compiled.const!r}")
    expr = " ".join(terms)
    return expr[2:] if expr[0] == "+" else "-" + expr[2:]


@lru_cache(maxsize=64)
def _compile(source: str):
    """The code object of generated ``source``, shared by every phase that
    generates the same text."""
    return compile(source, "<contract phase>", "exec")


def _generate(phase: Phase) -> Callable:
    """Write ``phase`` as one function (see ``Phase.run``) and compile it,
    in a namespace of its own over the codecs' module scope, where their
    layouts' expressions resolve.

    Per step of the walk, header ``k`` first cross-checks its predecessor's
    linkage field, as ``parse_chain`` does, then splices in its codec's
    layout step (``headers.FieldRead.step``: a length guard, one
    ``unpack_from`` of its ``Struct`` and its tests in order). Attribute
    ``a`` of header ``k`` is the local ``hk_a`` and the header ends at
    offset ``ek``; of the sub-fields, only those that a check or the next
    step's linkage cross-check reads get a local. Each refusal raises the
    ``ChainOrderError`` of ``registry.walk_error``, as ``parse_chain`` does
    there. At ingress each step then builds header ``hk`` from what it
    read, as the codec's ``parse`` does, and the snapshot is the headers
    built. At egress no header is built, and snapshot header ``j`` is
    ``sj = snap[j]``.
    """
    name, walk, checks = phase.name, phase.walk, phase.compiled
    ingress = name == "ingress"
    namespace = {**vars(headers), "walk_error": walk_error, "walk": walk}
    used = {(c.lhs_index, c.lhs) for c in checks}
    used |= {(j, attribute) for c in checks
             for _, from_snapshot, attribute, j in c.reads if not from_snapshot}
    used |= {(k - 1, step.linkage) for k, step in enumerate(walk) if step.linkage}
    lines = ["def ingress(data):" if ingress else "def egress(data, snap):",
             "    n = len(data)"]
    for k, step in enumerate(walk):
        header = step.header_type
        codec = namespace[header] = step.codec
        rule = codec.READ
        unpack = f"unpack{k}"
        namespace[unpack] = rule.unpack.unpack_from
        at = f"e{k - 1}" if k else "0"
        names = {field: f"h{k}_{field}" for field in rule.fields}
        names.update(at=at, length="n", buf="data", unpack=unpack)
        reads = rule.reads()
        names.update({a: f"({rule.spell(e, names)})" for a, e in reads.items()})
        names["size"] = f"({rule.spell(rule.size, names)})"
        if step.linkage is not None:
            link = f"h{k - 1}_{step.linkage}"
            lines += [f"    if {link} != {step.proto!r}:",
                      f"        raise walk_error(walk, {k}, {link})"]
        refuse = f"raise walk_error(walk, {k}, reason=f{{!r}})"
        lines += [f"    {line}" for line in rule.step(names, refuse)]
        if k < len(walk) - 1:
            lines.append(f"    e{k} = {at} + {names['size']}")
        kept = [a for a in reads if (k, a) in used]
        lines += [f"    h{k}_{a} = {names[a]}" for a in kept]
        names.update({a: f"h{k}_{a}" for a in kept})
        if ingress:
            lines.append(f"    h{k} = {header}({rule.arguments(codec, names)})")
    lines.append("    failed = []")
    snapshot = {j for c in checks for _, from_snapshot, _, j in c.reads if from_snapshot}
    lines += [f"    s{j} = snap[{j}]" for j in sorted(snapshot)]

    def read(from_snapshot, attribute, j):
        return f"s{j}.{attribute}" if from_snapshot else f"h{j}_{attribute}"

    for c in checks:
        lines += [
            f"    lhs = {read(False, c.lhs, c.lhs_index)}",
            f"    rhs = {_rhs_source(c, read)}",
            f"    if not lhs {_PY_OPS[c.op]} rhs:",
            f"        failed.append(({c.index}, lhs, rhs))",
        ]
    headers_built = ", ".join(f"h{k}" for k in range(len(walk)))
    lines.append(f"    return failed, ({headers_built},)" if ingress else "    return failed")
    exec(_compile("\n".join(lines) + "\n"), namespace)
    return namespace[name]


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
    for phase_name, phase in (("ingress", contract.ingress), ("egress", contract.egress)):
        if phase is None:
            lines.append(f"{phase_name}: (none)")
            continue
        lines.append(f"{phase_name}:")
        lines.append(f"  order: {phase.order}")
        if phase.compiled:
            lines.append("  checks:")
            for c in phase.compiled:
                lines.append(f"    #{c.index} ({c.lhs_text}, {c.op}, {c.rhs_text})")
        else:
            lines.append("  checks: (none)")
    return "\n".join(lines)
