"""The contract language: parsing, elaboration and phase generation.

A contract block binds named constants, declares ingress (``pre``) and
egress (``post``) phases — each a header order plus a list of field
checks, which may be empty — and may add ``static:`` assertions over the
constants. The ingress phase may also state a ``when:`` guard, the packets
the contract covers.

Surface form::

    check(IPV6_MIN_MTU = 1280)
    pre {
        order: [EthHdr => Ipv6Hdr => TcpHdr<Ipv6Hdr>],
        when: [(payload_len[Ipv6Hdr], >, IPV6_MIN_MTU)],
        checks: []
    }
    post {
        order: [EthHdr => Ipv6Hdr => Icmpv6PktTooBig<Ipv6Hdr>],
        checks: [(payload_len[Ipv6Hdr], ==, 1240),
                 (src[Ipv6Hdr], ==, dst[Ipv6Hdr])]
    }
    static: [IPV6_MIN_MTU + 14 == 1294]

Field references on a check's right-hand side read the current packet in
``pre`` checks and guards and the ingress snapshot in ``post`` checks, so
``(src[Ipv6Hdr], ==, dst[Ipv6Hdr])`` in ``post`` asserts that the outgoing
source address equals the *original* destination address. Right-hand
operands may be sums/differences of literals, constants, and field
references (``payload_len[Ipv6Hdr] + 16``).

A guard is a list of checks, compiled like the ingress checks, that reads
only the packet in hand; a packet is inside it when every one holds. It is
decided as soon as the ingress walk has read the last header it names
(``Phase.decided_at``). A packet outside it gets no precondition, no
snapshot and no egress: its output must equal its input, which the checked
loop tests (``engine.run_egress`` gives that frame condition's violation).
So a walk refusal at or before that step is an order violation on any
packet, and one after it is an order violation inside the guard. A contract
without ``when:`` covers every packet.

``elaborate`` turns a parsed spec into an executable contract in one walk
over each phase: every field reference is resolved against the registry
and the header orders, constants are inlined and folded with the literals
into one number, and each check is compiled into a ``CompiledCheck`` that
records its reads (header index, attribute name, snapshot flag, codec);
then both orders are verified, each compiled into the walk that parses
packets along it, and the static assertions are evaluated (in every build
mode). All of this happens once, before any packet flows. Each phase of
the result is one ``Phase``: the parsed phase plus its name, walk and
compiled checks.

On a phase's first Development use, ``Phase.run`` is generated as one
Python function from source text; this is the one full description of what
it does. ``ingress(data, nf, index)`` returns ``(violations, snapshot)``,
or ``([], OUTSIDE)`` for a packet outside its guard, which it tests right
after the step that decides it, before it walks any later step or builds
any header, and ``egress(data, snapshot, nf, index)`` returns
``(violations, walked)`` for packet ``index`` of NF ``nf``; the NF's name
is an argument because equal phases of NFs of other names share the
function. It follows the phase's walk at running offsets with the linkage
cross-checks inline: per step ``_walk_steps`` splices in the lines that
the codec's ``READ`` writes (``headers.FieldRead.step``, which the codec's
generated ``parse`` runs too), one ``unpack_from`` plus the layout's
tests. Each run of two or more fixed parts (``headers.runs``) is read
first by one bounds test, one ``unpack_from`` and one condition, which
saves on the packets the run accepts (``_walk_steps`` says what a refused
one pays). ``reader`` writes a network function's input read from the same
steps. A packet the walk refuses returns, in place of raising, its one
order ``Violation``: ``engine._refusal`` of the ``ChainOrderError`` that
``registry.walk_error`` builds, the one that ``registry.parse_chain``
raises for it, with None for the snapshot at ingress and False at egress.
The ingress function builds each header from the fields read, as ``parse``
does, and the snapshot is the tuple of those headers; the codecs are
lossless (``emit(parse(b))`` is ``b``'s span, which the tests pin), so it
holds exactly the packet's ingress bytes. The egress function builds none,
keeps only the fields its checks and linkage cross-checks name, reads a
snapshot header's computed field by its definition, and returns True as
``walked`` once its walk accepts the packet. Every check is then one
inline comparison, and each failing one appends its ``Violation``, the
phase name, check index, texts and comparator written into the source;
only a byte check renders its values (an address becomes text), and a
message is formatted only when read. NFs built from one contract text
against one registry share one generated function per phase, which is
written and compiled once. Production never generates them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple

from . import headers
from .engine import (COMPARATORS, OUTSIDE, Check, CompiledCheck, FieldRef, Operand, Source,
                     Violation, _refusal, describe_sum, render_value)
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


@dataclass(frozen=True)
class StaticAssertion:
    """A comparison over constants, decided at elaboration time. Each side
    is a signed sum of products, ``((sign, (factor, ...)), ...)``, and each
    factor an int or a constant's name."""

    lhs: tuple
    op: str
    rhs: tuple

    def text(self) -> str:
        lhs, rhs = (
            describe_sum((sign, " * ".join(map(str, factors))) for sign, factors in side)
            for side in (self.lhs, self.rhs)
        )
        return f"{lhs} {self.op} {rhs}"


@dataclass(frozen=True)
class PhaseSpec:
    """One contract phase: the declared header order plus its checks, and
    the ``when`` guard of an ingress phase, None when it has none."""

    order: OrderSpec
    checks: tuple[Check, ...]
    when: tuple[Check, ...] | None = field(default=None, kw_only=True)


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
    its checks and guard, constants inlined, resolved into the
    ``compiled`` and ``guard`` reads they make."""

    name: str
    walk: tuple[OrderStep, ...] = field(repr=False)
    compiled: tuple[CompiledCheck, ...] = field(repr=False)
    guard: tuple[CompiledCheck, ...] = field(default=(), repr=False, kw_only=True)

    @cached_property
    def decided_at(self) -> int | None:
        """The walk step after which the guard is decided, the last header
        its checks read; None without a guard."""
        if not self.guard:
            return None
        return max(max((c.lhs_index, *(j for _, _, _, j, _ in c.reads))) for c in self.guard)

    @cached_property
    def run(self) -> Callable:
        """The phase as one generated function that returns its packet's
        Violations, a walk refusal included, as the module docstring
        describes; compiled when a Development run first needs it."""
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

    def parse_list(self, item: Callable, sep: str) -> tuple:
        """``item (sep item)*``: what each ``item()`` parsed, in order."""
        items = [item()]
        while self.peek().kind == sep:
            self.advance()
            items.append(item())
        return tuple(items)

    def parse_sum(self, term: Callable) -> tuple:
        """``term ((+|-) term)*``: the signed sum of what each ``term()``
        parsed, as ``(sign, term)`` pairs."""
        terms = [(1, term())]
        while self.peek().kind in ("+", "-"):
            sign = 1 if self.advance().kind == "+" else -1
            terms.append((sign, term()))
        return tuple(terms)

    def parse_bindings(self) -> dict[str, int]:
        constants: dict[str, int] = {}

        def binding():
            name_tok = self.expect("name", "constant name")
            self.expect("=")
            value_tok = self.expect("int", "integer value")
            if name_tok.value in constants:
                self.error(f"duplicate constant {name_tok.value!r}", name_tok)
            constants[name_tok.value] = value_tok.value

        if self.peek().kind != ")":
            self.parse_list(binding, ",")
        return constants

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
        when = None
        if self.at_keyword("when"):  # elaboration refuses it outside ``pre``
            self.advance()
            self.expect(":")
            when = self.parse_checks(rhs_source)
            self.expect(",")
        self.expect_keyword("checks")
        self.expect(":")
        checks = self.parse_checks(rhs_source)
        self.expect("}")
        return PhaseSpec(order=order, checks=checks, when=when)

    def parse_checks(self, rhs_source: Source) -> tuple[Check, ...]:
        """``[check (, check)*]`` or ``[]``."""
        self.expect("[")
        checks = ()
        if self.peek().kind != "]":
            checks = self.parse_list(lambda: self.parse_check(rhs_source), ",")
        self.expect("]")
        return checks

    def parse_order(self) -> OrderSpec:
        self.expect("[")
        elements = self.parse_list(self.parse_hdr, "=>")
        self.expect("]")
        return OrderSpec(elements)

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
        if self.peek().value in COMPARATORS:
            return self.advance().value
        self.refuse(f"comparator (one of {', '.join(COMPARATORS)})")

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
        return Operand(self.parse_sum(lambda: self.parse_operand_term(source)))

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
        assertions = self.parse_list(self.parse_assert_expr, ",")
        self.expect("]")
        return assertions

    def parse_assert_expr(self) -> StaticAssertion:
        lhs = self.parse_sum(self.parse_product)
        op = self.parse_comparator()
        rhs = self.parse_sum(self.parse_product)
        return StaticAssertion(lhs=lhs, op=op, rhs=rhs)

    def parse_product(self) -> tuple:
        return self.parse_list(self.parse_atom, "*")

    def parse_atom(self) -> int | str:
        if self.peek().kind in ("int", "name"):
            return self.advance().value
        self.refuse("integer or constant")


def parse_contract_spec(text: str, nf_name: str = "nf") -> ContractSpec:
    """Parse a contract block into a ContractSpec.

    Syntax problems raise ContractSyntaxError with line/column; everything
    that needs the registry is checked by ``elaborate``.
    """
    return _Parser(text).parse_spec(nf_name)


def _resolve(
    ref: FieldRef,
    check: Check,
    registry: Registry,
    what: str,
    phase_name: str,
    current: OrderSpec,
    ingress: OrderSpec | None,
) -> tuple[str, int, type]:
    """Check one field reference of ``check``, which errors name as
    ``what`` (an "ingress check", say), against the registry and the order
    it reads (``current`` or ``ingress``); return the kind of its attribute,
    the index of its header in that order and the header's codec."""
    snapshot = ref.source is Source.INGRESS_SNAPSHOT
    if snapshot and phase_name == "ingress":
        raise ElaborationError(
            f"{what} {check.describe()}: the ingress phase has no snapshot to read"
        )
    if type(ref.occurrence) is not int:
        raise ElaborationError(
            f"{what} {check.describe()}: occurrence "
            f"{ref.occurrence!r} is not an integer"
        )
    try:
        codec = registry.get(ref.header_type)
        kind = registry.accessor(ref.header_type, ref.accessor)
        if ref.param is not None and not registry.known(ref.param):
            raise ElaborationError(
                f"{what} references unknown header type parameter "
                f"{ref.param!r}"
            )
    except RegistryError as exc:
        if not registry.known(ref.header_type):
            raise ElaborationError(
                f"{what} references unknown header type {ref.header_type!r}"
            ) from None
        raise ElaborationError(str(exc)) from None
    except TypeError:  # the registry looks each name up by hash, in this order
        name = next(n for n in (ref.header_type, ref.accessor, ref.param) if type(n) is not str)
        raise ElaborationError(f"{what} {check.describe()}: {name!r} is not a name") from None
    where, order = ("ingress", ingress) if snapshot else (phase_name, current)
    elements = order.elements if order is not None else ()
    positions = [i for i, e in enumerate(elements) if e.header_type == ref.header_type]
    if not positions:
        raise ElaborationError(
            f"{what} references {ref.describe()}, but "
            f"{ref.header_type} is not in the {where} order"
            + (" (dangling snapshot reference)" if snapshot else "")
        )
    if not 0 <= ref.occurrence < len(positions):
        raise ElaborationError(
            f"{what} references {ref.describe()}, but the {where} "
            f"order holds {len(positions)} {ref.header_type} header(s)"
        )
    i = positions[ref.occurrence]
    if ref.param is not None and ref.param != elements[i].param:
        raise ElaborationError(
            f"{what} references {ref.describe()}, but the {where} "
            f"order holds {elements[i]}"
        )
    return kind, i, codec


def _compile_phase(
    spec: ContractSpec,
    phase: PhaseSpec | None,
    phase_name: str,
    registry: Registry,
) -> tuple[tuple[CompiledCheck, ...], tuple[CompiledCheck, ...]]:
    """Check, inline and compile the guard and then each check of
    ``phase`` in one walk; return both, compiled.

    Every reference is resolved once, against the phase order or the
    ingress order; constants are inlined and folded with the literals into
    one number; each read is bound to its header's index and attribute.
    Only an ingress phase may have a guard, and a guard holds a check.
    """
    if phase is None:
        return (), ()
    for element in phase.order.elements:
        for name in (element.header_type, element.param):
            if name is not None and (type(name) is not str or not registry.known(name)):
                raise ElaborationError(
                    f"{phase_name} order references unknown header type {name!r}"
                )
    if phase.when is not None and phase_name != "ingress":
        raise ElaborationError(
            f"{phase_name} phase has a when: guard, but only the ingress phase "
            "decides which packets a contract covers"
        )
    if phase.when is not None and not phase.when:
        raise ElaborationError(
            "ingress guard has no checks: a contract that covers every packet "
            "has no when:"
        )
    guard = _compile_checks(spec, phase.when or (), f"{phase_name} guard check", phase_name,
                            phase.order, registry)
    return guard, _compile_checks(spec, phase.checks, f"{phase_name} check", phase_name,
                                  phase.order, registry)


def _compile_checks(
    spec: ContractSpec,
    checks: tuple[Check, ...],
    what: str,
    phase_name: str,
    current: OrderSpec,
    registry: Registry,
) -> tuple[CompiledCheck, ...]:
    """Compile ``checks`` of phase ``phase_name``, whose order is
    ``current``, as ``_compile_phase`` describes; errors name each as
    ``what``."""
    ingress = spec.ingress.order if spec.ingress is not None else None
    compiled = []
    for idx, check in enumerate(checks):
        if check.lhs.source is not Source.CURRENT_PACKET:
            raise ElaborationError(
                f"{what} {check.describe()}: the left-hand side "
                "must read the packet in hand, not the ingress snapshot"
            )
        if not check.rhs.terms:
            raise ElaborationError(
                f"{what} {check.describe()}: the right-hand side "
                "has no terms"
            )
        lhs_kind, i, _ = _resolve(check.lhs, check, registry, what, phase_name, current, ingress)
        terms, term_kinds, reads, const = [], [], [], 0
        for sign, term in check.rhs.terms:
            if type(sign) is not int or sign not in (1, -1):
                raise ElaborationError(
                    f"{what} {check.describe()}: term sign {sign!r} "
                    "is not +1 or -1"
                )
            if isinstance(term, FieldRef):
                kind, j, codec = _resolve(term, check, registry, what, phase_name, current,
                                          ingress)
                term_kinds.append(kind)
                from_snapshot = term.source is Source.INGRESS_SNAPSHOT
                reads.append((sign, from_snapshot, term.accessor, j, codec))
                term = term.describe()
            else:
                if isinstance(term, str):
                    if term not in spec.constants:
                        raise ElaborationError(
                            f"{what} {check.describe()} uses unbound "
                            f"constant {term!r}"
                        )
                    term = spec.constants[term]
                elif type(term) is not int:
                    raise ElaborationError(
                        f"{what} {check.describe()}: literal {term!r} "
                        "is not an integer"
                    )
                term_kinds.append(INT)
                const += sign * term
            terms.append((sign, term))
        if check.rhs.is_arithmetic():
            if lhs_kind != INT or any(k != INT for k in term_kinds):
                raise ElaborationError(
                    f"{what} {check.describe()}: arithmetic "
                    "operands require integer fields"
                )
        elif term_kinds[0] != lhs_kind:
            raise ElaborationError(
                f"{what} {check.describe()}: cannot compare "
                f"{lhs_kind} field with {term_kinds[0]} operand"
            )
        if lhs_kind == BYTES and check.op not in ("==", "neq"):
            raise ElaborationError(
                f"{what} {check.describe()}: byte-sequence fields "
                f"admit only == and neq, not {check.op}"
            )
        if type(check.op) is not str or check.op not in COMPARATORS:
            raise ElaborationError(
                f"{what} {check.describe()}: unknown comparator "
                f"{check.op!r}"
            )
        compiled.append(CompiledCheck(
            idx,
            check.op,
            check.lhs.describe(),
            describe_sum(terms),
            check.lhs.accessor,
            i,
            tuple(reads),
            const,
            lhs_kind == BYTES,
        ))
    return tuple(compiled)


def _static_value(side: tuple, constants: dict[str, int]) -> int:
    """The value of one side of a static assertion, a signed sum of products."""
    total = 0
    for sign, factors in side:
        for factor in factors:
            if isinstance(factor, str) and factor not in constants:
                raise ElaborationError(f"static assertion uses unbound constant {factor!r}")
            sign *= constants.get(factor, factor)
        total += sign
    return total


def check_static_assertions(spec: ContractSpec) -> None:
    """Evaluate every static assertion; raise ElaborationError on failure,
    quoting the expression and the value of each side."""
    for assertion in spec.static_assertions:
        lhs = _static_value(assertion.lhs, spec.constants)
        rhs = _static_value(assertion.rhs, spec.constants)
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
            phase.order, phase.checks, name, verify_order(registry, phase.order), checks,
            when=phase.when, guard=guard,
        )
        for (name, phase), (guard, checks) in zip(phases, compiled)
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
    spells a ``(from_snapshot, name, index, codec)`` field read."""
    terms = [
        (sign, read(from_snapshot, name, j, codec))
        for sign, from_snapshot, name, j, codec in compiled.reads
    ]
    if compiled.const or not terms:
        terms.append((1, compiled.const))
    return describe_sum(terms)


def _walk_steps(walk: tuple[OrderStep, ...], used: set, refuse: Callable[[int], str] | str,
                namespace: dict, first: int = 0, decided: int | None = None):
    """Yield, for each run of ``walk`` from ``first``, the range of its
    steps, the source lines that read them and the names each step's layout
    is spelled with. ``headers.runs`` plans the runs as it plans the
    writers' packs: a run ends at a span, at step ``decided`` and at the
    walk's end.

    A step's lines are the linkage cross-check against its predecessor and
    the lines its codec's ``READ`` writes (``headers.FieldRead.step``). A
    run of two or more steps takes its fast path first: one bounds test,
    one ``unpack_from`` of the run's ``Struct`` (``unpacka_b`` for steps
    ``a`` to ``b``) into the same locals and one condition, the conjunction
    of the steps' cross-checks and tests. Only a packet that fails it runs
    the steps' lines, which refuse it with their texts, unless ``refuse``
    is one statement for every step (a reader's ``return None``), which
    then refuses it alone. That bets on the packet being accepted: one
    refused early in a run, such as a non-IPv6 frame, pays the run's wider
    ``unpack_from`` in place of its first header's, and in a phase the
    steps' lines besides. After the run come its end offset ``ek`` (but
    at the walk's end) and a local ``hk_a`` for each sub-field ``a`` of its
    step ``k`` that ``used`` names as ``(k, a)`` or the next step's
    cross-check reads. Field ``f`` of header ``k`` is the local ``hk_f``,
    and the names spell each other sub-field over its word. ``refuse(k)``
    is the statement that refuses the packet at step ``k``, with ``{}``
    where the linkage value or ``reason=`` and the refusal's text go, or
    ``refuse`` is that statement for every step. Each step's
    ``unpack_from`` goes into ``namespace`` as ``unpackk``. When ``first``
    is not 0, the caller binds the offset and the linkage field that its
    step reads from header ``first - 1``.
    """
    layouts = [step.codec.READ for step in walk]
    refusal = (lambda k: refuse) if isinstance(refuse, str) else refuse
    spelled = {}  # each step's names
    for run, joined in headers.runs(layouts, first, (decided,)):
        base, offset, last = f"e{run.start - 1}" if run.start else "0", 0, run[-1]
        lines, unpacked, condition = [], [], []
        for k in run:
            step, rule = walk[k], layouts[k]
            namespace[f"unpack{k}"] = rule.unpack.unpack_from
            names = {field: f"h{k}_{field}" for field in rule.fields}
            unpacked += names.values()
            at = f"({base} + {offset})" if offset else base
            names.update(at=at, length="n", buf="data", unpack=f"unpack{k}")
            names.update({a: f"({rule.spell(e, names)})" for a, e in rule.reads().items()})
            names["size"] = f"({rule.spell(rule.size, names)})"
            if step.linkage is not None:
                link = spelled[k - 1][step.linkage] if k > first else f"h{k - 1}_{step.linkage}"
                lines += [f"if {link} != {step.proto!r}:", f"    {refusal(k).format(link)}"]
                condition.append(f"{link} == {step.proto!r}")
            lines += rule.step(names, refusal(k).format("reason=f{!r}"))
            condition += [f"({rule.spell(test, names)})" for test, _ in rule.tests]
            spelled[k] = names
            offset += rule.unpack.size
        if len(run) > 1:
            slow = [refuse] if isinstance(refuse, str) else lines
            namespace[f"unpack{run.start}_{last}"] = joined.unpack_from
            lines = [f"if {base} + {joined.size} <= n:",
                     f"    {', '.join(unpacked)} = unpack{run.start}_{last}(data, {base})",
                     f"    fast = {' and '.join(condition) or 'True'}",
                     "else:",
                     "    fast = False",
                     "if not fast:",
                     *(f"    {line}" for line in slow)]
        if last < len(walk) - 1:
            lines.append(f"e{last} = {spelled[last]['at']} + {spelled[last]['size']}")
        for k in run:
            linkage = walk[k + 1].linkage if k + 1 < len(walk) else None
            kept = [a for a in layouts[k].reads() if (k, a) in used or a == linkage]
            lines += [f"h{k}_{a} = {spelled[k][a]}" for a in kept]
            spelled[k].update({a: f"h{k}_{a}" for a in kept})
        yield run, lines, [spelled[k] for k in run]


@lru_cache(maxsize=64)
def _generate(phase: Phase) -> Callable:
    """Write ``phase`` as the function the module docstring describes and
    compile it, in a namespace of its own over the codecs' module scope,
    where their layouts' expressions resolve. Equal phases share the one
    function: a phase's equality covers the name, walk and compiled checks
    it runs.

    The walk's lines are ``_walk_steps``'s, whose runs end at the step
    that decides the guard; the guard is one test after that run. At
    ingress, header ``k`` is then built as ``hk`` once the walk has
    accepted the packet. At egress, snapshot header ``j`` is
    ``sj = snap[j]``, and a computed field of it is read by its
    definition (``headers.FieldRead.attributes``), as its property does. Of
    the sub-fields, only those that a check, the guard or the next step's
    linkage cross-check reads get a local.
    """
    name, walk, checks, guard = phase.name, phase.walk, phase.compiled, phase.guard
    ingress = name == "ingress"
    refused = "None" if ingress else "False"
    namespace = {**vars(headers), "walk_error": walk_error, "walk": walk, "_refusal": _refusal,
                 "Violation": Violation, "render_value": render_value, "OUTSIDE": OUTSIDE}
    used = {(c.lhs_index, c.lhs) for c in checks + guard}
    used |= {(j, attribute) for c in checks + guard
             for _, from_snapshot, attribute, j, _ in c.reads if not from_snapshot}
    lines = [f"def {name}(data, {'' if ingress else 'snap, '}nf, index):",
             "    n = len(data)"]

    def refuse(k):
        return f"return [_refusal(walk_error(walk, {k}, {{}}), nf, {name!r}, index)], {refused}"

    def read(from_snapshot, attribute, j, codec=None):
        if not from_snapshot:
            return f"h{j}_{attribute}"
        return codec.READ.attributes({f.name: f"s{j}.{f.name}" for f in fields(codec)})[attribute]

    steps = []
    for run, step_lines, names in _walk_steps(walk, used, refuse, namespace,
                                              decided=phase.decided_at):
        lines += [f"    {line}" for line in step_lines]
        steps += names
        if run[-1] == phase.decided_at:
            inside = " and ".join(
                f"{read(False, c.lhs, c.lhs_index)} {_PY_OPS[c.op]} {_rhs_source(c, read)}"
                for c in guard
            )
            lines += [f"    if not ({inside}):", "        return [], OUTSIDE"]
    if ingress:
        for k, names in enumerate(steps):
            codec = walk[k].codec
            namespace[codec.__name__] = codec
            lines.append(f"    h{k} = {codec.__name__}({codec.READ.arguments(codec, names)})")
    lines.append("    failed = []")
    snapshot = {j for c in checks for _, from_snapshot, _, j, _ in c.reads if from_snapshot}
    lines += [f"    s{j} = snap[{j}]" for j in sorted(snapshot)]

    for c in checks:
        lhs, rhs = ("render_value(lhs)", "render_value(rhs)") if c.is_bytes else ("lhs", "rhs")
        lines += [
            f"    lhs = {read(False, c.lhs, c.lhs_index)}",
            f"    rhs = {_rhs_source(c, read)}",
            f"    if not lhs {_PY_OPS[c.op]} rhs:",
            f"        failed.append(Violation(nf, {name!r}, {c.index}, {c.lhs_text!r}, {lhs}, "
            f"{c.op!r}, {c.rhs_text!r}, {rhs}, index))",
        ]
    headers_built = ", ".join(f"h{k}" for k in range(len(walk)))
    lines.append(f"    return failed, ({headers_built},)" if ingress else "    return failed, True")
    exec(compile("\n".join(lines) + "\n", "<contract phase>", "exec"), namespace)
    return namespace[name]


def reader(walk: tuple[OrderStep, ...], reads: tuple[tuple[int, str], ...],
           first: int = 0) -> Callable:
    """Generate and compile the function that reads ``reads`` along ``walk``.

    It runs the walk's steps from ``first`` (``_walk_steps``, the lines a
    contract phase runs, each run of fixed parts on its fast path, which
    here refuses at once when its condition fails) and returns None at the
    first refusal, or the tuple of the values of ``reads``, each ``(k,
    attribute)`` of header ``k`` (the span's bytes for a span), and the
    offset where the walk ends. Its arguments are the packet's bytes and,
    when ``first`` is not 0, the end offset of header ``first - 1`` and, if
    step ``first`` cross-checks it, that header's linkage field. It builds
    no header and raises nothing on any bytes.
    """
    namespace = dict(vars(headers))
    steps = list(_walk_steps(walk, set(reads), "return None", namespace, first))
    names = [step_names for _, _, run_names in steps for step_names in run_names]
    values = [walk[k].codec.READ.value(a, names[k - first]) for k, a in reads]
    values.append(f"{names[-1]['at']} + {names[-1]['size']}")
    arguments = ["data"]
    if first:
        arguments.append(f"e{first - 1}")
        if walk[first].linkage is not None:
            arguments.append(f"h{first - 1}_{walk[first].linkage}")
    lines = [f"def read({', '.join(arguments)}):", "    n = len(data)"]
    lines += [f"    {line}" for _, run_lines, _ in steps for line in run_lines]
    lines.append(f"    return ({', '.join(values)},)")
    exec(compile("\n".join(lines) + "\n", "<walk reader>", "exec"), namespace)
    return namespace["read"]


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
        if phase.guard:
            lines.append(f"  when (decided at {phase.order.elements[phase.decided_at]}):")
            for c in phase.guard:
                lines.append(f"    ({c.lhs_text}, {c.op}, {c.rhs_text})")
        if phase.compiled:
            lines.append("  checks:")
            for c in phase.compiled:
                lines.append(f"    #{c.index} ({c.lhs_text}, {c.op}, {c.rhs_text})")
        else:
            lines.append("  checks: (none)")
    return "\n".join(lines)
