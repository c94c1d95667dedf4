import pytest

from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from pktcheck import (
    ChainOrderError,
    Check,
    ContractRuntime,
    ContractSpec,
    ContractSyntaxError,
    ElaborationError,
    EthHdr,
    FieldRef,
    Ipv6Hdr,
    Operand,
    Packet,
    PktCheckError,
    PhaseSpec,
    Source,
    Srv6RoutingHdr,
    elaborate,
    explain_contract,
    order,
    parse_contract_spec,
    run_ingress,
)
from pktcheck.engine import COMPARATORS, render_value
from pktcheck.headers import ETHERTYPE_IPV6, PROTO_NONE, PROTO_SRV6
from pktcheck.nfs import MTU_TOO_BIG_CONTRACT, make_nf
from pktcheck.registry import OrderElement, OrderSpec

SRV6_ORDER = order("EthHdr", "Ipv6Hdr", "Srv6RoutingHdr")
TWO_SRV6_ORDER = order("EthHdr", "Ipv6Hdr", "Srv6RoutingHdr", "Srv6RoutingHdr")


def _srv6_spec(ingress_order, egress_order, check):
    return ContractSpec(
        nf_name="srv6",
        constants={},
        static_assertions=(),
        ingress=PhaseSpec(order=ingress_order, checks=()),
        egress=PhaseSpec(order=egress_order, checks=(check,)),
    )


def test_parse_constants_and_phases(registry):
    spec = elaborate(parse_contract_spec(MTU_TOO_BIG_CONTRACT, nf_name="mtu"), registry)
    assert spec.constants == {"IPV6_MIN_MTU": 1280, "ETH_HDR_SIZE": 14}
    assert str(spec.ingress.order) == "[EthHdr => Ipv6Hdr => TcpHdr<Ipv6Hdr>]"
    assert str(spec.egress.order) == "[EthHdr => Ipv6Hdr => Icmpv6PktTooBig<Ipv6Hdr>]"
    assert len(spec.ingress.when) == 1 and spec.ingress.checks == ()
    assert spec.egress.when is None and len(spec.egress.checks) == 6
    assert len(spec.static_assertions) == 1


def test_rhs_source_depends_on_phase(registry):
    spec = elaborate(parse_contract_spec(MTU_TOO_BIG_CONTRACT), registry)
    (guard_check,) = spec.ingress.when
    # pre-phase right-hand sides, the guard's too, read the same (incoming) packet
    assert all(
        ref.source is Source.CURRENT_PACKET
        for ref in guard_check.rhs.field_refs()
    )
    # post-phase right-hand sides read the ingress snapshot
    for check in spec.egress.checks:
        for ref in check.rhs.field_refs():
            assert ref.source is Source.INGRESS_SNAPSHOT
    # left-hand sides always read the packet in hand
    assert spec.egress.checks[0].lhs.source is Source.CURRENT_PACKET


def test_parse_accepts_leading_dot_and_input_key(registry):
    text = """
    check()
    pre {
        input: pkt,
        order: [EthHdr],
        checks: [(.src[EthHdr], neq, .dst[EthHdr])]
    }
    """
    spec = elaborate(parse_contract_spec(text), registry)
    assert spec.ingress.checks[0].lhs.accessor == "src"


def test_parse_operand_arithmetic():
    text = """
    check(STEP = 2)
    pre {
        order: [EthHdr => Ipv6Hdr => Srv6RoutingHdr],
        checks: [(hdr_ext_len[Srv6RoutingHdr], ==,
                  last_entry[Srv6RoutingHdr] + STEP - 1)]
    }
    """
    spec = parse_contract_spec(text)
    (check,) = spec.ingress.checks
    signs = [sign for sign, _ in check.rhs.terms]
    assert signs == [1, 1, -1]
    assert check.rhs.is_arithmetic()


def test_parse_a_guard_and_an_empty_check_list(registry):
    text = """
    check(MTU = 1280)
    pre {
        order: [EthHdr => Ipv6Hdr => TcpHdr<Ipv6Hdr>],
        when: [(payload_len[Ipv6Hdr], >, MTU), (dst_port[TcpHdr], ==, 443)],
        checks: []
    }
    post { order: [EthHdr => Ipv6Hdr], checks: [] }
    """
    spec = parse_contract_spec(text)
    assert [check.describe() for check in spec.ingress.when] == [
        "(payload_len[Ipv6Hdr], >, MTU)", "(dst_port[TcpHdr], ==, 443)",
    ]
    assert spec.ingress.checks == () and spec.egress.checks == ()
    assert spec.egress.when is None
    contract = elaborate(spec, registry)
    assert [(c.index, c.lhs_index, c.const) for c in contract.ingress.guard] == [
        (0, 1, 1280), (1, 2, 443),
    ]
    # a guard that reads TCP is decided only once the TCP step is walked
    assert contract.ingress.decided_at == 2 and contract.egress.decided_at is None
    assert explain_contract(contract).splitlines()[5:9] == [
        "  when (decided at TcpHdr<Ipv6Hdr>):",
        "    (payload_len[Ipv6Hdr], >, 1280)",
        "    (dst_port[TcpHdr], ==, 443)",
        "  checks: (none)",
    ]


def test_syntax_error_carries_line_and_column():
    with pytest.raises(ContractSyntaxError) as excinfo:
        parse_contract_spec("check(A = )")
    assert excinfo.value.line == 1
    assert excinfo.value.column == 11
    assert "line 1" in str(excinfo.value)

    with pytest.raises(ContractSyntaxError) as excinfo:
        parse_contract_spec("check()\npre { order: [EthHdr], checks: [(x, ??, 1)] }")
    assert excinfo.value.line == 2


def test_syntax_error_on_an_integer_literal_with_a_leading_zero():
    with pytest.raises(ContractSyntaxError) as excinfo:
        parse_contract_spec("check(X = 08)")
    assert (excinfo.value.line, excinfo.value.column) == (1, 11)
    assert str(excinfo.value) == "invalid integer literal '08' (line 1, column 11)"


SYNTAX_ERRORS = {
    "unexpected-character": (
        "check(A = 1)\npre {\n    order: [EthHdr] $\n}",
        "unexpected character '$'", 3, 21,
    ),
    "invalid-literal": (
        "check(A = 1,\n      B = 08)",
        "invalid integer literal '08'", 2, 11,
    ),
    "end-of-input": (
        "check(A = 1)\npre {\n    order: [EthHdr],\n    checks: [",
        "expected '(', found 'end of input'", 4, 14,
    ),
    "end-of-input-after-blanks": (
        "check(A = 1)\npre {\n  ",
        "expected keyword 'order', found 'end of input'", 3, 3,
    ),
    "trailing-input": (
        "check(A = 1)\nstatic: [A == 1]\n  junk",
        "unexpected trailing input 'junk'", 3, 3,
    ),
    "after-comments": (
        "check(A = 1)  # binds A\n# a whole-line comment\n  pre { order [EthHdr] }",
        "expected ':', found '['", 3, 15,
    ),
    "end-of-input-in-a-comment": (
        "check(A = 1\n# no closing paren",
        "expected ')', found 'end of input'", 2, 19,
    ),
    "duplicate-constant": (
        "check(A = 1,\n      A = 2)",
        "duplicate constant 'A'", 2, 7,
    ),
    "carriage-returns": (
        "check()\r\npre {\r\n  order: [EthHdr] ?",
        "unexpected character '?'", 3, 19,
    ),
    "comparator-at-end-of-input": (
        "check() pre { order: [EthHdr], checks: [(ether_type[EthHdr],",
        "expected comparator (one of ==, neq, <, <=, >, >=), found 'end of input'", 1, 61,
    ),
    "comparator": (
        "check()\npre { order: [EthHdr],\n  checks: [(ether_type[EthHdr], [, 1)] }",
        "expected comparator (one of ==, neq, <, <=, >, >=), found '['", 3, 33,
    ),
    "operand-at-end-of-input": (
        "check() pre { order: [EthHdr], checks: [(ether_type[EthHdr], ==,",
        "expected integer, constant, or field reference, found 'end of input'", 1, 65,
    ),
    "operand": (
        "check()\npre { order: [EthHdr],\n  checks: [(ether_type[EthHdr], ==, ])] }",
        "expected integer, constant, or field reference, found ']'", 3, 37,
    ),
    "static-atom-at-end-of-input": (
        "check(A = 1) static: [A ==",
        "expected integer or constant, found 'end of input'", 1, 27,
    ),
    "static-atom": (
        "check(A = 1)\nstatic: [A == 1 + ]",
        "expected integer or constant, found ']'", 2, 19,
    ),
}


@pytest.mark.parametrize("case", SYNTAX_ERRORS)
def test_syntax_error_text_line_and_column(case):
    text, message, line, column = SYNTAX_ERRORS[case]
    with pytest.raises(ContractSyntaxError) as excinfo:
        parse_contract_spec(text)
    assert (excinfo.value.line, excinfo.value.column) == (line, column)
    assert str(excinfo.value) == f"{message} (line {line}, column {column})"


def test_parse_rejects_trailing_input():
    with pytest.raises(ContractSyntaxError, match="trailing"):
        parse_contract_spec("check() junk")


def test_parse_rejects_duplicate_constants():
    with pytest.raises(ContractSyntaxError, match="duplicate"):
        parse_contract_spec("check(A = 1, A = 2)")


def test_a_duplicate_constant_is_refused_before_a_later_syntax_error():
    with pytest.raises(ContractSyntaxError) as excinfo:
        parse_contract_spec("check(A = 1, A = 2, B = )")
    assert str(excinfo.value) == "duplicate constant 'A' (line 1, column 14)"


def test_parse_comments_and_hex_literals():
    text = """
    check(MAGIC = 0x10)  # binds 16
    pre {
        order: [EthHdr],
        # ether_type is a 16-bit field
        checks: [(ether_type[EthHdr], >=, MAGIC)]
    }
    """
    spec = parse_contract_spec(text)
    assert spec.constants["MAGIC"] == 16


def test_validation_rejects_unknown_header(registry):
    text = "check() pre { order: [EthHdr => GreHdr], checks: [(src[EthHdr], ==, 1)] }"
    with pytest.raises(ElaborationError, match="GreHdr"):
        elaborate(parse_contract_spec(text), registry)


def test_validation_rejects_unknown_accessor(registry):
    text = """
    check()
    pre {
        order: [EthHdr => Ipv6Hdr => TcpHdr<Ipv6Hdr>],
        checks: [(ttl[Ipv6Hdr], >, 0)]
    }
    """
    with pytest.raises(ElaborationError) as excinfo:
        elaborate(parse_contract_spec(text), registry)
    assert "ttl" in str(excinfo.value)
    assert "hop_limit" in str(excinfo.value)


def test_validation_rejects_unbound_constant(registry):
    text = """
    check()
    pre {
        order: [EthHdr => Ipv6Hdr => TcpHdr<Ipv6Hdr>],
        checks: [(payload_len[Ipv6Hdr], >, MTU)]
    }
    """
    with pytest.raises(ElaborationError, match="MTU"):
        elaborate(parse_contract_spec(text), registry)


@pytest.mark.parametrize("value", [2.5, True, "3"], ids=["float", "bool", "str"])
def test_elaboration_refuses_a_constant_that_is_not_an_int(registry, value):
    # a hand-built spec can bind anything; the check and the static
    # assertion would both use K, so the refusal has to come first
    spec = ContractSpec(
        nf_name="x", constants={"K": value},
        static_assertions=(parse_contract_spec("check() static: [K * 2 >= 0]")
                           .static_assertions),
        ingress=PhaseSpec(order("EthHdr", "Ipv6Hdr"), (
            Check(FieldRef("hop_limit", "Ipv6Hdr"), "<", Operand.constant("K")),
        )),
        egress=None,
    )
    with pytest.raises(ElaborationError) as excinfo:
        elaborate(spec, registry)
    assert str(excinfo.value) == f"constant 'K' = {value!r} is not an integer"


def test_validation_rejects_dangling_snapshot_reference(registry):
    text = """
    check()
    pre {
        order: [EthHdr => Ipv6Hdr => TcpHdr<Ipv6Hdr>],
        checks: [(payload_len[Ipv6Hdr], >, 0)]
    }
    post {
        order: [EthHdr => Ipv6Hdr => TcpHdr<Ipv6Hdr>],
        checks: [(payload_len[Ipv6Hdr], ==, hdr_ext_len[Srv6RoutingHdr])]
    }
    """
    with pytest.raises(ElaborationError, match="snapshot"):
        elaborate(parse_contract_spec(text), registry)


def test_validation_rejects_lhs_outside_phase_order(registry):
    text = """
    check()
    pre {
        order: [EthHdr => Ipv6Hdr],
        checks: [(src_port[TcpHdr], >, 0)]
    }
    """
    with pytest.raises(ElaborationError, match="TcpHdr"):
        elaborate(parse_contract_spec(text), registry)


def test_validation_rejects_mixed_kinds(registry):
    text = """
    check()
    pre {
        order: [EthHdr => Ipv6Hdr],
        checks: [(src[Ipv6Hdr], ==, payload_len[Ipv6Hdr])]
    }
    """
    with pytest.raises(ElaborationError, match="compare"):
        elaborate(parse_contract_spec(text), registry)


def test_validation_rejects_ordered_comparison_of_addresses(registry):
    text = """
    check()
    pre {
        order: [EthHdr => Ipv6Hdr],
        checks: [(src[Ipv6Hdr], <, dst[Ipv6Hdr])]
    }
    """
    with pytest.raises(ElaborationError, match="==|neq"):
        elaborate(parse_contract_spec(text), registry)


def test_validation_rejects_arithmetic_over_addresses(registry):
    text = """
    check()
    pre {
        order: [EthHdr => Ipv6Hdr],
        checks: [(payload_len[Ipv6Hdr], ==, src[Ipv6Hdr] + 1)]
    }
    """
    with pytest.raises(ElaborationError, match="arithmetic"):
        elaborate(parse_contract_spec(text), registry)


def test_elaborate_inlines_constants(registry):
    contract = elaborate(
        parse_contract_spec(MTU_TOO_BIG_CONTRACT, nf_name="mtu"), registry
    )
    (guard_check,) = contract.ingress.guard
    assert (guard_check.reads, guard_check.const) == ((), 1280)


def test_elaborate_compiles_one_evaluator_per_check(registry):
    contract = elaborate(
        parse_contract_spec(MTU_TOO_BIG_CONTRACT, nf_name="mtu"), registry
    )
    assert [c.index for c in contract.ingress.guard] == [0]
    assert contract.ingress.compiled == () and contract.egress.guard == ()
    assert [c.index for c in contract.egress.compiled] == list(range(6))
    assert [(c.lhs_text, c.op, c.rhs_text) for c in contract.egress.compiled] == [
        (check.lhs.describe(), check.op, check.rhs.describe())
        for check in contract.egress.checks
    ]
    assert all(callable(c.test) for c in contract.ingress.guard + contract.egress.compiled)


def test_compiled_check_indexes_the_named_occurrence(registry):
    check = Check(
        FieldRef("segments_left", "Srv6RoutingHdr", occurrence=1), "==",
        Operand((
            (1, FieldRef("segments_left", "Srv6RoutingHdr", occurrence=1,
                         source=Source.INGRESS_SNAPSHOT)),
            (1, FieldRef("tag", "Srv6RoutingHdr")),
            (-1, 3),
        )),
    )
    contract = elaborate(_srv6_spec(TWO_SRV6_ORDER, TWO_SRV6_ORDER, check), registry)
    (compiled,) = contract.egress.compiled
    srh = [SimpleNamespace(segments_left=10 * i, tag=i) for i in range(4)]
    snapshot = tuple(SimpleNamespace(segments_left=100 + i) for i in range(4))
    assert compiled.test(srh, snapshot) == (30, 103 + 2 - 3)


#: Field references the property below draws from: (header, accessor,
#: occurrence) in TWO_SRV6_ORDER, by value kind.
_INT_FIELDS = [("EthHdr", "ether_type", 0), ("Ipv6Hdr", "payload_len", 0),
               ("Ipv6Hdr", "hop_limit", 0), ("Srv6RoutingHdr", "segments_left", 0),
               ("Srv6RoutingHdr", "segments_left", 1), ("Srv6RoutingHdr", "tag", 1)]
_BYTES_FIELDS = [("EthHdr", "src", 0), ("EthHdr", "dst", 0), ("Ipv6Hdr", "src", 0),
                 ("Ipv6Hdr", "dst", 0)]


def _ref(field, source=Source.CURRENT_PACKET):
    header_type, accessor, occurrence = field
    return FieldRef(accessor, header_type, occurrence=occurrence, source=source)


_sources = st.sampled_from([Source.CURRENT_PACKET, Source.INGRESS_SNAPSHOT])
_constants = st.lists(
    st.tuples(st.sampled_from([1, -1]), st.one_of(st.integers(-3, 3), st.just("K"))),
    max_size=2,
)
_int_refs = st.builds(_ref, st.sampled_from(_INT_FIELDS), _sources)


@st.composite
def _checks(draw):
    """A check of one of the four operand shapes (constants only; one field
    of the packet in hand, or of the snapshot, with or without constants; a
    signed sum), or a byte-sequence comparison of one field."""
    shape = draw(st.sampled_from(["constant", "current", "snapshot", "sum", "bytes"]))
    if shape == "bytes":
        lhs_field = draw(st.sampled_from(_BYTES_FIELDS))
        lhs = _ref(lhs_field)
        # a field of the same header, so of the same length
        same = [f for f in _BYTES_FIELDS if f[0] == lhs_field[0]]
        rhs = [(1, _ref(draw(st.sampled_from(same)), draw(_sources)))]
        op = draw(st.sampled_from(["==", "neq"]))
        return Check(lhs, op, Operand(tuple(rhs)))
    lhs = _ref(draw(st.sampled_from(_INT_FIELDS)))
    if shape == "constant":
        rhs = [(1, draw(st.integers(-3, 3)))] + draw(_constants)
    elif shape == "sum":
        refs = st.tuples(st.sampled_from([1, -1]), _int_refs)
        rhs = draw(st.lists(refs, min_size=1, max_size=3)) + draw(_constants)
        rhs = draw(st.permutations(rhs))
    else:
        source = Source.CURRENT_PACKET if shape == "current" else Source.INGRESS_SNAPSHOT
        rhs = [(1, _ref(draw(st.sampled_from(_INT_FIELDS)), source))] + draw(_constants)
    op = draw(st.sampled_from(sorted(COMPARATORS)))
    return Check(lhs, op, Operand(tuple(rhs)))


_MACS = st.sampled_from([b"\x00" * 6, b"\x01" * 6])
_ADDRESSES = st.sampled_from([b"\x00" * 16, b"\x01" * 16])
_SMALL = st.integers(0, 4)


def _srh(draw, next_header):
    segments = draw(st.lists(_ADDRESSES, min_size=1, max_size=2))
    return Srv6RoutingHdr(next_header, draw(st.integers(0, len(segments))), b"".join(segments),
                          tag=draw(_SMALL))


def _headers(draw):
    """Headers along TWO_SRV6_ORDER that encode to a packet its walk accepts:
    the linkage fields are fixed, and the other fields the checks read are
    drawn from few values, so that comparisons go both ways."""
    return [
        EthHdr(draw(_MACS), draw(_MACS), ETHERTYPE_IPV6),
        Ipv6Hdr(draw(_ADDRESSES), draw(_ADDRESSES), draw(_SMALL), PROTO_SRV6,
                draw(_SMALL)),
        _srh(draw, PROTO_SRV6),
        _srh(draw, PROTO_NONE),
    ]


def _direct(check, current, snapshot, constants):
    """Evaluate ``check`` the slow way: getattr on the header at the
    reference's index in the order, and a plain sum of the terms."""
    def read(ref):
        positions = [i for i, e in enumerate(TWO_SRV6_ORDER.elements)
                     if e.header_type == ref.header_type]
        headers = current if ref.source is Source.CURRENT_PACKET else snapshot
        return getattr(headers[positions[ref.occurrence]], ref.accessor)

    lhs = read(check.lhs)
    values = [
        (sign, read(term) if isinstance(term, FieldRef)
         else constants.get(term, term))
        for sign, term in check.rhs.terms
    ]
    if isinstance(lhs, bytes):
        rhs = values[0][1]
    else:
        rhs = sum(sign * value for sign, value in values)
    return lhs, rhs


@settings(max_examples=200)
@given(check=_checks(), data=st.data())
def test_compiled_test_agrees_with_direct_evaluation(registry, check, data):
    constants = {"K": 2}
    spec = ContractSpec(
        nf_name="srv6", constants=constants, static_assertions=(),
        ingress=PhaseSpec(order=TWO_SRV6_ORDER, checks=()),
        egress=PhaseSpec(order=TWO_SRV6_ORDER, checks=(check,)),
    )
    contract = elaborate(spec, registry)
    (compiled,) = contract.egress.compiled
    current = _headers(data.draw)
    snapshot = tuple(_headers(data.draw))
    lhs, rhs = _direct(check, current, snapshot, constants)
    expected = None if COMPARATORS[check.op](lhs, rhs) else (lhs, rhs)
    assert compiled.test(current, snapshot) == expected
    # the generated egress phase makes the same comparison, reading the
    # fields from the headers' bytes
    data = bytearray(b"".join(header.emit() for header in current))
    violations, walked = contract.egress.run(data, snapshot, "srv6", 3)
    assert walked is True
    assert [(v.check_index, v.lhs_value, v.rhs_value) for v in violations] == (
        [] if expected is None else [(0, *map(render_value, expected))]
    )


def test_elaboration_rejects_missing_occurrence(registry):
    second = FieldRef("segments_left", "Srv6RoutingHdr", occurrence=1)
    from_snapshot = FieldRef("segments_left", "Srv6RoutingHdr", occurrence=1,
                             source=Source.INGRESS_SNAPSHOT)
    first = FieldRef("segments_left", "Srv6RoutingHdr")
    for ingress_order, egress_order, check in (
        (SRV6_ORDER, SRV6_ORDER, Check(second, "==", Operand.literal(0))),
        (SRV6_ORDER, TWO_SRV6_ORDER, Check(first, "==", Operand.ref(from_snapshot))),
        (TWO_SRV6_ORDER, SRV6_ORDER, Check(second, "==", Operand.literal(0))),
    ):
        with pytest.raises(ElaborationError, match="holds 1 Srv6RoutingHdr"):
            elaborate(_srv6_spec(ingress_order, egress_order, check), registry)
    elaborate(_srv6_spec(TWO_SRV6_ORDER, TWO_SRV6_ORDER,
                         Check(second, "==", Operand.ref(from_snapshot))), registry)


def test_elaboration_rejects_a_reference_with_another_parameter(registry):
    text = """
    check()
    pre {
        order: [EthHdr => Ipv6Hdr => TcpHdr<Ipv6Hdr>],
        checks: [(src_port[TcpHdr<EthHdr>], >, 0)]
    }
    """
    with pytest.raises(ElaborationError) as excinfo:
        elaborate(parse_contract_spec(text), registry)
    assert str(excinfo.value) == (
        "ingress check references src_port[TcpHdr<EthHdr>], but the ingress "
        "order holds TcpHdr<Ipv6Hdr>"
    )
    snapshot_text = MTU_TOO_BIG_CONTRACT.replace(
        "checksum[TcpHdr<Ipv6Hdr>]", "checksum[TcpHdr<EthHdr>]"
    )
    with pytest.raises(ElaborationError, match="but the ingress order holds "
                                               "TcpHdr<Ipv6Hdr>"):
        elaborate(parse_contract_spec(snapshot_text), registry)
    # the same reference with its order's parameter, or with none, is fine
    for ref in ("src_port[TcpHdr<Ipv6Hdr>]", "src_port[TcpHdr]"):
        elaborate(parse_contract_spec(text.replace("src_port[TcpHdr<EthHdr>]", ref)),
                  registry)


def test_elaboration_rejects_lhs_reading_the_snapshot(registry):
    lhs = FieldRef("segments_left", "Srv6RoutingHdr", source=Source.INGRESS_SNAPSHOT)
    check = Check(lhs, "==", Operand.literal(0))
    with pytest.raises(ElaborationError, match="left-hand side"):
        elaborate(_srv6_spec(SRV6_ORDER, SRV6_ORDER, check), registry)


def test_elaboration_rejects_a_left_hand_occurrence_that_is_not_an_integer(registry):
    check = Check(FieldRef("hop_limit", "Ipv6Hdr", occurrence="0"), "==", Operand.literal(0))
    with pytest.raises(ElaborationError) as excinfo:
        elaborate(_srv6_spec(SRV6_ORDER, SRV6_ORDER, check), registry)
    assert str(excinfo.value) == (
        "egress check (hop_limit[Ipv6Hdr#0], ==, 0): occurrence '0' is not an integer"
    )


def test_elaboration_rejects_an_ingress_check_reading_the_snapshot(registry):
    hop_limit = FieldRef("hop_limit", "Ipv6Hdr")
    snapshot = FieldRef("hop_limit", "Ipv6Hdr", source=Source.INGRESS_SNAPSHOT)
    check = Check(hop_limit, "==", Operand.ref(snapshot))
    spec = ContractSpec("x", {}, (), PhaseSpec(order("EthHdr", "Ipv6Hdr"), (check,)), None)
    with pytest.raises(ElaborationError) as excinfo:
        elaborate(spec, registry)
    assert str(excinfo.value) == (
        "ingress check (hop_limit[Ipv6Hdr], ==, hop_limit[Ipv6Hdr]@ingress): the "
        "ingress phase has no snapshot to read"
    )


def test_elaboration_rejects_a_negated_byte_sequence(registry):
    # only a hand-built spec can negate a lone operand; a byte sequence has
    # no negation, so it is refused as bytes in arithmetic are
    src = FieldRef("src", "Ipv6Hdr")
    check = Check(src, "==", Operand(((-1, src),)))
    with pytest.raises(ElaborationError) as excinfo:
        elaborate(_srv6_spec(SRV6_ORDER, SRV6_ORDER, check), registry)
    assert str(excinfo.value) == (
        "egress check (src[Ipv6Hdr], ==, -src[Ipv6Hdr]): arithmetic operands "
        "require integer fields"
    )


#: Right-hand operands that no parse produces, each with the refusal that
#: names its check.
_HAND_BUILT_OPERANDS = {
    "no terms": (
        Operand(()),
        "egress check (hop_limit[Ipv6Hdr], ==, ): the right-hand side has no terms",
    ),
    "sign other than +1 or -1": (
        Operand(((2, 3),)),
        "egress check (hop_limit[Ipv6Hdr], ==, 3): term sign 2 is not +1 or -1",
    ),
    "float literal": (
        Operand(((1, 2.5),)),
        "egress check (hop_limit[Ipv6Hdr], ==, 2.5): literal 2.5 is not an integer",
    ),
    "bool sign": (
        Operand(((True, 3),)),
        "egress check (hop_limit[Ipv6Hdr], ==, 3): term sign True is not +1 or -1",
    ),
    "str occurrence": (
        Operand.ref(FieldRef("hop_limit", "Ipv6Hdr", occurrence="0")),
        "egress check (hop_limit[Ipv6Hdr], ==, hop_limit[Ipv6Hdr#0]): occurrence '0' "
        "is not an integer",
    ),
    "float occurrence": (
        Operand.ref(FieldRef("hop_limit", "Ipv6Hdr", occurrence=0.0)),
        "egress check (hop_limit[Ipv6Hdr], ==, hop_limit[Ipv6Hdr]): occurrence 0.0 "
        "is not an integer",
    ),
    "bool occurrence": (
        Operand.ref(FieldRef("hop_limit", "Ipv6Hdr", occurrence=True)),
        "egress check (hop_limit[Ipv6Hdr], ==, hop_limit[Ipv6Hdr#True]): occurrence "
        "True is not an integer",
    ),
}


@pytest.mark.parametrize("name", _HAND_BUILT_OPERANDS)
def test_elaboration_rejects_an_operand_no_parse_produces(registry, name):
    operand, message = _HAND_BUILT_OPERANDS[name]
    check = Check(FieldRef("hop_limit", "Ipv6Hdr"), "==", operand)
    with pytest.raises(ElaborationError) as excinfo:
        elaborate(_srv6_spec(SRV6_ORDER, SRV6_ORDER, check), registry)
    assert str(excinfo.value) == message


def test_contracts_of_one_text_share_their_compiled_phases(registry):
    first, second = (make_nf("srv6-change-pkt", registry).contract for _ in range(2))
    for one, other in ((first.ingress, second.ingress), (first.egress, second.egress)):
        assert one.run is other.run


def test_phases_that_check_different_values_share_no_function(registry):
    text = "check(K = {}) pre {{ order: [EthHdr], checks: [(ether_type[EthHdr], ==, K)] }}"
    one, two = (elaborate(parse_contract_spec(text.format(k)), registry).ingress
                for k in (1, 2))
    assert one != two
    assert one.run is not two.run
    frames = {k: bytes(12) + k.to_bytes(2, "big") for k in (1, 2)}
    for phase, own, other in ((one, 1, 2), (two, 2, 1)):
        assert phase.run(frames[own], "nf", 0)[0] == []
        (violation,), _ = phase.run(frames[other], "nf", 0)
        assert (violation.check_index, violation.lhs_value, violation.rhs_value) == (
            0, other, own
        )


def test_contracts_of_one_text_under_two_names_share_one_function(registry):
    # the generated function is cached on the phase, which leaves the NF's
    # name out, so the name reaches each Violation as an argument
    text = "check() pre { order: [EthHdr], checks: [(ether_type[EthHdr], ==, 1)] }"
    one, two = (elaborate(parse_contract_spec(text, nf_name=name), registry)
                for name in ("one", "two"))
    assert one.ingress.run is two.ingress.run
    runtime, frame = ContractRuntime(), Packet.from_bytes(bytes(12) + b"\x00\x02")
    for contract, index in ((one, 4), (two, 5)):
        (violation,), _ = run_ingress(contract, frame, runtime, index)
        assert (violation.nf, violation.packet_index) == (contract.nf_name, index)
        assert violation.text() == (
            f"NF {contract.nf_name} [ingress#0] ether_type[EthHdr]=2 == 1=1 FAILED "
            f"(packet {index})"
        )


def test_elaboration_rejects_a_comparator_it_does_not_know(registry):
    # the parser has no `!=`; only a hand-built check can carry one
    check = Check(FieldRef("ether_type", "EthHdr"), "!=", Operand.literal(1))
    spec = ContractSpec(
        nf_name="x", constants={}, static_assertions=(),
        ingress=PhaseSpec(order("EthHdr"), (check,)), egress=None,
    )
    with pytest.raises(ElaborationError) as excinfo:
        elaborate(spec, registry)
    assert str(excinfo.value) == (
        "ingress check (ether_type[EthHdr], !=, 1): unknown comparator '!='"
    )


def test_elaborate_rejects_bad_order(registry):
    text = """
    check()
    post {
        order: [EthHdr => Ipv6Hdr => Icmpv6PktTooBig<Ipv6Hdr> => Ipv6Hdr],
        checks: [(payload_len[Ipv6Hdr], ==, 1240)]
    }
    """
    with pytest.raises(ChainOrderError) as excinfo:
        elaborate(parse_contract_spec(text), registry)
    message = str(excinfo.value)
    assert "Ipv6Hdr" in message and "Icmpv6PktTooBig" in message


def test_static_assertion_arithmetic(registry):
    passing = "check(MTU = 1280, ETH = 14) static: [MTU + ETH == 1294]"
    elaborate(parse_contract_spec(passing), registry)

    failing = "check(MTU = 1200, ETH = 14) static: [MTU + ETH == 1294]"
    with pytest.raises(ElaborationError) as excinfo:
        elaborate(parse_contract_spec(failing), registry)
    message = str(excinfo.value)
    assert "MTU + ETH == 1294" in message
    assert "1214" in message and "1294" in message


def test_static_assertion_subtraction(registry):
    ok = "check(MAX_PCKT_SIZE = 1500, ETH = 14) static: [MAX_PCKT_SIZE - ETH == 1486]"
    elaborate(parse_contract_spec(ok), registry)
    bad = "check(MAX_PCKT_SIZE = 1400, ETH = 14) static: [MAX_PCKT_SIZE - ETH == 1486]"
    with pytest.raises(ElaborationError, match="1386"):
        elaborate(parse_contract_spec(bad), registry)


def test_static_assertion_all_comparators(registry):
    text = "check(A = 6, B = 2) static: [A * B >= 12, A - B < 5, A neq B, B <= 2, A > 5]"
    elaborate(parse_contract_spec(text), registry)


#: Static assertions and the exact refusal of each. The first multiplies
#: before it adds (a left-to-right fold reads 18 and passes) and prints its hex
#: literal in decimal.
STATIC_REFUSALS = {
    "products before sums": (
        "check(A = 1, B = 16) static: [A + B * 2 - 0x10 == 18]",
        "static assertion failed: A + B * 2 - 16 == 18 (lhs = 17, rhs = 18)",
    ),
    "unbound factor": (
        "check(A = 1) static: [2 * A * C == 1]",
        "static assertion uses unbound constant 'C'",
    ),
}


@pytest.mark.parametrize("name", STATIC_REFUSALS)
def test_static_assertion_refusal_text(registry, name):
    text, message = STATIC_REFUSALS[name]
    with pytest.raises(ElaborationError) as excinfo:
        elaborate(parse_contract_spec(text), registry)
    assert str(excinfo.value) == message


def test_elaboration_is_deterministic(registry):
    first = elaborate(parse_contract_spec(MTU_TOO_BIG_CONTRACT, nf_name="m"), registry)
    second = elaborate(parse_contract_spec(MTU_TOO_BIG_CONTRACT, nf_name="m"), registry)
    assert first.ingress == second.ingress
    assert first.egress == second.egress


def test_explain_renders_phases(registry):
    contract = elaborate(
        parse_contract_spec(MTU_TOO_BIG_CONTRACT, nf_name="mtu"), registry
    )
    text = explain_contract(contract)
    assert "ingress:" in text and "egress:" in text
    assert "[EthHdr => Ipv6Hdr => TcpHdr<Ipv6Hdr>]" in text
    assert "IPV6_MIN_MTU = 1280" in text
    assert "#5" in text


def test_explain_names_a_missing_phase(registry):
    text = "check() pre { order: [EthHdr], checks: [(ether_type[EthHdr], ==, 0x86dd)] }"
    assert explain_contract(elaborate(parse_contract_spec(text), registry)) == """\
contract for NF nf
ingress:
  order: [EthHdr]
  checks:
    #0 (ether_type[EthHdr], ==, 34525)
egress: (none)"""


def test_explain_names_a_phase_without_checks(registry):
    # the contract text requires a check per phase; a hand-built spec may have none
    phase = PhaseSpec(order=order("EthHdr"), checks=())
    contract = elaborate(ContractSpec("bare", {}, (), phase, None), registry)
    assert explain_contract(contract) == """\
contract for NF bare
ingress:
  order: [EthHdr]
  checks: (none)
egress: (none)"""


def test_explain_text_of_the_catalog_contracts(registry):
    mtu = make_nf("mtu-too-big", registry).contract
    assert explain_contract(mtu) == """\
contract for NF mtu-too-big
constants:
  IPV6_MIN_MTU = 1280
  ETH_HDR_SIZE = 14
static assertions (proven at elaboration):
  IPV6_MIN_MTU + ETH_HDR_SIZE == 1294
ingress:
  order: [EthHdr => Ipv6Hdr => TcpHdr<Ipv6Hdr>]
  when (decided at Ipv6Hdr):
    (payload_len[Ipv6Hdr], >, 1280)
  checks: (none)
egress:
  order: [EthHdr => Ipv6Hdr => Icmpv6PktTooBig<Ipv6Hdr>]
  checks:
    #0 (checksum[Icmpv6PktTooBig], neq, checksum[TcpHdr<Ipv6Hdr>]@ingress)
    #1 (payload_len[Ipv6Hdr], ==, 1240)
    #2 (src[Ipv6Hdr], ==, dst[Ipv6Hdr]@ingress)
    #3 (dst[Ipv6Hdr], ==, src[Ipv6Hdr]@ingress)
    #4 (src[EthHdr], ==, dst[EthHdr]@ingress)
    #5 (dst[EthHdr], ==, src[EthHdr]@ingress)"""
    srv6_text = """\
contract for NF srv6-change-pkt
constants:
  SEG_BYTES = 16
  SRV6_TYPE = 4
static assertions (proven at elaboration):
  SEG_BYTES * 8 == 128
ingress:
  order: [EthHdr => Ipv6Hdr => Srv6RoutingHdr]
  checks:
    #0 (routing_type[Srv6RoutingHdr], ==, 4)
    #1 (segments_left[Srv6RoutingHdr], <=, last_entry[Srv6RoutingHdr] + 1)
egress:
  order: [EthHdr => Ipv6Hdr => Srv6RoutingHdr]
  checks:
    #0 (payload_len[Ipv6Hdr], ==, payload_len[Ipv6Hdr]@ingress + 16)
    #1 (hdr_ext_len[Srv6RoutingHdr], ==, hdr_ext_len[Srv6RoutingHdr]@ingress + 2)
    #2 (last_entry[Srv6RoutingHdr], ==, last_entry[Srv6RoutingHdr]@ingress + 1)
    #3 (segments_left[Srv6RoutingHdr], ==, segments_left[Srv6RoutingHdr]@ingress)"""
    srv6 = make_nf("srv6-change-pkt", registry).contract
    assert explain_contract(srv6) == srv6_text


_TCP6 = "[EthHdr => Ipv6Hdr => TcpHdr<Ipv6Hdr>]"
_PTB = "[EthHdr => Ipv6Hdr => Icmpv6PktTooBig<Ipv6Hdr>]"


def _contract_text(pre=None, post=None, constants="", static=""):
    """Contract text from (order, checks) pairs for each phase."""
    text = f"check({constants})"
    for keyword, phase in (("pre", pre), ("post", post)):
        if phase is not None:
            text += f" {keyword} {{ order: {phase[0]}, checks: [{phase[1]}] }}"
    return text + (f" static: [{static}]" if static else "")


def _ipv6_spec(check, elements=("EthHdr", "Ipv6Hdr")):
    elements = tuple(OrderElement(e) for e in elements)
    return ContractSpec("x", {}, (), PhaseSpec(OrderSpec(elements), (check,)), None)


_HOP_LIMIT = FieldRef("hop_limit", "Ipv6Hdr")

#: Faulty contracts, as text or as a hand-built spec, and the first error
#: elaboration reports for each. Five texts carry two faults: every
#: reference error comes before any order error, ingress before egress,
#: and checks before static assertions. The specs put a list where a name
#: goes, which no parse produces and which the registry and the comparator
#: table cannot look up by hash.
ELABORATION_FAULTS = {
    "unknown order parameter": (
        _contract_text(pre=("[EthHdr => Ipv6Hdr => TcpHdr<GreHdr>]",
                            "(src_port[TcpHdr], >, 0)")),
        ElaborationError, "ingress order references unknown header type 'GreHdr'",
    ),
    "unknown check header": (
        _contract_text(pre=(_TCP6, "(x[GreHdr], >, 0)")),
        ElaborationError, "ingress check references unknown header type 'GreHdr'",
    ),
    "unknown accessor": (
        _contract_text(pre=(_TCP6, "(ttl[Ipv6Hdr], >, 0)")),
        ElaborationError,
        "header Ipv6Hdr has no accessor 'ttl' (known: dst, flow_label, hop_limit, "
        "next_header, payload_len, src, traffic_class, version)",
    ),
    "unknown reference parameter": (
        _contract_text(pre=(_TCP6, "(src_port[TcpHdr<GreHdr>], >, 0)")),
        ElaborationError,
        "ingress check references unknown header type parameter 'GreHdr'",
    ),
    "dangling snapshot reference": (
        _contract_text(pre=(_TCP6, "(payload_len[Ipv6Hdr], >, 0)"),
                       post=(_TCP6, "(payload_len[Ipv6Hdr], ==, "
                                    "hdr_ext_len[Srv6RoutingHdr])")),
        ElaborationError,
        "egress check references hdr_ext_len[Srv6RoutingHdr]@ingress, but "
        "Srv6RoutingHdr is not in the ingress order (dangling snapshot reference)",
    ),
    "arithmetic with an address on the left": (
        _contract_text(pre=("[EthHdr => Ipv6Hdr]",
                            "(src[Ipv6Hdr], ==, payload_len[Ipv6Hdr] + 1)")),
        ElaborationError,
        "ingress check (src[Ipv6Hdr], ==, payload_len[Ipv6Hdr] + 1): arithmetic "
        "operands require integer fields",
    ),
    "not a chain root": (
        _contract_text(pre=("[Ipv6Hdr => TcpHdr<Ipv6Hdr>]", "(src_port[TcpHdr], >, 0)")),
        ChainOrderError,
        "Ipv6Hdr is not a chain root and cannot start [Ipv6Hdr => TcpHdr<Ipv6Hdr>]",
    ),
    "parameter out of scope": (
        _contract_text(pre=("[EthHdr => Ipv6Hdr => TcpHdr<Srv6RoutingHdr>]",
                            "(src_port[TcpHdr], >, 0)")),
        ChainOrderError,
        "TcpHdr<Srv6RoutingHdr> names parameter Srv6RoutingHdr but no earlier "
        "element in [EthHdr => Ipv6Hdr => TcpHdr<Srv6RoutingHdr>] provides it",
    ),
    "unbound static constant": (
        _contract_text(constants="A = 2", static="A + B == 7"),
        ElaborationError, "static assertion uses unbound constant 'B'",
    ),
    "reference plus order fault": (
        _contract_text(pre=("[EthHdr => TcpHdr<EthHdr>]", "(hop_limit[Ipv6Hdr], >, 0)")),
        ElaborationError,
        "ingress check references hop_limit[Ipv6Hdr], but Ipv6Hdr is not in the "
        "ingress order",
    ),
    "ingress plus egress fault": (
        _contract_text(pre=("[EthHdr => Ipv6Hdr => Srv6RoutingHdr]",
                            "(tag[Srv6RoutingHdr], ==, src[Ipv6Hdr])"),
                       post=(_PTB, "(mtu[Icmpv6PktTooBig], ==, FOO)")),
        ElaborationError,
        "ingress check (tag[Srv6RoutingHdr], ==, src[Ipv6Hdr]): cannot compare int "
        "field with bytes operand",
    ),
    "egress reference plus ingress order fault": (
        _contract_text(pre=("[Ipv6Hdr]", "(hop_limit[Ipv6Hdr], >, 0)"),
                       post=(_PTB, "(mtu[TcpHdr], ==, 1)")),
        ElaborationError,
        "header TcpHdr has no accessor 'mtu' (known: ack, checksum, data_offset, "
        "dst_port, flags, seq, src_port, urgent_ptr, window)",
    ),
    "both orders faulty": (
        _contract_text(pre=("[EthHdr => Srv6RoutingHdr]", "(tag[Srv6RoutingHdr], >, 0)"),
                       post=("[TcpHdr]", "(src_port[TcpHdr], >, 0)")),
        ChainOrderError,
        "Srv6RoutingHdr cannot follow EthHdr: permitted predecessors are "
        "{Ipv6Hdr, Srv6RoutingHdr}",
    ),
    "unbound constant plus false static assertion": (
        _contract_text(pre=(_TCP6, "(payload_len[Ipv6Hdr], >, MTU)"),
                       constants="A = 1", static="A == 2"),
        ElaborationError,
        "ingress check (payload_len[Ipv6Hdr], >, MTU) uses unbound constant 'MTU'",
    ),
    "list header type": (
        _ipv6_spec(Check(FieldRef("hop_limit", ["Ipv6Hdr"]), "==", Operand.literal(1))),
        ElaborationError,
        "ingress check (hop_limit[['Ipv6Hdr']], ==, 1): ['Ipv6Hdr'] is not a name",
    ),
    "list parameter": (
        _ipv6_spec(Check(FieldRef("hop_limit", "Ipv6Hdr", param=["EthHdr"]), "==",
                         Operand.literal(1))),
        ElaborationError,
        "ingress check (hop_limit[Ipv6Hdr<['EthHdr']>], ==, 1): ['EthHdr'] is not a name",
    ),
    "list comparator": (
        _ipv6_spec(Check(_HOP_LIMIT, ["=="], Operand.literal(1))),
        ElaborationError,
        "ingress check (hop_limit[Ipv6Hdr], ['=='], 1): unknown comparator ['==']",
    ),
    "list accessor": (
        _ipv6_spec(Check(FieldRef(["hop_limit"], "Ipv6Hdr"), "==", Operand.literal(1))),
        ElaborationError,
        "ingress check (['hop_limit'][Ipv6Hdr], ==, 1): ['hop_limit'] is not a name",
    ),
    "list operand header type": (
        _ipv6_spec(Check(_HOP_LIMIT, "==", Operand.ref(FieldRef("hop_limit", ["Ipv6Hdr"])))),
        ElaborationError,
        "ingress check (hop_limit[Ipv6Hdr], ==, hop_limit[['Ipv6Hdr']]): ['Ipv6Hdr'] "
        "is not a name",
    ),
    "guard in post": (
        f"check() pre {{ order: {_TCP6}, checks: [] }} "
        f"post {{ order: {_PTB}, when: [(mtu[Icmpv6PktTooBig], >, 0)], checks: [] }}",
        ElaborationError,
        "egress phase has a when: guard, but only the ingress phase decides which "
        "packets a contract covers",
    ),
    "guard that reads the snapshot": (
        ContractSpec("x", {}, (), PhaseSpec(order("EthHdr", "Ipv6Hdr"), (), when=(
            Check(FieldRef("payload_len", "Ipv6Hdr"), ">", Operand.ref(
                FieldRef("payload_len", "Ipv6Hdr", source=Source.INGRESS_SNAPSHOT))),
        )), None),
        ElaborationError,
        "ingress guard check (payload_len[Ipv6Hdr], >, payload_len[Ipv6Hdr]@ingress): "
        "the ingress phase has no snapshot to read",
    ),
    "unknown guard field": (
        f"check() pre {{ order: {_TCP6}, when: [(ttl[Ipv6Hdr], >, 0)], checks: [] }}",
        ElaborationError,
        "header Ipv6Hdr has no accessor 'ttl' (known: dst, flow_label, hop_limit, "
        "next_header, payload_len, src, traffic_class, version)",
    ),
    "guard header outside the order": (
        f"check() pre {{ order: {_TCP6}, when: [(tag[Srv6RoutingHdr], >, 0)], "
        "checks: [] }",
        ElaborationError,
        "ingress guard check references tag[Srv6RoutingHdr], but Srv6RoutingHdr is "
        "not in the ingress order",
    ),
    "empty guard": (
        f"check() pre {{ order: {_TCP6}, when: [], checks: [] }}",
        ElaborationError,
        "ingress guard has no checks: a contract that covers every packet has no when:",
    ),
    "list order element": (
        _ipv6_spec(Check(_HOP_LIMIT, "==", Operand.literal(1)), ("EthHdr", ["Ipv6Hdr"])),
        ElaborationError, "ingress order references unknown header type ['Ipv6Hdr']",
    ),
}


@pytest.mark.parametrize("name", ELABORATION_FAULTS)
def test_elaboration_error_of_each_faulty_contract(registry, name):
    spec, error_type, message = ELABORATION_FAULTS[name]
    if isinstance(spec, str):
        spec = parse_contract_spec(spec)
    with pytest.raises(PktCheckError) as excinfo:
        elaborate(spec, registry)
    assert type(excinfo.value) is error_type
    assert str(excinfo.value) == message
