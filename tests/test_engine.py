from dataclasses import replace

import pytest

from pktcheck import (
    BuildMode,
    Check,
    ContractRuntime,
    ContractSpec,
    ElaborationError,
    FieldRef,
    Ipv6Hdr,
    Operand,
    Packet,
    PhaseSpec,
    Source,
    elaborate,
    order,
    parse_contract_spec,
    run_egress,
    run_ingress,
    verify_order,
)
from pktcheck.engine import OUTSIDE, Violation, build_snapshot, eval_check, render_value
from pktcheck.nfs import MTU_TOO_BIG_CONTRACT, send_too_big
from pktcheck.registry import parse_chain

from oracles import PRECONDITION_CONTRACT, build_tcp6_bytes

TCP6_ORDER = order("EthHdr", "Ipv6Hdr", ("TcpHdr", "Ipv6Hdr"))


def _tcp6(payload_len=1300):
    """Fresh, unparsed packet (run_ingress parses the chain itself)."""
    return Packet.from_bytes(build_tcp6_bytes(payload_len=payload_len))


def _parse_tcp6(registry, packet):
    """The headers and end offsets parse_chain decodes along TCP6_ORDER."""
    return parse_chain(packet, verify_order(registry, TCP6_ORDER))


def _decoded_tcp6(registry, payload_len=1300):
    """The headers parse_chain decodes from a fresh TCP/IPv6 packet."""
    return _parse_tcp6(registry, _tcp6(payload_len))[0]


def _snapshot(registry, packet, runtime=None):
    return build_snapshot(_parse_tcp6(registry, packet)[0], runtime)


def _set_payload_len(packet, value):
    """Rewrite the IPv6 payload length: splice a re-emitted IPv6 header over
    its 40 bytes."""
    ipv6, _ = Ipv6Hdr.parse(packet.data, 14)
    emitted = replace(ipv6, payload_len=value).emit()
    packet.data = packet.data[:14] + emitted + packet.data[54:]


def _compiled(registry, *checks, constants=None):
    """Elaborate TCP/IPv6 ingress and egress phases around ``checks`` (the
    egress phase's) and return its compiled checks."""
    spec = ContractSpec(
        nf_name="demo",
        constants=constants or {},
        static_assertions=(),
        ingress=PhaseSpec(order=TCP6_ORDER, checks=()),
        egress=PhaseSpec(order=TCP6_ORDER, checks=tuple(checks)),
    )
    return elaborate(spec, registry).egress.compiled


def _snap(accessor, header_type):
    return FieldRef(accessor, header_type, source=Source.INGRESS_SNAPSHOT)


# --- snapshots ---------------------------------------------------------------


def test_snapshot_has_one_entry_per_chain_element(registry):
    packet = _tcp6()
    snapshot = _snapshot(registry, packet)
    assert [type(h).__name__ for h in snapshot] == [
        "EthHdr", "Ipv6Hdr", "TcpHdr"
    ]


def test_snapshot_materializes_field_values(registry):
    snapshot = _snapshot(registry, _tcp6(1300))
    assert snapshot[1].payload_len == 1300
    assert snapshot[2].src_port == 4242
    assert snapshot[0].emit() == build_tcp6_bytes()[:14]


def test_snapshot_keeps_the_headers_parse_chain_decoded(registry):
    packet = _tcp6()
    headers, _ = _parse_tcp6(registry, packet)
    snapshot = build_snapshot(headers)
    assert type(snapshot) is tuple
    assert all(kept is decoded for kept, decoded in zip(snapshot, headers, strict=True))


def test_snapshot_is_immune_to_later_packet_mutation(registry):
    packet = _tcp6(1300)
    snapshot = _snapshot(registry, packet)
    _set_payload_len(packet, 999)
    assert Ipv6Hdr.parse(packet.data, 14)[0].payload_len == 999
    (compiled,) = _compiled(
        registry, Check(FieldRef("payload_len", "Ipv6Hdr"), "==", Operand.ref(
            _snap("payload_len", "Ipv6Hdr")))
    )
    decoded, _ = _parse_tcp6(registry, packet)
    assert compiled.test(decoded, snapshot) == (999, 1300)


def test_snapshot_counts_toward_runtime(registry):
    runtime = ContractRuntime()
    _snapshot(registry, _tcp6(), runtime)
    assert runtime.snapshots_built == 1


def test_snapshot_lookup_unknown_entries(registry):
    # a snapshot read of a header the ingress order does not capture, or of
    # an accessor the header lacks, cannot be compiled
    for ref in (_snap("mtu", "Icmpv6PktTooBig"), _snap("nope", "Ipv6Hdr")):
        check = Check(FieldRef("payload_len", "Ipv6Hdr"), "==", Operand.ref(ref))
        with pytest.raises(ElaborationError):
            _compiled(registry, check)


# --- operand resolution --------------------------------------------------------


def test_resolve_literal_and_constant(registry):
    decoded = _decoded_tcp6(registry)
    lhs = FieldRef("payload_len", "Ipv6Hdr")
    literal, constant = _compiled(
        registry,
        Check(lhs, "<", Operand.literal(7)),
        Check(lhs, "<", Operand.constant("MTU")),
        constants={"MTU": 1280},
    )
    assert literal.test(decoded, None) == (1300, 7)
    assert constant.test(decoded, None) == (1300, 1280)
    with pytest.raises(ElaborationError, match="MTU"):
        _compiled(registry, Check(lhs, ">", Operand.constant("MTU")))


def test_resolve_field_refs_from_packet_and_snapshot(registry):
    packet = _tcp6()
    snapshot = _snapshot(registry, packet)
    _set_payload_len(packet, 60)
    decoded, _ = _parse_tcp6(registry, packet)

    lhs = FieldRef("payload_len", "Ipv6Hdr")
    current, original = _compiled(
        registry,
        Check(lhs, "neq", Operand.ref(FieldRef("payload_len", "Ipv6Hdr"))),
        Check(lhs, "==", Operand.ref(_snap("payload_len", "Ipv6Hdr"))),
    )
    assert current.test(decoded, snapshot) == (60, 60)
    assert original.test(decoded, snapshot) == (60, 1300)


def test_resolve_arithmetic_sum(registry):
    packet = _tcp6()
    snapshot = _snapshot(registry, packet)
    operand = Operand((
        (1, _snap("payload_len", "Ipv6Hdr")),
        (1, 16),
        (-1, FieldRef("data_offset", "TcpHdr")),
        (-1, 6),
    ))
    (compiled,) = _compiled(
        registry, Check(FieldRef("payload_len", "Ipv6Hdr"), "==", operand)
    )
    assert compiled.test(snapshot, snapshot) == (1300, 1300 + 16 - 5 - 6)


def test_resolve_rejects_bytes_in_arithmetic(registry):
    operand = Operand(((1, FieldRef("src", "Ipv6Hdr")), (1, 1)))
    with pytest.raises(ElaborationError, match="arithmetic"):
        _compiled(registry, Check(FieldRef("payload_len", "Ipv6Hdr"), "==", operand))


# --- check evaluation ----------------------------------------------------------


def test_eval_check_pass_and_fail(registry):
    decoded = _decoded_tcp6(registry, payload_len=1300)
    passing, failing = _compiled(
        registry,
        Check(FieldRef("payload_len", "Ipv6Hdr"), ">", Operand.literal(1280)),
        Check(FieldRef("payload_len", "Ipv6Hdr"), ">", Operand.literal(1300)),
    )
    assert eval_check(passing, decoded, None) is None
    violation = eval_check(failing, decoded, None, "demo", "ingress", 3)
    assert violation.lhs_value == 1300
    assert violation.rhs_value == 1300
    assert violation.kind == "check"
    assert violation.text() == (
        "NF demo [ingress#1] payload_len[Ipv6Hdr]=1300 > 1300=1300 "
        "FAILED (packet 3)"
    )


def test_eval_check_bytes_equality(registry):
    decoded = _decoded_tcp6(registry)
    (same,) = _compiled(registry, Check(
        FieldRef("src", "Ipv6Hdr"), "neq",
        Operand.ref(FieldRef("dst", "Ipv6Hdr")),
    ))
    assert eval_check(same, decoded, None) is None


def test_eval_check_rejects_ordered_bytes_comparison(registry):
    bad = Check(
        FieldRef("src", "Ipv6Hdr"), "<", Operand.ref(FieldRef("dst", "Ipv6Hdr"))
    )
    with pytest.raises(ElaborationError, match="==|neq"):
        _compiled(registry, bad)


def test_eval_check_rejects_type_mismatch(registry):
    bad = Check(FieldRef("src", "Ipv6Hdr"), "==", Operand.literal(5))
    with pytest.raises(ElaborationError, match="compare"):
        _compiled(registry, bad)


def test_violation_json_shape(registry):
    decoded = _decoded_tcp6(registry)
    (failing,) = _compiled(
        registry, Check(FieldRef("payload_len", "Ipv6Hdr"), "<", Operand.literal(0))
    )
    violation = eval_check(failing, decoded, None, "demo", "egress", 9)
    blob = violation.to_json()
    assert blob == {
        "nf": "demo",
        "phase": "egress",
        "check_index": 0,
        "lhs": "payload_len[Ipv6Hdr]",
        "lhs_value": 1300,
        "op": "<",
        "rhs": "0",
        "rhs_value": 0,
        "packet_index": 9,
        "kind": "check",
        "message": blob["message"],
    }


def test_check_violation_formats_its_message_when_read():
    violation = Violation("demo", "egress", 2, "src[Ipv6Hdr]", "::1", "==",
                          "dst[Ipv6Hdr]@ingress", "::2", 7)
    assert violation.reason is None
    assert violation.message == violation.text() == (
        "NF demo [egress#2] src[Ipv6Hdr]=::1 == dst[Ipv6Hdr]@ingress=::2 "
        "FAILED (packet 7)"
    )
    assert violation.to_json()["message"] == violation.text()


def test_render_value_addresses():
    assert render_value(bytes(range(16))) == "1:203:405:607:809:a0b:c0d:e0f"
    assert render_value(bytes.fromhex("020000000001")) == "02:00:00:00:00:01"
    assert render_value(b"\x01\x02") == "0102"
    assert render_value(1300) == 1300
    # neither an int nor bytes: its text
    assert render_value(None) == "None"
    assert render_value(2.5) == "2.5"


# --- phase drivers ---------------------------------------------------------------


def _mtu_contract(registry):
    return elaborate(
        parse_contract_spec(MTU_TOO_BIG_CONTRACT, nf_name="mtu"), registry
    )


def test_run_ingress_returns_snapshot_on_pass(registry):
    contract = _mtu_contract(registry)
    runtime = ContractRuntime()
    violations, snapshot = run_ingress(contract, _tcp6(1300), runtime)
    assert violations == []
    assert snapshot is not None
    assert runtime.snapshots_built == 1
    assert runtime.checks_evaluated == 1


def test_run_ingress_collects_check_violation(registry):
    contract = elaborate(parse_contract_spec(PRECONDITION_CONTRACT, nf_name="mtu"), registry)
    assert not contract.ingress.guard
    runtime = ContractRuntime()
    violations, snapshot = run_ingress(
        contract, _tcp6(1280), runtime
    )
    assert len(violations) == 1
    assert violations[0].lhs == "payload_len[Ipv6Hdr]"
    assert snapshot is not None  # order matched, so the snapshot exists


def test_run_ingress_order_mismatch_skips_checks(registry):
    contract = _mtu_contract(registry)
    runtime = ContractRuntime()
    srv6_like = bytearray(build_tcp6_bytes())
    srv6_like[20] = 43  # IPv6 next-header no longer announces TCP
    violations, snapshot = run_ingress(
        contract, Packet.from_bytes(bytes(srv6_like)), runtime
    )
    assert snapshot is None
    assert len(violations) == 1
    assert violations[0].kind == "order"
    assert violations[0].check_index is None
    assert runtime.checks_evaluated == 0
    assert "[ingress#order]" in violations[0].text()


def test_run_egress_all_checks_evaluated_no_short_circuit(registry):
    # A transform that forgets every rewrite step produces one violation
    # per failed check, not just the first.
    contract = _mtu_contract(registry)
    runtime = ContractRuntime()
    packet = _tcp6(1300)
    violations, snapshot = run_ingress(contract, packet, runtime)
    assert violations == []
    result = send_too_big(packet, omit_ipv6_swap=True, omit_eth_swap=True)
    egress = run_egress(
        contract, result.packet, snapshot, runtime, packet_index=0
    )
    assert [v.check_index for v in egress] == [2, 3, 4, 5]
    assert runtime.checks_evaluated == 1 + 6


def test_run_egress_without_the_snapshot_evaluates_nothing(registry):
    # ingress failed its order, so that violation is the packet's one
    # root cause: egress neither decodes nor checks, even the checks that
    # read no snapshot
    contract = _mtu_contract(registry)
    runtime = ContractRuntime()
    packet = send_too_big(_tcp6(1300), omit_ipv6_swap=True).packet
    assert run_egress(contract, packet, None, runtime, packet_index=2) == []
    assert runtime.checks_evaluated == 0
    # with its snapshot the same packet fails the address checks
    _, snapshot = run_ingress(contract, _tcp6(1300), runtime)
    failed = run_egress(contract, packet, snapshot, runtime)
    assert [v.check_index for v in failed] == [2, 3]


def test_run_egress_without_an_ingress_phase_runs_its_checks(registry):
    spec = ContractSpec(
        nf_name="demo", constants={}, static_assertions=(), ingress=None,
        egress=PhaseSpec(order=TCP6_ORDER, checks=(
            Check(FieldRef("payload_len", "Ipv6Hdr"), ">", Operand.literal(1300)),
        )),
    )
    runtime = ContractRuntime()
    (violation,) = run_egress(elaborate(spec, registry), _tcp6(1300), None, runtime)
    assert violation.check_index == 0 and violation.kind == "check"
    assert runtime.checks_evaluated == 1


def test_run_phases_are_noops_in_production(registry):
    contract = _mtu_contract(registry)
    runtime = ContractRuntime(BuildMode.PRODUCTION)
    packet = _tcp6(1300)
    violations, snapshot = run_ingress(contract, packet, runtime)
    assert (violations, snapshot) == ([], None)
    assert run_egress(contract, packet, snapshot, runtime) == []
    assert runtime.snapshots_built == 0
    assert runtime.checks_evaluated == 0


def test_the_guard_is_decided_before_the_tcp_step(registry):
    # a packet outside the guard is not walked past the IPv6 header: one
    # cut inside its TCP header is outside, not an order violation, and
    # counts the guard's one check; an oversized one cut there is refused
    # inside the guard and counts none
    contract = _mtu_contract(registry)
    runtime = ContractRuntime()
    small = Packet.from_bytes(build_tcp6_bytes(payload_len=100)[:60])
    assert run_ingress(contract, small, runtime) == ([], OUTSIDE)
    assert (runtime.snapshots_built, runtime.checks_evaluated) == (0, 1)
    big = Packet.from_bytes(build_tcp6_bytes(payload_len=1300)[:60])
    (violation,), snapshot = run_ingress(contract, big, runtime)
    assert snapshot is None and violation.key() == "ingress#order"
    assert violation.message.startswith("order mismatch at index 2: cannot parse TcpHdr")
    assert (runtime.snapshots_built, runtime.checks_evaluated) == (0, 1)


def test_run_egress_outside_the_guard_is_the_frame_condition(registry):
    # run_egress takes an output whose bytes differ from its input's: outside
    # the guard that is one frame violation, whatever the bytes, and no check
    contract = _mtu_contract(registry)
    runtime = ContractRuntime()
    packet = _tcp6(100)
    (violation,) = run_egress(contract, packet, OUTSIDE, runtime, packet_index=4)
    assert (violation.phase, violation.kind, violation.check_index) == ("egress", "frame", None)
    assert violation.key() == "egress#frame"
    assert violation.text() == (
        "NF mtu [egress#frame] a packet outside the contract's guard left with its "
        "bytes changed (packet 4)"
    )
    assert violation.to_json()["message"] == (
        "a packet outside the contract's guard left with its bytes changed"
    )
    assert runtime.checks_evaluated == 0
    production = ContractRuntime(BuildMode.PRODUCTION)
    assert run_egress(contract, packet, OUTSIDE, production) == []


def test_a_violation_without_a_check_index_is_keyed_by_its_kind():
    order_violation = Violation("nf", "ingress", None, "order", "TcpHdr", None, "expected",
                                "Srv6RoutingHdr", 3, "order", "order mismatch")
    check_violation = Violation("nf", "egress", 2, "a", 1, "==", "b", 2, 3)
    assert order_violation.key() == "ingress#order"
    assert order_violation.text() == "NF nf [ingress#order] order mismatch (packet 3)"
    assert check_violation.key() == "egress#2"
    assert check_violation.text() == "NF nf [egress#2] a=1 == b=2 FAILED (packet 3)"
