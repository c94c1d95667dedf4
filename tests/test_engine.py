import pytest

from pktcheck import (
    BuildMode,
    Check,
    ConfigError,
    ContractRuntime,
    FieldRef,
    Operand,
    Packet,
    Source,
    build_snapshot,
    elaborate,
    eval_check,
    order,
    parse_chain,
    parse_contract_spec,
    resolve_operand,
    run_egress,
    run_ingress,
)
from pktcheck.engine import ResolutionError, render_value
from pktcheck.nfs import MTU_TOO_BIG_CONTRACT, send_too_big

from conftest import build_tcp6_bytes

TCP6_ORDER = order("EthHdr", "Ipv6Hdr", ("TcpHdr", "Ipv6Hdr"))


def _tcp6(payload_len=1300):
    """Fresh, unparsed packet (run_ingress parses the chain itself)."""
    return Packet.from_bytes(build_tcp6_bytes(payload_len=payload_len))


def _parsed_tcp6(registry, payload_len=1300):
    packet = _tcp6(payload_len)
    parse_chain(packet, TCP6_ORDER, registry)
    return packet


def _snapshot(registry, packet, runtime=None):
    parse_chain(packet, TCP6_ORDER, registry)
    return build_snapshot(packet, registry, runtime)


# --- snapshots ---------------------------------------------------------------


def test_snapshot_has_one_entry_per_chain_element(registry):
    packet = _tcp6()
    snapshot = _snapshot(registry, packet)
    assert set(snapshot.entries) == {("EthHdr", 0), ("Ipv6Hdr", 0), ("TcpHdr", 0)}
    assert snapshot.raw_packet == bytes(packet.data)


def test_snapshot_materializes_field_values(registry):
    snapshot = _snapshot(registry, _tcp6(1300))
    assert snapshot.entries[("Ipv6Hdr", 0)].values["payload_len"] == 1300
    assert snapshot.entries[("TcpHdr", 0)].values["src_port"] == 4242
    assert snapshot.entries[("EthHdr", 0)].raw == build_tcp6_bytes()[:14]


def test_snapshot_is_immune_to_later_packet_mutation(registry):
    packet = _tcp6(1300)
    snapshot = _snapshot(registry, packet)
    packet.set_field("Ipv6Hdr", 0, "payload_len", 999)
    assert packet.header("Ipv6Hdr").payload_len == 999
    ref = FieldRef("payload_len", "Ipv6Hdr", source=Source.INGRESS_SNAPSHOT)
    assert snapshot.lookup(ref) == 1300


def test_snapshot_counts_toward_runtime(registry):
    runtime = ContractRuntime()
    _snapshot(registry, _tcp6(), runtime)
    assert runtime.snapshots_built == 1


def test_snapshot_lookup_unknown_entries(registry):
    snapshot = _snapshot(registry, _tcp6())
    with pytest.raises(ResolutionError):
        snapshot.lookup(FieldRef("mtu", "Icmpv6PktTooBig", source=Source.INGRESS_SNAPSHOT))
    with pytest.raises(ResolutionError):
        snapshot.lookup(FieldRef("nope", "Ipv6Hdr", source=Source.INGRESS_SNAPSHOT))


# --- operand resolution --------------------------------------------------------


def test_resolve_literal_and_constant(registry):
    packet = _parsed_tcp6(registry)
    assert resolve_operand(Operand.literal(7), packet, None, registry) == 7
    assert (
        resolve_operand(
            Operand.constant("MTU"), packet, None, registry, constants={"MTU": 1280}
        )
        == 1280
    )
    with pytest.raises(ResolutionError, match="MTU"):
        resolve_operand(Operand.constant("MTU"), packet, None, registry)


def test_resolve_field_refs_from_packet_and_snapshot(registry):
    packet = _tcp6()
    snapshot = _snapshot(registry, packet)
    packet.set_field("Ipv6Hdr", 0, "payload_len", 60)

    current = Operand.ref(FieldRef("payload_len", "Ipv6Hdr"))
    original = Operand.ref(
        FieldRef("payload_len", "Ipv6Hdr", source=Source.INGRESS_SNAPSHOT)
    )
    assert resolve_operand(current, packet, snapshot, registry) == 60
    assert resolve_operand(original, packet, snapshot, registry) == 1300


def test_resolve_arithmetic_sum(registry):
    packet = _tcp6()
    snapshot = _snapshot(registry, packet)
    operand = Operand((
        (1, FieldRef("payload_len", "Ipv6Hdr", source=Source.INGRESS_SNAPSHOT)),
        (1, 16),
        (-1, 6),
    ))
    assert resolve_operand(operand, packet, snapshot, registry) == 1310


def test_resolve_rejects_bytes_in_arithmetic(registry):
    packet = _parsed_tcp6(registry)
    operand = Operand(((1, FieldRef("src", "Ipv6Hdr")), (1, 1)))
    with pytest.raises(ResolutionError, match="arithmetic"):
        resolve_operand(operand, packet, None, registry)


def test_resolve_requires_snapshot_when_referenced(registry):
    packet = _parsed_tcp6(registry)
    operand = Operand.ref(
        FieldRef("payload_len", "Ipv6Hdr", source=Source.INGRESS_SNAPSHOT)
    )
    with pytest.raises(ResolutionError, match="snapshot"):
        resolve_operand(operand, packet, None, registry)


# --- check evaluation ----------------------------------------------------------


def test_eval_check_pass_and_fail(registry):
    packet = _parsed_tcp6(registry, payload_len=1300)
    passing = Check(FieldRef("payload_len", "Ipv6Hdr"), ">", Operand.literal(1280))
    failing = Check(FieldRef("payload_len", "Ipv6Hdr"), ">", Operand.literal(1300))
    assert eval_check(passing, packet, None, registry) is None
    violation = eval_check(
        failing, packet, None, registry,
        nf="demo", phase="ingress", check_index=0, packet_index=3,
    )
    assert violation.lhs_value == 1300
    assert violation.rhs_value == 1300
    assert violation.kind == "check"
    assert violation.text() == (
        "NF demo [ingress#0] payload_len[Ipv6Hdr]=1300 > 1300=1300 "
        "FAILED (packet 3)"
    )


def test_eval_check_bytes_equality(registry):
    packet = _parsed_tcp6(registry)
    same = Check(
        FieldRef("src", "Ipv6Hdr"), "neq",
        Operand.ref(FieldRef("dst", "Ipv6Hdr")),
    )
    assert eval_check(same, packet, None, registry) is None


def test_eval_check_resolution_failure_is_a_violation(registry):
    packet = _parsed_tcp6(registry)
    missing = Check(FieldRef("mtu", "Icmpv6PktTooBig"), "==", Operand.literal(1280))
    violation = eval_check(missing, packet, None, registry, nf="demo")
    assert violation.kind == "resolution"
    assert "Icmpv6PktTooBig" in violation.message


def test_eval_check_rejects_ordered_bytes_comparison(registry):
    packet = _parsed_tcp6(registry)
    bad = Check(
        FieldRef("src", "Ipv6Hdr"), "<", Operand.ref(FieldRef("dst", "Ipv6Hdr"))
    )
    violation = eval_check(bad, packet, None, registry)
    assert violation.kind == "resolution"


def test_eval_check_rejects_type_mismatch(registry):
    packet = _parsed_tcp6(registry)
    bad = Check(FieldRef("src", "Ipv6Hdr"), "==", Operand.literal(5))
    violation = eval_check(bad, packet, None, registry)
    assert violation.kind == "resolution"
    assert "mismatch" in violation.message


def test_violation_json_shape(registry):
    packet = _parsed_tcp6(registry)
    failing = Check(FieldRef("payload_len", "Ipv6Hdr"), "<", Operand.literal(0))
    violation = eval_check(
        failing, packet, None, registry,
        nf="demo", phase="egress", check_index=4, packet_index=9,
    )
    blob = violation.to_json()
    assert blob == {
        "nf": "demo",
        "phase": "egress",
        "check_index": 4,
        "lhs": "payload_len[Ipv6Hdr]",
        "lhs_value": 1300,
        "op": "<",
        "rhs": "0",
        "rhs_value": 0,
        "packet_index": 9,
        "kind": "check",
        "message": blob["message"],
    }


def test_render_value_addresses():
    assert render_value(bytes(range(16))) == "1:203:405:607:809:a0b:c0d:e0f"
    assert render_value(bytes.fromhex("020000000001")) == "02:00:00:00:00:01"
    assert render_value(b"\x01\x02") == "0102"
    assert render_value(1300) == 1300


# --- phase drivers ---------------------------------------------------------------


def _mtu_contract(registry):
    return elaborate(
        parse_contract_spec(MTU_TOO_BIG_CONTRACT, nf_name="mtu"), registry
    )


def test_run_ingress_returns_snapshot_on_pass(registry):
    contract = _mtu_contract(registry)
    runtime = ContractRuntime()
    violations, snapshot = run_ingress(contract, _tcp6(1300), registry, runtime)
    assert violations == []
    assert snapshot is not None
    assert runtime.snapshots_built == 1
    assert runtime.checks_evaluated == 1


def test_run_ingress_collects_check_violation(registry):
    contract = _mtu_contract(registry)
    runtime = ContractRuntime()
    violations, snapshot = run_ingress(
        contract, _tcp6(1280), registry, runtime
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
        contract, Packet.from_bytes(bytes(srv6_like)), registry, runtime
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
    violations, snapshot = run_ingress(contract, packet, registry, runtime)
    assert violations == []
    result = send_too_big(packet, omit_ipv6_swap=True, omit_eth_swap=True)
    egress = run_egress(
        contract, result.packet, snapshot, registry, runtime, packet_index=0
    )
    assert [v.check_index for v in egress] == [2, 3, 4, 5]
    assert runtime.checks_evaluated == 1 + 6


def test_run_phases_are_noops_in_production(registry):
    contract = _mtu_contract(registry)
    runtime = ContractRuntime(BuildMode.PRODUCTION)
    packet = _tcp6(1300)
    violations, snapshot = run_ingress(contract, packet, registry, runtime)
    assert (violations, snapshot) == ([], None)
    assert run_egress(contract, packet, snapshot, registry, runtime) == []
    assert runtime.snapshots_built == 0
    assert runtime.checks_evaluated == 0


def test_runtime_mode_locked_after_first_packet():
    runtime = ContractRuntime(BuildMode.DEVELOPMENT)
    runtime.set_mode(BuildMode.PRODUCTION)  # fine before any traffic
    runtime.set_mode(BuildMode.DEVELOPMENT)
    runtime.mark_packet_flow()
    runtime.set_mode(BuildMode.DEVELOPMENT)  # same mode is harmless
    with pytest.raises(ConfigError):
        runtime.set_mode(BuildMode.PRODUCTION)
