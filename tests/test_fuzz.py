"""Seeded mutation fuzz: generated tcp6 and srv6 packets, each flipped,
truncated or extended, through both NFs under every policy in both build
modes.

PAPER.md says a malformed packet can fail a check but never crash the
checker, and that Development and Production give the same output bytes.
Generated traffic alone only shows this for packets that parse.
"""

import hashlib
import json
import random
import struct
from dataclasses import replace

import pytest

from pktcheck import (
    BuildMode,
    ContractRuntime,
    GeneratorSpec,
    NetworkFunction,
    Packet,
    TransformResult,
    elaborate,
    generate_records,
    make_nf,
    parse_contract_spec,
    run_egress,
    run_ingress,
)
from pktcheck import contracts
from pktcheck.engine import POLICIES
from pktcheck.nfs import send_too_big
from pktcheck.pcap import PcapRecord
from pktcheck.pipeline import run_records
from pktcheck.registry import parse_chain

SEED = 4041
HEADER_BYTES = 96  # mutations aim at the headers, where the checks look


def _mutate(data: bytes, rng: random.Random) -> bytes:
    raw = bytearray(data)
    kind = rng.choice(("flip", "truncate", "extend"))
    if kind == "flip":
        for _ in range(rng.randint(1, 3)):
            raw[rng.randrange(min(len(raw), HEADER_BYTES))] ^= rng.randrange(1, 256)
    elif kind == "truncate":
        del raw[rng.randrange(len(raw)) :]
    else:
        raw += rng.randbytes(rng.randint(1, 64))
    return bytes(raw)


CLEAN = generate_records(
    GeneratorSpec(count=40, template="tcp6", payload_len=(1200, 1500), seed=SEED)
) + generate_records(
    GeneratorSpec(count=40, template="srv6", payload_len=(24, 200), seed=SEED)
)


def _mutants() -> list[PcapRecord]:
    rng = random.Random(SEED)
    data = [_mutate(record.data, rng) for record in CLEAN for _ in range(3)]
    return [PcapRecord(data=raw, ts_usec=index) for index, raw in enumerate(data)]


MUTANTS = _mutants()

#: NF variants under test, by pytest id.
VARIANTS = {
    "mtu": ("mtu-too-big", {}),
    "mtu-no-swap": ("mtu-too-big", {"omit_ipv6_swap": True}),
    "mtu-no-eth-swap": ("mtu-too-big", {"omit_eth_swap": True}),
    "srv6": ("srv6-change-pkt", {}),
    "srv6-stale-length": ("srv6-change-pkt", {"omit_payload_len_update": True}),
}

#: sha256 of each variant's Production output over MUTANTS then CLEAN,
#: hashed by ``_digest``. Any change to these means some output byte moved.
OUTPUT_DIGESTS = {
    "mtu": "4b36098d40ace800845dfe0a4c713a6d2d3bf35e6a5dc7f7920ea90ba95639f0",
    "mtu-no-swap": "0a1944ce59fa6da589c48675c5c795c74682233f121e89c1b4e0c7ab37ec7d3d",
    "mtu-no-eth-swap": "82f11b80a80da9fbbf0f7fb3116579db60eba0da72c184a4888edca1ba898219",
    "srv6": "72014380afbae9d31f884837605fa165007c224252f8e99baa2c0a80d0d87aa2",
    "srv6-stale-length": "9bc5538bfbe944454bd8b2f679d71bf2ee072637885838d8d269de32d2c3d303",
}

#: sha256 of each variant's Development ``continue`` violations over MUTANTS
#: then CLEAN, as the JSON list of their ``to_json()``. Any change to these
#: means some violation, or a byte of its JSON, moved.
VIOLATION_DIGESTS = {
    "mtu": "b6810a44f126a2cb195cef086324dde65e98d8253a1ae0db91a82a8445bcea48",
    "mtu-no-swap": "a76d854f3b476c989df05538ba3a6a2511db4c93e42cb9f07ff3fccaa447f615",
    "mtu-no-eth-swap": "bd95532b71f6007893fb9eb166b69982cd52b5c746782878b71e1e7c31a57258",
    "srv6": "3e645c8a4b62bb558c21cc59d7a599af7487d5f89925a639d8bf2630e16f62a1",
    "srv6-stale-length": "9f4c9717daafbc4de7cc9f5c79cdc1abdec3314cfb380355e098392a24bf0b05",
}

#: The keys of every violation's ``to_json()``, in order: violations are
#: data, and a consumer of the JSON may rely on this shape.
VIOLATION_KEYS = ("nf", "phase", "check_index", "lhs", "lhs_value", "op", "rhs",
                  "rhs_value", "packet_index", "kind", "message")


def _out(summary):
    return [(record.ts_usec, record.data) for record in summary.out_records]


def _digest(outputs) -> str:
    h = hashlib.sha256()
    for ts_usec, data in outputs:
        h.update(struct.pack("!QI", ts_usec, len(data)))
        h.update(data)
    return h.hexdigest()


@pytest.mark.parametrize("variant", VARIANTS)
def test_output_bytes_are_pinned(registry, variant):
    nf_name, options = VARIANTS[variant]
    summary = run_records(
        make_nf(nf_name, registry, **options), MUTANTS + CLEAN, registry,
        runtime=ContractRuntime(BuildMode.PRODUCTION),
    )
    assert _digest(_out(summary)) == OUTPUT_DIGESTS[variant]


@pytest.mark.parametrize("variant", VARIANTS)
def test_violations_are_pinned(registry, variant):
    nf_name, options = VARIANTS[variant]
    summary = run_records(
        make_nf(nf_name, registry, **options), MUTANTS + CLEAN, registry,
        runtime=ContractRuntime(BuildMode.DEVELOPMENT),
    )
    records = [violation.to_json() for violation in summary.violations]
    for record in records:
        assert tuple(record) == VIOLATION_KEYS
        assert record["kind"] in ("check", "order")
        assert (record["kind"] == "order") == (record["check_index"] is None)
    blob = json.dumps(records)
    assert hashlib.sha256(blob.encode()).hexdigest() == VIOLATION_DIGESTS[variant]


@pytest.mark.parametrize(
    "nf_name, options", list(VARIANTS.values()), ids=list(VARIANTS)
)
def test_mutated_traffic_never_crashes_and_modes_agree(registry, nf_name, options):
    nf = make_nf(nf_name, registry, **options)
    runs = {}
    for mode in BuildMode:
        for policy in POLICIES:
            # no exception may escape: that would fail the test here
            summary = run_records(
                nf, MUTANTS, registry, runtime=ContractRuntime(mode), policy=policy
            )
            assert summary.packets_in == summary.packets_out + summary.packets_dropped
            runs[mode, policy] = summary

    prod = runs[BuildMode.PRODUCTION, "continue"]
    dev = runs[BuildMode.DEVELOPMENT, "continue"]
    assert prod.packets_in == len(MUTANTS)
    assert _out(dev) == _out(prod)
    for policy in POLICIES:
        assert _out(runs[BuildMode.PRODUCTION, policy]) == _out(prod)
        assert runs[BuildMode.PRODUCTION, policy].violations == []

    # the mutants reach both outcomes: rewritten packets and violations
    assert any(data != MUTANTS[index].data for index, data in _out(prod))
    violating = {v.packet_index for v in dev.violations}
    assert violating

    drop = runs[BuildMode.DEVELOPMENT, "drop"]
    assert drop.violations == dev.violations
    assert _out(drop) == [(i, d) for i, d in _out(dev) if i not in violating]

    first = min(violating)
    abort = runs[BuildMode.DEVELOPMENT, "abort"]
    assert abort.aborted and abort.packets_in == first + 1
    assert _out(abort) == [(i, d) for i, d in _out(dev) if i < first]


def _one_packet_at_a_time(nf, records, policy):
    """What a Development run must give: each record through ``run_ingress``,
    ``nf.apply`` and, on each output whose bytes differ from the record's,
    ``run_egress`` in turn, the one-packet API, with ``policy`` applied, as
    (violation JSON, transform drops, emitted records, aborted, snapshots
    built, checks evaluated)."""
    runtime = ContractRuntime(BuildMode.DEVELOPMENT)
    found, drops, out, aborted = [], [], [], False
    for index, record in enumerate(records):
        packet = Packet.from_bytes(record.data)
        violations, snapshot = run_ingress(nf.contract, packet, runtime, index)
        result = nf.apply(packet)
        if result.packet is not None and result.packet.data != record.data:
            violations += run_egress(nf.contract, result.packet, snapshot, runtime, index)
        found += violations
        if result.packet is None:
            drops.append((index, result.drop_reason or ""))
        elif not violations or policy == "continue":
            out.append((record.ts_usec, bytes(result.packet.data)))
        if violations and policy == "abort":
            aborted = True
            break
    return ([v.to_json() for v in found], drops, out, aborted,
            runtime.snapshots_built, runtime.checks_evaluated)


def _as_one_packet_at_a_time(summary):
    """``summary`` in the shape ``_one_packet_at_a_time`` returns."""
    return ([v.to_json() for v in summary.violations], summary.drops, _out(summary),
            summary.aborted, summary.snapshots_built, summary.checks_evaluated)


def _refusing(nf, fault):
    """``nf`` with each reply it rewrites cut inside the ICMPv6 header
    (``fault`` "cut") or with an IPv6 next_header that announces TCP
    ("mislinked"): two replies that mtu-too-big's egress walk refuses."""

    def broken(packet):
        result = nf.apply(packet)
        if result.packet is packet:  # a pass-through
            return result
        reply = result.packet.data
        if fault == "cut":
            reply = reply[:58]
        else:
            reply = reply[:20] + bytes([6]) + reply[21:]
        return TransformResult(Packet(reply))

    return replace(nf, transform=broken)


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("variant", [*VARIANTS, "mtu-cut-reply", "mtu-mislinked-reply"])
def test_the_checked_loop_equals_the_one_packet_api(registry, variant, policy):
    if variant in VARIANTS:
        nf_name, options = VARIANTS[variant]
        nf = make_nf(nf_name, registry, **options)
    else:
        nf = _refusing(make_nf("mtu-too-big", registry), variant.split("-")[1])
    summary = run_records(
        nf, MUTANTS + CLEAN, registry, runtime=ContractRuntime(BuildMode.DEVELOPMENT),
        policy=policy,
    )
    expected = _one_packet_at_a_time(nf, MUTANTS + CLEAN, policy)
    assert _as_one_packet_at_a_time(summary) == expected
    if variant not in VARIANTS:  # the API's egress refusal is reached
        assert any(v["phase"] == "egress" and v["kind"] == "order" for v in expected[0])


#: mtu-too-big's contract cut to one phase: its ingress phase, or its egress
#: order with a check that reads no snapshot and fails on every reply.
ONE_PHASE_CONTRACTS = {
    "ingress-only": """check()
    pre {
        order: [EthHdr => Ipv6Hdr => TcpHdr<Ipv6Hdr>],
        checks: [(payload_len[Ipv6Hdr], >, 1280)]
    }""",
    "egress-only": """check()
    post {
        order: [EthHdr => Ipv6Hdr => Icmpv6PktTooBig<Ipv6Hdr>],
        checks: [(payload_len[Ipv6Hdr], <, 1240)]
    }""",
}


@pytest.mark.parametrize("text", ONE_PHASE_CONTRACTS.values(), ids=list(ONE_PHASE_CONTRACTS))
def test_a_one_phase_contract_runs_as_the_one_packet_api(registry, text):
    # without an ingress phase, egress runs on every output that differs
    # from its input
    contract = elaborate(parse_contract_spec(text, nf_name="mtu-too-big"), registry)
    nf = NetworkFunction("mtu-too-big", send_too_big, contract)
    summary = run_records(nf, MUTANTS + CLEAN, registry)
    expected = _one_packet_at_a_time(nf, MUTANTS + CLEAN, "continue")
    assert _as_one_packet_at_a_time(summary) == expected
    violations, *_, checks_evaluated = expected
    assert violations and checks_evaluated


def test_production_never_generates_a_phase(registry, monkeypatch):
    generated = []

    def generate(phase):
        generated.append(phase.name)
        return real(phase)

    real = contracts._generate
    monkeypatch.setattr(contracts, "_generate", generate)
    for nf_name, options in VARIANTS.values():
        nf = make_nf(nf_name, registry, **options)
        phases = (nf.contract.ingress, nf.contract.egress)
        run_records(nf, MUTANTS, registry, runtime=ContractRuntime(BuildMode.PRODUCTION))
        assert generated == [] and not any("run" in vars(phase) for phase in phases)
    # the first Development packet generates both phases, once
    run_records(nf, MUTANTS, registry, runtime=ContractRuntime(BuildMode.DEVELOPMENT))
    assert generated == ["ingress", "egress"]
    assert all("run" in vars(phase) for phase in phases)


def test_building_a_variant_parses_no_contract_text(registry, monkeypatch):
    # every contract text is parsed through _Parser.parse_spec; the
    # catalog's texts were parsed once, at import
    parsed = []
    real = contracts._Parser.parse_spec

    def parse_spec(parser, nf_name):
        parsed.append(nf_name)
        return real(parser, nf_name)

    monkeypatch.setattr(contracts._Parser, "parse_spec", parse_spec)
    for nf_name, options in VARIANTS.values():
        make_nf(nf_name, registry, **options)
    assert parsed == []


@pytest.mark.parametrize("variant", VARIANTS)
def test_every_rewritten_packet_passes_its_ingress_walk(registry, variant):
    # egress runs only on outputs that differ from their input and only
    # with the ingress snapshot, so the NFs must rewrite nothing their
    # ingress walk refuses
    nf_name, options = VARIANTS[variant]
    nf = make_nf(nf_name, registry, **options)
    rewritten = 0
    for record in CLEAN + MUTANTS:
        result = nf.apply(Packet.from_bytes(record.data))
        if not result.dropped and result.packet.data != record.data:
            parse_chain(Packet.from_bytes(record.data), nf.contract.ingress.walk)
            rewritten += 1
    assert rewritten >= len(CLEAN) // 2
