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

import pytest

from pktcheck import (
    BuildMode,
    ContractRuntime,
    GeneratorSpec,
    Packet,
    build_snapshot,
    generate_records,
    make_nf,
    parse_chain,
)
from pktcheck import contracts
from pktcheck.pcap import PcapRecord
from pktcheck.pipeline import POLICIES, run_records

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
    "srv6": ("srv6-change-pkt", {}),
    "srv6-stale-length": ("srv6-change-pkt", {"omit_payload_len_update": True}),
}

#: sha256 of each variant's Production output over MUTANTS then CLEAN,
#: hashed by ``_digest``. Any change to these means some output byte moved.
OUTPUT_DIGESTS = {
    "mtu": "4b36098d40ace800845dfe0a4c713a6d2d3bf35e6a5dc7f7920ea90ba95639f0",
    "mtu-no-swap": "0a1944ce59fa6da589c48675c5c795c74682233f121e89c1b4e0c7ab37ec7d3d",
    "srv6": "72014380afbae9d31f884837605fa165007c224252f8e99baa2c0a80d0d87aa2",
    "srv6-stale-length": "9bc5538bfbe944454bd8b2f679d71bf2ee072637885838d8d269de32d2c3d303",
}

#: sha256 of each variant's Development ``continue`` violations over MUTANTS
#: then CLEAN, as the JSON list of their ``to_json()``. Any change to these
#: means some violation, or a byte of its JSON, moved.
VIOLATION_DIGESTS = {
    "mtu": "b6810a44f126a2cb195cef086324dde65e98d8253a1ae0db91a82a8445bcea48",
    "mtu-no-swap": "a76d854f3b476c989df05538ba3a6a2511db4c93e42cb9f07ff3fccaa447f615",
    "srv6": "3e645c8a4b62bb558c21cc59d7a599af7487d5f89925a639d8bf2630e16f62a1",
    "srv6-stale-length": "9f4c9717daafbc4de7cc9f5c79cdc1abdec3314cfb380355e098392a24bf0b05",
}


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
    blob = json.dumps([violation.to_json() for violation in summary.violations])
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


def test_production_never_generates_a_phase(registry, monkeypatch):
    generated = []

    def generate(contract):
        generated.append(contract.nf_name)
        return real(contract)

    real = contracts._generate_phases
    monkeypatch.setattr(contracts, "_generate_phases", generate)
    for nf_name, options in VARIANTS.values():
        nf = make_nf(nf_name, registry, **options)
        run_records(nf, MUTANTS, registry, runtime=ContractRuntime(BuildMode.PRODUCTION))
        assert generated == [] and "phases" not in vars(nf.contract)
    # the first Development packet generates both phases, once
    run_records(nf, MUTANTS, registry, runtime=ContractRuntime(BuildMode.DEVELOPMENT))
    assert generated == [nf.name] and "phases" in vars(nf.contract)


@pytest.mark.parametrize("variant", VARIANTS)
def test_every_rewritten_packet_passes_its_ingress_walk(registry, variant):
    # egress runs only on rewritten packets and only with the ingress
    # snapshot, so the NFs must rewrite nothing their ingress walk refuses
    nf_name, options = VARIANTS[variant]
    nf = make_nf(nf_name, registry, **options)
    rewritten = 0
    for record in CLEAN + MUTANTS:
        result = nf.apply(Packet.from_bytes(record.data))
        if result.rewritten and not result.dropped:
            packet = Packet.from_bytes(record.data)
            build_snapshot(packet, *parse_chain(packet, nf.contract.ingress_walk))
            rewritten += 1
    assert rewritten >= len(CLEAN) // 2
