"""Seeded mutation fuzz: generated tcp6 and srv6 packets, each flipped,
truncated or extended, through both NFs under every policy in both build
modes.

PAPER.md says a malformed packet can fail a check but never crash the
checker, and that Development and Production give the same output bytes.
Generated traffic alone only shows this for packets that parse.
"""

import random

import pytest

from pktcheck import BuildMode, ContractRuntime, GeneratorSpec, generate_records, make_nf
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


def _mutants() -> list[PcapRecord]:
    rng = random.Random(SEED)
    clean = generate_records(
        GeneratorSpec(count=40, template="tcp6", payload_len=(1200, 1500), seed=SEED)
    ) + generate_records(
        GeneratorSpec(count=40, template="srv6", payload_len=(24, 200), seed=SEED)
    )
    data = [_mutate(record.data, rng) for record in clean for _ in range(3)]
    return [PcapRecord(data=raw, ts_usec=index) for index, raw in enumerate(data)]


MUTANTS = _mutants()


def _out(summary):
    return [(record.ts_usec, record.data) for record in summary.out_records]


@pytest.mark.parametrize(
    "nf_name, options",
    [
        ("mtu-too-big", {}),
        ("mtu-too-big", {"omit_ipv6_swap": True}),
        ("srv6-change-pkt", {}),
        ("srv6-change-pkt", {"omit_payload_len_update": True}),
    ],
    ids=["mtu", "mtu-no-swap", "srv6", "srv6-stale-length"],
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
