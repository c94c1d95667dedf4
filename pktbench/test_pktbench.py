"""The benchmark's own tests: the tracer, the correctness gate and the
metric names promised in BENCHMARK.json.

    python3 -m pytest pktbench
"""

import json
import sys
import types
from pathlib import Path

import pytest

import layers
import measure
import run
from pktcheck import engine, headers, pcap, pipeline, registry
from tracing import Tracer
from workloads import WORKLOADS, output_ok

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


@pytest.fixture
def fake_package(monkeypatch):
    """fakepkg.inner.leaf() and fakepkg.outer.trunk(), where trunk calls the
    leaf it imported by name."""
    inner = types.ModuleType("fakepkg.inner")
    exec("def leaf():\n    return sum(range(1000))\n", inner.__dict__)
    outer = types.ModuleType("fakepkg.outer")
    outer.leaf = inner.leaf
    exec("def trunk():\n    return leaf() + leaf()\n", outer.__dict__)
    monkeypatch.setitem(sys.modules, "fakepkg", types.ModuleType("fakepkg"))
    monkeypatch.setitem(sys.modules, "fakepkg.inner", inner)
    monkeypatch.setitem(sys.modules, "fakepkg.outer", outer)
    return inner, outer


def test_missing_targets_are_reported_absent_not_fatal(fake_package):
    inner, outer = fake_package
    tracer = Tracer(targets=(
        ("leaf", "fakepkg.inner", "leaf"),
        ("gone.function", "fakepkg.inner", "deleted_by_a_refactor"),
        ("gone.module", "fakepkg.deleted_module", "anything"),
        ("gone.method", "pktcheck.headers", "Packet.deleted_method"),
        ("gone.class", "pktcheck.headers", "DeletedClass.emit"),
    ))
    with tracer.installed():
        with tracer.traced_pass("p"):
            outer.trunk()
    stats = tracer.stats(0)
    assert stats.calls["leaf"] == 2
    assert stats.calls["gone.function"] == 0
    assert tracer.absent == [
        "fakepkg.inner.deleted_by_a_refactor",
        "fakepkg.deleted_module.anything",
        "pktcheck.headers.Packet.deleted_method",
        "pktcheck.headers.DeletedClass.emit",
    ]


def test_self_time_is_duration_minus_children(fake_package):
    inner, outer = fake_package
    tracer = Tracer(targets=(
        ("leaf", "fakepkg.inner", "leaf"),
        ("trunk", "fakepkg.outer", "trunk"),
    ))
    with tracer.installed():
        with tracer.traced_pass("p"):
            outer.trunk()
    stats = tracer.stats(0)
    assert stats.calls == {"trunk": 1, "leaf": 2}
    assert stats.self_ns["trunk"] == stats.incl_ns["trunk"] - stats.incl_ns["leaf"]
    assert stats.self_ns["leaf"] == stats.incl_ns["leaf"]
    assert list(tracer.parent) == [-1, 0, 0]


def test_uninstall_restores_every_binding():
    originals = (registry.parse_chain, headers.Packet.__dict__["from_bytes"],
                 headers.Packet.parse_header, pipeline.run_ingress, pipeline.time)
    with Tracer().installed():
        assert engine.run_ingress is not originals[3]
        assert pipeline.run_ingress is engine.run_ingress
    assert (registry.parse_chain, headers.Packet.__dict__["from_bytes"],
            headers.Packet.parse_header, pipeline.run_ingress, pipeline.time) == originals
    assert engine.run_ingress is originals[3]


def _paths(tmp_path, packets=200):
    return run.Paths(work=tmp_path, spans=tmp_path / "spans.csv",
                     packets=packets, trace_packets=packets)


def test_traced_prod_elides_contracts_and_spans_carry_packet_ordinals(tmp_path):
    metrics, gate, absent = layers.per_layer(
        WORKLOADS["mtu-oversize"], seed=5, seconds=0.01, paths=_paths(tmp_path, 50))
    assert absent == []
    assert gate.failed == 0
    for name in ("prod.registry.parse_chain_calls", "prod.engine.eval_check_calls",
                 "prod.snapshots_built", "prod.checks_evaluated"):
        assert metrics[name][0] == 0
    lines = (tmp_path / "spans.csv").read_text().splitlines()
    assert lines[0] == "pass,span,name,parent,packet,start_ns,end_ns"
    dev_packets = {int(line.split(",")[4]) for line in lines[1:]
                   if line.startswith("dev,") and ",nfs.apply," in line}
    assert dev_packets == set(range(50))


def test_metric_names_match_benchmark_json(tmp_path):
    promised = json.loads(BENCHMARK_JSON.read_text())
    workload = WORKLOADS["mtu-small"]
    # 1000 packets: the smallest latency window with 10 samples beyond p99
    e2e, gate = measure.end_to_end(workload, seed=2, seconds=0.01, paths=_paths(tmp_path, 1000))
    assert gate.failed == 0 and gate.attempted > 0
    assert list(e2e) == [m["name"] for m in promised["end_to_end"]]
    assert all(value > 0 for value, _, _ in e2e.values())
    per_layer, _, _ = layers.per_layer(workload, seed=2, seconds=0.01, paths=_paths(tmp_path))
    assert list(per_layer) == [m["name"] for m in promised["per_layer"]]
    units = {m["name"]: m["unit"] for m in promised["end_to_end"] + promised["per_layer"]}
    assert all(units[name] == unit for name, (_, unit, _) in {**e2e, **per_layer}.items())
    assert [w["name"] for w in promised["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in promised["workloads"]] == [w.why for w in WORKLOADS.values()]


def test_a_raising_path_counts_as_failed_packets_not_a_crash(tmp_path, monkeypatch):
    def broken_run_pipeline(config, registry=None):
        raise RuntimeError("broken")

    monkeypatch.setattr(pipeline, "run_pipeline", broken_run_pipeline)
    workload = WORKLOADS["srv6-insert"]
    # one warm-up and one traced round: bare passes, untraced and traced prod/dev fail
    metrics, gate, _ = layers.per_layer(workload, seed=3, seconds=0.01, paths=_paths(tmp_path, 40))
    assert (gate.attempted, gate.failed) == (6 * 40, 4 * 40)
    assert metrics["engine.eval_check_calls_per_pkt"] == (0.0, "calls/pkt", 0)
    e2e, gate = measure.end_to_end(workload, seed=3, seconds=0.01, paths=_paths(tmp_path, 40))
    assert gate.failed == 2 * 40 * (1 + measure.MIN_ROUNDS)
    assert e2e["prod_pps"][0] == e2e["dev_pps"][0] == 0.0
    assert e2e["bare_pps"][0] > 0 and e2e["dev_lat_p50_us"][0] > 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_oracle_accepts_the_nf_output_and_rejects_a_flipped_byte(tmp_path, name):
    workload = WORKLOADS[name]
    records = workload.records(seed=9, count=20)
    pcap.write_pcap(tmp_path / "in.pcap", records)
    nf = measure.nfs.make_nf(workload.nf, registry.standard_registry())
    measure.bare_pass(nf, tmp_path / "in.pcap", tmp_path / "out.pcap")
    outputs = [r.data for r in pcap.read_pcap(tmp_path / "out.pcap")]
    assert all(output_ok(workload, r.data, out) for r, out in zip(records, outputs))
    for position in (0, 15, 20, len(outputs[0]) - 1):
        broken = bytearray(outputs[0])
        broken[position] ^= 0x01
        assert not output_ok(workload, records[0].data, bytes(broken))


def test_gate_counts_each_wrong_packet(tmp_path):
    workload = WORKLOADS["mtu-small"]
    records = workload.records(seed=4, count=10)
    gate = measure.Gate(workload, records)
    pcap.write_pcap(tmp_path / "ref.pcap", records)
    gate.set_reference(tmp_path / "ref.pcap")
    wrong = list(records)
    wrong[3] = pcap.PcapRecord(data=records[3].data[:-1])
    pcap.write_pcap(tmp_path / "out.pcap", wrong[:-1])  # one altered, one missing
    assert gate.check_pass(tmp_path / "out.pcap") == 2
    assert (gate.attempted, gate.failed) == (10, 2)
