import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from pktcheck import (
    GeneratorSpec,
    PcapRecord,
    generate_records,
    read_pcap,
    write_pcap,
)
from pktcheck.cli import _generator_spec, build_parser, main


def test_gen_writes_parseable_pcap(tmp_path, capsys, registry):
    out = tmp_path / "gen.pcap"
    code = main(
        ["gen", "--out", str(out), "--count", "5", "--payload-len", "1300",
         "--seed", "11"]
    )
    assert code == 0
    assert f"wrote 5 packets to {out}" in capsys.readouterr().out
    records = read_pcap(out)
    assert len(records) == 5
    assert all(len(r.data) == 14 + 40 + 1300 for r in records)


def test_gen_payload_length_range(tmp_path, capsys):
    out = tmp_path / "gen.pcap"
    code = main(
        ["gen", "--out", str(out), "--count", "20", "--template", "srv6",
         "--payload-len", "100", "200", "--seed", "3"]
    )
    assert code == 0
    records = read_pcap(out)
    assert records == generate_records(
        GeneratorSpec(count=20, template="srv6", payload_len=(100, 200), seed=3)
    )
    assert all(14 + 40 + 100 <= len(r.data) <= 14 + 40 + 200 for r in records)
    assert len({len(r.data) for r in records}) > 1


def test_run_clean_stream_exits_zero(capsys):
    code = main(
        ["run", "--nf", "mtu-too-big", "--count", "4", "--payload-len", "1300"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "in=4 out=4 dropped=0 violations=0 mode=dev policy=continue" in out


def test_run_json_output(capsys):
    code = main(
        ["run", "--nf", "mtu-too-big", "--count", "3", "--payload-len", "1300",
         "--format", "json"]
    )
    assert code == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["packets_in"] == 3
    assert blob["violations"] == []
    assert blob["mode"] == "dev"


def test_run_violations_exit_one(capsys):
    # tcp6 packets into the SRv6 NF: every packet breaks the ingress
    # header-order expectation
    code = main(
        ["run", "--nf", "srv6-change-pkt", "--count", "2", "--template", "tcp6",
         "--payload-len", "100"]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "[ingress#order]" in out
    assert "violations=2" in out


def test_run_text_output_gives_the_reason_of_each_order_violation(capsys):
    code = main(
        ["run", "--nf", "srv6-change-pkt", "--count", "2", "--template", "tcp6",
         "--payload-len", "100"]
    )
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert lines[:2] == [
        f"NF srv6-change-pkt [ingress#order] order mismatch at index 2: Ipv6Hdr "
        f"next_header=0x6 does not announce Srv6RoutingHdr (protocol 0x2b) "
        f"(packet {index})"
        for index in range(2)
    ]


def test_run_prod_mode_reports_no_violations(capsys):
    code = main(
        ["run", "--nf", "srv6-change-pkt", "--count", "2", "--template", "tcp6",
         "--payload-len", "100", "--mode", "prod", "--format", "json"]
    )
    assert code == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["violations"] == []
    assert blob["snapshots_built"] == 0
    assert blob["checks_evaluated"] == 0


def test_run_writes_output_pcap(tmp_path, capsys):
    out = tmp_path / "replies.pcap"
    code = main(
        ["run", "--nf", "mtu-too-big", "--count", "3", "--payload-len", "1300",
         "--out", str(out)]
    )
    assert code == 0
    records = read_pcap(out)
    assert len(records) == 3
    assert all(len(r.data) == 1294 for r in records)  # Eth + IPv6 + 1240


def test_run_text_output_names_each_transform_drop(tmp_path, capsys):
    # an SRv6 packet whose IPv6 payload length claims 0xFFF8 bytes: one more
    # segment would overflow the field, so srv6-change-pkt drops it
    clean, grown = generate_records(GeneratorSpec(count=2, template="srv6",
                                                payload_len=100))
    near_max = bytearray(grown.data)
    near_max[18:20] = (0xFFF8).to_bytes(2, "big")
    in_path = tmp_path / "in.pcap"
    write_pcap(in_path, [clean, PcapRecord(bytes(near_max), 0, 1)])
    code = main(["run", "--nf", "srv6-change-pkt", "--in", str(in_path)])
    assert code == 0
    assert capsys.readouterr().out.splitlines() == [
        "packet 1 dropped by transform: IPv6 payload length 65528 cannot grow by 16 "
        "bytes within its 16-bit field",
        "srv6-change-pkt: in=2 out=1 dropped=1 violations=0 mode=dev policy=continue",
    ]


def test_run_text_output_says_the_run_aborted(capsys):
    # 100-byte payloads fail mtu-too-big's ingress check, the first one ends
    # the run
    code = main(
        ["run", "--nf", "mtu-too-big", "--count", "3", "--payload-len", "100",
         "--policy", "abort"]
    )
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert len(lines) == 3
    assert lines[0].startswith("NF mtu-too-big [ingress#0] ")
    assert lines[1:] == [
        "mtu-too-big: in=1 out=0 dropped=1 violations=1 mode=dev policy=abort",
        "run aborted at first violating packet",
    ]


def test_run_missing_input_exits_two(capsys):
    code = main(["run", "--nf", "mtu-too-big", "--in", "/nonexistent.pcap"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_run_truncated_input_exits_two_without_output(tmp_path, capsys):
    # the reader is lazy, so the damage surfaces only after earlier records
    # have run; the run must still fail as a whole and write nothing
    in_path, out_path = tmp_path / "in.pcap", tmp_path / "out.pcap"
    assert main(["gen", "--out", str(in_path), "--count", "3"]) == 0
    in_path.write_bytes(in_path.read_bytes()[:-1])
    code = main(
        ["run", "--nf", "mtu-too-big", "--in", str(in_path), "--out", str(out_path)]
    )
    assert code == 2
    assert "truncated record 2" in capsys.readouterr().err
    assert not out_path.exists()


def test_run_can_write_over_its_own_input(tmp_path, capsys):
    in_path, other = tmp_path / "in.pcap", tmp_path / "other.pcap"
    assert main(["gen", "--out", str(in_path), "--count", "4"]) == 0
    for out in (other, in_path):
        assert main(["run", "--nf", "mtu-too-big", "--in", str(in_path),
                     "--out", str(out)]) == 0
    assert in_path.read_bytes() == other.read_bytes()
    assert len(read_pcap(in_path)) == 4


def test_gen_invalid_spec_exits_two(tmp_path, capsys):
    code = main(
        ["gen", "--out", str(tmp_path / "x.pcap"), "--count", "2",
         "--payload-len", "70000"]
    )
    assert code == 2
    assert "16-bit" in capsys.readouterr().err


def test_bench_json(capsys):
    code = main(
        ["bench", "--nf", "mtu-too-big", "--count", "30", "--payload-len",
         "1300", "--reps", "2", "--format", "json"]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["packets"] == 30
    assert report["repetitions"] == 2
    assert 0.0 < report["ingress_share_of_contract_overhead"] < 1.0
    assert set(report["latency_us"]) == {"dev", "prod"}


def test_bench_reads_its_input_pcap(tmp_path, capsys):
    in_path = tmp_path / "in.pcap"
    assert main(["gen", "--out", str(in_path), "--count", "7", "--seed", "2"]) == 0
    capsys.readouterr()
    # the generator flags would make 30 packets; the input has 7
    code = main(["bench", "--nf", "mtu-too-big", "--in", str(in_path), "--count", "30",
                 "--format", "json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["packets"] == 7


def test_bench_text(capsys):
    code = main(["bench", "--nf", "mtu-too-big", "--count", "10"])
    assert code == 0
    out = capsys.readouterr().out
    assert "ingress share of contract overhead" in out
    assert "dev  closed-loop latency p50=" in out
    assert "prod closed-loop latency p50=" in out


def test_bench_of_no_packets(capsys):
    assert main(["bench", "--nf", "mtu-too-big", "--count", "0", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["packets"] == 0
    assert report["ingress_share_of_contract_overhead"] == 0.0


def test_explain_prints_contract(capsys):
    assert main(["explain", "--nf", "mtu-too-big"]) == 0
    out = capsys.readouterr().out
    assert "mtu-too-big" in out
    assert "EthHdr => Ipv6Hdr => Icmpv6PktTooBig<Ipv6Hdr>" in out
    assert "(payload_len[Ipv6Hdr], ==, 1240)" in out
    assert "IPV6_MIN_MTU = 1280" in out


def test_module_runs_as_the_cli(capsys):
    assert main(["explain", "--nf", "mtu-too-big"]) == 0
    expected = capsys.readouterr().out
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    result = subprocess.run(
        [sys.executable, "-m", "pktcheck.cli", "explain", "--nf", "mtu-too-big"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, expected, "")


def test_unknown_nf_rejected_by_argparse(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--nf", "bogus", "--count", "1"])
    assert excinfo.value.code == 2


def _readme_commands() -> list[str]:
    """Every ``pktcheck ...`` line of README.md's fenced code blocks."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", readme, re.M | re.S)
    return [line.strip() for block in blocks for line in block.splitlines()
            if line.strip().startswith("pktcheck ")]


def test_every_readme_command_parses():
    # a removed or renamed flag cannot leave the README stale
    commands = _readme_commands()
    assert {shlex.split(c)[1] for c in commands} == {"run", "gen", "bench", "explain"}
    for command in commands:
        try:
            args = build_parser().parse_args(shlex.split(command, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {command}")
        if args.command != "explain":
            _generator_spec(args)  # the generator flags make a GeneratorSpec
