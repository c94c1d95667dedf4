import json

import pytest

from pktcheck import read_pcap
from pktcheck.cli import main


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


def test_bench_text(capsys):
    code = main(["bench", "--nf", "mtu-too-big", "--count", "10"])
    assert code == 0
    out = capsys.readouterr().out
    assert "ingress share of contract overhead" in out


def test_explain_prints_contract(capsys):
    assert main(["explain", "--nf", "mtu-too-big"]) == 0
    out = capsys.readouterr().out
    assert "mtu-too-big" in out
    assert "EthHdr => Ipv6Hdr => Icmpv6PktTooBig<Ipv6Hdr>" in out
    assert "(payload_len[Ipv6Hdr], ==, 1240)" in out
    assert "IPV6_MIN_MTU = 1280" in out


def test_unknown_nf_rejected_by_argparse(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--nf", "bogus", "--count", "1"])
    assert excinfo.value.code == 2
