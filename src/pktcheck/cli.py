"""Command-line harness.

Subcommands:

``run``      stream packets (pcap or generated) through an NF with contracts
``gen``      write a deterministic synthetic pcap
``bench``    time ingress-contract / transform / egress-contract phases
``explain``  print an NF's elaborated contract

Exit codes: 0 = clean run, 1 = contract violations occurred, 2 =
configuration or elaboration error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .engine import POLICIES, BuildMode
from .exceptions import PktCheckError
from .generator import TEMPLATES, GeneratorSpec, generate_records
from .nfs import CATALOG, make_nf
from .contracts import explain_contract
from .pcap import read_pcap, write_pcap
from .pipeline import RunConfig, bench, run_pipeline


def _add_generator_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--count", type=int, default=100,
                        help="number of packets to generate (default %(default)s)")
    parser.add_argument("--seed", type=int, default=GeneratorSpec.seed,
                        help="generator seed (default %(default)s)")
    parser.add_argument("--template", choices=TEMPLATES, default=GeneratorSpec.template,
                        help="packet template (default %(default)s)")
    parser.add_argument("--payload-len", nargs="+", type=int, metavar="N",
                        default=GeneratorSpec.payload_len,
                        help="IPv6 payload length, or LO HI for a random one in that "
                             "range (default %(default)s)")


def _generator_spec(args) -> GeneratorSpec:
    payload = args.payload_len  # the default, or the one or two values given
    if isinstance(payload, list):
        payload = payload[0] if len(payload) == 1 else tuple(payload)
    return GeneratorSpec(
        count=args.count,
        template=args.template,
        payload_len=payload,
        seed=args.seed,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pktcheck",
        description="Contract-checked packet processing harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run packets through an NF")
    run_p.add_argument("--nf", required=True, choices=sorted(CATALOG))
    run_p.add_argument("--in", dest="input_path",
                       help="input pcap (omit to use the generator flags)")
    run_p.add_argument("--out", dest="output_path", help="output pcap path")
    run_p.add_argument("--mode", choices=[mode.value for mode in BuildMode],
                       default=RunConfig.mode.value)
    run_p.add_argument("--policy", choices=POLICIES, default=RunConfig.policy)
    run_p.add_argument("--format", choices=("text", "json"), default="text")
    _add_generator_flags(run_p)

    gen_p = sub.add_parser("gen", help="generate a synthetic pcap")
    gen_p.add_argument("--out", dest="output_path", required=True)
    _add_generator_flags(gen_p)

    bench_p = sub.add_parser("bench", help="benchmark contract overhead")
    bench_p.add_argument("--nf", required=True, choices=sorted(CATALOG))
    bench_p.add_argument("--in", dest="input_path",
                         help="input pcap (omit to use the generator flags)")
    bench_p.add_argument("--reps", type=int, default=1,
                         help="repetitions per measurement (default %(default)s)")
    bench_p.add_argument("--format", choices=("text", "json"), default="text")
    _add_generator_flags(bench_p)

    explain_p = sub.add_parser("explain", help="print an NF's elaborated contract")
    explain_p.add_argument("--nf", required=True, choices=sorted(CATALOG))

    return parser


def _cmd_run(args) -> int:
    config = RunConfig(
        nf_name=args.nf,
        input_path=args.input_path,
        generator=None if args.input_path else _generator_spec(args),
        output_path=args.output_path,
        mode=BuildMode(args.mode),
        policy=args.policy,
    )
    summary = run_pipeline(config)
    if args.format == "json":
        print(json.dumps(summary.to_json(), indent=2))
    else:
        for violation in summary.violations:
            print(violation.text())
        for index, reason in summary.drops:
            print(f"packet {index} dropped by transform: {reason}")
        print(
            f"{summary.nf_name}: in={summary.packets_in} "
            f"out={summary.packets_out} dropped={summary.packets_dropped} "
            f"violations={len(summary.violations)} mode={summary.mode.value} "
            f"policy={summary.policy}"
        )
        if summary.aborted:
            print("run aborted at first violating packet")
    return summary.exit_code()


def _cmd_gen(args) -> int:
    records = generate_records(_generator_spec(args))
    write_pcap(args.output_path, records)
    print(f"wrote {len(records)} packets to {args.output_path}")
    return 0


def _cmd_bench(args) -> int:
    if args.input_path:
        records = read_pcap(args.input_path)
    else:
        records = generate_records(_generator_spec(args))
    report = bench(args.nf, records, repetitions=args.reps)
    if args.format == "json":
        print(json.dumps(report, indent=2))
    else:
        print(f"bench {report['nf']}: {report['packets']} packets x "
              f"{report['repetitions']} repetitions")
        for phase, stats in report["phases"].items():
            print(f"  {phase:22s} mean={stats['mean_ns']:14.0f} ns  "
                  f"stdev={stats['stdev_ns']:12.0f} ns")
        on = report["contracts_on_total_ns"]["mean_ns"]
        off = report["contracts_off_total_ns"]["mean_ns"]
        share = report["ingress_share_of_contract_overhead"]
        print(f"  contracts on  total    mean={on:14.0f} ns")
        print(f"  contracts off total    mean={off:14.0f} ns")
        print(f"  ingress share of contract overhead: {share:.1%}")
        for mode, latency in report["latency_us"].items():
            print(f"  {mode:4s} closed-loop latency p50={latency['p50']:.2f} us  "
                  f"p99={latency['p99']:.2f} us")
    return 0


def _cmd_explain(args) -> int:
    nf = make_nf(args.nf)
    print(explain_contract(nf.contract))
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "gen": _cmd_gen,
    "bench": _cmd_bench,
    "explain": _cmd_explain,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (PktCheckError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
