import time
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pktcheck.headers as headers_module
import pktcheck.pipeline as pipeline_module
import pktcheck.registry as registry_module
from pktcheck import (
    BuildMode,
    ChainOrderError,
    ConfigError,
    ContractRuntime,
    GeneratorSpec,
    NetworkFunction,
    Packet,
    PcapError,
    PcapRecord,
    RunConfig,
    TransformResult,
    bench,
    elaborate,
    generate_records,
    make_nf,
    parse_contract_spec,
    pcap_bytes,
    read_pcap,
    run_pipeline,
    run_records,
    write_pcap,
)
from pktcheck.nfs import MTU_TOO_BIG_CONTRACT
from pktcheck.pcap import iter_pcap
from pktcheck.pipeline import POLICIES
from pktcheck.registry import parse_chain

from oracles import build_tcp6_bytes


def _mixed_records(n_big=4, n_small=3):
    records = [
        PcapRecord(data=build_tcp6_bytes(payload_len=1300 + i), ts_usec=i)
        for i in range(n_big)
    ]
    records += [
        PcapRecord(data=build_tcp6_bytes(payload_len=100 + i), ts_usec=100 + i)
        for i in range(n_small)
    ]
    return records


def _untimed(summary):
    return {k: v for k, v in summary.to_json().items() if k != "timings"}


def test_clean_run_counts(registry):
    nf = make_nf("mtu-too-big", registry)
    summary = run_records(nf, _mixed_records(n_big=7, n_small=0), registry)
    assert summary.packets_in == 7
    assert summary.packets_out == 7
    assert summary.packets_dropped == 0
    assert summary.violations == []
    assert summary.exit_code() == 0
    # one ingress check per packet, plus six egress checks per rewrite
    assert summary.checks_evaluated == 7 * 1 + 7 * 6
    assert summary.snapshots_built == 7


def test_reused_runtime_reports_each_runs_own_counts(registry):
    # RunSummary describes one run, so a runtime shared by two runs must not
    # carry the first run's counts into the second's summary
    nf = make_nf("mtu-too-big", registry)
    runtime = ContractRuntime(BuildMode.DEVELOPMENT)
    records = _mixed_records(n_big=3, n_small=0)
    first = run_records(nf, records, registry, runtime=runtime)
    second = run_records(nf, records, registry, runtime=runtime)
    assert (first.snapshots_built, first.checks_evaluated) == (3, 21)
    assert (second.snapshots_built, second.checks_evaluated) == (3, 21)
    assert (runtime.snapshots_built, runtime.checks_evaluated) == (6, 42)


def test_a_run_that_raises_mid_stream_keeps_the_counts_it_made(tmp_path, registry):
    # a pcap cut inside its 4th record raises only once 3 packets are
    # through, and the shared runtime must count exactly those 3
    nf = make_nf("mtu-too-big", registry)
    runtime = ContractRuntime(BuildMode.DEVELOPMENT)
    run_records(nf, _mixed_records(n_big=2, n_small=0), registry, runtime=runtime)
    assert (runtime.snapshots_built, runtime.checks_evaluated) == (2, 14)
    path = tmp_path / "cut.pcap"
    path.write_bytes(pcap_bytes(_mixed_records(n_big=4, n_small=0))[:-1])
    with pytest.raises(PcapError, match="truncated record 3"):
        run_records(nf, iter_pcap(path), registry, runtime=runtime)
    assert (runtime.snapshots_built, runtime.checks_evaluated) == (2 + 3, 14 + 3 * 7)


def test_small_packets_violate_the_ingress_precondition(registry):
    # the NF's ingress phase asserts payload_len > 1280: packets below the
    # threshold are flagged at ingress (the fault lies upstream, not in the
    # transform, which passes them through unmodified)
    nf = make_nf("mtu-too-big", registry)
    summary = run_records(nf, _mixed_records(n_big=4, n_small=3), registry)
    assert summary.packets_out == 7  # continue policy still emits them
    assert len(summary.violations) == 3
    assert summary.violations_by_check == {"ingress#0": 3}
    assert all(v.phase == "ingress" for v in summary.violations)
    assert {v.packet_index for v in summary.violations} == {4, 5, 6}


def test_conservation_under_policies(registry):
    bad = make_nf("mtu-too-big", registry, omit_ipv6_swap=True)
    records = _mixed_records()
    for policy in ("continue", "drop", "abort"):
        summary = run_records(bad, records, registry, policy=policy)
        assert summary.packets_in == summary.packets_out + summary.packets_dropped


def test_policy_continue_emits_everything(registry):
    bad = make_nf("mtu-too-big", registry, omit_ipv6_swap=True)
    records = _mixed_records(n_big=4, n_small=0)
    summary = run_records(bad, records, registry, policy="continue")
    assert summary.packets_out == 4
    assert len(summary.violations) == 4 * 2
    assert summary.violations_by_check == {"egress#2": 4, "egress#3": 4}
    assert summary.exit_code() == 1


def test_policy_drop_withholds_violators(registry):
    # drop applies to any violating packet, whichever phase flagged it:
    # undersized inputs break the ingress precondition and are withheld
    good = make_nf("mtu-too-big", registry)
    summary = run_records(good, _mixed_records(), registry, policy="drop")
    assert summary.packets_dropped == 3
    assert summary.packets_out == 4
    assert not summary.aborted

    bad = make_nf("mtu-too-big", registry, omit_ipv6_swap=True)
    summary = run_records(
        bad, _mixed_records(n_big=4, n_small=0), registry, policy="drop"
    )
    assert summary.packets_dropped == 4
    assert summary.packets_out == 0


def test_policy_abort_stops_at_first_violation(registry):
    bad = make_nf("mtu-too-big", registry, omit_ipv6_swap=True)
    summary = run_records(bad, _mixed_records(), registry, policy="abort")
    assert summary.aborted
    assert summary.packets_in == 1               # stopped inside packet 0
    assert summary.packets_dropped == 1          # the violating packet is not emitted
    assert summary.packets_out == 0
    assert {v.packet_index for v in summary.violations} == {0}


def test_run_records_rejects_unknown_policy(registry):
    nf = make_nf("mtu-too-big", registry)
    with pytest.raises(ConfigError, match="unknown policy"):
        run_records(nf, _mixed_records(), registry, policy="panic")


@pytest.mark.parametrize("policy", ["continue", "drop", "abort"])
def test_streamed_pcap_matches_loaded_pcap(tmp_path, registry, policy):
    path = tmp_path / "in.pcap"
    write_pcap(path, _mixed_records())
    bad = make_nf("mtu-too-big", registry, omit_eth_swap=True)
    loaded = run_records(bad, read_pcap(path), registry, policy=policy)

    pulled = []

    def counted():
        for record in iter_pcap(path):
            pulled.append(record)
            yield record

    streamed = run_records(bad, counted(), registry, policy=policy)

    assert _untimed(streamed) == _untimed(loaded)
    assert streamed.out_records == loaded.out_records
    if policy == "abort":
        # the first packet violates; nothing after it is read
        assert streamed.aborted and len(pulled) == 1
    else:
        assert len(pulled) == 7


def test_failed_ingress_order_is_the_one_root_cause(registry):
    # an ingress order no tcp6 packet matches, on a transform that rewrites
    # every oversized packet: each packet gets its order violation and
    # nothing more, as egress has no snapshot to compare against
    text = MTU_TOO_BIG_CONTRACT.replace(
        "order: [EthHdr => Ipv6Hdr => TcpHdr<Ipv6Hdr>]",
        "order: [EthHdr => Ipv6Hdr => Srv6RoutingHdr => TcpHdr<Ipv6Hdr>]",
    )
    nf = replace(
        make_nf("mtu-too-big", registry),
        contract=elaborate(parse_contract_spec(text, nf_name="mtu-too-big"), registry),
    )
    records = generate_records(GeneratorSpec(count=20, payload_len=1300, seed=5))
    summary = run_records(nf, records, registry)
    assert [(v.packet_index, v.phase, v.kind) for v in summary.violations] == [
        (index, "ingress", "order") for index in range(20)
    ]
    assert summary.violations_by_check == {"ingress#order": 20}
    assert summary.checks_evaluated == 0
    assert summary.snapshots_built == 0
    assert summary.packets_out == 20


@pytest.mark.parametrize("policy", ["continue", "drop"])
@pytest.mark.parametrize("fault, reason", [
    ("cut", "order mismatch at index 2: cannot parse Icmpv6PktTooBig: truncated "
            "ICMPv6 Packet Too Big header: need 8 bytes at offset 54, have 4"),
    ("mislinked", "order mismatch at index 2: Ipv6Hdr next_header=0x6 does not "
                  "announce Icmpv6PktTooBig (protocol 0x3a)"),
])
def test_a_reply_the_egress_walk_refuses_is_one_order_violation(registry, policy, fault,
                                                                 reason):
    # a transform on mtu-too-big's contract whose reply is cut inside the
    # ICMPv6 header, or whose IPv6 next_header announces TCP: each packet
    # gets the one egress order violation that parse_chain's error names
    correct = make_nf("mtu-too-big", registry)

    def broken(packet):
        reply = bytearray(correct.apply(packet).packet.data)
        if fault == "cut":
            del reply[58:]
        else:
            reply[20] = 6
        return TransformResult(Packet(reply))

    nf = replace(correct, transform=broken)
    records = generate_records(GeneratorSpec(count=6, payload_len=(1281, 1400), seed=9))
    summary = run_records(nf, records, registry, policy=policy)
    expected = []
    for index, record in enumerate(records):
        with pytest.raises(ChainOrderError) as excinfo:
            parse_chain(broken(Packet.from_bytes(record.data)).packet,
                        nf.contract.egress.walk)
        expected.append((index, "egress", "order", None, str(excinfo.value)))
    assert expected[0][-1] == reason
    assert [(v.packet_index, v.phase, v.kind, v.check_index, v.message)
            for v in summary.violations] == expected
    assert summary.violations_by_check == {"egress#order": 6}
    assert summary.checks_evaluated == 6  # the ingress check; egress evaluates none
    assert len(summary.out_records) == (0 if policy == "drop" else 6)


def _tampering(clean, in_place):
    """``clean`` wrapped so that each packet it passes through leaves with
    its IPv6 hop limit changed, in a new Packet or in the one it was given."""

    def tamper(packet):
        passed = clean.apply(packet).packet
        assert passed is packet
        data = packet.data if in_place else bytearray(packet.data)
        data[21] ^= 0x80  # Ipv6Hdr hop_limit
        return TransformResult(packet if in_place else Packet(data))

    return replace(clean, transform=tamper)


@pytest.mark.parametrize("in_place", [False, True], ids=["new-packet", "in-place"])
def test_a_tampered_pass_through_is_checked_at_egress(registry, in_place):
    # the loop, not the NF, decides which outputs egress checks: a wrapper
    # that changes the IPv6 hop limit of each packet mtu-too-big passes
    # through, in a new Packet or in the one it was given, reports no
    # rewrite, and each tampered packet still gets its egress order
    # violation after its ingress one
    clean = make_nf("mtu-too-big", registry)
    records = generate_records(GeneratorSpec(count=50, payload_len=(60, 1280), seed=3))
    reference = run_records(clean, records, registry)
    summary = run_records(_tampering(clean, in_place), records, registry)

    reason = ("order mismatch at index 2: Ipv6Hdr next_header=0x6 does not "
              "announce Icmpv6PktTooBig (protocol 0x3a)")
    assert [(v.packet_index, v.phase, v.check_index) for v in reference.violations] == [
        (index, "ingress", 0) for index in range(50)
    ]
    assert [(v.packet_index, v.phase, v.check_index) for v in summary.violations] == [
        (index, phase, check) for index in range(50)
        for phase, check in (("ingress", 0), ("egress", None))
    ]
    assert summary.violations[::2] == reference.violations
    assert {v.message for v in summary.violations[1::2]} == {reason}
    assert summary.violations_by_check == {"ingress#0": 50, "egress#order": 50}
    assert summary.packets_out == 50
    assert all(out.data != record.data
               for out, record in zip(summary.out_records, records))


@pytest.mark.parametrize("mode", [BuildMode.DEVELOPMENT, BuildMode.PRODUCTION])
def test_a_pass_through_is_emitted_as_its_input_record(registry, mode):
    # an output whose bytes equal its input's is not copied: the record the
    # caller passed in reaches the sink as itself, timestamps and all
    records = _mixed_records(n_big=0, n_small=6)
    nf = make_nf("mtu-too-big", registry)
    summary = run_records(nf, records, registry, runtime=ContractRuntime(mode))
    assert summary.packets_out == 6
    assert len(summary.violations) == (6 if mode is BuildMode.DEVELOPMENT else 0)
    assert all(out is record for out, record in zip(summary.out_records, records))


@pytest.mark.parametrize("mode", [BuildMode.DEVELOPMENT, BuildMode.PRODUCTION])
@pytest.mark.parametrize("nf_name, payload_len", [
    ("mtu-too-big", (1281, 1400)), ("srv6-change-pkt", (40, 400)),
])
def test_a_rewritten_packet_is_emitted_as_a_new_bytes_record(
    registry, mode, nf_name, payload_len
):
    template = "srv6" if nf_name == "srv6-change-pkt" else "tcp6"
    records = generate_records(
        GeneratorSpec(count=8, template=template, payload_len=payload_len, seed=11)
    )
    nf = make_nf(nf_name, registry)
    summary = run_records(nf, records, registry, runtime=ContractRuntime(mode))
    assert summary.violations == [] and summary.packets_out == 8
    for out, record in zip(summary.out_records, records):
        assert out is not record
        assert type(out.data) is bytes and out.data != record.data
        assert (out.ts_sec, out.ts_usec) == (record.ts_sec, record.ts_usec)
        assert out.data == bytes(nf.apply(Packet.from_bytes(record.data)).packet.data)


@pytest.mark.parametrize("mode", [BuildMode.DEVELOPMENT, BuildMode.PRODUCTION])
@pytest.mark.parametrize("in_place", [False, True], ids=["new-packet", "in-place"])
def test_a_tampered_pass_through_emits_the_tampered_bytes(registry, mode, in_place):
    # a transform that edits its input in place and returns it changed the
    # packet, so the loop must compare bytes, not test whether the output
    # is the packet it handed in, before it reuses the input record
    records = generate_records(GeneratorSpec(count=20, payload_len=(60, 1280), seed=5))
    nf = _tampering(make_nf("mtu-too-big", registry), in_place)
    summary = run_records(nf, records, registry, runtime=ContractRuntime(mode))
    expected = []
    for record in records:
        data = bytearray(record.data)
        data[21] ^= 0x80
        expected.append(bytes(data))
    assert [out.data for out in summary.out_records] == expected
    assert not any(out is record for out, record in zip(summary.out_records, records))


def test_tcp_reserved_bits_pass_both_phases(registry):
    # RFC 9293 reserves the 3 bits above NS; a packet that sets them is
    # still valid input, and the snapshot and the reply must keep them
    data = bytearray(build_tcp6_bytes(payload_len=1300))
    data[66] |= 0x0E
    nf = make_nf("mtu-too-big", registry)
    summary = run_records(nf, [PcapRecord(data=bytes(data))], registry)
    assert summary.violations == []
    assert summary.snapshots_built == 1
    assert summary.packets_out == 1
    # the reply quotes the invoking packet, reserved bits included
    assert bytes(data[14:100]) in summary.out_records[0].data


def _full_segment_list() -> bytes:
    """An Eth/IPv6/SRv6 packet whose routing header holds as many segments
    as its 8-bit length field allows."""
    from pktcheck.headers import EthHdr, Ipv6Hdr, Srv6RoutingHdr
    from pktcheck.nfs import MAX_SRV6_SEGMENTS

    srh = Srv6RoutingHdr(
        next_header=59,
        segments_left=0,
        segments=[bytes([i % 256]) * 16 for i in range(MAX_SRV6_SEGMENTS)],
    )
    body = srh.emit()
    ipv6 = Ipv6Hdr(
        src=bytes(16), dst=bytes(16), payload_len=len(body), next_header=43,
        hop_limit=64,
    )
    eth = EthHdr(dst=bytes(6), src=bytes(6), ether_type=0x86DD)
    return eth.emit() + ipv6.emit() + body


def test_transform_drops_are_not_violations(registry):
    # an SRv6 packet whose segment list is already full gets dropped by the
    # transform itself, with a reason, and without any contract violation
    nf = make_nf("srv6-change-pkt", registry)
    summary = run_records(nf, [PcapRecord(data=_full_segment_list())], registry)
    assert summary.packets_dropped == 1
    assert summary.violations == []
    assert len(summary.drops) == 1
    index, reason = summary.drops[0]
    assert index == 0
    assert reason.startswith("segment list full")


@pytest.mark.parametrize("policy", POLICIES)
def test_production_reports_the_transform_drops_development_does(registry, policy):
    # among generated srv6 traffic, a full segment list and an IPv6 payload
    # length that claims to be 8 short of 0xFFFF, so a new segment would
    # overflow it: srv6-change-pkt drops both, with their reasons
    records = generate_records(
        GeneratorSpec(count=6, template="srv6", payload_len=(24, 200), seed=12)
    )
    near_max = bytearray(records[0].data)
    near_max[18:20] = (0xFFFF - 8).to_bytes(2, "big")  # Ipv6Hdr payload_len
    records[2:2] = [PcapRecord(_full_segment_list(), ts_usec=2),
                    PcapRecord(bytes(near_max), ts_usec=3)]
    nf = make_nf("srv6-change-pkt", registry)
    dev, prod = (
        run_records(nf, records, registry, runtime=ContractRuntime(mode), policy=policy)
        for mode in (BuildMode.DEVELOPMENT, BuildMode.PRODUCTION)
    )
    assert dev.violations == [] and not dev.aborted
    assert [(r.ts_usec, r.data) for r in prod.out_records] == [
        (r.ts_usec, r.data) for r in dev.out_records
    ]
    assert len(prod.out_records) == 6
    assert prod.drops == dev.drops == [
        (2, "segment list full: 127 segments; appending would overflow the routing "
            "header's 8-bit length field"),
        (3, "IPv6 payload length 65527 cannot grow by 16 bytes within its 16-bit field"),
    ]
    for summary in (dev, prod):
        assert summary.to_json()["transform_drops"] == [
            {"packet_index": index, "reason": reason} for index, reason in dev.drops
        ]


def test_uncontracted_nf_runs_bare(registry):
    nf = NetworkFunction(
        name="id",
        transform=lambda p: TransformResult(p),
        contract=None,
    )
    records = _mixed_records(n_big=2, n_small=2)
    summary = run_records(nf, records, registry)
    assert summary.packets_out == 4
    assert summary.checks_evaluated == 0
    assert summary.snapshots_built == 0
    assert [r.data for r in summary.out_records] == [r.data for r in records]


def test_run_pipeline_round_trip(tmp_path, registry):
    in_path, out_path = tmp_path / "in.pcap", tmp_path / "out.pcap"
    write_pcap(in_path, _mixed_records())
    summary = run_pipeline(
        RunConfig(
            nf_name="mtu-too-big",
            input_path=str(in_path),
            output_path=str(out_path),
        ),
        registry,
    )
    assert summary.packets_out == 7
    emitted = read_pcap(out_path)
    assert len(emitted) == 7
    # timestamps carried over from the input stream
    assert [r.ts_usec for r in emitted] == [0, 1, 2, 3, 100, 101, 102]
    listed = run_records(make_nf("mtu-too-big", registry), _mixed_records(), registry)
    assert pcap_bytes(listed.out_records) == out_path.read_bytes()


@pytest.mark.parametrize("policy", ["continue", "drop", "abort"])
@pytest.mark.parametrize("mode", [BuildMode.DEVELOPMENT, BuildMode.PRODUCTION])
def test_streamed_output_matches_a_list_sink(tmp_path, registry, mode, policy):
    # mtu-too-big's precondition fails on the 3 small packets after the 4
    # big ones, so the first violator in dev is packet 4
    in_path, out_path = tmp_path / "in.pcap", tmp_path / "out.pcap"
    write_pcap(in_path, _mixed_records())
    streamed = run_pipeline(
        RunConfig(nf_name="mtu-too-big", input_path=str(in_path),
                  output_path=str(out_path), mode=mode, policy=policy),
        registry,
    )
    listed = run_records(
        make_nf("mtu-too-big", registry), read_pcap(in_path), registry,
        runtime=ContractRuntime(mode), policy=policy,
    )
    assert streamed.out_records == []
    assert out_path.read_bytes() == pcap_bytes(listed.out_records)
    assert not (tmp_path / "out.pcap.part").exists()
    assert _untimed(streamed) == _untimed(listed)
    checked = mode is BuildMode.DEVELOPMENT
    assert streamed.aborted == (checked and policy == "abort")
    assert len(read_pcap(out_path)) == (4 if checked and policy != "continue" else 7)


@pytest.mark.parametrize("mode", [BuildMode.DEVELOPMENT, BuildMode.PRODUCTION])
def test_failed_run_leaves_the_existing_output_intact(
    tmp_path, registry, monkeypatch, mode
):
    real = make_nf("mtu-too-big", registry)
    calls = []

    def failing(packet):
        calls.append(packet)
        if len(calls) == 3:
            raise RuntimeError("transform failed")
        return real.transform(packet)

    monkeypatch.setattr(
        pipeline_module, "make_nf",
        lambda *args, **kwargs: NetworkFunction(real.name, failing, real.contract),
    )
    in_path, out_path = tmp_path / "in.pcap", tmp_path / "out.pcap"
    write_pcap(in_path, _mixed_records())
    out_path.write_bytes(b"previous output")
    with pytest.raises(RuntimeError, match="transform failed"):
        run_pipeline(
            RunConfig(nf_name="mtu-too-big", input_path=str(in_path),
                      output_path=str(out_path), mode=mode),
            registry,
        )
    assert len(calls) == 3
    assert out_path.read_bytes() == b"previous output"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.pcap", "out.pcap"]


def test_run_pipeline_generator_source(registry):
    summary = run_pipeline(
        RunConfig(
            nf_name="mtu-too-big",
            generator=GeneratorSpec(count=6, payload_len=1300, seed=7),
        ),
        registry,
    )
    assert summary.packets_in == 6
    assert summary.violations == []


@pytest.mark.parametrize("mode", [BuildMode.DEVELOPMENT, BuildMode.PRODUCTION])
def test_run_pipeline_without_output_keeps_no_records(registry, mode):
    # with nowhere to write, emitted records are counted and not held
    summary = run_pipeline(
        RunConfig(
            nf_name="mtu-too-big",
            generator=GeneratorSpec(count=8, payload_len=(200, 1500), seed=3),
            mode=mode,
        ),
        registry,
    )
    assert summary.out_records == []
    assert summary.packets_in == 8
    assert summary.packets_out == 8
    assert summary.packets_in == summary.packets_out + summary.packets_dropped


def test_nf_is_built_before_input_is_read(registry):
    # a bad NF name fails fast as a configuration error even though the
    # input path does not exist — NF construction precedes I/O
    with pytest.raises(ConfigError, match="unknown NF"):
        run_pipeline(
            RunConfig(nf_name="nope", input_path="/nonexistent/in.pcap"), registry
        )


def test_run_config_validation():
    with pytest.raises(ConfigError, match="unknown policy"):
        RunConfig(nf_name="x", input_path="a.pcap", policy="bogus")
    with pytest.raises(ConfigError, match="exactly one input source"):
        RunConfig(nf_name="x")
    with pytest.raises(ConfigError, match="exactly one input source"):
        RunConfig(
            nf_name="x", input_path="a.pcap", generator=GeneratorSpec(count=1)
        )


@pytest.mark.parametrize("mode", ["dev", "prod", None])
def test_a_mode_that_is_not_a_build_mode_is_refused(mode):
    # a mode's string value would fail every identity test against
    # Development, and so run Production silently
    text = f"unknown build mode {mode!r} (known: dev, prod)"
    with pytest.raises(ConfigError) as excinfo:
        RunConfig(nf_name="mtu-too-big", generator=GeneratorSpec(count=1), mode=mode)
    assert str(excinfo.value) == text
    with pytest.raises(ConfigError) as excinfo:
        ContractRuntime(mode)
    assert str(excinfo.value) == text


def test_order_verification_happens_once_per_phase(registry, monkeypatch):
    calls = []
    original = registry_module.verify_order

    def counting(order_spec, reg):
        calls.append(order_spec)
        return original(order_spec, reg)

    monkeypatch.setattr(registry_module, "verify_order", counting)
    import pktcheck.contracts as contracts_module

    monkeypatch.setattr(contracts_module, "verify_order", counting)
    matches = []
    original_match = registry_module.match_chain

    def counting_match(packet, order_spec):
        matches.append(order_spec)
        return original_match(packet, order_spec)

    monkeypatch.setattr(registry_module, "match_chain", counting_match)

    nf = make_nf("mtu-too-big", registry)
    summary = run_records(
        nf,
        [PcapRecord(data=build_tcp6_bytes(payload_len=1300)) for _ in range(50)],
        registry,
    )
    assert summary.violations == [] and summary.checks_evaluated == 50 * 7
    # elaboration checked the two phase orders; the per-packet path never
    # re-verifies, since parsing along the order already proves the chain
    assert len(calls) == 2
    assert matches == []


def test_each_header_is_decoded_once_per_phase(registry, monkeypatch):
    counts = {"parse": 0, "decode": 0, "accessor": 0, "emit": 0, "parse_header": 0}

    def counting(name, function):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)
        return wrapper

    # the walks bind each codec's parse at elaboration, so count it first
    for cls in headers_module.HEADER_TYPES.values():
        monkeypatch.setattr(cls, "parse", staticmethod(counting("parse", cls.parse)))
    nf = make_nf("mtu-too-big", registry)  # elaboration may look names up
    Packet = headers_module.Packet
    for name, owner in (("decode", Packet), ("parse_header", Packet),
                        ("accessor", registry_module.Registry)):
        monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
    for cls in headers_module.HEADER_TYPES.values():
        monkeypatch.setattr(cls, "emit", counting("emit", cls.emit))

    summary = run_records(
        nf,
        [PcapRecord(data=build_tcp6_bytes(payload_len=1300)) for _ in range(50)],
        registry,
    )
    assert summary.violations == [] and summary.snapshots_built == 50
    # per packet: the transform decodes its 3 headers by their codec's
    # parse, none through Packet.parse_header; ingress decodes its 3 inline,
    # from each codec's layout step, and calls no parse; egress reads its
    # fields from the bytes and decodes none; the 4 emits all build the
    # reply, since the snapshot is the ingress headers as decoded
    assert counts == {"parse": 50 * 3, "decode": 0, "accessor": 0, "emit": 50 * 4,
                      "parse_header": 0}


def test_production_mode_skips_contract_machinery(registry):
    nf = make_nf("mtu-too-big", registry, omit_ipv6_swap=True)  # even a buggy NF
    runtime = ContractRuntime(BuildMode.PRODUCTION)
    summary = run_records(nf, _mixed_records(), registry, runtime=runtime)
    assert summary.violations == []
    assert summary.snapshots_built == 0
    assert summary.checks_evaluated == 0
    assert summary.timings["ingress_contract_ns"] == 0
    assert summary.timings["egress_contract_ns"] == 0
    assert summary.packets_out == 7


class _CountingClock:
    """Stands in for the pipeline's ``time`` module and counts its timer calls."""

    def __init__(self):
        self.calls = 0

    def perf_counter_ns(self):
        self.calls += 1
        return time.perf_counter_ns()


def test_production_elides_the_timers(registry, monkeypatch):
    clock = _CountingClock()
    monkeypatch.setattr(pipeline_module, "time", clock)
    nf = make_nf("mtu-too-big", registry)
    records = generate_records(GeneratorSpec(count=100, payload_len=1300, seed=9))

    prod = run_records(
        nf, records, registry, runtime=ContractRuntime(BuildMode.PRODUCTION)
    )
    assert clock.calls == 0
    assert prod.snapshots_built == 0
    assert prod.checks_evaluated == 0
    assert set(prod.timings.values()) == {0}
    assert prod.packets_out == 100

    # the stand-in is the clock the checked loop reads: one call per phase
    # boundary, 4 per rewritten packet
    dev = run_records(nf, records, registry)
    assert clock.calls == 400
    assert pcap_bytes(dev.out_records) == pcap_bytes(prod.out_records)

    # a pass-through runs no egress and reads 3
    clock.calls = 0
    run_records(nf, _mixed_records(n_big=4, n_small=3), registry)
    assert clock.calls == 4 * 4 + 3 * 3


def test_summary_json_shape(registry):
    nf = make_nf("mtu-too-big", registry, omit_eth_swap=True)
    summary = run_records(nf, _mixed_records(n_big=1, n_small=0), registry)
    blob = summary.to_json()
    assert list(blob) == [
        "nf", "mode", "policy", "packets_in", "packets_out", "packets_dropped",
        "violations", "violations_by_check", "transform_drops", "timings",
        "snapshots_built", "checks_evaluated", "aborted",
    ]
    assert blob["nf"] == "mtu-too-big"
    assert blob["mode"] == "dev"
    assert blob["policy"] == "continue"
    assert blob["packets_in"] == 1
    assert blob["violations_by_check"] == {"egress#4": 1, "egress#5": 1}
    assert {v["kind"] for v in blob["violations"]} == {"check"}
    assert set(blob["timings"]) == {
        "ingress_contract_ns", "transform_ns", "egress_contract_ns",
    }
    assert blob["aborted"] is False


def test_each_call_builds_a_summary_of_its_own(registry):
    # a single-record call per packet, as a packet-at-a-time caller makes:
    # no list or dict of one call's summary may be another's
    nf = make_nf("mtu-too-big", registry, omit_eth_swap=True)
    runtime = ContractRuntime(BuildMode.DEVELOPMENT)
    record = _mixed_records(n_big=1, n_small=0)[0]
    first = run_records(nf, [record], registry, runtime=runtime)
    second = run_records(nf, [record], registry, runtime=runtime)
    for name in ("violations", "drops", "timings", "out_records"):
        assert getattr(first, name) is not getattr(second, name)
    assert first.violations == second.violations and len(first.violations) == 2
    first.violations.clear()
    assert len(second.violations) == 2


@pytest.mark.parametrize("mode", [BuildMode.DEVELOPMENT, BuildMode.PRODUCTION])
@pytest.mark.parametrize("policy", ["continue", "drop", "abort"])
def test_summary_derives_out_and_per_check_counts(registry, mode, policy):
    nf = make_nf("mtu-too-big", registry, omit_ipv6_swap=True)
    summary = run_records(
        nf, _mixed_records(n_big=3, n_small=3), registry,
        runtime=ContractRuntime(mode), policy=policy,
    )
    assert summary.packets_out == summary.packets_in - summary.packets_dropped
    counts = {}
    for v in summary.violations:
        key = f"{v.phase}#{'order' if v.check_index is None else v.check_index}"
        counts[key] = counts.get(key, 0) + 1
    assert summary.violations_by_check == counts
    with pytest.raises(AttributeError):
        summary.packets_out = 0
    with pytest.raises(AttributeError):
        summary.violations_by_check = {}


def test_violations_by_check_keeps_first_seen_order(registry):
    # the small packet fails ingress#0 after the big ones failed egress
    nf = make_nf("mtu-too-big", registry, omit_eth_swap=True)
    summary = run_records(nf, _mixed_records(n_big=2, n_small=1), registry)
    assert list(summary.violations_by_check.items()) == [
        ("egress#4", 2), ("egress#5", 2), ("ingress#0", 1),
    ]


def test_bench_report_shape(registry):
    records = generate_records(GeneratorSpec(count=40, payload_len=1300, seed=5))
    report = bench("mtu-too-big", records, registry, repetitions=2)
    assert report["packets"] == 40
    assert report["repetitions"] == 2
    assert set(report["phases"]) == {
        "ingress_contract_ns", "transform_ns", "egress_contract_ns",
    }
    for phase_stats in report["phases"].values():
        assert phase_stats["mean_ns"] > 0
        assert phase_stats["stdev_ns"] >= 0.0
    share = report["ingress_share_of_contract_overhead"]
    assert 0.0 < share < 1.0
    assert report["contracts_on_total_ns"]["mean_ns"] > 0
    assert report["contracts_off_total_ns"]["mean_ns"] > 0
    # closed-loop latency per mode, one single-record call per record
    assert list(report["latency_us"]) == ["dev", "prod"]
    for latency in report["latency_us"].values():
        assert list(latency) == ["p50", "p99"]
        assert 0 < latency["p50"] <= latency["p99"]
    with pytest.raises(ConfigError, match="repetitions"):
        bench("mtu-too-big", records, registry, repetitions=0)


@pytest.mark.parametrize("repetitions", [1.5, "2", None, True])
def test_bench_refuses_repetitions_that_are_not_an_int(registry, repetitions):
    records = generate_records(GeneratorSpec(count=2, payload_len=1300, seed=5))
    with pytest.raises(ConfigError) as excinfo:
        bench("mtu-too-big", records, registry, repetitions=repetitions)
    assert str(excinfo.value) == f"repetitions must be an int, not {repetitions!r}"


@settings(max_examples=30, deadline=None)
@given(
    n_big=st.integers(0, 5),
    n_small=st.integers(0, 5),
    policy=st.sampled_from(["continue", "drop"]),
)
def test_summary_conservation_property(registry, n_big, n_small, policy):
    nf = make_nf("mtu-too-big", registry, omit_ipv6_swap=True)
    records = _mixed_records(n_big=n_big, n_small=n_small)
    summary = run_records(nf, records, registry, policy=policy)
    assert summary.packets_in == n_big + n_small
    assert summary.packets_in == summary.packets_out + summary.packets_dropped
