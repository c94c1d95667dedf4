import pytest

from pktcheck import (
    ChainOrderError,
    EthHdr,
    Icmpv6PktTooBig,
    Ipv6Hdr,
    Packet,
    RegistryError,
    Srv6RoutingHdr,
    match_chain,
    order,
    parse_chain,
    verify_order,
)
from pktcheck.registry import HeaderDescriptor, OrderElement, OrderSpec, Registry

from conftest import build_tcp6_bytes


def test_order_helper_and_rendering():
    spec = order("EthHdr", "Ipv6Hdr", ("TcpHdr", "Ipv6Hdr"))
    assert len(spec.elements) == 3
    assert str(spec.elements[2]) == "TcpHdr<Ipv6Hdr>"
    assert str(spec) == "[EthHdr => Ipv6Hdr => TcpHdr<Ipv6Hdr>]"


def test_order_spec_rejects_empty():
    with pytest.raises(RegistryError):
        OrderSpec(())


def test_verify_order_accepts_standard_chains(registry):
    verify_order(registry, order("EthHdr", "Ipv6Hdr", ("TcpHdr", "Ipv6Hdr")))
    verify_order(registry, order("EthHdr", "Ipv6Hdr", ("Icmpv6PktTooBig", "Ipv6Hdr")))
    verify_order(registry, order("EthHdr", "Ipv6Hdr", "Srv6RoutingHdr"))
    verify_order(
        registry,
        order("EthHdr", "Ipv6Hdr", "Srv6RoutingHdr", "Srv6RoutingHdr",
              ("TcpHdr", "Ipv6Hdr")),
    )


def test_verify_order_names_the_offending_pair(registry):
    with pytest.raises(ChainOrderError) as excinfo:
        verify_order(
            registry,
            order("EthHdr", "Ipv6Hdr", ("Icmpv6PktTooBig", "Ipv6Hdr"), "Ipv6Hdr"),
        )
    assert "Ipv6Hdr" in str(excinfo.value)
    assert "Icmpv6PktTooBig" in str(excinfo.value)
    assert excinfo.value.index == 3
    assert excinfo.value.expected == "Ipv6Hdr"
    assert excinfo.value.found == "Icmpv6PktTooBig"


def test_verify_order_rejects_unknown_type(registry):
    # at the head of an order as anywhere else
    for spec in (order("EthHdr", "GreHdr"), order("GreHdr"), order("GreHdr", "Ipv6Hdr")):
        with pytest.raises(RegistryError, match="GreHdr"):
            verify_order(registry, spec)
    # an unknown <param> is out of scope, as no earlier element provides it
    with pytest.raises(ChainOrderError) as excinfo:
        verify_order(registry, order("EthHdr", "Ipv6Hdr", ("TcpHdr", "GreHdr")))
    assert str(excinfo.value) == (
        "TcpHdr<GreHdr> names parameter GreHdr but no earlier element in "
        "[EthHdr => Ipv6Hdr => TcpHdr<GreHdr>] provides it"
    )


def test_verify_order_requires_chain_root_first(registry):
    with pytest.raises(ChainOrderError, match="Ipv6Hdr"):
        verify_order(registry, order("Ipv6Hdr", ("TcpHdr", "Ipv6Hdr")))


def test_verify_order_requires_parameter_in_scope(registry):
    spec = OrderSpec((OrderElement("EthHdr"), OrderElement("TcpHdr", "Ipv6Hdr")))
    with pytest.raises(ChainOrderError, match="Ipv6Hdr"):
        verify_order(registry, spec)


def test_verify_order_requires_the_parameter_slot(registry):
    with pytest.raises(ChainOrderError) as excinfo:
        verify_order(registry, order("EthHdr", "Ipv6Hdr", ("TcpHdr", "EthHdr")))
    assert str(excinfo.value) == (
        "TcpHdr<EthHdr> names parameter EthHdr, but the parameter of TcpHdr is "
        "Ipv6Hdr in [EthHdr => Ipv6Hdr => TcpHdr<EthHdr>]"
    )
    assert (excinfo.value.index, excinfo.value.expected, excinfo.value.found) == (
        2, "Ipv6Hdr", "EthHdr"
    )
    with pytest.raises(ChainOrderError) as excinfo:
        verify_order(registry, order("EthHdr", ("Ipv6Hdr", "EthHdr")))
    assert str(excinfo.value) == (
        "Ipv6Hdr<EthHdr> names parameter EthHdr, but Ipv6Hdr takes no parameter "
        "in [EthHdr => Ipv6Hdr<EthHdr>]"
    )
    # a slotted header may still leave its parameter out
    verify_order(registry, order("EthHdr", "Ipv6Hdr", "TcpHdr"))


def test_registry_rejects_duplicate_registration(registry):
    fresh = Registry()
    descriptor = HeaderDescriptor(
        header_type="EthHdr",
        permitted_predecessors=frozenset(),
        accessors={},
    )
    fresh.register(descriptor)
    with pytest.raises(RegistryError, match="duplicate"):
        fresh.register(descriptor)


def test_registry_rejects_dangling_predecessor():
    fresh = Registry()
    with pytest.raises(RegistryError, match="VlanHdr"):
        fresh.register(
            HeaderDescriptor(
                header_type="EthHdr",
                permitted_predecessors=frozenset({"VlanHdr"}),
                accessors={},
            )
        )


def test_registry_frozen_blocks_registration(registry):
    assert registry.frozen
    with pytest.raises(RegistryError, match="frozen"):
        registry.register(
            HeaderDescriptor(
                header_type="VlanHdr",
                permitted_predecessors=frozenset(),
                accessors={},
            )
        )


def test_verify_order_requires_a_codec_for_each_type():
    fresh = Registry()
    fresh.register(HeaderDescriptor(
        header_type="VlanHdr", permitted_predecessors=frozenset(), accessors={}
    ))
    with pytest.raises(ChainOrderError) as excinfo:
        verify_order(fresh.freeze(), order("VlanHdr"))
    assert (excinfo.value.index, str(excinfo.value)) == (
        0, "VlanHdr has no codec in [VlanHdr]"
    )


def test_registry_unknown_lookups(registry):
    with pytest.raises(RegistryError, match="GreHdr"):
        registry.get("GreHdr")
    with pytest.raises(RegistryError) as excinfo:
        registry.accessor("Ipv6Hdr", "ttl")
    assert "hop_limit" in str(excinfo.value)


def test_parse_chain_decodes_declared_order(registry):
    packet = Packet.from_bytes(build_tcp6_bytes())
    spec = order("EthHdr", "Ipv6Hdr", ("TcpHdr", "Ipv6Hdr"))
    headers, ends = parse_chain(packet, verify_order(registry, spec))
    assert [type(h).__name__ for h in headers] == ["EthHdr", "Ipv6Hdr", "TcpHdr"]
    assert headers[1].payload_len == 1300
    assert ends == [14, 54, 74]
    assert packet.chain == []  # the walk records no chain entries


def test_parse_chain_checks_protocol_linkage(registry):
    # The IPv6 header says TCP (6) but the order claims an SRv6 routing
    # header follows: rejected by the next-header cross-check.
    packet = Packet.from_bytes(build_tcp6_bytes())
    spec = order("EthHdr", "Ipv6Hdr", "Srv6RoutingHdr")
    with pytest.raises(ChainOrderError) as excinfo:
        parse_chain(packet, verify_order(registry, spec))
    assert excinfo.value.index == 2
    assert "Srv6RoutingHdr" in str(excinfo.value)


def test_parse_chain_wraps_truncation(registry):
    packet = Packet.from_bytes(build_tcp6_bytes()[:40])
    with pytest.raises(ChainOrderError) as excinfo:
        parse_chain(packet, verify_order(registry, order("EthHdr", "Ipv6Hdr")))
    assert excinfo.value.index == 1
    assert str(excinfo.value) == (
        "order mismatch at index 1: cannot parse Ipv6Hdr: truncated IPv6 "
        "header: need 40 bytes at offset 14, have 26"
    )


def test_match_chain_rejects_wrong_shape(registry):
    packet = Packet.from_bytes(build_tcp6_bytes())
    for header_type in ("EthHdr", "Ipv6Hdr", "TcpHdr"):
        packet.parse_header(header_type)
    match_chain(packet, order("EthHdr", "Ipv6Hdr", ("TcpHdr", "Ipv6Hdr")))
    with pytest.raises(ChainOrderError):
        match_chain(packet, order("EthHdr", "Ipv6Hdr"))
    with pytest.raises(ChainOrderError):
        match_chain(packet, order("EthHdr", "Ipv6Hdr", ("Icmpv6PktTooBig", "Ipv6Hdr")))


def test_srv6_chain_with_repeated_headers(registry):
    outer = Srv6RoutingHdr(next_header=43, segments_left=0, segments=[bytes(16)])
    inner = Srv6RoutingHdr(next_header=59, segments_left=0, segments=[bytes(16)])
    ipv6 = Ipv6Hdr(
        src=bytes(16), dst=bytes(16),
        payload_len=len(outer.emit()) + len(inner.emit()),
        next_header=43, hop_limit=64,
    )
    eth = EthHdr(dst=bytes(6), src=bytes(6), ether_type=0x86DD)
    packet = Packet.from_bytes(eth.emit() + ipv6.emit() + outer.emit() + inner.emit())
    spec = order("EthHdr", "Ipv6Hdr", "Srv6RoutingHdr", "Srv6RoutingHdr")
    headers, _ = parse_chain(packet, verify_order(registry, spec))
    assert headers[2].next_header == 43
    assert headers[3].next_header == 59


def test_accessors_read_the_attribute_of_their_name(registry):
    packet = Packet.from_bytes(build_tcp6_bytes())
    tcp6 = order("EthHdr", "Ipv6Hdr", ("TcpHdr", "Ipv6Hdr"))
    decoded, _ = parse_chain(packet, verify_order(registry, tcp6))
    srv6 = Srv6RoutingHdr(next_header=59, segments_left=1, segments=[bytes(16)] * 2)
    reply = Icmpv6PktTooBig(checksum=7, mtu=1280, invoking_packet=b"")
    count = 0
    for header in [*decoded, srv6, reply]:
        descriptor = registry.get(type(header).__name__)
        for name, kind in descriptor.accessors.items():
            value = getattr(header, name)
            assert isinstance(value, bytes if kind == "bytes" else int)
            count += 1
    assert count == 31
