import pytest

from pktcheck import (
    ChainOrderError,
    EthHdr,
    Icmpv6PktTooBig,
    Ipv6Hdr,
    Packet,
    RegistryError,
    Srv6RoutingHdr,
    order,
    standard_registry,
    verify_order,
)
from pktcheck.headers import HEADER_TYPES, ChainEntry, FieldRead
from pktcheck.registry import OrderElement, OrderSpec, Registry, match_chain, parse_chain

from oracles import build_tcp6_bytes


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


def _stub(name, codec=EthHdr, **layout):
    """A stub codec named ``name``: ``codec``'s layout with ``layout``
    replaced."""
    return type(name, (), {"READ": codec.READ._replace(**layout)})


def test_registry_rejects_duplicate_registration():
    with pytest.raises(RegistryError) as excinfo:
        Registry([EthHdr, _stub("EthHdr")])
    assert str(excinfo.value) == "duplicate header type 'EthHdr'"


def test_registry_rejects_dangling_predecessor():
    with pytest.raises(RegistryError) as excinfo:
        Registry([_stub("EthHdr", after=frozenset({"VlanHdr"}))])
    assert str(excinfo.value) == "EthHdr names unknown predecessor 'VlanHdr'"
    with pytest.raises(RegistryError) as excinfo:
        Registry([EthHdr, _stub("TcpHdr", after=frozenset({"EthHdr"}), slot="Ipv6Hdr")])
    assert str(excinfo.value) == "TcpHdr names unknown parameter type 'Ipv6Hdr'"


@pytest.mark.parametrize("flow_label", [16, 24])
def test_registry_refuses_a_layout_whose_sub_fields_do_not_fill_their_word(flow_label):
    # IPv6's first word is 4 + 8 + 20 bits; a short or a long split is refused
    words = {"v_tc_fl": {"version": 4, "traffic_class": 8, "flow_label": flow_label}}
    with pytest.raises(RegistryError) as excinfo:
        Registry([EthHdr, _stub("Ipv6Hdr", Ipv6Hdr, words=words)])
    assert str(excinfo.value) == "Ipv6Hdr: the sub-fields of v_tc_fl do not fill it"


def test_registry_checks_do_not_depend_on_order(registry):
    # TcpHdr may follow Srv6RoutingHdr, listed after it
    names = ["EthHdr", "Ipv6Hdr", "TcpHdr", "Srv6RoutingHdr", "Icmpv6PktTooBig"]
    rebuilt = Registry(registry.get(name) for name in names)
    assert all(rebuilt.get(name) is registry.get(name) for name in names)


@pytest.mark.parametrize("linkage", ["nxt_hdr", "src"])
def test_registry_refuses_a_linkage_field_the_header_cannot_read(registry, linkage):
    # an unknown field, and a BYTES one: neither can announce a protocol
    codecs = [
        _stub(name, Ipv6Hdr, linkage=linkage) if name == "Ipv6Hdr" else registry.get(name)
        for name in ("EthHdr", "Ipv6Hdr", "Srv6RoutingHdr", "TcpHdr", "Icmpv6PktTooBig")
    ]
    with pytest.raises(RegistryError) as excinfo:
        Registry(codecs)
    assert str(excinfo.value) == (
        f"Ipv6Hdr names linkage field {linkage!r}, which is not one of its integer "
        "accessors"
    )


def test_walk_steps_carry_the_registry_codecs():
    # a registry of its own, holding a stub codec, compiles walks over it
    vlan = _stub("VlanHdr", after=frozenset({"EthHdr"}), proto=0x8100)
    walk = verify_order(Registry([EthHdr, vlan]), order("EthHdr", "VlanHdr"))
    assert walk[1] == (vlan, "ether_type", 0x8100)
    assert walk[1].header_type == "VlanHdr"
    assert walk[0].codec is EthHdr


#: Each header's chain rules: predecessors, parameter slot, protocol number
#: and linkage field.
CHAIN_RULES = {
    "EthHdr": (set(), None, None, "ether_type"),
    "Ipv6Hdr": ({"EthHdr"}, None, 0x86DD, "next_header"),
    "Srv6RoutingHdr": ({"Ipv6Hdr", "Srv6RoutingHdr"}, None, 43, "next_header"),
    "TcpHdr": ({"Ipv6Hdr", "Srv6RoutingHdr"}, "Ipv6Hdr", 6, None),
    "Icmpv6PktTooBig": ({"Ipv6Hdr"}, "Ipv6Hdr", 58, None),
}


def test_standard_chain_rules(registry):
    assert {
        name: (set(r.after), r.slot, r.proto, r.linkage)
        for name in CHAIN_RULES for r in [registry.get(name).READ]
    } == CHAIN_RULES


def test_standard_registry_is_built_once_and_read_only(registry):
    assert standard_registry() is standard_registry() is registry
    # its entries are the codecs themselves, whose layouts cannot be edited
    assert all(registry.get(name) is codec for name, codec in HEADER_TYPES.items())
    with pytest.raises(AttributeError):
        registry.get("Ipv6Hdr").READ.linkage = "nxt_hdr"
    # neither the kinds a layout derives nor the list a registry was built
    # from reach it afterwards
    registry.get("Ipv6Hdr").READ.kinds()["nxt_hdr"] = "int"
    with pytest.raises(RegistryError, match="nxt_hdr"):
        registry.accessor("Ipv6Hdr", "nxt_hdr")
    codecs = [EthHdr]
    rebuilt = Registry(codecs)
    codecs.append(Ipv6Hdr)
    assert not rebuilt.known("Ipv6Hdr")


def test_registry_derives_kinds_once(monkeypatch):
    calls = []
    kinds = FieldRead.kinds
    monkeypatch.setattr(FieldRead, "kinds", lambda self: calls.append(self) or kinds(self))
    rebuilt = Registry(HEADER_TYPES.values())
    assert len(calls) == len(HEADER_TYPES)
    for name in KINDS:
        for attribute, kind in KINDS[name].items():
            assert rebuilt.accessor(name, attribute) == kind
    assert len(calls) == len(HEADER_TYPES)


def test_registry_unknown_lookups(registry):
    with pytest.raises(RegistryError, match="GreHdr"):
        registry.get("GreHdr")
    with pytest.raises(RegistryError) as excinfo:
        registry.accessor("Ipv6Hdr", "ttl")
    assert "hop_limit" in str(excinfo.value)


@pytest.mark.parametrize("lookup, text", [
    (lambda r: r.get("GreHdr"), "unknown header type 'GreHdr'"),
    (lambda r: r.accessor("GreHdr", "ttl"), "unknown header type 'GreHdr'"),
    (lambda r: r.accessor("Ipv6Hdr", "ttl"),
     "header Ipv6Hdr has no accessor 'ttl' (known: dst, flow_label, hop_limit, "
     "next_header, payload_len, src, traffic_class, version)"),
    # the hidden reserved bits are no accessor
    (lambda r: r.accessor("TcpHdr", "reserved"),
     "header TcpHdr has no accessor 'reserved' (known: ack, checksum, data_offset, "
     "dst_port, flags, seq, src_port, urgent_ptr, window)"),
], ids=["get", "accessor-type", "accessor-ipv6", "accessor-hidden"])
def test_registry_lookup_refusal_texts(registry, lookup, text):
    with pytest.raises(RegistryError) as excinfo:
        lookup(registry)
    assert str(excinfo.value) == text


@pytest.mark.parametrize("spec, error", [
    (order("EthHdr", "Ipv6Hdr", ("Icmpv6PktTooBig", "Ipv6Hdr"), "Ipv6Hdr"),
     (3, "Ipv6Hdr", "Icmpv6PktTooBig",
      "Ipv6Hdr cannot follow Icmpv6PktTooBig: permitted predecessors are {EthHdr}")),
    (order("EthHdr", "TcpHdr"),
     (1, "TcpHdr", "EthHdr",
      "TcpHdr cannot follow EthHdr: permitted predecessors are "
      "{Ipv6Hdr, Srv6RoutingHdr}")),
    (order("EthHdr", "EthHdr"),
     (1, "EthHdr", "EthHdr",
      "EthHdr cannot follow EthHdr: permitted predecessors are {none (chain root)}")),
    (order("Ipv6Hdr", ("TcpHdr", "Ipv6Hdr")),
     (0, "Ipv6Hdr", None,
      "Ipv6Hdr is not a chain root and cannot start [Ipv6Hdr => TcpHdr<Ipv6Hdr>]")),
    (order("Srv6RoutingHdr"),
     (0, "Srv6RoutingHdr", None,
      "Srv6RoutingHdr is not a chain root and cannot start [Srv6RoutingHdr]")),
    # two faults: the first in reading order is refused, whatever its kind
    (order("Ipv6Hdr", "EthHdr"),
     (0, "Ipv6Hdr", None,
      "Ipv6Hdr is not a chain root and cannot start [Ipv6Hdr => EthHdr]")),
    (order("EthHdr", "Ipv6Hdr", ("TcpHdr", "EthHdr"), "Ipv6Hdr"),
     (2, "Ipv6Hdr", "EthHdr",
      "TcpHdr<EthHdr> names parameter EthHdr, but the parameter of TcpHdr is "
      "Ipv6Hdr in [EthHdr => Ipv6Hdr => TcpHdr<EthHdr> => Ipv6Hdr]")),
], ids=["one-predecessor", "two-predecessors", "chain-root", "not-root", "lone-not-root",
        "root-before-predecessor", "slot-before-predecessor"])
def test_verify_order_refusal_texts(registry, spec, error):
    with pytest.raises(ChainOrderError) as excinfo:
        verify_order(registry, spec)
    exc = excinfo.value
    assert (exc.index, exc.expected, exc.found, str(exc)) == error


def test_parse_chain_decodes_declared_order(registry):
    packet = Packet.from_bytes(build_tcp6_bytes())
    spec = order("EthHdr", "Ipv6Hdr", ("TcpHdr", "Ipv6Hdr"))
    headers, ends = parse_chain(packet, verify_order(registry, spec))
    assert [type(h).__name__ for h in headers] == ["EthHdr", "Ipv6Hdr", "TcpHdr"]
    assert headers[1].payload_len == 1300
    assert ends == [14, 54, 74]
    assert packet.chain == ()  # the walk records no chain entries


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


def test_match_chain_refuses_a_parameter_no_earlier_header_provides():
    packet = Packet(b"", (ChainEntry("EthHdr", 0, 14), ChainEntry("TcpHdr", 14, 20)))
    with pytest.raises(ChainOrderError) as excinfo:
        match_chain(packet, order("EthHdr", ("TcpHdr", "Ipv6Hdr")))
    assert str(excinfo.value) == (
        "order mismatch at index 1: TcpHdr<Ipv6Hdr> expects Ipv6Hdr earlier in "
        "the chain"
    )


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
        for name, kind in registry.get(type(header).__name__).READ.kinds().items():
            value = getattr(header, name)
            assert isinstance(value, bytes if kind == "bytes" else int)
            count += 1
    assert count == 31
    # The kinds are derived from each codec's layout: none may drop out,
    # and a packed word (v_tc_fl, off_flags) never becomes readable.
    assert {name: registry.get(name).READ.kinds() for name in KINDS} == KINDS


INT, BYTES = "int", "bytes"
#: Each header's readable attributes and their kinds.
KINDS = {
    "EthHdr": {"dst": BYTES, "src": BYTES, "ether_type": INT},
    "Ipv6Hdr": {
        "version": INT, "traffic_class": INT, "flow_label": INT, "payload_len": INT,
        "next_header": INT, "hop_limit": INT, "src": BYTES, "dst": BYTES,
    },
    "Srv6RoutingHdr": {
        "next_header": INT, "hdr_ext_len": INT, "routing_type": INT,
        "segments_left": INT, "last_entry": INT, "flags": INT, "tag": INT,
    },
    "TcpHdr": {
        "src_port": INT, "dst_port": INT, "seq": INT, "ack": INT, "data_offset": INT,
        "flags": INT, "window": INT, "checksum": INT, "urgent_ptr": INT,
    },
    "Icmpv6PktTooBig": {"msg_type": INT, "code": INT, "checksum": INT, "mtu": INT},
}
