"""Byte-level packet model: header structs with parse/emit, and the packet.

Wire layouts follow Ethernet II, the 40-byte fixed IPv6 header, TCP,
ICMPv6 Packet Too Big (type 2, code 0), and the SRv6 Routing extension
header (routing type 4). All multi-byte integers are big-endian on the
wire and are decoded to host ints.

Each codec states its wire layout once, as its ``READ`` (a ``FieldRead``),
and five things come from it: the codec's ``parse`` and ``emit``, which
``_codec`` generates at import; the field reads that a generated contract
phase, and each network function's generated reader, splice in to read a
header's fields straight from the bytes (``contracts``); the writers that
the network functions emit their output chains through, which splice in
each ``emit``'s fast path (``writer``); the kind of each attribute a
contract may read (``FieldRead.kinds``); and the header's place in a
chain, which the registry reads straight from the layout (``registry``).
One planner, ``runs``, splits a chain into the runs of fixed parts that a
writer packs at once and a generated walk reads at once. Each generated
function runs what a hand-written one would. ``parse`` checks the length,
makes one ``unpack_from`` of a ``struct.Struct`` compiled at import (whose
``s`` fields yield MAC and IPv6 addresses as ``bytes``), runs each test in
order and builds the header from positional arguments. Its span, the
variable-length part (TCP options, the invoking packet, the SRv6 segment
list), is the bytes from the fixed part's end to its size. ``emit``
refuses what ``parse`` would refuse in the header's own bytes: it tests in
one condition what its ``Struct`` cannot refuse, then packs with that
``Struct``, which range-checks every other value, and appends the span.
When the condition fails or the pack refuses a value, ``emit`` raises the
``EmitError`` of the first check that fails in order: each ``s`` field's
width, each held value's range in layout order, the layout's tests with
their ``ParseError`` texts, the size against the span, and each computed
value's range. A failed condition always fails one of them, so when none
fails a value in range is not an integer, or the span not bytes, and
``emit`` re-raises that error.

A ``Packet`` is its immutable bytes, and a rewrite builds new bytes.
Nothing on the packet path calls a codec's ``parse`` or ``emit``: the
network functions and the contract phases run the layouts' steps inline,
and the network functions write through their writers. ``parse`` serves
the tests and ``registry.parse_chain`` and ``Packet.parse_header``/``decode``,
which only the benchmark's tracer and the tests call; ``emit`` serves the
tests and a writer whose arguments it refuses.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple

from .exceptions import EmitError, ParseError

_ETH = struct.Struct("!6s6sH")
_IPV6 = struct.Struct("!IHBB16s16s")
_TCP = struct.Struct("!HHIIHHHH")
_ICMPV6_PTB = struct.Struct("!BBHI")
_SRV6 = struct.Struct("!BBBBBBH")

ETH_HDR_SIZE = _ETH.size
IPV6_HDR_SIZE = _IPV6.size
IPV6_MIN_MTU = 1280

ETHERTYPE_IPV6 = 0x86DD
PROTO_TCP = 6
PROTO_SRV6 = 43
PROTO_ICMPV6 = 58
PROTO_NONE = 59

ICMPV6_PKT_TOO_BIG = 2
SRV6_ROUTING_TYPE = 4

#: The kinds of attribute a contract may read: an integer or a byte string.
INT = "int"
BYTES = "bytes"


class FieldRead(NamedTuple):
    """A codec's wire layout: what its generated ``parse`` and ``emit``
    run, what a generated contract phase reads, the attributes a contract
    may read, and where the header may stand in a chain.

    ``name`` is what a truncation error calls the header. ``unpack`` is the
    codec's ``Struct`` and ``fields`` names the values it yields, in order.
    ``words`` gives the sub-fields of each packed word, most significant
    first, with their widths in bits, which fill the word. ``tests`` are
    the acceptance tests in ``parse`` order, each paired with its
    ``ParseError`` text, and ``size`` is the header's length in bytes.
    ``span``, if the header has a variable-length part, names the
    attribute that holds it: the bytes from the fixed part's end to
    ``size``. ``hidden`` names the sub-fields a contract may not read:
    TCP's reserved bits. The packet holds the header when the buffer has
    ``unpack.size`` bytes at ``at`` and every test holds, exactly when
    ``parse`` returns.

    ``emit`` packs the header's fields and, in order, each ``computed``
    field (a field on the wire that the header does not hold, which the
    codec also gets as a property), then appends the span (``packing``
    writes these lines for ``emit`` and each ``writer``). It refuses
    what ``parse`` would in the header's own bytes, checking in order each
    ``s`` field's width, the range of each value the header holds, each
    test that reads neither ``length`` nor ``buf`` (``at`` is 0, ``length``
    the header's own and a ``size`` read from the buffer that length) and
    does not state a computed field's own definition, that a ``size`` not
    read from the buffer is ``fixed`` plus the span's length, and each
    computed value's range.

    Each is a Python expression, and each text an f-string, that may name
    ``fixed`` (the fixed part's length). Those of ``parse`` are over the
    fields, the sub-fields, ``size``, ``at`` (the header's offset),
    ``length`` (the buffer's length) and ``buf`` (the buffer); a computed
    field is over the header's attributes and the computed fields before it.

    The rest places the header in a chain, with defaults that describe a
    chain root. ``after`` names the types it may follow and ``slot`` the
    one type its order element may name as ``<param>``. ``proto`` is the
    number that announces it in its predecessor's linkage field, and
    ``linkage`` names its own next-protocol field, if it has one.
    """

    name: str
    unpack: struct.Struct
    fields: tuple[str, ...]
    tests: tuple[tuple[str, str], ...]
    size: str
    words: dict[str, dict[str, int]] = {}
    span: str | None = None
    hidden: tuple[str, ...] = ()
    computed: dict[str, str] = {}
    after: frozenset[str] = frozenset()
    slot: str | None = None
    proto: int | None = None
    linkage: str | None = None

    def spell(self, source: str, names: dict[str, str]) -> str:
        """``source`` with each name that ``names`` maps replaced by its
        spelling there, and ``fixed`` by the fixed part's length."""
        names = {"fixed": str(self.unpack.size), **names}
        return _NAME.sub(lambda m: names.get(m[0], m[0]), source)

    def wire(self) -> list[tuple[str, int | None, str | None, int]]:
        """Each value on the wire in layout order, a packed word's
        sub-fields in its place: its name, its width in bits (None for a
        byte string) and, for a sub-field, its word and its shift there."""
        wire = []
        for name, code in zip(self.fields, _CODE.findall(self.unpack.format)):
            bits = None if code.endswith("s") else 8 * struct.calcsize("!" + code)
            if name not in self.words:
                wire.append((name, bits, None, 0))
                continue
            for sub, width in self.words[name].items():
                bits -= width
                wire.append((sub, width, name, bits))
            if bits:
                raise ValueError(f"the sub-fields of {name} do not fill it")
        return wire

    def kinds(self) -> dict[str, str]:
        """The kind of each attribute a contract may read: every value on
        the wire but the hidden ones, a packed word's sub-fields in its
        place, BYTES for a ``struct`` ``s`` field and INT otherwise."""
        return {name: BYTES if bits is None else INT
                for name, bits, _, _ in self.wire() if name not in self.hidden}

    def reads(self) -> dict[str, str]:
        """Each sub-field as an expression over its word; the most
        significant needs no mask."""
        reads = {}
        for name, width, word, shift in self.wire():
            if word is not None:
                read = f"{word} >> {shift}" if shift else word
                top = next(iter(self.words[word]))
                reads[name] = read if name == top else f"{read} & 0x{(1 << width) - 1:X}"
        return reads

    def step(self, names: dict[str, str], refuse: str) -> list[str]:
        """The source lines that read the header at ``at``: the length
        guard, one ``unpack_from`` into the fields, the sub-fields and the
        size, and the tests in order.

        ``names`` spells each name it maps (``unpack`` is the bound
        ``unpack_from``); each sub-field and ``size`` that it does not map
        is bound to a local of its own name. ``refuse`` is the statement
        that refuses the buffer, formatted with the f-string text of the
        refusal, such as ``raise ParseError(f{!r})``.
        """

        def spell(source):
            return self.spell(source, names)

        def refusal(text):
            return refuse.format(_REPLACEMENT.sub(lambda m: spell(m[0]), text))

        at, fixed = spell("at"), self.unpack.size
        lines = [
            f"if {at} + {fixed} > {spell('length')}:",
            f"    {refusal(_truncated(self.name, 'fixed'))}",
            f"{', '.join(map(spell, self.fields))} = {spell('unpack')}({spell('buf')}, {at})",
        ]
        lines += [f"{a} = {spell(e)}" for a, e in self.reads().items() if a not in names]
        if "size" not in names:
            lines.append(f"size = {spell(self.size)}")
        for test, text in self.tests:
            lines += [f"if not ({spell(test)}):", f"    {refusal(text)}"]
        return lines

    def value(self, name: str, names: dict[str, str]) -> str:
        """The value of attribute ``name`` from what ``step`` read: the
        field or sub-field as ``names`` spells it, and the span as the bytes
        from ``fixed`` to ``size``."""
        span = 'bytes(buf[at + fixed : at + size]) if size > fixed else b""'
        return self.spell(span if name == self.span else name, names)

    def arguments(self, cls, names: dict[str, str]) -> str:
        """The arguments that build ``cls`` from what ``step`` read, each
        its ``value``, in its constructor's order."""
        return ", ".join(self.value(f.name, names) for f in fields(cls))

    def attributes(self, names: dict[str, str]) -> dict[str, str]:
        """``names``, which spells each attribute the header holds, with
        each computed field spelled by its definition, as its property reads it."""
        names = dict(names)
        for name, source in self.computed.items():
            names[name] = f"({self.spell(source, names)})"
        return names

    def emitted(self, names: dict[str, str]) -> dict[str, str]:
        """``names``, which spells each attribute the header holds, with
        ``at``, ``length`` and ``size`` as ``emit`` reads them: over the
        header's own bytes, with a ``size`` read from the buffer that
        length."""
        fixed = self.unpack.size
        length = f"({fixed} + len({names[self.span]}))" if self.span else str(fixed)
        names = {**names, "at": "0", "length": length}
        # a header sized by its buffer fills the one that emit builds
        names["size"] = (length if _READS_BUFFER(self.size)
                         else f"({self.spell(self.size, names)})")
        return names

    def refusals(self) -> list[tuple[str, str]]:
        """The tests ``emit`` refuses by, in order, each paired with its
        ``EmitError`` text (see above)."""
        ranges = {name: _range(name, bits) for name, bits, _, _ in self.wire() if bits}
        checks = [(f"len({name}) == {struct.calcsize(code)}",
                   f"{name} must be {struct.calcsize(code)} bytes")
                  for name, code in zip(self.fields, _CODE.findall(self.unpack.format))
                  if code.endswith("s")]
        checks += [ranges[name] for name in ranges if name not in self.computed]
        # emit computes each computed field by its definition, so never refuses it
        definitions = {f"{name} == {source}" for name, source in self.computed.items()}
        checks += [(test, text) for test, text in self.tests
                   if not _READS_BUFFER(test) and test not in definitions]
        if self.span and not _READS_BUFFER(self.size):
            checks.append((f"size == fixed + len({self.span})",
                           f"{self.name} size {{size}} ({self.spell(self.size, {})}) "
                           f"disagrees with {self.unpack.size} + {{len({self.span})}} "
                           f"bytes of {self.span}"))
        checks += [ranges[name] for name in self.computed if name in ranges]
        return checks

    def packing(self, names: dict[str, str]) -> tuple[list[str], list[str], list[str]]:
        """What ``emit`` runs when it refuses nothing, spelled by ``names``
        (as ``emitted`` completes them; a computed field they do not map is
        a local of its own name): the lines that bind each computed field,
        the terms of the condition, each a refusal test that the pack
        cannot make, and the values that one ``pack`` of ``unpack`` takes,
        each word's sub-fields shifted into it. The span follows the packed
        bytes."""
        wire = self.wire()
        # The pack refuses a packed value out of range, and a packed word
        # whose most significant sub-field is.
        tops = {next(iter(subs)) for subs in self.words.values()}
        packs = {_range(name, bits)[0] for name, bits, word, _ in wire
                 if bits and (word is None or name in tops)}
        values = {}
        for name, _, word, shift in wire:
            values.setdefault(word or name, []).append(f"{name} << {shift}" if shift else name)

        def spell(source):
            return self.spell(source, names)

        return ([f"{spell(name)} = {spell(source)}" for name, source in self.computed.items()],
                [f"({spell(test)})" for test, _ in self.refusals() if test not in packs],
                [spell(" | ".join(terms)) for terms in values.values()])


#: A name in a layout's expression.
_NAME = re.compile(r"\b[A-Za-z_]\w*")
#: A replacement field of an f-string text.
_REPLACEMENT = re.compile(r"\{[^{}]*\}")
#: One field's code in a ``struct`` format.
_CODE = re.compile(r"\d*[A-Za-z?]")
#: A layout expression that reads the buffer or its length.
_READS_BUFFER = re.compile(r"\b(?:length|buf)\b").search


def _range(name: str, bits: int) -> tuple[str, str]:
    """The test that ``name`` fits ``bits`` unsigned bits, and its text."""
    return (f"0 <= {name} < {1 << bits}",
            f"{name} out of range for {bits}-bit field: {{{name}}}")


def _truncated(what: str, need: str) -> str:
    """The text of a header that needs ``need`` bytes at ``at``, past the
    buffer's end."""
    return (f"truncated {what}: need {{{need}}} bytes at offset {{at}}, "
            "have {length - at}")


def _emit_lines(cls) -> list[str]:
    """The source of ``cls.emit``, from ``cls.READ`` (see the module
    docstring)."""
    layout = cls.READ
    names = layout.emitted({f.name: f"self.{f.name}" for f in fields(cls)})
    computed, terms, values = layout.packing(names)
    packed = f"pack({', '.join(values)})"
    if layout.span:
        packed += f" + {names[layout.span]}"
    lines = [
        "  def emit(self):",
        *(f"    {line}" for line in computed),
        "    try:",
        f"      if {' and '.join(terms)}:",
        f"        return {packed}",
        "    except (struct.error, TypeError) as exc:",
        "      refused = exc",
    ]
    for test, text in layout.refusals():
        text = _REPLACEMENT.sub(lambda m: layout.spell(m[0], names), text)
        lines += [f"    if not ({layout.spell(test, names)}):",
                  f"      raise EmitError(f{text!r})"]
    return lines + ["    raise refused"]


def _codec(cls):
    """Generate ``cls.parse(buf, offset=0)``, ``cls.emit()`` and a property
    per computed field from ``cls.READ``.

    The generated ``parse`` runs the layout's step (``FieldRead.step``),
    raising the ``ParseError`` of the first refusal, and returns the header,
    built positionally in its constructor's order, with its size.
    """
    layout = cls.READ
    names = {"at": "offset", "length": "len(buf)"}
    own = layout.attributes({f.name: f"self.{f.name}" for f in fields(cls)})
    lines = [
        "def define(cls, unpack, pack):",
        "  def parse(buf, offset=0):",
        *(f"    {line}" for line in layout.step(names, "raise ParseError(f{!r})")),
        f"    return cls({layout.arguments(cls, names)}), size",
        *_emit_lines(cls),
        "  cls.parse = staticmethod(parse)",
        "  cls.emit = emit",
        *(f"  cls.{name} = property(lambda self: {own[name]})" for name in layout.computed),
    ]
    scope = {}
    exec(compile("\n".join(lines), f"<{cls.__name__} codec>", "exec"), globals(), scope)
    scope["define"](cls, layout.unpack.unpack_from, layout.unpack.pack)
    return cls


def runs(layouts, first: int = 0, ends=()) -> list[tuple[range, struct.Struct]]:
    """Split ``layouts``, a chain's from index ``first``, into runs of fixed
    parts, each its indexes and the ``Struct`` of its formats joined, which
    ``writer`` packs and a generated walk unpacks at once. A run ends at a
    span, whose size is known only once its fixed part is read, at an index
    in ``ends`` and at the chain's end."""
    planned, start = [], first
    for k in range(first, len(layouts)):
        if layouts[k].span or k in ends or k == len(layouts) - 1:
            run = range(start, k + 1)
            formats = (layouts[i].unpack.format.removeprefix("!") for i in run)
            planned.append((run, struct.Struct("!" + "".join(formats))))
            start = k + 1
    return planned


def writer(*chain) -> Callable[..., bytes]:
    """Generate and compile the function that emits the headers of
    ``chain``, codec classes in order, as one byte string.

    It takes each header's constructor arguments, in the constructor's
    order, header after header, and returns the joined bytes of the
    ``emit`` of each header they build, or raises what the first ``emit``
    to raise would. It builds no header to do so: it runs every ``emit``'s
    fast path (``FieldRead.packing``) over its arguments, binding the
    computed fields, testing the conjunction of the conditions and packing
    with one ``Struct`` per run of fixed parts (``runs``). A span ends its
    run and follows its packed bytes, so a span inside the chain splits the
    pack. When the conditions fail, or the pack or an expression raises
    ``struct.error`` or ``TypeError``, it returns the codecs' own ``emit``s
    in chain order, so each refusal is that codec's own.
    """
    namespace = dict(globals())
    arguments, computed, terms, parts, emits = [], [], [], [], []
    for run, joined in runs([cls.READ for cls in chain]):
        values = []
        for k in run:
            cls, layout = chain[k], chain[k].READ
            names = {f.name: f"h{k}_{f.name}" for f in fields(cls)}
            arguments += names.values()
            namespace[cls.__name__] = cls
            emits.append(f"{cls.__name__}({', '.join(names.values())}).emit()")
            names = layout.emitted({**names, **{name: f"h{k}_{name}" for name in layout.computed}})
            lines, condition, packed = layout.packing(names)
            computed += lines
            terms += condition
            values += packed
        pack = f"pack{k}"
        namespace[pack] = joined.pack
        parts.append(f"{pack}({', '.join(values)})")
        if layout.span:
            parts.append(names[layout.span])
    lines = [
        f"def write({', '.join(arguments)}):",
        "    try:",
        *(f"        {line}" for line in computed),
        f"        if {' and '.join(terms)}:",
        f"            return {' + '.join(parts)}",
        "    except (struct.error, TypeError):",
        "        pass",
        f"    return {' + '.join(emits)}",
    ]
    exec(compile("\n".join(lines) + "\n", "<chain writer>", "exec"), namespace)
    return namespace["write"]


@_codec
@dataclass(slots=True)
class EthHdr:
    """Ethernet II header: dst MAC, src MAC, ethertype. 14 bytes."""

    dst: bytes
    src: bytes
    ether_type: int

    READ = FieldRead(
        "Ethernet header", _ETH, ("dst", "src", "ether_type"), (), "fixed",
        linkage="ether_type",
    )


@_codec
@dataclass(slots=True)
class Ipv6Hdr:
    """Fixed 40-byte IPv6 header. ``payload_len`` counts every byte after it."""

    src: bytes
    dst: bytes
    payload_len: int
    next_header: int
    hop_limit: int
    version: int = 6
    traffic_class: int = 0
    flow_label: int = 0

    READ = FieldRead(
        "IPv6 header", _IPV6,
        ("v_tc_fl", "payload_len", "next_header", "hop_limit", "src", "dst"),
        (("version == 6", "IPv6 version nibble is {version}, expected 6"),),
        "fixed",
        words={"v_tc_fl": {"version": 4, "traffic_class": 8, "flow_label": 20}},
        after=frozenset({"EthHdr"}), proto=ETHERTYPE_IPV6, linkage="next_header",
    )


@_codec
@dataclass(slots=True)
class TcpHdr:
    """TCP header over IPv6. Options are carried as opaque bytes.

    ``flags`` is the 9-bit NS..FIN block; ``data_offset`` is the header
    length in 32-bit words, so the serialized size is data_offset * 4.
    ``reserved`` holds the 3 bits between them, carried so that parse then
    emit gives back the original bytes.
    """

    src_port: int
    dst_port: int
    seq: int
    ack: int
    data_offset: int
    flags: int
    window: int
    checksum: int
    urgent_ptr: int
    options: bytes = b""
    reserved: int = 0

    READ = FieldRead(
        "TCP header", _TCP,
        ("src_port", "dst_port", "seq", "ack", "off_flags", "window", "checksum",
         "urgent_ptr"),
        (("data_offset >= 5", "TCP data offset {data_offset} below minimum 5"),
         ("at + size <= length", _truncated("TCP header with options", "size"))),
        "data_offset * 4",
        words={"off_flags": {"data_offset": 4, "reserved": 3, "flags": 9}},
        span="options",
        hidden=("reserved",),
        after=frozenset({"Ipv6Hdr", "Srv6RoutingHdr"}), slot="Ipv6Hdr", proto=PROTO_TCP,
    )


@_codec
@dataclass(slots=True)
class Icmpv6PktTooBig:
    """ICMPv6 Packet Too Big message: type 2, code 0, 32-bit MTU, then as
    much of the invoking packet as fits the minimum-MTU reply budget.

    The message runs to the end of the buffer, and both parse and emit
    refuse one longer than that budget (RFC 4443 section 2.4(c)), so parse
    then emit gives back the original bytes."""

    checksum: int
    mtu: int
    invoking_packet: bytes
    msg_type: int = ICMPV6_PKT_TOO_BIG
    code: int = 0

    MAX_SIZE = IPV6_MIN_MTU - IPV6_HDR_SIZE
    READ = FieldRead(
        "ICMPv6 Packet Too Big header", _ICMPV6_PTB,
        ("msg_type", "code", "checksum", "mtu"),
        ((f"msg_type == {ICMPV6_PKT_TOO_BIG} and code == 0",
          "not an ICMPv6 Packet Too Big message: type {msg_type}, code {code}"),
         (f"size <= {MAX_SIZE}",
          "Packet Too Big message of {size} bytes exceeds the minimum-MTU reply "
          f"budget of {MAX_SIZE} bytes")),
        "length - at",
        span="invoking_packet",
        after=frozenset({"Ipv6Hdr"}), slot="Ipv6Hdr", proto=PROTO_ICMPV6,
    )


@_codec
@dataclass(slots=True)
class Srv6RoutingHdr:
    """IPv6 Segment Routing header (routing type 4).

    Serialized size is 8 + 8 * hdr_ext_len; the segment list is the bytes
    of last_entry + 1 addresses, 16 bytes each, so hdr_ext_len is twice
    the segment count.
    """

    next_header: int
    segments_left: int
    segments: bytes
    flags: int = 0
    tag: int = 0
    routing_type: int = SRV6_ROUTING_TYPE

    READ = FieldRead(
        "SRv6 routing header", _SRV6,
        ("next_header", "hdr_ext_len", "routing_type", "segments_left", "last_entry",
         "flags", "tag"),
        ((f"routing_type == {SRV6_ROUTING_TYPE}",
          f"routing type {{routing_type}}, expected {SRV6_ROUTING_TYPE} (SRv6)"),
         ("hdr_ext_len >= 2 and not hdr_ext_len % 2",
          "SRv6 header extension length {hdr_ext_len} cannot hold 16-byte segments"),
         ("at + size <= length", _truncated("SRv6 routing header segments", "size")),
         ("last_entry == hdr_ext_len // 2 - 1",
          "SRv6 last entry {last_entry} disagrees with {hdr_ext_len // 2} segments"),
         ("segments_left <= last_entry + 1",
          "SRv6 segments left {segments_left} exceeds segment count {hdr_ext_len // 2}")),
        "fixed + 8 * hdr_ext_len",
        span="segments",
        computed={"hdr_ext_len": "len(segments) // 8", "last_entry": "hdr_ext_len // 2 - 1"},
        # Extension headers chain: SRv6 may follow another SRv6 header.
        after=frozenset({"Ipv6Hdr", "Srv6RoutingHdr"}), proto=PROTO_SRV6,
        linkage="next_header",
    )


#: The most segments an SRv6 routing header holds: ``hdr_ext_len`` counts
#: 8-byte units, two per 16-byte segment, up to the largest value its
#: width in the layout allows.
MAX_SRV6_SEGMENTS = next(
    ((1 << bits) - 1) // 2
    for name, bits, _, _ in Srv6RoutingHdr.READ.wire() if name == "hdr_ext_len"
)


#: The five codecs by class name, the name a ``Registry`` gives each.
HEADER_TYPES = {
    cls.__name__: cls for cls in (EthHdr, Ipv6Hdr, TcpHdr, Icmpv6PktTooBig, Srv6RoutingHdr)
}


@dataclass(slots=True)
class ChainEntry:
    """Where a header decoded by ``Packet.parse_header`` sits in the bytes."""

    header_type: str
    offset: int
    length: int


@dataclass(slots=True)
class Packet:
    """A packet's ``bytes`` (:meth:`from_bytes` copies any other buffer into one)
    and the ``chain`` of headers :meth:`parse_header` has decoded, () when fresh."""

    data: bytes
    chain: tuple[ChainEntry, ...] = ()

    @classmethod
    def from_bytes(cls, data: bytes) -> "Packet":
        return cls(data if type(data) is bytes else bytes(data))

    def parse_header(self, header_type: str, at_offset: int | None = None):
        """Decode one header at ``at_offset`` (default: where the chain ends)
        and add its chain entry; return (header, consumed)."""
        cls = HEADER_TYPES.get(header_type)
        if cls is None:
            raise ParseError(f"unknown header type {header_type!r}")
        if at_offset is None:
            at_offset = self.chain[-1].offset + self.chain[-1].length if self.chain else 0
        header, consumed = cls.parse(self.data, at_offset)
        self.chain += (ChainEntry(header_type, at_offset, consumed),)
        return header, consumed

    def decode(self, entry: ChainEntry):
        """Re-decode the header value at a chain entry from the buffer."""
        header, _ = HEADER_TYPES[entry.header_type].parse(self.data, entry.offset)
        return header
