"""Span tracing of pktcheck's layers from outside the program.

While a ``Tracer`` is installed, the public functions listed in ``TARGETS``
are replaced by timing shims, in their own module and wherever another
pktcheck module imported them by name, and restored afterwards. Each call
records a span: name, start, end, parent span and packet ordinal. Spans
stay in memory until the run ends; ``write`` then puts them in a file and
``stats`` derives call counts, inclusive time and self time from them. A
span's self time is its duration minus the durations of its child spans.

A target the program no longer has is listed in ``absent`` and simply
records no spans, so refactors that delete a traced name cannot crash the
benchmark.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

_HEADER_CLASSES = ("EthHdr", "Ipv6Hdr", "TcpHdr", "Icmpv6PktTooBig", "Srv6RoutingHdr")

#: (span name, module, attribute path within the module)
TARGETS = (
    ("pcap.read", "pktcheck.pcap", "read_pcap"),
    ("pcap.write", "pktcheck.pcap", "write_pcap"),
    ("headers.parse_header", "pktcheck.headers", "Packet.parse_header"),
    ("headers.decode", "pktcheck.headers", "Packet.decode"),
    *(("headers.emit", "pktcheck.headers", f"{cls}.emit") for cls in _HEADER_CLASSES),
    ("checksum.pseudo_header", "pktcheck.checksum", "pseudo_header_checksum"),
    ("checksum.internet", "pktcheck.checksum", "internet_checksum"),
    ("registry.parse_chain", "pktcheck.registry", "parse_chain"),
    ("registry.match_chain", "pktcheck.registry", "match_chain"),
    ("contracts.parse", "pktcheck.contracts", "parse_contract_spec"),
    ("contracts.elaborate", "pktcheck.contracts", "elaborate"),
    ("engine.run_ingress", "pktcheck.engine", "run_ingress"),
    ("engine.run_egress", "pktcheck.engine", "run_egress"),
    ("engine.build_snapshot", "pktcheck.engine", "build_snapshot"),
    ("engine.eval_check", "pktcheck.engine", "eval_check"),
    ("nfs.apply", "pktcheck.nfs", "NetworkFunction.apply"),
    ("pipeline.run_records", "pktcheck.pipeline", "run_records"),
    ("pipeline.run_pipeline", "pktcheck.pipeline", "run_pipeline"),
)

#: A packet starts wherever a Packet is built from bytes outside nf.apply
#: (the NF builds its output packets inside it).
PACKET_MARKER = ("pktcheck.headers", "Packet.from_bytes")

#: The pipeline's own phase timer, counted rather than spanned.
TIMER_HOST = "pktcheck.pipeline"


class _CountingClock:
    """Stands in for the ``time`` module of the pipeline and counts its
    ``perf_counter_ns`` calls."""

    def __init__(self, tracer: "Tracer"):
        self._tracer = tracer

    def perf_counter_ns(self) -> int:
        self._tracer.timer_calls += 1
        return time.perf_counter_ns()

    def __getattr__(self, name):
        return getattr(time, name)


@dataclass
class PassStats:
    """Per span name: calls, inclusive ns (outermost spans of that name) and
    self ns, plus pipeline timer calls, for one traced pass."""

    calls: Counter
    incl_ns: Counter
    self_ns: Counter
    timer_calls: int


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.packet = array("q")
        self.start = array("q")
        self.end = array("q")
        self.passes: list[tuple[str, int, int, int]] = []  # label, first, end, timer calls
        self.absent: list[str] = []
        self.timer_calls = 0
        self._stack: list[int] = []
        self._packet = -1
        self._undo: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _shim(self, name: str, fn):
        nid = self._id(name)
        names, parents, packets, starts, ends = (
            self.name, self.parent, self.packet, self.start, self.end
        )
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            index = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            packets.append(self._packet)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return shim

    def _marker(self, fn):
        apply_id = self._id("nfs.apply")
        names, stack = self.name, self._stack

        @functools.wraps(fn)
        def marker(*args, **kwargs):
            if all(names[i] != apply_id for i in stack):
                self._packet += 1
            return fn(*args, **kwargs)

        return marker

    def _patch(self, module_name: str, attr_path: str, make) -> bool:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return False
        *owner_path, leaf = attr_path.split(".")
        owner = module
        for part in owner_path:
            owner = getattr(owner, part, None)
            if owner is None:
                return False
        if isinstance(owner, type):
            raw = owner.__dict__.get(leaf)
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(make(raw.__func__))
            elif callable(raw):
                new = make(raw)
            else:
                return False
            setattr(owner, leaf, new)
            self._undo.append((owner, leaf, raw))
            return True
        fn = getattr(owner, leaf, None)
        if not callable(fn):
            return False
        new = make(fn)
        package = module_name.partition(".")[0]
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod_name.partition(".")[0] != package:
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, new)
                    self._undo.append((mod, attr, fn))
        return True

    @contextmanager
    def installed(self):
        """Shim every target for the duration of the block."""
        self.absent = []
        try:
            for name, module_name, attr_path in self.targets:
                if not self._patch(module_name, attr_path, functools.partial(self._shim, name)):
                    self.absent.append(f"{module_name}.{attr_path}")
            if not self._patch(*PACKET_MARKER, self._marker):
                self.absent.append(".".join(PACKET_MARKER))
            host = sys.modules.get(TIMER_HOST)
            if host is not None and getattr(host, "time", None) is time:
                host.time = _CountingClock(self)
                self._undo.append((host, "time", time))
            else:
                self.absent.append(f"{TIMER_HOST}.time")
            yield self
        finally:
            while self._undo:
                owner, attr, original = self._undo.pop()
                setattr(owner, attr, original)

    @contextmanager
    def traced_pass(self, label: str):
        """Group the spans recorded inside the block as one pass; packet
        ordinals restart at 0."""
        first, timer = len(self.start), self.timer_calls
        self._packet = -1
        try:
            yield
        finally:
            self.passes.append((label, first, len(self.start), self.timer_calls - timer))

    def stats(self, pass_index: int) -> PassStats:
        _, lo, hi, timer_calls = self.passes[pass_index]
        dur = [self.end[i] - self.start[i] for i in range(lo, hi)]
        own = list(dur)
        for i in range(lo, hi):
            if self.parent[i] >= lo:
                own[self.parent[i] - lo] -= dur[i - lo]
        calls, incl, self_ns = Counter(), Counter(), Counter()
        for i in range(lo, hi):
            name = self.name[i]
            calls[name] += 1
            self_ns[name] += own[i - lo]
            ancestor = self.parent[i]
            while ancestor >= lo and self.name[ancestor] != name:
                ancestor = self.parent[ancestor]
            if ancestor < lo:
                incl[name] += dur[i - lo]
        by_name = lambda counter: Counter({self.names[k]: v for k, v in counter.items()})
        return PassStats(by_name(calls), by_name(incl), by_name(self_ns), timer_calls)

    def write(self, path) -> None:
        """Write the spans of every pass as CSV."""
        with open(path, "w") as out:
            out.write("pass,span,name,parent,packet,start_ns,end_ns\n")
            for label, lo, hi, _ in self.passes:
                for i in range(lo, hi):
                    out.write(
                        f"{label},{i},{self.names[self.name[i]]},{self.parent[i]},"
                        f"{self.packet[i]},{self.start[i]},{self.end[i]}\n"
                    )
