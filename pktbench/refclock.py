"""Host-speed correction for timings taken on a shared machine.

On a shared host the speed of a core swings as other tenants load it: a
fixed pure-Python loop timed over a minute on a 2-vCPU 2.1 GHz Xeon guest
took anywhere from 5.4 to 9 ms, in spells lasting from a second to minutes.
Wall-clock figures taken minutes apart then differ by 10-20% with no change
to the program, which hides the regressions the benchmark exists to catch.

``ReferenceClock`` times a fixed kernel between every two measured items
and scales each item's wall time by ``NOMINAL_S / kernel time``, taking
the median of the kernel runs nearest to the item. The kernel is the
benchmark's own code: it does the interpreter work a packet pass does
(struct unpacking, small dataclasses, bytes slicing and joining, dict and
list access) but calls nothing in pktcheck, so no change to the program
moves it. Scaled times read as wall times on the host in a quiet spell.
"""

from __future__ import annotations

import statistics
import struct
import time
from dataclasses import dataclass

#: Kernel duration on an idle core of the 2.1 GHz Xeon guest the bounds in
#: BENCHMARK.json were set on (fastest of 600 runs: 2.91 ms).
NOMINAL_S = 0.003
KERNEL_ROUNDS = 2000

#: Kernel runs on each side of an item that set its scale: about one round
#: of the benchmark, long enough to smooth the kernel's own noise and short
#: enough to follow spells of load.
SMOOTHING = 4

_FIXED = struct.Struct("!IHBB")
_WORDS = struct.Struct("!HHIIHHHH")


@dataclass
class _Header:
    word: int
    length: int
    proto: int
    hops: int
    addr: bytes


def kernel() -> int:
    buf = bytearray(range(256)) * 6
    table = {"a": 1, "b": 2, "c": 3}
    acc = 0
    for i in range(KERNEL_ROUNDS):
        off = (i * 7) % 1200
        word, length, proto, hops = _FIXED.unpack_from(buf, off)
        header = _Header(word, length, proto, hops, bytes(buf[off + 8:off + 24]))
        out = _FIXED.pack(header.word, header.length, header.proto, header.hops) + header.addr
        acc += sum(_WORDS.unpack_from(buf, off)) & 0xFFFF
        acc += table.get("abc"[i % 3], 0) + len(out)
        acc += [header.word, header.length, header.proto][i % 3] & 1
    return acc


def _kernel_seconds() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class ReferenceClock:
    def __init__(self):
        _kernel_seconds()  # warm-up
        self.kernel_s: list[float] = [_kernel_seconds()]

    def measure(self, fn):
        """Run ``fn`` and then the kernel; return (its result, its wall
        seconds, its position for ``scale``)."""
        t0 = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - t0
        self.kernel_s.append(_kernel_seconds())
        return result, wall, len(self.kernel_s) - 1

    def scale(self, position: int) -> float:
        """Host correction for the item at ``position``: NOMINAL_S over the
        median of the SMOOTHING kernel runs before it and after it."""
        near = self.kernel_s[max(0, position - SMOOTHING):position + SMOOTHING]
        return NOMINAL_S / statistics.median(near)
