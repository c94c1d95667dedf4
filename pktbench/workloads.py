"""The benchmark's traffic mixes and an output oracle that is independent of
pktcheck's own codecs.

Each workload is one NF over one generated packet-size mix. Traffic comes
from pktcheck's ``GeneratorSpec`` with the seed the benchmark was given, so
the same seed yields the same pcap bytes. The violation policy is always
``continue``: violations are the checker's output, not failures.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from pktcheck.generator import GeneratorSpec, generate_records


@dataclass(frozen=True)
class Workload:
    name: str
    nf: str
    template: str
    payload_len: tuple[int, int]
    why: str

    def records(self, seed: int, count: int):
        spec = GeneratorSpec(
            count=count, template=self.template, payload_len=self.payload_len,
            seed=seed,
        )
        return generate_records(spec)


# The `why` strings are repeated in BENCHMARK.json; keep them in step.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mtu-oversize", "mtu-too-big", "tcp6", (1281, 1460),
            "every packet becomes an ICMPv6 Packet Too Big: the most checks "
            "(7 per packet, 6 at egress), the snapshot, a 1240-byte checksum "
            "and the most pcap bytes",
        ),
        Workload(
            "mtu-small", "mtu-too-big", "tcp6", (20, 200),
            "smallest packets, none rewritten: per-packet cost dominates, "
            "egress and checksum are bypassed and every packet fails the "
            "ingress precondition",
        ),
        Workload(
            "srv6-insert", "srv6-change-pkt", "srv6", (40, 512),
            "every packet gains a segment with a cheap transform; all 4 egress "
            "checks read the ingress snapshot, so the dev/bare tax is largest",
        ),
    )
}


def _ones_complement(data: bytes) -> int:
    # Fold after every word, unlike pktcheck's sum-then-fold.
    if len(data) % 2:
        data += b"\x00"
    total = 0
    for (word,) in struct.iter_unpack("!H", data):
        total += word
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def _too_big_reply_ok(data_in: bytes, out: bytes) -> bool:
    """An ICMPv6 Packet Too Big back to the sender, quoting the invoking
    packet from its IPv6 header up to the 1280-byte reply budget."""
    if len(out) != 14 + 40 + 1240:
        return False
    if out[0:6] != data_in[6:12] or out[6:12] != data_in[0:6]:
        return False
    if out[12:14] != b"\x86\xdd" or out[54:55] != b"\x02" or out[55:56] != b"\x00":
        return False
    if out[14:22] != struct.pack("!IHBB", 6 << 28, 1240, 58, 64):
        return False
    src, dst = out[22:38], out[38:54]
    if src != data_in[38:54] or dst != data_in[22:38]:
        return False
    if struct.unpack_from("!I", out, 58)[0] != 1280 or out[62:] != data_in[14:14 + 1232]:
        return False
    pseudo = src + dst + struct.pack("!I3xB", 1240, 58)
    return _ones_complement(pseudo + out[54:]) == 0


#: srv6-change-pkt's default segment, 2001:db8::99.
_APPENDED_SEGMENT = bytes.fromhex("20010db8000000000000000000000099")


def _segment_appended_ok(data_in: bytes, out: bytes) -> bool:
    """The input with one 16-byte segment appended to its SRv6 list and the
    three dependent length fields grown to match."""
    if len(out) != len(data_in) + 16 or out[:18] != data_in[:18]:
        return False
    if struct.unpack_from("!H", out, 18)[0] != struct.unpack_from("!H", data_in, 18)[0] + 16:
        return False
    if out[20:54] != data_in[20:54]:
        return False
    srh = 54
    n_segments = data_in[srh + 1] // 2
    end_in = srh + 8 + 16 * n_segments
    return (
        out[srh] == data_in[srh]
        and out[srh + 1] == data_in[srh + 1] + 2
        and out[srh + 2:srh + 4] == data_in[srh + 2:srh + 4]
        and out[srh + 4] == data_in[srh + 4] + 1
        and out[srh + 5:end_in] == data_in[srh + 5:end_in]
        and out[end_in:end_in + 16] == _APPENDED_SEGMENT
        and out[end_in + 16:] == data_in[end_in:]
    )


_ORACLES = {
    "mtu-oversize": _too_big_reply_ok,
    "mtu-small": lambda data_in, out: out == data_in,
    "srv6-insert": _segment_appended_ok,
}


def output_ok(workload: Workload, data_in: bytes, out: bytes | None) -> bool:
    """True when ``out`` is what the workload's NF must emit for ``data_in``."""
    return out is not None and _ORACLES[workload.name](data_in, out)
