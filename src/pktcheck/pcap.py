"""Classic pcap file I/O (the 24-byte-global-header format, not pcapng).

Files are written little-endian with magic 0xA1B2C3D4, version 2.4,
microsecond timestamps, and link type 1 (Ethernet). Reading accepts
either byte order, looked up by the file's first four bytes. Record
bytes, timestamps and a cut record's ``orig_len`` round-trip exactly.

A file opened here by path (and ``run_pipeline``'s ``<output>.part``)
gets one 256 KiB buffer, not the filesystem's block size, so a pass
makes one system call per 256 KiB of records, not one per 4 KiB.
``PcapWriter.append``, the one record writer, checks a whole record and
hands it to the file in one ``write`` of header plus data, so a refused
record leaves no byte behind. Writer and reader both name a refused
record ``record N``, N its place in the file.
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator

from .exceptions import PcapError

PCAP_MAGIC = 0xA1B2C3D4
VERSION_MAJOR = 2
VERSION_MINOR = 4
LINKTYPE_ETHERNET = 1
#: The snap length files declare, libpcap's largest: a generated frame
#: (65,589 bytes at most) fits, and no longer record is written or read.
SNAPLEN = 262144
_USEC_PER_SEC = 1_000_000  # a record's ts_usec counts microseconds within its second
#: Buffer bytes per file opened by path, over Python's default of the
#: filesystem's block size (often 4 KiB: hundreds of system calls a pass).
_BUFFER_BYTES = 256 * 1024

#: The (global, record) header Structs of each byte order, by its magic's bytes.
_ORDERS = {
    struct.pack(o + "I", PCAP_MAGIC): (struct.Struct(o + "IHHiIII"), struct.Struct(o + "IIII"))
    for o in "<>"
}
_GLOBAL_HDR, _RECORD_HDR = _ORDERS[struct.pack("<I", PCAP_MAGIC)]
_FILE_HEADER = _GLOBAL_HDR.pack(
    PCAP_MAGIC, VERSION_MAJOR, VERSION_MINOR, 0, 0, SNAPLEN, LINKTYPE_ETHERNET
)


@dataclass(slots=True)
class PcapRecord:
    """One captured packet: microsecond timestamp plus raw bytes. The
    pipeline may emit a caller's record unchanged, as the same object.
    ``orig_len`` is the packet's length on the wire when the capture cut
    it to ``data``; None means ``data`` is the whole packet."""

    data: bytes
    ts_sec: int = 0
    ts_usec: int = 0
    orig_len: int | None = None


def _too_long(index: int, length: int) -> PcapError:
    return PcapError(f"record {index} claims {length} bytes, over the {SNAPLEN}-byte limit")


def _bad_usec(index: int, ts_usec: int) -> PcapError:
    return PcapError(f"record {index} has ts_usec {ts_usec}, "
                     f"over {_USEC_PER_SEC - 1} microseconds")


def _open(target, mode: str):
    if isinstance(target, (str, Path)):
        return open(target, mode, buffering=_BUFFER_BYTES), True
    return target, False


class PcapWriter:
    """Streams records into an open binary file as a classic pcap: the
    global header at construction, then each record as it is appended.
    Any object with ``append`` can take a run's output; this one keeps
    no record after writing it, only ``count``, the records written."""

    def __init__(self, fobj: BinaryIO):
        fobj.write(_FILE_HEADER)
        self._write = fobj.write
        self.count = 0

    def append(self, record: PcapRecord) -> None:
        """Write one record, as record ``count`` of the file. Raise
        PcapError("record N ...") before writing any of its bytes if its
        ``data`` is not bytes or bytearray or is longer than ``SNAPLEN``, its
        ``orig_len`` is under that length or 2**32 or more, its timestamp is
        not two ints in 0..2**32 - 1 or its ``ts_usec`` is a second or more."""
        data, index = record.data, self.count
        # type() first: exact bytes, the common case, skips the isinstance call
        if type(data) is not bytes and not isinstance(data, (bytes, bytearray)):
            raise PcapError(f"record {index} has data of type {type(data).__name__}, not bytes")
        length = len(data)
        if length > SNAPLEN:
            raise _too_long(index, length)
        orig_len = record.orig_len
        if orig_len is None:
            orig_len = length
        elif not (isinstance(orig_len, int) and length <= orig_len < 2**32):
            raise PcapError(f"record {index} has orig_len {orig_len!r}, "
                            f"not an int in {length}..{2**32 - 1}")
        try:
            head = _RECORD_HDR.pack(record.ts_sec, record.ts_usec, length, orig_len)
        except struct.error:
            raise PcapError(f"record {index} has timestamp {(record.ts_sec, record.ts_usec)!r}, "
                            f"not two ints in 0..{2**32 - 1}") from None
        if record.ts_usec >= _USEC_PER_SEC:
            raise _bad_usec(index, record.ts_usec)
        self._write(head + data)
        self.count = index + 1


def write_pcap(target: str | Path | BinaryIO, records: Iterable[PcapRecord]) -> int:
    """Write records to a classic pcap file via ``PcapWriter.append``; returns the count."""
    fobj, owned = _open(target, "wb")
    try:
        writer = PcapWriter(fobj)
        append = writer.append
        for record in records:
            append(record)
        return writer.count
    finally:
        if owned:
            fobj.close()


def read_pcap(target: str | Path | BinaryIO) -> list[PcapRecord]:
    """Read every record of a classic pcap file (either byte order)."""
    return list(iter_pcap(target))


def iter_pcap(target: str | Path | BinaryIO) -> Iterator[PcapRecord]:
    """Yield the records of a classic pcap file lazily, one per ``next``,
    reading either byte order. A path is opened on the first ``next`` and
    closed when the iterator is exhausted or closed; an open file is left
    open. Malformed input raises PcapError when reached: a global header
    under 24 bytes ("truncated pcap global header"), an unknown magic
    ("bad pcap magic"), a link type other than Ethernet ("unsupported link
    type"), a partial record header ("truncated record header at record
    N"), an included length over ``SNAPLEN`` ("record N claims ... bytes"),
    an original length under the included one ("record N has orig_len
    ..."), a ``ts_usec`` of a second or more ("record N has ts_usec ...")
    or a record cut short ("truncated record N")."""
    fobj, owned = _open(target, "rb")
    try:
        head = fobj.read(_GLOBAL_HDR.size)
        if len(head) < _GLOBAL_HDR.size:
            raise PcapError("truncated pcap global header")
        try:
            ghdr, rhdr = _ORDERS[head[:4]]
        except KeyError:
            raise PcapError(f"bad pcap magic 0x{int.from_bytes(head[:4], 'little'):08X}") from None
        _, _, _, _, _, _, linktype = ghdr.unpack(head)
        if linktype != LINKTYPE_ETHERNET:
            raise PcapError(f"unsupported link type {linktype} (expected Ethernet)")
        read, unpack, size = fobj.read, rhdr.unpack, rhdr.size
        index = 0
        while True:
            rec_head = read(size)
            if not rec_head:
                return
            if len(rec_head) < size:
                raise PcapError(f"truncated record header at record {index}")
            ts_sec, ts_usec, incl_len, orig_len = unpack(rec_head)
            if incl_len > SNAPLEN:
                raise _too_long(index, incl_len)
            if orig_len < incl_len:
                raise PcapError(
                    f"record {index} has orig_len {orig_len}, under its "
                    f"incl_len {incl_len}"
                )
            if ts_usec >= _USEC_PER_SEC:
                raise _bad_usec(index, ts_usec)
            data = read(incl_len)
            if len(data) < incl_len:
                raise PcapError(
                    f"truncated record {index}: expected {incl_len} bytes, "
                    f"got {len(data)}"
                )
            yield PcapRecord(data, ts_sec, ts_usec, orig_len if orig_len > incl_len else None)
            index += 1
    finally:
        if owned:
            fobj.close()


def pcap_bytes(records: Iterable[PcapRecord]) -> bytes:
    """Serialize records to in-memory pcap bytes (handy for comparisons)."""
    buf = io.BytesIO()
    write_pcap(buf, records)
    return buf.getvalue()
