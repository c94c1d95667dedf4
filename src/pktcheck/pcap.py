"""Classic pcap file I/O (the 24-byte-global-header format, not pcapng).

Files are written little-endian with magic 0xA1B2C3D4, version 2.4,
microsecond timestamps, and link type 1 (Ethernet). Reading accepts
either byte order, keyed off the magic. Record bytes and timestamps
round-trip exactly.

A file opened here by path (and ``run_pipeline``'s ``<output>.part``)
gets one 256 KiB buffer, not the filesystem's block size, so a pass
makes one system call per 256 KiB of records, not one per 4 KiB.
``PcapWriter`` checks a whole record, then hands it to the file in one
``write`` of header plus data, so a refused record leaves no byte
behind.
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

_GLOBAL_HDR = struct.Struct("<IHHiIII")
_GLOBAL_HDR_BE = struct.Struct(">IHHiIII")
_RECORD_HDR = struct.Struct("<IIII")
_RECORD_HDR_BE = struct.Struct(">IIII")
_FILE_HEADER = _GLOBAL_HDR.pack(
    PCAP_MAGIC, VERSION_MAJOR, VERSION_MINOR, 0, 0, SNAPLEN, LINKTYPE_ETHERNET
)


@dataclass(slots=True)
class PcapRecord:
    """One captured packet: microsecond timestamp plus raw bytes. The
    pipeline may emit a caller's record unchanged, as the same object."""

    data: bytes
    ts_sec: int = 0
    ts_usec: int = 0


def _too_long(record: str, length: int) -> PcapError:
    return PcapError(f"{record} claims {length} bytes, over the {SNAPLEN}-byte limit")


def _bad_time(record: str, ts: tuple) -> PcapError:
    return PcapError(f"{record} has timestamp {ts!r}, not two ints in 0..{2**32 - 1}")


def _bad_usec(record: str, ts_usec: int) -> PcapError:
    return PcapError(f"{record} has ts_usec {ts_usec}, over {_USEC_PER_SEC - 1} microseconds")


def _open(target, mode: str):
    if isinstance(target, (str, Path)):
        return open(target, mode, buffering=_BUFFER_BYTES), True
    return target, False


class PcapWriter:
    """Streams records into an open binary file as a classic pcap: the
    global header at construction, then each record as it is appended.
    Any object with ``append`` can take a run's output; this one keeps
    no record after writing it."""

    def __init__(self, fobj: BinaryIO):
        fobj.write(_FILE_HEADER)
        self._write = fobj.write

    def append(self, record: PcapRecord) -> None:
        """Write one record; one longer than ``SNAPLEN``, whose timestamp is
        not two ints in 0..2**32 - 1 or whose ``ts_usec`` is a second or
        more raises PcapError before any of its bytes are written."""
        data = record.data
        if len(data) > SNAPLEN:
            raise _too_long("record", len(data))
        try:
            head = _RECORD_HDR.pack(record.ts_sec, record.ts_usec, len(data), len(data))
        except struct.error:
            raise _bad_time("record", (record.ts_sec, record.ts_usec)) from None
        if record.ts_usec >= _USEC_PER_SEC:
            raise _bad_usec("record", record.ts_usec)
        self._write(head + data)

    def extend(self, records: Iterable[PcapRecord]) -> int:
        """Write every record, as ``append`` would; returns the count."""
        write, pack = self._write, _RECORD_HDR.pack
        count = 0
        for record in records:
            data = record.data
            if len(data) > SNAPLEN:
                raise _too_long(f"record {count}", len(data))
            try:
                head = pack(record.ts_sec, record.ts_usec, len(data), len(data))
            except struct.error:
                raise _bad_time(f"record {count}", (record.ts_sec, record.ts_usec)) from None
            if record.ts_usec >= _USEC_PER_SEC:
                raise _bad_usec(f"record {count}", record.ts_usec)
            write(head + data)
            count += 1
        return count


def write_pcap(target: str | Path | BinaryIO, records: Iterable[PcapRecord]) -> int:
    """Write records to a classic pcap file; returns the record count."""
    fobj, owned = _open(target, "wb")
    try:
        return PcapWriter(fobj).extend(records)
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
        magic_le = struct.unpack("<I", head[:4])[0]
        if magic_le == PCAP_MAGIC:
            ghdr, rhdr = _GLOBAL_HDR, _RECORD_HDR
        elif struct.unpack(">I", head[:4])[0] == PCAP_MAGIC:
            ghdr, rhdr = _GLOBAL_HDR_BE, _RECORD_HDR_BE
        else:
            raise PcapError(f"bad pcap magic 0x{magic_le:08X}")
        _, _, _, _, _, _, linktype = ghdr.unpack(head)
        if linktype != LINKTYPE_ETHERNET:
            raise PcapError(f"unsupported link type {linktype} (expected Ethernet)")
        index = 0
        while True:
            rec_head = fobj.read(rhdr.size)
            if not rec_head:
                return
            if len(rec_head) < rhdr.size:
                raise PcapError(f"truncated record header at record {index}")
            ts_sec, ts_usec, incl_len, orig_len = rhdr.unpack(rec_head)
            if incl_len > SNAPLEN:
                raise _too_long(f"record {index}", incl_len)
            if orig_len < incl_len:
                raise PcapError(
                    f"record {index} has orig_len {orig_len}, under its "
                    f"incl_len {incl_len}"
                )
            if ts_usec >= _USEC_PER_SEC:
                raise _bad_usec(f"record {index}", ts_usec)
            data = fobj.read(incl_len)
            if len(data) < incl_len:
                raise PcapError(
                    f"truncated record {index}: expected {incl_len} bytes, "
                    f"got {len(data)}"
                )
            yield PcapRecord(data, ts_sec, ts_usec)
            index += 1
    finally:
        if owned:
            fobj.close()


def pcap_bytes(records: Iterable[PcapRecord]) -> bytes:
    """Serialize records to in-memory pcap bytes (handy for comparisons)."""
    buf = io.BytesIO()
    write_pcap(buf, records)
    return buf.getvalue()
