import io
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pktcheck import PcapError, PcapRecord, pcap_bytes, read_pcap, write_pcap
from pktcheck.cli import main
from pktcheck.pcap import LINKTYPE_ETHERNET, PCAP_MAGIC, SNAPLEN, PcapWriter

records_strategy = st.lists(
    st.builds(
        PcapRecord,
        data=st.binary(min_size=0, max_size=200),
        ts_sec=st.integers(min_value=0, max_value=2**32 - 1),
        ts_usec=st.integers(min_value=0, max_value=999_999),
    ),
    max_size=20,
)


@settings(max_examples=200)
@given(records=records_strategy)
def test_round_trip_preserves_records(records):
    blob = pcap_bytes(records)
    back = read_pcap(io.BytesIO(blob))
    assert [(r.data, r.ts_sec, r.ts_usec) for r in back] == [
        (r.data, r.ts_sec, r.ts_usec) for r in records
    ]


def test_a_record_is_slotted():
    # one record per packet: no per-instance dict
    record = PcapRecord(b"\x01", 2, 3)
    assert (record.data, record.ts_sec, record.ts_usec) == (b"\x01", 2, 3)
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        record.extra = 1


def test_file_layout_matches_hand_packed_bytes(tmp_path):
    path = tmp_path / "one.pcap"
    count = write_pcap(path, [PcapRecord(data=b"\xab\xcd", ts_sec=7, ts_usec=9)])
    assert count == 1

    expected = struct.pack(
        "<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 262144, 1
    ) + struct.pack("<IIII", 7, 9, 2, 2) + b"\xab\xcd"
    assert path.read_bytes() == expected


def test_reads_big_endian_files():
    blob = struct.pack(
        ">IHHiIII", PCAP_MAGIC, 2, 4, 0, 0, SNAPLEN, LINKTYPE_ETHERNET
    ) + struct.pack(">IIII", 1, 2, 3, 3) + b"abc"
    records = read_pcap(io.BytesIO(blob))
    assert len(records) == 1
    assert records[0].data == b"abc"
    assert (records[0].ts_sec, records[0].ts_usec) == (1, 2)


def test_write_accepts_path_string_and_stream(tmp_path):
    records = [PcapRecord(data=b"x" * 5)]
    path = tmp_path / "a.pcap"
    write_pcap(str(path), records)
    buf = io.BytesIO()
    write_pcap(buf, records)
    assert path.read_bytes() == buf.getvalue()
    assert read_pcap(str(path))[0].data == b"x" * 5


def test_bad_magic_rejected():
    blob = struct.pack("<IHHiIII", 0xDEADBEEF, 2, 4, 0, 0, SNAPLEN, 1)
    with pytest.raises(PcapError, match="bad pcap magic 0xDEADBEEF"):
        read_pcap(io.BytesIO(blob))


def test_truncated_global_header_rejected():
    with pytest.raises(PcapError, match="truncated pcap global header"):
        read_pcap(io.BytesIO(b"\xd4\xc3\xb2\xa1\x02\x00"))


def test_unsupported_linktype_rejected():
    blob = struct.pack("<IHHiIII", PCAP_MAGIC, 2, 4, 0, 0, SNAPLEN, 101)
    with pytest.raises(PcapError, match="unsupported link type 101"):
        read_pcap(io.BytesIO(blob))


def test_truncated_record_header_rejected():
    blob = pcap_bytes([PcapRecord(data=b"abcd")])
    with pytest.raises(PcapError, match="truncated record header at record 1"):
        read_pcap(io.BytesIO(blob + b"\x00" * 7))


def test_truncated_record_body_rejected():
    blob = pcap_bytes([PcapRecord(data=b"abcd")])
    with pytest.raises(PcapError, match="truncated record 0: expected 4 bytes, got 2"):
        read_pcap(io.BytesIO(blob[:-2]))


def test_pcap_bytes_equals_file_write(tmp_path):
    records = [PcapRecord(data=bytes([i]) * i, ts_usec=i) for i in range(6)]
    path = tmp_path / "same.pcap"
    write_pcap(path, records)
    assert pcap_bytes(records) == path.read_bytes()


class _ReadSizes(io.BytesIO):
    """A file that records the largest ``read`` size it was asked for."""

    largest = 0

    def read(self, size=-1):
        self.largest = max(self.largest, size)
        return super().read(size)


def test_oversized_record_is_refused_before_it_is_read():
    blob = pcap_bytes([PcapRecord(data=b"abcd")])
    # a 60-byte file whose second record claims 2 GiB
    fobj = _ReadSizes(blob + struct.pack("<IIII", 0, 0, 0x7FFFFFFF, 0x7FFFFFFF))
    assert len(fobj.getvalue()) == 60
    with pytest.raises(PcapError, match="record 1 claims 2147483647 bytes"):
        read_pcap(fobj)
    assert fobj.largest <= 262144


def test_records_up_to_the_largest_snap_length_are_read():
    # a 65,535-byte payload under 54 header bytes, and libpcap's largest
    # snap length
    records = [PcapRecord(data=bytes(65589)), PcapRecord(data=bytes(262144))]
    back = read_pcap(io.BytesIO(pcap_bytes(records)))
    assert [len(r.data) for r in back] == [65589, 262144]
    with pytest.raises(PcapError, match="record 0 claims 262145 bytes"):
        read_pcap(io.BytesIO(pcap_bytes([PcapRecord(data=bytes(262145))])))


def test_writer_refuses_a_record_over_the_snap_length_before_writing_it():
    big = PcapRecord(data=bytes(SNAPLEN + 1))
    fobj = io.BytesIO()
    writer = PcapWriter(fobj)
    writer.append(PcapRecord(data=b"abcd"))
    written = fobj.getvalue()
    with pytest.raises(PcapError, match="record claims 262145 bytes, over the "
                                        "262144-byte limit"):
        writer.append(big)
    assert fobj.getvalue() == written
    fobj = io.BytesIO()
    with pytest.raises(PcapError, match="record 1 claims 262145 bytes"):
        PcapWriter(fobj).extend([PcapRecord(data=b"abcd"), big])
    assert fobj.getvalue() == written
    assert read_pcap(io.BytesIO(written))[0].data == b"abcd"


def test_declared_snap_length_covers_the_largest_generated_frame(tmp_path, capsys):
    # a record longer than the file's snaplen breaks the format, and
    # libpcap readers truncate it
    path = tmp_path / "big.pcap"
    assert main(["gen", "--out", str(path), "--count", "1",
                 "--payload-len", "65535"]) == 0
    blob = path.read_bytes()
    snaplen = struct.unpack_from("<I", blob, 16)[0]
    incl_len = struct.unpack_from("<I", blob, 24 + 8)[0]
    assert incl_len == 65589
    assert snaplen >= incl_len
