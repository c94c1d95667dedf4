import io
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pktcheck import (
    BuildMode,
    GeneratorSpec,
    PcapError,
    PcapRecord,
    RunConfig,
    generate_records,
    make_nf,
    pcap_bytes,
    read_pcap,
    run_pipeline,
    run_records,
    standard_registry,
    write_pcap,
)
from pktcheck.cli import main
from pktcheck.pcap import (
    _BUFFER_BYTES,
    LINKTYPE_ETHERNET,
    PCAP_MAGIC,
    SNAPLEN,
    PcapWriter,
    iter_pcap,
)

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
    with pytest.raises(PcapError, match="^record 1 claims 262145 bytes, over the "
                                        "262144-byte limit"):
        writer.append(big)
    assert fobj.getvalue() == written
    fobj = io.BytesIO()
    with pytest.raises(PcapError, match="^record 1 claims 262145 bytes"):
        write_pcap(fobj, [PcapRecord(data=b"abcd"), big])
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


#: Timestamps the format cannot hold: each field is an unsigned 32-bit int.
BAD_TIMES = [(-1, 0), (2**32, 0), (0, 2**32), (1.5, 0)]


@pytest.mark.parametrize("ts_sec, ts_usec", BAD_TIMES)
def test_writer_refuses_a_timestamp_it_cannot_hold_before_writing_it(ts_sec, ts_usec):
    good, bad = PcapRecord(b"abcd", 1, 2), PcapRecord(b"efgh", ts_sec, ts_usec)
    fobj = io.BytesIO()
    with pytest.raises(PcapError) as excinfo:
        write_pcap(fobj, [good, bad])
    assert str(excinfo.value) == (
        f"record 1 has timestamp ({ts_sec!r}, {ts_usec!r}), not two ints in 0..4294967295"
    )
    assert fobj.getvalue() == pcap_bytes([good])
    fobj = io.BytesIO()
    writer = PcapWriter(fobj)
    with pytest.raises(PcapError, match=r"^record 0 has timestamp "):
        writer.append(bad)
    assert fobj.getvalue() == pcap_bytes([])


@pytest.mark.parametrize("ts_sec, ts_usec", BAD_TIMES)
def test_a_run_into_a_writer_refuses_a_timestamp_it_cannot_hold(ts_sec, ts_usec):
    # one packet passed through as its record, one rewritten into a new one
    registry = standard_registry()
    nf = make_nf("mtu-too-big", registry)
    small, large = (
        generate_records(GeneratorSpec(count=1, payload_len=length, seed=4))[0]
        for length in (100, 1300)
    )
    for record in (small, large):
        bad = PcapRecord(record.data, ts_sec, ts_usec)
        fobj = io.BytesIO()
        with pytest.raises(PcapError, match=r"^record 1 has timestamp "):
            run_records(nf, [record, bad], registry, out=PcapWriter(fobj))
        (written,) = read_pcap(io.BytesIO(fobj.getvalue()))
        assert (written.ts_sec, written.ts_usec) == (record.ts_sec, record.ts_usec)


def test_writer_refuses_a_ts_usec_of_a_second_or_more_before_writing_it():
    # magic 0xA1B2C3D4 declares microsecond stamps: 999,999 is the largest
    good, bad = PcapRecord(b"abcd", 1, 999_999), PcapRecord(b"efgh", 1, 1_000_000)
    assert read_pcap(io.BytesIO(pcap_bytes([good]))) == [good]
    fobj = io.BytesIO()
    with pytest.raises(PcapError) as excinfo:
        write_pcap(fobj, [good, bad])
    assert str(excinfo.value) == "record 1 has ts_usec 1000000, over 999999 microseconds"
    assert fobj.getvalue() == pcap_bytes([good])
    fobj = io.BytesIO()
    with pytest.raises(PcapError, match=r"^record 0 has ts_usec 5000000, "):
        PcapWriter(fobj).append(PcapRecord(b"x", 1, 5_000_000))
    assert fobj.getvalue() == pcap_bytes([])


def test_a_run_into_a_writer_refuses_a_ts_usec_of_a_second_or_more():
    # one packet passed through as its record, one rewritten into a new one
    registry = standard_registry()
    nf = make_nf("mtu-too-big", registry)
    for length in (100, 1300):
        (record,) = generate_records(GeneratorSpec(count=1, payload_len=length, seed=4))
        bad = PcapRecord(record.data, 7, 1_000_000)
        fobj = io.BytesIO()
        with pytest.raises(PcapError, match=r"^record 1 has ts_usec 1000000, "):
            run_records(nf, [record, bad], registry, out=PcapWriter(fobj))
        (written,) = read_pcap(io.BytesIO(fobj.getvalue()))
        assert (written.ts_sec, written.ts_usec) == (record.ts_sec, record.ts_usec)


@pytest.mark.parametrize("order", ["<", ">"], ids=["little-endian", "big-endian"])
def test_reader_refuses_a_ts_usec_of_a_second_or_more(order):
    # hand-built: the writer refuses such a record
    blob = struct.pack(order + "IHHiIII", PCAP_MAGIC, 2, 4, 0, 0, SNAPLEN, LINKTYPE_ETHERNET)
    for ts_usec, data in ((999_999, b"a"), (5_000_000, b"b")):
        blob += struct.pack(order + "IIII", 1, ts_usec, 1, 1) + data
    records = iter_pcap(io.BytesIO(blob))
    assert next(records) == PcapRecord(b"a", 1, 999_999)
    with pytest.raises(PcapError) as excinfo:
        next(records)
    assert str(excinfo.value) == "record 1 has ts_usec 5000000, over 999999 microseconds"
    with pytest.raises(PcapError, match="^record 1 has ts_usec 5000000, "):
        read_pcap(io.BytesIO(blob))


@pytest.mark.parametrize("order", ["<", ">"], ids=["little-endian", "big-endian"])
def test_reader_refuses_an_orig_len_under_the_incl_len(order):
    # a capture cut at its snap length has orig_len over incl_len, never under
    blob = struct.pack(order + "IHHiIII", PCAP_MAGIC, 2, 4, 0, 0, SNAPLEN, LINKTYPE_ETHERNET)
    for orig_len in (9, 1):
        blob += struct.pack(order + "IIII", 1, 2, 4, orig_len) + b"abcd"
    records = iter_pcap(io.BytesIO(blob))
    assert next(records) == PcapRecord(b"abcd", 1, 2, orig_len=9)
    with pytest.raises(PcapError) as excinfo:
        next(records)
    assert str(excinfo.value) == "record 1 has orig_len 1, under its incl_len 4"
    with pytest.raises(PcapError, match="^record 1 has orig_len 1, "):
        read_pcap(io.BytesIO(blob))


def test_a_refused_record_leaves_the_stream_readable():
    # a record is checked whole before any of its bytes reach the file
    good = [PcapRecord(b"abcd", 1, 2), PcapRecord(b"ef", 3, 4)]
    bad = PcapRecord("text", 1, 2)
    fobj = io.BytesIO()
    writer = PcapWriter(fobj)
    for record in good:
        writer.append(record)
    with pytest.raises(PcapError, match="^record 2 has data of type str, not bytes$"):
        writer.append(bad)
    assert read_pcap(io.BytesIO(fobj.getvalue())) == good
    fobj = io.BytesIO()
    with pytest.raises(PcapError, match="^record 2 has data of type str, not bytes$"):
        write_pcap(fobj, [*good, bad])
    assert fobj.getvalue() == pcap_bytes(good)


class _CountWrites(io.BytesIO):
    """A file that counts its ``write`` calls."""

    writes = 0

    def write(self, data):
        self.writes += 1
        return super().write(data)


def test_the_writer_makes_one_write_per_record():
    records = [PcapRecord(bytes([i]) * i, i, i) for i in range(5)]
    fobj = _CountWrites()
    writer = PcapWriter(fobj)
    assert fobj.writes == 1  # the global header
    writer.append(records[0])
    assert fobj.writes == 2
    fobj = _CountWrites()
    assert write_pcap(fobj, records) == 5
    assert fobj.writes == 6
    assert fobj.getvalue() == pcap_bytes(records)


def _records_over_two_buffers() -> list[PcapRecord]:
    # small records, one of SNAPLEN bytes across the first 256 KiB
    # boundary, then enough small ones to pass the second
    small = [PcapRecord(bytes([i % 251]) * (60 + i % 1400), i, i % 1_000_000)
             for i in range(800)]
    records = small[:150] + [PcapRecord(b"\xaa" * SNAPLEN, 7, 8)] + small[150:]
    assert len(pcap_bytes(records[:150])) < _BUFFER_BYTES < len(pcap_bytes(records[:151]))
    assert len(pcap_bytes(records)) > 2 * _BUFFER_BYTES
    return records


def _big_endian_bytes(records) -> bytes:
    blob = struct.pack(">IHHiIII", PCAP_MAGIC, 2, 4, 0, 0, SNAPLEN, LINKTYPE_ETHERNET)
    for r in records:
        blob += struct.pack(">IIII", r.ts_sec, r.ts_usec, len(r.data), len(r.data)) + r.data
    return blob


def test_files_over_two_buffers_round_trip_through_paths(tmp_path):
    records = _records_over_two_buffers()
    expected = pcap_bytes(records)
    path = tmp_path / "big.pcap"
    assert write_pcap(path, records) == len(records)
    assert path.read_bytes() == expected
    assert pcap_bytes(iter_pcap(path)) == expected


@pytest.mark.parametrize("order", ["<", ">"], ids=["little-endian", "big-endian"])
def test_a_run_over_two_buffers_writes_its_records_unchanged(tmp_path, order):
    # mtu-too-big passes every record here through as it came
    records = _records_over_two_buffers()
    expected = pcap_bytes(records)
    source = tmp_path / "in.pcap"
    source.write_bytes(expected if order == "<" else _big_endian_bytes(records))
    out = tmp_path / "out.pcap"
    summary = run_pipeline(RunConfig(
        "mtu-too-big", input_path=str(source), output_path=str(out),
        mode=BuildMode.PRODUCTION,
    ))
    assert summary.packets_out == len(records)
    assert out.read_bytes() == expected


#: Records the writer refuses, one of each kind: too long, a timestamp the
#: format cannot hold, a ts_usec of a second or more, data that is not
#: bytes, and an orig_len under the data's length or past 32 bits.
refused_records = st.one_of(
    st.builds(PcapRecord, st.just(bytes(SNAPLEN + 1))),
    st.builds(PcapRecord, st.binary(max_size=8), st.sampled_from([-1, 2**32, 1.5])),
    st.builds(PcapRecord, st.binary(max_size=8),
              ts_usec=st.integers(min_value=1_000_000, max_value=2**32 - 1)),
    st.builds(PcapRecord, st.text(max_size=8)),
    st.builds(PcapRecord, st.binary(min_size=2, max_size=8),
              orig_len=st.sampled_from([1, 2**32, 2**40])),
)


def _written_and_refused(write, records):
    fobj = io.BytesIO()
    try:
        write(fobj, records)
    except PcapError as error:
        return fobj.getvalue(), str(error)
    return fobj.getvalue(), None


def _append_each(fobj, records):
    writer = PcapWriter(fobj)
    for record in records:
        writer.append(record)


@settings(max_examples=200)
@given(records=records_strategy, refused=st.none() | refused_records, data=st.data())
def test_write_pcap_writes_and_refuses_as_a_loop_of_append(records, refused, data):
    if refused is not None:
        at = data.draw(st.integers(min_value=0, max_value=len(records)))
        records = records[:at] + [refused] + records[at:]
    streamed = _written_and_refused(write_pcap, records)
    assert streamed == _written_and_refused(_append_each, records)
    blob, error = streamed
    if refused is None:
        assert (blob, error) == (pcap_bytes(records), None)
    else:
        assert error.startswith(f"record {at} ")
        assert blob == pcap_bytes(records[:at])


def _capture(order, rows) -> bytes:
    # rows of (ts_sec, ts_usec, data, orig_len), packed in the given byte order
    blob = struct.pack(order + "IHHiIII", PCAP_MAGIC, 2, 4, 0, 0, SNAPLEN, LINKTYPE_ETHERNET)
    for ts_sec, ts_usec, data, orig_len in rows:
        blob += struct.pack(order + "IIII", ts_sec, ts_usec, len(data), orig_len) + data
    return blob


@pytest.mark.parametrize("order", ["<", ">"], ids=["little-endian", "big-endian"])
def test_an_orig_len_over_the_incl_len_round_trips(order):
    # a capture cut at its snap length keeps the wire length of each packet
    rows = [(1, 2, b"abcd", 9), (3, 4, b"ef", 2), (5, 6, b"", 2**32 - 1)]
    records = read_pcap(io.BytesIO(_capture(order, rows)))
    assert records == [PcapRecord(b"abcd", 1, 2, orig_len=9), PcapRecord(b"ef", 3, 4),
                       PcapRecord(b"", 5, 6, orig_len=2**32 - 1)]
    assert pcap_bytes(records) == _capture("<", rows)


def test_writer_refuses_an_orig_len_it_cannot_write_before_writing_it():
    good = PcapRecord(b"abcd", 1, 2, orig_len=4)
    assert read_pcap(io.BytesIO(pcap_bytes([good]))) == [PcapRecord(b"abcd", 1, 2)]
    for orig_len in (3, 2**32, 9.0):
        fobj = io.BytesIO()
        with pytest.raises(PcapError) as excinfo:
            write_pcap(fobj, [good, PcapRecord(b"efgh", 1, 2, orig_len)])
        assert str(excinfo.value) == (
            f"record 1 has orig_len {orig_len!r}, not an int in 4..4294967295"
        )
        assert fobj.getvalue() == pcap_bytes([good])


@pytest.mark.parametrize("mode", list(BuildMode), ids=lambda mode: mode.name.lower())
def test_a_run_keeps_the_orig_len_of_a_record_it_passes_through(tmp_path, mode):
    # mtu-too-big passes the 100-byte payload through and answers the
    # 1,300-byte one with a new record: a packet of its own, whole
    small, large = (
        generate_records(GeneratorSpec(count=1, payload_len=length, seed=4))[0]
        for length in (100, 1300)
    )
    source, out = tmp_path / "in.pcap", tmp_path / "out.pcap"
    write_pcap(source, [
        PcapRecord(small.data, 1, 2, orig_len=len(small.data) + 50),
        PcapRecord(large.data, 3, 4, orig_len=len(large.data) + 50),
    ])
    run_pipeline(RunConfig(
        "mtu-too-big", input_path=str(source), output_path=str(out), mode=mode,
    ))
    passed, answer = read_pcap(out)
    assert passed == PcapRecord(small.data, 1, 2, orig_len=len(small.data) + 50)
    assert (answer.ts_sec, answer.ts_usec, answer.orig_len) == (3, 4, None)
    assert answer.data != large.data
