#!/usr/bin/env python3
"""Headers and checksums: parse, emit, poke bytes, verify sums.

Walks through the byte-level toolkit everything else builds on: typed
header dataclasses that round-trip through raw bytes, each decoding at
a running offset into a Packet's bytes, and the one's-complement
checksum with its pseudo-header wrapper.
"""

from dataclasses import replace

from pktcheck import (
    EthHdr,
    Ipv6Hdr,
    Packet,
    TcpHdr,
    internet_checksum,
    pseudo_header_checksum,
)


def main() -> None:
    print("== a frame, built header by header ==")
    tcp = TcpHdr(
        src_port=4242, dst_port=80, seq=7, ack=0, data_offset=5,
        flags=0x018, window=8192, checksum=0, urgent_ptr=0,
    )
    segment = tcp.emit() + b"hello, network"
    ipv6 = Ipv6Hdr(
        src=bytes.fromhex("20010db8000000000000000000000001"),
        dst=bytes.fromhex("20010db8000000000000000000000002"),
        payload_len=len(segment), next_header=6, hop_limit=64,
    )
    eth = EthHdr(
        dst=bytes.fromhex("020000000002"),
        src=bytes.fromhex("020000000001"),
        ether_type=0x86DD,
    )
    frame = eth.emit() + ipv6.emit() + segment
    print(f"frame is {len(frame)} bytes: 14 Eth + 40 IPv6 + {len(segment)} TCP")

    print("\n== each codec decodes at its offset ==")
    packet = Packet.from_bytes(frame)
    offset = 0
    for codec in (EthHdr, Ipv6Hdr, TcpHdr):
        _, size = codec.parse(packet.data, offset)
        print(f"  {codec.__name__:8s} occupies bytes {offset:2d}..."
              f"{offset + size - 1}")
        offset += size
    print(f"  payload starts at byte {offset}: {bytes(packet.data[offset:])!r}")

    print("\n== field surgery re-emits a header over its bytes ==")
    parsed, _ = Ipv6Hdr.parse(packet.data, 14)
    packet.data[14:54] = replace(parsed, hop_limit=1).emit()
    print(f"  hop_limit byte (offset 21) is now {packet.data[21]}")

    print("\n== the checksum and its worked example ==")
    sample = bytes.fromhex("0001f203f4f5f6f7")
    print(f"  internet_checksum({sample.hex()}) = "
          f"0x{internet_checksum(sample):04X}  (expect 0x220D)")

    print("\n== transport checksums cover a pseudo-header too ==")
    csum = pseudo_header_checksum(ipv6.src, ipv6.dst, len(segment), 6, segment)
    print(f"  TCP checksum for the frame above: 0x{csum:04X}")
    filled = segment[:16] + csum.to_bytes(2, "big") + segment[18:]
    verify = pseudo_header_checksum(ipv6.src, ipv6.dst, len(filled), 6, filled)
    print(f"  re-summing with the checksum in place folds to zero: 0x{verify:04X}")


if __name__ == "__main__":
    main()
