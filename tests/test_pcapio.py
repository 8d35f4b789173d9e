"""Capture file round trips, magic handling, frame builders."""

from __future__ import annotations

import struct

import pytest

from icsrecon.errors import FormatError
from icsrecon import pcapio
from icsrecon.pcapio import (
    CaptureReader,
    PcapWriter,
    TrafficRecorder,
    arp_frame,
    ethernet,
    icmp_echo,
    inet_checksum,
    ip_text,
    ipv4,
    mac_text,
    parse_arp,
    parse_ethernet,
    parse_ipv4,
    parse_tcp,
    tcp_segment,
)


def test_write_read_round_trip(tmp_path):
    path = tmp_path / "x.pcap"
    writer = PcapWriter(str(path))
    frames = [b"\x01" * 20, b"\x02" * 64, b"\x03" * 14]
    for i, frame in enumerate(frames):
        writer.write(1000.0 + i * 0.5, frame)
    writer.close()
    records = list(CaptureReader(str(path)))
    assert [f for _, f in records] == frames
    assert [round(ts, 6) for ts, _ in records] == [1000.0, 1000.5, 1001.0]


def test_empty_capture(tmp_path):
    path = tmp_path / "empty.pcap"
    PcapWriter(str(path)).close()
    reader = CaptureReader(str(path))
    assert list(reader) == []
    assert reader.skipped == 0


def test_write_after_close_is_dropped(tmp_path):
    # a simulator handler may still record a teardown after the station closed its capture
    path = tmp_path / "closed.pcap"
    writer = PcapWriter(str(path))
    writer.close()
    writer.write(1_700_000_000.0, b"\x00" * 60)
    assert list(CaptureReader(str(path))) == []


def test_wrong_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"not a capture at all")
    with pytest.raises(FormatError):
        CaptureReader(str(path))


def test_non_ethernet_link_type_is_format_error(tmp_path):
    # LINKTYPE_RAW (101): IPv4 packets with no Ethernet header, which the dissector cannot read
    path = tmp_path / "raw.pcap"
    blob = struct.pack("<IHHiIII", pcapio.MAGIC_MICROS, 2, 4, 0, 0, 65535, 101)
    path.write_bytes(blob + struct.pack("<IIII", 1, 0, 20, 20) + b"\x45" + b"\x00" * 19)
    with pytest.raises(FormatError, match="link type 101"):
        CaptureReader(str(path))


def test_big_endian_and_nanosecond_variants(tmp_path):
    frame = b"\xaa" * 16
    for magic, endian, nanos in [
        (pcapio.MAGIC_MICROS, ">", False),
        (pcapio.MAGIC_NANOS, "<", True),
        (pcapio.MAGIC_NANOS, ">", True),
    ]:
        path = tmp_path / f"v_{magic}_{endian == '>'}.pcap"
        frac = 500_000_000 if nanos else 500_000
        blob = struct.pack(endian + "IHHiIII", magic, 2, 4, 0, 0, 65535, 1)
        blob += struct.pack(endian + "IIII", 7, frac, len(frame), len(frame)) + frame
        path.write_bytes(blob)
        records = list(CaptureReader(str(path)))
        assert records == [(7.5, frame)]


def test_truncated_record_is_skipped_not_fatal(tmp_path):
    path = tmp_path / "trunc.pcap"
    writer = PcapWriter(str(path))
    writer.write(1.0, b"\x01" * 30)
    writer.write(2.0, b"\x02" * 30)
    writer.close()
    blob = path.read_bytes()
    path.write_bytes(blob[:-10])
    reader = CaptureReader(str(path))
    frames = [f for _, f in reader]
    assert frames == [b"\x01" * 30]
    assert reader.skipped == 1


def test_ethernet_round_trip():
    frame = ethernet("00:1b:1b:aa:10:01", "02:00:5e:00:00:01", 0x0800, b"payload")
    parsed = parse_ethernet(frame)
    assert parsed.dst_mac == "00:1b:1b:aa:10:01"
    assert parsed.src_mac == "02:00:5e:00:00:01"
    assert parsed.ethertype == 0x0800
    assert parsed.payload == b"payload"


def test_address_text_matches_per_byte_formatting(rng):
    for _ in range(2000):
        raw = rng.randbytes(rng.choice((4, 6)))
        for view in (raw, memoryview(raw)):
            assert mac_text(view) == ":".join(f"{b:02x}" for b in raw)
            assert ip_text(view) == ".".join(str(b) for b in raw)


def test_arp_round_trip():
    frame = arp_frame(2, "00:80:f4:aa:10:04", "192.168.90.13", "02:00:5e:00:00:01", "192.168.90.1")
    eth = parse_ethernet(frame)
    assert eth.ethertype == pcapio.ETHERTYPE_ARP
    arp = parse_arp(eth.payload)
    assert arp.op == 2
    assert arp.sender_mac == "00:80:f4:aa:10:04"
    assert arp.sender_ip == "192.168.90.13"
    assert arp.target_ip == "192.168.90.1"


def test_ipv4_header_checksum_is_valid():
    packet = ipv4("10.0.0.1", "10.0.0.2", 6, b"x" * 9, ident=7)
    # checksum over the header with the checksum field in place must be 0
    assert inet_checksum(packet[:20]) == 0
    parsed = parse_ipv4(packet)
    assert (parsed.src_ip, parsed.dst_ip, parsed.proto) == ("10.0.0.1", "10.0.0.2", 6)
    assert parsed.payload == b"x" * 9


def test_tcp_segment_round_trip():
    seg_bytes = tcp_segment("10.0.0.1", "10.0.0.2", 40000, 502, 1001, 42001, pcapio.TCP_PSH | pcapio.TCP_ACK, b"req")
    seg = parse_tcp(seg_bytes)
    assert (seg.src_port, seg.dst_port, seg.seq, seg.ack) == (40000, 502, 1001, 42001)
    assert seg.flags == pcapio.TCP_PSH | pcapio.TCP_ACK
    assert seg.payload == b"req"


def test_icmp_checksum_consistent():
    echo = icmp_echo(7, 1)
    assert inet_checksum(echo) == 0


def test_recorder_flow_sequencing(tmp_path):
    path = tmp_path / "flow.pcap"
    writer = PcapWriter(str(path))
    clock = iter(float(i) for i in range(100))
    recorder = TrafficRecorder(writer, clock=lambda: next(clock))
    recorder.register_mac("10.0.0.1", "02:00:5e:00:00:01")
    recorder.register_mac("10.0.0.2", "00:1b:1b:aa:10:01")
    flow = recorder.tcp_flow(("10.0.0.1", 40000), ("10.0.0.2", 102))
    flow.handshake()
    flow.client_payload(b"request-bytes")
    flow.server_payload(b"reply-bytes")
    flow.client_payload(b"more")
    flow.close()
    writer.close()

    segments = []
    for _, frame in CaptureReader(str(path)):
        packet = parse_ipv4(parse_ethernet(frame).payload)
        segments.append(parse_tcp(packet.payload))
    # SYN, SYN/ACK, ACK, data, data, data, FIN
    assert [s.flags & pcapio.TCP_SYN != 0 for s in segments[:2]] == [True, True]
    data = [s for s in segments if s.payload]
    assert data[0].payload == b"request-bytes"
    assert data[1].payload == b"reply-bytes"
    # second client segment advances seq by the first payload length
    assert data[2].seq == data[0].seq + len(b"request-bytes")
    assert segments[-1].flags & pcapio.TCP_FIN


def test_recorder_inactive_without_writer():
    recorder = TrafficRecorder(None)
    recorder.arp_exchange("10.0.0.1", "10.0.0.2", answered=True)  # no-op, no error
