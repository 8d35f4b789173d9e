"""Passive analyzer: classification rules, crafted captures, ceilings."""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import signal
import socket
import struct
import threading
from datetime import datetime, timezone

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from icsrecon import passive
from icsrecon.cli import main as cli_main
from icsrecon.codecs import PROTOCOLS, enip, modbus, s7
from icsrecon.config import default_fixtures_path, load_fixtures
from icsrecon.errors import DecodeError, FormatError, IcsReconError
from icsrecon.model import (
    Asset,
    DeploymentInfo,
    Inventory,
    PortSpec,
    StaticDeviceInfo,
    json_text,
    merge_observation,
)
from icsrecon.ouidb import vendor_for_mac
from icsrecon.passive import (
    LiveInterface,
    PcapFile,
    REASSEMBLY_CAP,
    _dissect,
    _Flow,
    analyze_capture,
    classify_flow,
)
from icsrecon.pcapio import (
    BROADCAST_MAC,
    ETHERTYPE_ARP,
    ETHERTYPE_IPV4,
    LINKTYPE_ETHERNET,
    MAGIC_MICROS,
    MAGIC_NANOS,
    MAX_RECORD,
    PROTO_ICMP,
    PROTO_TCP,
    TCP_ACK,
    TCP_FIN,
    TCP_PSH,
    TCP_SYN,
    CaptureReader,
    PcapWriter,
    TrafficRecorder,
    arp_frame,
    ethernet,
    icmp_echo,
    ip_text,
    ipv4,
    mac_text,
    parse_arp,
    parse_ethernet,
    parse_ipv4,
    parse_tcp,
    tcp_segment,
)
from icsrecon.scanner import ScanConfig, Scanner
from icsrecon.simulator import SimNetwork, StationHandle
from icsrecon.taxonomy import classify_run

from conftest import one_byte_changed, same_record


class Clock:
    def __init__(self, start=1_700_000_000.0):
        self.now = start

    def __call__(self):
        self.now += 0.001
        return self.now


def make_recorder(tmp_path, name="crafted.pcap"):
    path = tmp_path / name
    writer = PcapWriter(str(path))
    recorder = TrafficRecorder(writer, clock=Clock())
    return path, writer, recorder


def _pcap_records(records) -> bytes:
    """(time, frame) records packed as ``LiveInterface``'s records, little-endian nanosecond, each time exactly."""
    packed = b""
    for when, frame in records:
        sec = int(when)
        nanos = round((when - sec) * 1e9)
        assert sec + nanos / LiveInterface.divisor == when, f"{when} does not pack exactly"
        packed += LiveInterface.record_header.pack(sec, nanos, len(frame), len(frame)) + frame
    return packed


def _dissect_records(records):
    """``_dissect`` over (time, frame) records, packed into one chunk."""
    return _dissect([_pcap_records(records)], LiveInterface.record_header, LiveInterface.divisor)


def _dissect_file(path):
    """``_dissect`` over a capture file's chunks, as ``analyze_capture`` walks them."""
    reader = CaptureReader(str(path))
    return _dissect(reader.chunks(), reader.record_header, reader.divisor)


# -- reading a capture ---------------------------------------------------------


def test_empty_pcap_yields_empty_stream(tmp_path):
    path = tmp_path / "empty.pcap"
    PcapWriter(str(path)).close()
    assert list(CaptureReader(str(path))) == []


def test_single_arp_frame(tmp_path):
    path, writer, recorder = make_recorder(tmp_path)
    recorder.register_mac("10.0.0.9", "00:1b:1b:00:00:09")
    recorder.arp_exchange("10.0.0.9", "10.0.0.1", answered=False)
    writer.close()
    frames = list(CaptureReader(str(path)))
    assert len(frames) == 1


def test_wrong_magic_raises_format_error(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"\x00" * 64)
    with pytest.raises(FormatError):
        analyze_capture(PcapFile(str(path)))


# -- classification -------------------------------------------------------------


def test_classify_modbus_payload():
    frame = modbus.build_device_id_request(unit=1)
    assert classify_flow(frame)[0] == "modbus"


def test_classify_http_on_modbus_port_is_none():
    # port numbers are ignored on purpose; HTTP bytes prove nothing
    assert classify_flow(b"GET / HTTP/1.1\r\nHost: plc\r\n\r\n")[0] is None


def test_classify_s7_and_enip_and_dnp3():
    assert classify_flow(s7.build_cotp_connect(0x0100, 0x0102))[0] == "s7comm"
    assert classify_flow(enip.build_list_identity())[0] == "enip"
    # well framed, but a command no adapter knows: framing alone claims nothing
    assert classify_flow(enip.encode_header(0x0999, b"") + enip.build_list_identity()) == (None, [])
    assert classify_flow(b"\x05\x64\x05\xc0\x01\x00\x00\x04\xe9\x21")[0] == "dnp3"
    assert classify_flow(b"")[0] is None


def test_classify_concatenated_stream():
    requests = [modbus.build_device_id_request(unit=1), modbus.build_report_slave_id_request(unit=1)]
    assert classify_flow(b"".join(requests)) == ("modbus", requests)


# -- crafted captures -------------------------------------------------------------


def test_arp_chatter_yields_level_one_with_vendor(tmp_path):
    path, writer, recorder = make_recorder(tmp_path)
    recorder.register_mac("192.168.90.13", "00:80:f4:00:00:01")
    recorder.register_mac("192.168.90.1", "02:aa:bb:cc:dd:01")
    recorder.arp_exchange("192.168.90.13", "192.168.90.1", answered=True)
    writer.close()
    report = analyze_capture(PcapFile(str(path)))
    assert report.per_asset_depth == {"192.168.90.1": 1, "192.168.90.13": 1}
    rtu = report.inventory.get("192.168.90.13")
    assert rtu.mac == "00:80:f4:00:00:01"
    assert rtu.oui_vendor == "Schneider Electric"


def test_silent_devices_are_absent(tmp_path):
    path, writer, recorder = make_recorder(tmp_path)
    flow = recorder.tcp_flow(("192.168.90.1", 50000), ("192.168.90.42", 502))
    flow.unanswered()  # SYN into the void: target never transmits
    writer.close()
    inventory = analyze_capture(PcapFile(str(path))).inventory
    assert inventory.get("192.168.90.42") is None
    assert inventory.get("192.168.90.1") is not None


def test_s7_on_nonstandard_port_classified_by_payload(tmp_path):
    path, writer, recorder = make_recorder(tmp_path)
    flow = recorder.tcp_flow(("192.168.90.1", 50001), ("192.168.90.10", 10102))
    flow.handshake()
    flow.client_payload(s7.build_cotp_connect(0x0100, 0x0102))
    flow.server_payload(s7.build_cotp_confirm(s7.CotpConnectionRequest(0x0100, 0x0102)))
    flow.close()
    writer.close()
    inventory = analyze_capture(PcapFile(str(path))).inventory
    plc = inventory.get("192.168.90.10")
    assert plc.protocols == frozenset({"s7comm"})
    assert plc.open_ports == frozenset({PortSpec(10102)})


def test_client_side_classification_still_reads_server_identity(tmp_path):
    # the server's first TPKT frame is not COTP, so only the client side classifies
    path, writer, recorder = make_recorder(tmp_path)
    flow = recorder.tcp_flow(("192.168.90.1", 50006), ("192.168.90.10", 102))
    flow.handshake()
    flow.client_payload(s7.build_cotp_connect(0x0100, 0x0102))
    flow.server_payload(s7.encode_tpkt(b"\x02\x70\x00"))
    flow.client_payload(s7.build_szl_read(s7.SZL_MODULE_ID))
    entries = s7.module_id_entries({"module_order_number": "6ES7 151-8AB01-0AB0", "firmware_version": "3.2.6"})
    flow.server_payload(s7.build_szl_response_frame(s7.S7SzlResponse(s7.SZL_MODULE_ID, 0, entries)))
    flow.close()
    writer.close()
    plc = analyze_capture(PcapFile(str(path))).inventory.get("192.168.90.10")
    assert plc.protocols == frozenset({"s7comm"})
    assert plc.static_info.model == "6ES7 151-8AB01-0AB0"


def test_identity_free_capture_never_exceeds_level_three(tmp_path):
    path, writer, recorder = make_recorder(tmp_path)
    flow = recorder.tcp_flow(("192.168.90.1", 50002), ("192.168.90.13", 502))
    flow.handshake()
    flow.client_payload(modbus.build_read_holding_request(1, 0, 4))
    flow.server_payload(modbus.build_read_holding_response(1, 1, [1, 2, 3, 4]))
    flow.close()
    writer.close()
    report = analyze_capture(PcapFile(str(path)))
    assert max(report.per_asset_depth.values()) == 3
    assert report.per_asset_depth["192.168.90.13"] == 3


def test_identity_payloads_reach_level_five(tmp_path):
    path, writer, recorder = make_recorder(tmp_path)
    flow = recorder.tcp_flow(("192.168.90.1", 50003), ("192.168.90.13", 502))
    flow.handshake()
    flow.client_payload(modbus.build_device_id_request(unit=1))
    flow.server_payload(
        modbus.build_device_id_response(1, 1, {0: "Schneider Electric", 1: "SCADAPack32", 2: "1.0"})
    )
    flow.client_payload(modbus.build_report_slave_id_request(unit=1, transaction_id=2))
    flow.server_payload(modbus.build_report_slave_id_response(2, 1, slave_id=5))
    flow.close()
    writer.close()
    report = analyze_capture(PcapFile(str(path)))
    assert report.per_asset_depth["192.168.90.13"] == 5
    rtu = report.inventory.get("192.168.90.13")
    assert rtu.static_info.manufacturer == "Schneider Electric"
    assert rtu.deployment_info.as_dict().get("modbus_slave_id") == "5"
    assert rtu.deployment_info.as_dict().get("unit_id") == "1"


def test_live_interface_run_is_real_time(tmp_path, monkeypatch):
    path, writer, recorder = make_recorder(tmp_path)
    flow = recorder.tcp_flow(("192.168.90.1", 50003), ("192.168.90.13", 502))
    flow.handshake()
    flow.client_payload(modbus.build_report_slave_id_request(unit=1))
    flow.server_payload(modbus.build_report_slave_id_response(1, 1, slave_id=5))
    flow.close()
    writer.close()
    frames = list(CaptureReader(str(path)))
    monkeypatch.setattr(LiveInterface, "chunks", lambda self: iter([_pcap_records(enumerate(f for _, f in frames))]))
    report = analyze_capture(LiveInterface("eth9"))
    assert report.to_document()["nature"] == "real_time"
    assert report.source == "eth9" and report.frames_read == len(frames)
    assert classify_run(report).exec.nature == frozenset({"real_time"})
    assert classify_run(analyze_capture(PcapFile(str(path)))).exec.nature == frozenset({"offline"})


def test_out_of_order_segments_dropped_and_counted(tmp_path):
    path, writer, recorder = make_recorder(tmp_path)
    flow = recorder.tcp_flow(("192.168.90.1", 50004), ("192.168.90.13", 502))
    flow.handshake()
    flow.client_payload(b"A" * 10)
    # jump the sequence forward: a segment arrives out of order
    flow._client_seq += 100
    flow.client_payload(b"B" * 10)
    flow.close()
    writer.close()
    report = analyze_capture(PcapFile(str(path)))
    assert report.out_of_order_segments == 1


def test_flow_without_syn_gives_the_port_to_the_first_address_in_text_order(tmp_path):
    # 10.0.0.10 sorts before 10.0.0.9 as text, after it as raw bytes
    path, writer, recorder = make_recorder(tmp_path)
    flow = recorder.tcp_flow(("10.0.0.9", 502), ("10.0.0.10", 502))
    flow.client_payload(modbus.build_read_holding_request(1, 0, 4))
    flow.server_payload(modbus.build_read_holding_response(1, 1, [1, 2, 3, 4]))
    writer.close()
    inventory = analyze_capture(PcapFile(str(path))).inventory
    assert inventory.get("10.0.0.10").open_ports == frozenset({PortSpec(502)})
    assert inventory.get("10.0.0.9").open_ports == frozenset()


def test_reassembly_cap_is_enforced(low_cap):
    # one IPv4 packet cannot carry 64 KiB of payload, so the cap is lowered to 16 bytes
    records = [(1.0, _tcp_frame(HOST_A, HOST_B, 40000, 502, 0, TCP_PSH | TCP_ACK, b"x" * (low_cap + 500)))]
    _senders, [flow], _read, _skipped = _dissect_records(records)
    direction = flow.forward
    assert len(direction.buffer) == low_cap
    assert direction.capped


def test_determinism_same_pcap_same_json(tmp_path, station_pcap=None):
    path, writer, recorder = make_recorder(tmp_path)
    recorder.register_mac("192.168.90.10", "00:1b:1b:aa:10:01")
    recorder.arp_exchange("192.168.90.1", "192.168.90.10", answered=True)
    flow = recorder.tcp_flow(("192.168.90.1", 50005), ("192.168.90.10", 102))
    flow.handshake()
    flow.client_payload(s7.build_cotp_connect(0x0100, 0x0102))
    flow.server_payload(s7.build_cotp_confirm(s7.CotpConnectionRequest(0x0100, 0x0102)))
    flow.close()
    writer.close()
    first = json_text(analyze_capture(PcapFile(str(path))).inventory.to_document())
    second = json_text(analyze_capture(PcapFile(str(path))).inventory.to_document())
    assert first == second


# -- frame dissection against the per-layer parse chain ------------------------

HOST_A, HOST_B, MAC_A, MAC_B = "10.0.0.9", "10.0.0.10", "00:1b:1b:00:00:09", "00:80:f4:00:00:0a"


def _ip_frame(src: str, dst: str, proto: int, body: bytes) -> bytes:
    return ethernet(MAC_B, MAC_A, ETHERTYPE_IPV4, ipv4(src, dst, proto, body))


def _tcp_frame(src: str, dst: str, sport: int, dport: int, seq: int, flags: int, payload: bytes = b"") -> bytes:
    return _ip_frame(src, dst, PROTO_TCP, tcp_segment(src, dst, sport, dport, seq, 0, flags, payload))


def _poke(frame: bytes, at: int, value: int) -> bytes:
    return frame[:at] + bytes([value]) + frame[at + 1 :]


def _fragment(frame: bytes, word: int) -> bytes:
    """An Ethernet/IPv4 frame with its IPv4 flags/fragment-offset word set to ``word``."""
    return frame[:20] + word.to_bytes(2, "big") + frame[22:]


def _with_options(frame: bytes, ip_options: bytes = b"", tcp_options: bytes = b"") -> bytes:
    """An Ethernet/IPv4/TCP frame with option words added to its IPv4 and TCP headers (IHL 5 and data offset 5 before)."""
    ip, tcp, payload = frame[14:34], frame[34:54], frame[54:]
    total = len(frame) - 14 + len(ip_options) + len(tcp_options)
    ip = bytes([0x40 | (20 + len(ip_options)) // 4, ip[1]]) + total.to_bytes(2, "big") + ip[4:]
    tcp = tcp[:12] + bytes([(20 + len(tcp_options)) // 4 << 4]) + tcp[13:]
    return frame[:14] + ip + ip_options + tcp + tcp_options + payload


def _padded(frame: bytes) -> bytes:
    """``frame`` padded to Ethernet's 60-byte minimum, as a frame read off the wire is."""
    return frame + bytes(60 - len(frame))


VALID_FRAMES = [
    arp_frame(1, MAC_A, HOST_A, BROADCAST_MAC, HOST_B),
    arp_frame(2, MAC_B, HOST_B, MAC_A, HOST_A),
    arp_frame(1, MAC_B, "0.0.0.0", BROADCAST_MAC, HOST_B),  # address probe
    _ip_frame(HOST_A, HOST_B, PROTO_ICMP, icmp_echo(1, 1)),
    _ip_frame(HOST_B, HOST_A, 17, bytes(12)),
    _tcp_frame(HOST_A, HOST_B, 40000, 502, 999, TCP_SYN),
    _tcp_frame(HOST_B, HOST_A, 502, 40000, 4999, TCP_SYN | TCP_ACK),
    _tcp_frame(HOST_A, HOST_B, 40000, 502, 1000, TCP_PSH | TCP_ACK, b"request"),
    _tcp_frame(HOST_B, HOST_A, 502, 40000, 5000, TCP_PSH | TCP_ACK, b"reply"),
    _tcp_frame(HOST_A, HOST_B, 40000, 502, 1007, TCP_FIN | TCP_ACK),
    _tcp_frame(HOST_B, HOST_A, 502, 502, 1, TCP_PSH, b"no syn"),
    _tcp_frame("0.0.0.0", HOST_B, 68, 502, 7, TCP_PSH, b"unnumbered"),
    _with_options(_tcp_frame(HOST_A, HOST_B, 40000, 502, 1007, TCP_PSH | TCP_ACK, b"options"), ip_options=b"\x01" * 4),
    _with_options(_tcp_frame(HOST_B, HOST_A, 502, 40000, 5005, TCP_PSH | TCP_ACK, b"more"), tcp_options=b"\x02\x04\x05\xb4"),
    _tcp_frame(HOST_A, HOST_B, 40000, 502, 1014, TCP_PSH | TCP_ACK, b"sixteen"),  # "request", "options", this: 21 bytes
    _tcp_frame(HOST_B, HOST_A, 502, 40000, 5009, TCP_PSH | TCP_ACK, b"a reply of over sixteen bytes"),
    _fragment(_tcp_frame(HOST_A, HOST_B, 40000, 502, 1021, TCP_PSH | TCP_ACK, b"not a header"), 185),  # offset 1480
    _fragment(_tcp_frame(HOST_B, HOST_A, 502, 40000, 5038, TCP_PSH | TCP_ACK, b"first part"), 0x2000),  # MF set
    # padded to 60 bytes, each long enough for one read of 20-byte IPv4 and TCP headers
    _padded(arp_frame(1, MAC_A, HOST_A, BROADCAST_MAC, HOST_B)),
    _padded(arp_frame(2, MAC_B, HOST_B, MAC_A, HOST_A)),
    _padded(_ip_frame(HOST_A, HOST_B, PROTO_ICMP, icmp_echo(1, 2))),
    _padded(_ip_frame(HOST_B, HOST_A, 17, bytes(12))),
    _padded(_tcp_frame(HOST_A, HOST_B, 40000, 502, 1021, TCP_ACK)),  # a pure ACK: its IPv4 total length ends at 54
]
_DATA = VALID_FRAMES[7]
MALFORMED_FRAMES = [
    b"",
    _DATA[:13],  # shorter than an Ethernet header
    VALID_FRAMES[0][:41],  # ARP message one byte short
    _poke(_DATA, 14, 0x44),  # IHL below 5
    _poke(_DATA, 14, 0x4F),  # IHL past the end
    _DATA[:16] + b"\x00\x0a" + _DATA[18:],  # total length below the IHL
    _poke(_DATA, 34 + 12, 0x40),  # TCP data offset below 5
    _poke(_DATA, 34 + 12, 0xF0),  # TCP data offset past the end
    _tcp_frame(HOST_A, HOST_B, 0, 502, 999, TCP_SYN),  # from port 0
    _tcp_frame(HOST_B, HOST_A, 502, 0, 5000, TCP_PSH | TCP_ACK, b"to port 0"),
]
FRAMES = st.one_of(
    st.sampled_from(VALID_FRAMES + MALFORMED_FRAMES),
    one_byte_changed(VALID_FRAMES),
    st.sampled_from(VALID_FRAMES).flatmap(lambda f: st.integers(0, len(f) - 1).map(lambda n: f[:n])),
)


CHAIN_CAP = REASSEMBLY_CAP


def _chain_bump(direction, seq):
    """The SYN or FIN step: one sequence number, taken in order or to start the direction."""
    if direction.next_seq is None or seq == direction.next_seq:
        direction.next_seq = (seq + 1) & 0xFFFFFFFF


def _chain_add(direction, seq, payload, flow):
    """The reassembly step, as one method call per data segment."""
    if direction.next_seq is None:
        direction.next_seq = seq
    if seq == direction.next_seq:
        if not direction.capped:
            room = CHAIN_CAP - len(direction.buffer)
            direction.buffer += payload[:room]
            if room < len(payload):
                direction.capped = True
        direction.next_seq = (direction.next_seq + len(payload)) & 0xFFFFFFFF
    elif ((seq - direction.next_seq) & 0xFFFFFFFF) < 0x80000000:
        flow.out_of_order += 1  # dropped, by design
    # else: retransmission of already-consumed data; ignore


@pytest.fixture
def low_cap(monkeypatch):
    """A 16-byte reassembly cap, for the analyzer and for the parse chain."""
    monkeypatch.setattr(passive, "REASSEMBLY_CAP", 16)
    monkeypatch.setitem(globals(), "CHAIN_CAP", 16)
    return 16


def _chain_dissect(records):
    """The parse_ethernet -> parse_arp/parse_ipv4 -> parse_tcp chain over text addresses."""
    senders, flows, skipped = {}, {}, 0

    def saw(ip, mac, when):
        if ip != "0.0.0.0":
            entry = senders.setdefault(ip, [mac, when])
            entry[1] = max(entry[1], when)

    for when, frame in records:
        eth = parse_ethernet(frame)
        if eth is None:
            skipped += 1
            continue
        if eth.ethertype == ETHERTYPE_ARP:
            arp = parse_arp(eth.payload)
            if arp is not None:
                saw(arp.sender_ip, arp.sender_mac, when)
            continue
        if eth.ethertype != ETHERTYPE_IPV4:
            continue
        packet = parse_ipv4(eth.payload)
        if packet is None:
            skipped += 1
            continue
        saw(packet.src_ip, eth.src_mac, when)
        fragment_offset = int.from_bytes(eth.payload[6:8], "big") & 0x1FFF
        if packet.proto != PROTO_TCP or fragment_offset:  # a later fragment carries no TCP header
            continue
        segment = parse_tcp(packet.payload)
        if segment is None:
            skipped += 1
            continue
        src, dst = (packet.src_ip, segment.src_port), (packet.dst_ip, segment.dst_port)
        key = (src, dst) if src < dst else (dst, src)
        flow = flows.setdefault(key, _Flow(*key))
        flow.last_seen = max(flow.last_seen, when)
        direction = flow.direction(src)
        if segment.flags & TCP_SYN:
            if flow.client is None and not segment.flags & TCP_ACK:
                flow.client = src
            _chain_bump(direction, segment.seq)
        if segment.payload:
            _chain_add(direction, segment.seq, segment.payload, flow)
        if segment.flags & TCP_FIN:
            _chain_bump(direction, (segment.seq + len(segment.payload)) & 0xFFFFFFFF)
    return senders, flows, skipped


def _flow_views(flows, name):
    return {
        frozenset(map(name, flow.endpoints)): (
            {name(e): (bytes(d.buffer), d.next_seq, d.capped) for e in flow.endpoints for d in [flow.direction(e)]},
            flow.client and name(flow.client),
            flow.out_of_order,
            flow.last_seen,
        )
        for flow in flows
    }


RECORDS = st.lists(st.tuples(st.integers(0, 40).map(float), FRAMES), max_size=24)


@settings(max_examples=300, deadline=None)
@given(records=RECORDS)
def test_dissection_matches_the_parse_chain(records, tmp_path_factory):
    _check_dissection(records, tmp_path_factory)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(records=RECORDS)
def test_dissection_matches_the_parse_chain_across_a_16_byte_cap(records, tmp_path_factory, low_cap):
    _check_dissection(records, tmp_path_factory)


def _check_dissection(records, tmp_path_factory):
    want_senders, want_flows, want_skipped = _chain_dissect(records)
    senders, flows, frames_read, skipped = _dissect_records(records)
    assert (frames_read, skipped) == (len(records), want_skipped)
    assert {ip_text(ip): [mac_text(mac), last] for ip, (mac, last) in senders.items()} == want_senders
    raw_views = _flow_views(flows, lambda endpoint: (ip_text(endpoint[0]), endpoint[1]))
    assert raw_views == _flow_views(want_flows.values(), lambda endpoint: endpoint)

    path = tmp_path_factory.getbasetemp() / "dissect.pcap"
    writer = PcapWriter(str(path))
    for when, frame in records:
        writer.write(when, frame)
    writer.close()
    report = analyze_capture(PcapFile(str(path)))
    assert (report.frames_read, report.frames_skipped) == (len(records), want_skipped)
    assert {asset.ip: asset.mac for asset in report.inventory} == {ip: mac for ip, (mac, _) in want_senders.items()}


def _text_endpoint(endpoint):
    return ip_text(endpoint[0]), endpoint[1]


def test_header_options_dissect_like_the_parse_chain():
    # IHL 6 puts the ports 4 bytes later, past the addresses; a TCP data offset of 6 moves the payload
    frames = [
        _tcp_frame(HOST_A, HOST_B, 40000, 502, 999, TCP_SYN),
        _with_options(_tcp_frame(HOST_A, HOST_B, 40000, 502, 1000, TCP_PSH | TCP_ACK, b"req"), ip_options=b"\x01" * 4),
        _with_options(_tcp_frame(HOST_A, HOST_B, 40000, 502, 1003, TCP_PSH | TCP_ACK, b"uest"), tcp_options=b"\x01" * 8),
        _with_options(
            _tcp_frame(HOST_B, HOST_A, 502, 40000, 5000, TCP_PSH | TCP_ACK, b"reply"),
            ip_options=b"\x01" * 8,
            tcp_options=b"\x02\x04\x05\xb4",
        ),
        _tcp_frame(HOST_A, HOST_B, 40000, 502, 1007, TCP_PSH | TCP_ACK, b"!"),
    ]
    records = [(float(when), frame) for when, frame in enumerate(frames)]
    want_senders, want_flows, want_skipped = _chain_dissect(records)
    senders, flows, frames_read, skipped = _dissect_records(records)
    assert (frames_read, skipped, want_skipped) == (5, 0, 0)
    assert {ip_text(ip): [mac_text(mac), last] for ip, (mac, last) in senders.items()} == want_senders
    assert _flow_views(flows, _text_endpoint) == _flow_views(want_flows.values(), lambda e: e)
    [flow] = flows
    assert bytes(flow.direction(flow.client).buffer) == b"request!"
    assert bytes(flow.direction(flow.server()).buffer) == b"reply"


def test_flow_first_seen_from_the_server_is_one_flow_with_the_right_server():
    # the mirror starts mid-handshake: the server's SYN/ACK comes before the client's SYN (retransmitted),
    # and the ports alone would name the client (1024 < 60000) as the server
    client, server = (HOST_A, 1024), (HOST_B, 60000)
    records = [
        (1.0, _tcp_frame(HOST_B, HOST_A, 60000, 1024, 4999, TCP_SYN | TCP_ACK)),
        (2.0, _tcp_frame(HOST_A, HOST_B, 1024, 60000, 999, TCP_SYN)),
        (3.0, _tcp_frame(HOST_A, HOST_B, 1024, 60000, 1000, TCP_PSH | TCP_ACK, b"request")),
        (4.0, _tcp_frame(HOST_B, HOST_A, 60000, 1024, 5000, TCP_PSH | TCP_ACK, b"reply")),
    ]
    senders, flows, _read, _skipped = _dissect_records(records)
    [flow] = flows
    assert [_text_endpoint(e) for e in flow.endpoints] == [server, client]
    assert (_text_endpoint(flow.client), _text_endpoint(flow.server())) == (client, server)
    assert bytes(flow.direction(flow.server()).buffer) == b"reply"
    assert bytes(flow.direction(flow.client).buffer) == b"request"
    assert flow.last_seen == 4.0
    assert {ip_text(ip): last for ip, (_mac, last) in senders.items()} == {HOST_B: 4.0, HOST_A: 3.0}


def test_capped_direction_keeps_its_sequence_and_counts_out_of_order():
    chunk = 1400
    count = REASSEMBLY_CAP // chunk + 3  # the cap falls inside a segment, two more follow it
    payloads = [bytes([n]) * chunk for n in range(count)]
    records = [
        (float(n), _tcp_frame(HOST_A, HOST_B, 40000, 502, 1000 + n * chunk, TCP_PSH | TCP_ACK, payload))
        for n, payload in enumerate(payloads)
    ]
    after = 1000 + count * chunk
    records += [
        (50.0, _tcp_frame(HOST_A, HOST_B, 40000, 502, after + 10, TCP_PSH | TCP_ACK, b"gap")),  # out of order
        (51.0, _tcp_frame(HOST_A, HOST_B, 40000, 502, 1000, TCP_PSH | TCP_ACK, payloads[0])),  # retransmission
        (52.0, _tcp_frame(HOST_A, HOST_B, 40000, 502, after, TCP_FIN | TCP_ACK, b"end")),
    ]
    _senders, [flow], _read, _skipped = _dissect_records(records)
    _chain_senders, want_flows, _chain_skipped = _chain_dissect(records)
    assert _flow_views([flow], _text_endpoint) == _flow_views(want_flows.values(), lambda e: e)
    direction = flow.forward
    assert direction.capped
    assert bytes(direction.buffer) == b"".join(payloads)[:REASSEMBLY_CAP]
    assert direction.next_seq == after + len(b"end") + 1  # the FIN takes one number
    assert flow.out_of_order == 1


def _one_flow_like_the_chain(frames):
    """The one flow ``_dissect`` builds from ``frames``, checked against the parse chain's."""
    records = [(float(when), frame) for when, frame in enumerate(frames)]
    _senders, [flow], _read, _skipped = _dissect_records(records)
    _chain_senders, want_flows, _chain_skipped = _chain_dissect(records)
    assert _flow_views([flow], _text_endpoint) == _flow_views(want_flows.values(), lambda e: e)
    return flow


def _client_data(seq, payload=b"", flags=TCP_PSH | TCP_ACK):
    return _tcp_frame(HOST_A, HOST_B, 40000, 502, seq, flags, payload)


def test_segment_ending_at_the_cap_does_not_cap_and_the_next_keeps_nothing(low_cap):
    flow = _one_flow_like_the_chain([_client_data(100, b"a" * 6), _client_data(106, b"b" * 10)])
    assert (bytes(flow.forward.buffer), flow.forward.capped) == (b"a" * 6 + b"b" * 10, False)
    flow = _one_flow_like_the_chain([_client_data(100, b"a" * 16), _client_data(116, b"c")])
    assert (bytes(flow.forward.buffer), flow.forward.capped, flow.forward.next_seq) == (b"a" * 16, True, 117)


def test_data_before_any_syn_starts_the_sequence(low_cap):
    flow = _one_flow_like_the_chain(
        [_client_data(500, b"early"), _client_data(499, flags=TCP_SYN), _client_data(505, b"later")]
    )
    assert (bytes(flow.forward.buffer), flow.forward.next_seq, flow.client) == (b"earlylater", 510, flow.endpoints[0])


def test_fin_after_the_cap_takes_one_number(low_cap):
    flow = _one_flow_like_the_chain([_client_data(0, b"x" * 20), _client_data(20, b"tail", TCP_FIN | TCP_ACK)])
    assert (len(flow.forward.buffer), flow.forward.capped, flow.forward.next_seq) == (16, True, 25)
    flow = _one_flow_like_the_chain([_client_data(0, b"x" * 20), _client_data(20, flags=TCP_FIN | TCP_ACK)])
    assert flow.forward.next_seq == 21


def test_capped_direction_ignores_a_retransmission_and_counts_a_future_segment(low_cap):
    flow = _one_flow_like_the_chain(
        [_client_data(0, b"x" * 20), _client_data(0, b"y" * 20), _client_data(30, b"future"), _client_data(20, b"z")]
    )
    assert (bytes(flow.forward.buffer), flow.forward.next_seq, flow.out_of_order) == (b"x" * 16, 21, 1)


def test_fin_with_data_across_the_sequence_wrap_takes_one_number():
    flow = _one_flow_like_the_chain([_client_data(0xFFFFFFFC, b"last", TCP_FIN | TCP_ACK)])
    assert (bytes(flow.forward.buffer), flow.forward.next_seq) == (b"last", 1)


def _write_capture(path, frames):
    writer = PcapWriter(str(path))
    for when, frame in enumerate(frames):
        writer.write(float(when), frame)
    writer.close()
    return path


def test_record_of_libpcaps_maximum_length_is_read(tmp_path):
    # 262,144 bytes is libpcap's MAXIMUM_SNAPLEN and tcpdump's default snaplen; the record spans two reads
    path = _write_capture(tmp_path / "max.pcap", [bytes(MAX_RECORD), arp_frame(2, MAC_B, "10.0.0.5", MAC_A, HOST_A)])
    report = analyze_capture(PcapFile(str(path)))
    assert (report.frames_read, report.frames_skipped) == (2, 0)
    assert [asset.ip for asset in report.inventory] == ["10.0.0.5"]
    assert [len(frame) for _when, frame in CaptureReader(str(path))] == [MAX_RECORD, len(VALID_FRAMES[1])]


def _over_the_bound(blob):
    """The second record's captured length set past MAX_RECORD."""
    second = 24 + 16 + len(VALID_FRAMES[0])
    return blob[: second + 8] + struct.pack("<I", MAX_RECORD + 1) + blob[second + 12 :]


@pytest.mark.parametrize(
    "frames, damage",
    [
        (VALID_FRAMES[:2], lambda blob: blob[: -len(VALID_FRAMES[1]) - 5]),
        (VALID_FRAMES[:2], lambda blob: blob[:-7]),
        (VALID_FRAMES[:2], _over_the_bound),
        ([VALID_FRAMES[0], bytes(MAX_RECORD + 1), VALID_FRAMES[1]], lambda blob: blob),  # the reads hold all of it
    ],
    ids=["final_header_cut", "final_frame_cut", "length_over_the_bound", "whole_record_over_the_bound"],
)
def test_malformed_record_is_counted_once_in_the_report(tmp_path, frames, damage):
    path = _write_capture(tmp_path / "damaged.pcap", frames)
    path.write_bytes(damage(path.read_bytes()))
    reader = CaptureReader(str(path))
    records = list(reader)
    report = analyze_capture(PcapFile(str(path)))
    assert (report.frames_read, report.frames_skipped) == (len(records), reader.skipped) == (1, 1)


def _stand_in_socket(monkeypatch, frames, when_idle=None):
    """Put a stand-in for the AF_PACKET socket: it receives ``frames``, then times out, calling ``when_idle`` first.

    Returns the list of stand-ins made.
    """
    sockets = []

    class StandInSocket:
        def __init__(self, *args):
            self.args, self.received, self.closed, self.timeout = args, list(frames), False, None
            sockets.append(self)

        def bind(self, address):
            self.address = address

        def settimeout(self, seconds):
            self.timeout = seconds

        def recv(self, size):
            if self.received:
                return self.received.pop(0)
            if when_idle is not None:
                when_idle()
            raise TimeoutError

        def close(self):
            self.closed = True

    monkeypatch.setattr(socket, "socket", StandInSocket)
    monkeypatch.setattr(passive.os, "geteuid", lambda: 0)
    return sockets


def test_live_interface_reads_each_frame_with_its_time_and_closes_its_socket(monkeypatch):
    frames = [VALID_FRAMES[0], VALID_FRAMES[1], VALID_FRAMES[7]]  # ARP from A, ARP from B, TCP data from A
    stamps = [1_700_000_000_123_456_789, 1_700_000_001_000_000_000, 1_700_000_002_999_999_999]
    sockets = _stand_in_socket(monkeypatch, frames)
    monkeypatch.setattr(passive.time, "time_ns", iter(stamps).__next__)
    live = LiveInterface("eth9")
    chunks = live.chunks()
    senders, [flow], frames_read, skipped = _dissect(itertools.islice(chunks, 3), live.record_header, live.divisor)
    [sock] = sockets
    assert sock.args == (socket.AF_PACKET, socket.SOCK_RAW, socket.htons(0x0003)) and sock.address == ("eth9", 0)
    times = [stamp // 10**9 + stamp % 10**9 / 1e9 for stamp in stamps]
    assert (frames_read, skipped) == (3, 0)
    assert {ip_text(ip): last for ip, (_mac, last) in senders.items()} == {HOST_A: times[2], HOST_B: times[1]}
    assert flow.last_seen == times[2] and bytes(flow.forward.buffer) == b"request"
    assert not sock.closed
    chunks.close()
    assert sock.closed


def test_live_interface_ends_once_its_stop_event_is_set(monkeypatch):
    stop, idle = threading.Event(), []

    def when_idle():  # the second wait with no frame sets the event; a third would be one too many
        idle.append(stop.is_set())
        assert len(idle) <= 2, "the chunks went on after the stop event was set"
        if len(idle) == 2:
            stop.set()

    sockets = _stand_in_socket(monkeypatch, [VALID_FRAMES[0], VALID_FRAMES[7]], when_idle)
    live = LiveInterface("eth9", stop)
    senders, [flow], frames_read, skipped = _dissect(live.chunks(), live.record_header, live.divisor)
    [sock] = sockets
    assert (frames_read, skipped, idle) == (2, 0, [False, False]) and bytes(flow.forward.buffer) == b"request"
    assert sock.closed and 0 < sock.timeout <= 1


def test_sniff_of_an_interface_writes_what_it_read_on_sigint_and_exits_1(tmp_path, monkeypatch, capsys):
    idle = []

    def when_idle():  # Ctrl-C, through the handler sniff put in place, at the first wait with no frame
        idle.append(signal.getsignal(signal.SIGINT))
        assert len(idle) == 1, "the capture went on after SIGINT"
        assert callable(idle[0]) and idle[0] is not signal.default_int_handler, "sniff put no SIGINT handler in place"
        signal.raise_signal(signal.SIGINT)

    _stand_in_socket(monkeypatch, [VALID_FRAMES[0], VALID_FRAMES[1]], when_idle)
    before = signal.getsignal(signal.SIGINT)
    out = tmp_path / "live.json"
    assert cli_main(["sniff", "--interface", "eth9", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "sniff cancelled; partial results written\n"
    assert {asset.ip for asset in Inventory.load(str(out))} == {HOST_A, HOST_B}
    assert len(idle) == 1 and signal.getsignal(signal.SIGINT) is before


def test_later_fragment_is_not_read_as_tcp(tmp_path):
    # fragment offset 185 (1480 bytes), MF clear: its first bytes look like a TCP header and a ListIdentity
    segment = _tcp_frame("10.0.0.1", "10.0.0.2", 1234, 44818, 1, TCP_PSH | TCP_ACK, enip.build_list_identity())
    fragment = _fragment(segment, 185)
    path = _write_capture(tmp_path / "fragment.pcap", [arp_frame(2, MAC_B, "10.0.0.2", MAC_A, "10.0.0.1"), fragment])
    report = analyze_capture(PcapFile(str(path)))
    assert (report.frames_read, report.frames_skipped, report.classified_flows) == (2, 0, 0)
    assert report.per_asset_depth == {"10.0.0.1": 1, "10.0.0.2": 1}
    server = report.inventory.get("10.0.0.2")
    assert (server.open_ports, server.protocols) == (frozenset(), frozenset())


def test_segments_of_port_0_are_skipped_and_sniff_writes_the_inventory(tmp_path):
    reply = modbus.build_report_slave_id_response(1, 1, 9)  # FC 0x11
    frames = [
        _tcp_frame("10.0.0.1", "10.0.0.2", 40000, 0, 999, TCP_SYN),
        _tcp_frame("10.0.0.2", "10.0.0.1", 0, 40000, 4999, TCP_SYN | TCP_ACK),
        _tcp_frame("10.0.0.2", "10.0.0.1", 0, 40000, 5000, TCP_PSH | TCP_ACK, reply),
    ]
    path = _write_capture(tmp_path / "port0.pcap", frames)
    report = analyze_capture(PcapFile(str(path)))
    assert (report.frames_read, report.frames_skipped, report.classified_flows) == (3, 3, 0)
    assert report.per_asset_depth == {"10.0.0.1": 1, "10.0.0.2": 1}
    out = tmp_path / "port0.json"
    assert cli_main(["sniff", "--pcap", str(path), "--out", str(out)]) == 0
    assert {asset.ip: asset.open_ports for asset in Inventory.load(str(out))} == {
        "10.0.0.1": frozenset(),
        "10.0.0.2": frozenset(),
    }


PORT_NUMBERS = st.one_of(st.sampled_from([0, 102, 502, 44818, 40000]), st.integers(0, 0xFFFF))
SEGMENT_PAYLOADS = [b"", modbus.build_report_slave_id_response(1, 1, 9), enip.build_list_identity()]


@settings(max_examples=40, deadline=None)
@given(
    segments=st.lists(
        st.tuples(
            st.booleans(),
            PORT_NUMBERS,
            PORT_NUMBERS,
            st.integers(0, 0xFFFF),
            st.integers(0, 0xFF),
            st.sampled_from(SEGMENT_PAYLOADS),
        ),
        max_size=6,
    )
)
def test_tcp_frames_with_any_ports_and_fragment_word_raise_only_package_errors(segments, tmp_path_factory):
    # both hosts announce themselves, so a claimed server becomes an asset
    frames = [arp_frame(2, MAC_A, HOST_A, MAC_B, HOST_B), arp_frame(2, MAC_B, HOST_B, MAC_A, HOST_A)]
    for forward, sport, dport, word, flags, payload in segments:
        src, dst = (HOST_A, HOST_B) if forward else (HOST_B, HOST_A)
        frames.append(_fragment(_tcp_frame(src, dst, sport, dport, 1000, flags, payload), word))
    path = _write_capture(tmp_path_factory.getbasetemp() / "ports.pcap", frames)
    try:
        report = analyze_capture(PcapFile(str(path)))
    except IcsReconError:
        return
    assert report.frames_read == len(frames)


# -- per-address evidence folding --------------------------------------------------

PORTS = {"modbus": 502, "s7comm": 102, "enip": 44818, None: 80}
TEXTS = ("Schneider Electric", "Telemecanique", "  ", "WAGO")
VERSIONS = ("1.0", "1.1", "2.0")


def _request_reply(protocol, kind, text, version, number, exchange=None):
    """One request and its reply: identity, deployment or other traffic of ``protocol``.

    ``exchange`` is the flow's Modbus transaction id, S7 PDU reference and EtherNet/IP session, which
    ``identity_key`` leaves out; None gives each builder's own default.
    """
    if protocol == "modbus":
        unit, tx = number % 3 + 1, 1 if exchange is None else exchange
        if kind == "identity":
            objects = {modbus.OBJ_VENDOR_NAME: text, modbus.OBJ_PRODUCT_CODE: "RTU-1", modbus.OBJ_REVISION: version}
            return modbus.build_device_id_request(unit, tx), modbus.build_device_id_response(tx, unit, objects)
        if kind == "deployment":
            reply = modbus.build_report_slave_id_response(tx, unit, number)
            return modbus.build_report_slave_id_request(unit, tx), reply
        reply = modbus.build_read_holding_response(tx, unit, [number, 0]) if number % 2 else modbus.exception_frame(
            tx, unit, modbus.FC_READ_HOLDING, 0x02  # IllegalDataAddress
        )
        return modbus.build_read_holding_request(unit, 0, 2, tx), reply
    if protocol == "s7comm":
        if kind == "other":
            connect = s7.CotpConnectionRequest(0x0100, 0x0102)
            return s7.build_cotp_connect(0x0100, 0x0102), s7.build_cotp_confirm(connect)
        if kind == "identity":
            szl_id, entries = s7.SZL_MODULE_ID, s7.module_id_entries({"module_order_number": text, "firmware_version": version + ".0"})
        else:
            szl_id, entries = s7.SZL_COMPONENT_ID, s7.component_id_entries({"system_name": text, "serial": f"S C-{number}"})
        request = s7.build_szl_read(szl_id) if exchange is None else s7.build_szl_read(szl_id, pdu_ref=exchange)
        reply = s7.S7SzlResponse(szl_id, 0, entries, pdu_ref=exchange or 0)
        return request, s7.build_szl_response_frame(reply)
    if protocol == "enip":
        identity = enip.CipIdentity(
            vendor_id=(1, 47, 9999)[number % 3], device_type=14, product_code=number,
            revision=(1, number % 4), status=0x0060, serial=number, product_name=text,
        )
        session = exchange or 0
        request = enip.encode_header(enip.CMD_LIST_IDENTITY, b"", session=session)
        return request, enip.encode_header(enip.CMD_LIST_IDENTITY, enip.encode_identity_item(identity), session=session)
    return b"GET / HTTP/1.1\r\n\r\n", b"HTTP/1.1 200 OK\r\n\r\n"


def record_flows(path, flows):
    """A capture of one TCP flow per (client, server, protocol, kind, text, version, number, answered, exchange)."""
    writer = PcapWriter(str(path))
    recorder = TrafficRecorder(writer, clock=Clock())
    recorder.register_mac("10.2.0.1", "00:80:f4:00:00:01")
    for index, (client, server, protocol, kind, text, version, number, answered, exchange) in enumerate(flows):
        flow = recorder.tcp_flow((f"10.1.0.{client + 1}", 40000 + index), (f"10.2.0.{server + 1}", PORTS[protocol]))
        if not answered:
            flow.unanswered()
            continue
        flow.handshake()
        request, reply = _request_reply(protocol, kind, text, version, number, exchange)
        flow.client_payload(request)
        flow.server_payload(reply)
        flow.close()
    writer.close()


def one_merge_per_observation(source):
    """The reference fold: one ``merge_observation`` per sender, then per classified flow, in flow order."""
    senders, flows, _read, _skipped = _dissect_file(source.path)
    assets = {}

    def fold(evidence):
        asset = assets.get(evidence.ip) or Asset(ip=evidence.ip, last_seen=evidence.last_seen, sources=evidence.sources)
        assets[evidence.ip] = merge_observation(asset, evidence)

    for raw_ip, (raw_mac, last) in senders.items():
        mac = mac_text(raw_mac)
        when = datetime.fromtimestamp(last, tz=timezone.utc)
        fold(Asset.discovered(ip_text(raw_ip), when, "passive", mac=mac, oui_vendor=vendor_for_mac(mac)))
    for flow in flows:
        protocol, (raw_server, port), replies = flow.classify()
        if protocol is None or raw_server not in senders:
            continue
        codec = PROTOCOLS.get(protocol)
        static_fields, deployment = codec.identity_fields(replies) if codec else ({}, {})
        fold(
            Asset.discovered(
                ip_text(raw_server),
                datetime.fromtimestamp(flow.last_seen, tz=timezone.utc),
                "passive",
                open_ports=frozenset({PortSpec(port)}),
                protocols=frozenset({protocol}),
                static_info=StaticDeviceInfo.from_fields(static_fields),
                deployment_info=DeploymentInfo.from_dict(deployment),
            )
        )
    return Inventory(assets.values())


FLOW_SPECS = st.tuples(
    st.integers(0, 1),
    st.integers(0, 2),
    st.sampled_from(["modbus", "modbus", "s7comm", "enip", None]),
    st.sampled_from(["identity", "deployment", "other"]),
    st.sampled_from(TEXTS),
    st.sampled_from(VERSIONS),
    st.integers(1, 6),
    st.sampled_from([True, True, True, False]),
    st.integers(0, 0xFFFF),  # a flow's own transaction id, PDU reference or session: a repeated reply hits the memo
)


@settings(max_examples=60, deadline=None)
@given(flows=st.lists(FLOW_SPECS, max_size=12))
def test_inventory_equals_one_merge_per_observation(flows, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "folded.pcap"
    record_flows(path, flows)
    inventory = analyze_capture(PcapFile(str(path))).inventory
    reference = one_merge_per_observation(PcapFile(str(path)))
    assert inventory == reference
    assert all(same_record(asset.provenance, reference.get(asset.ip).provenance) for asset in inventory)
    assert inventory.to_document() == reference.to_document()


def _report_document(path):
    document = analyze_capture(PcapFile(str(path))).to_document()
    del document["generated_at"]
    return document


def test_disagreeing_flows_keep_every_displaced_value(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    writer = PcapWriter("disagreeing.pcap")
    recorder = TrafficRecorder(writer, clock=Clock())
    recorder.register_mac("192.168.7.20", "00:80:f4:00:00:20")
    rounds = [
        ({0: "Schneider Electric", 1: "SCADAPack32", 2: "1.0"}, 5, 1),
        ({0: "Schneider Electric", 1: "SCADAPack32", 2: "1.1"}, 5, 1),  # firmware
        ({0: "Telemecanique", 1: "SCADAPack32", 2: "1.1"}, 6, 2),  # vendor text, slave id, unit id
        ({0: "Telemecanique", 1: "SCADAPack334", 2: "2.0"}, 6, 2),  # model, firmware
        ({0: "  "}, 7, 2),  # below the static-info bar: only the slave id counts
    ]
    for index, (objects, slave_id, unit) in enumerate(rounds):
        flow = recorder.tcp_flow(("192.168.7.1", 50000 + index), ("192.168.7.20", 502))
        flow.handshake()
        flow.client_payload(modbus.build_device_id_request(unit))
        flow.server_payload(modbus.build_device_id_response(1, unit, objects))
        flow.client_payload(modbus.build_report_slave_id_request(unit, transaction_id=2))
        flow.server_payload(modbus.build_report_slave_id_response(2, unit, slave_id))
        flow.close()
    writer.close()
    assert _report_document("disagreeing.pcap") == DISAGREEING_DOCUMENT


DISAGREEING_DOCUMENT = {
    "version": 1,
    "kind": "passive",
    "nature": "offline",
    "source": "disagreeing.pcap",
    "frames_read": 40,
    "frames_skipped": 0,
    "out_of_order_segments": 0,
    "classified_flows": 5,
    "per_asset_depth": {"192.168.7.1": 1, "192.168.7.20": 5},
    "levels_achieved": [1, 2, 3, 4, 5],
    "anomalies": [],
    "inventory": {
        "version": 1,
        "assets": [
            {
                "ip": "192.168.7.1",
                "mac": "02:00:c0:a8:07:01",
                "oui_vendor": None,
                "open_ports": [],
                "protocols": [],
                "static_info": None,
                "deployment_info": None,
                "vulnerabilities": [],
                "last_seen": "2023-11-14T22:13:20.039997Z",
                "sources": ["passive"],
                "provenance": [],
            },
            {
                "ip": "192.168.7.20",
                "mac": "00:80:f4:00:00:20",
                "oui_vendor": "Schneider Electric",
                "open_ports": ["502/tcp"],
                "protocols": ["modbus"],
                "static_info": {
                    "manufacturer": "Telemecanique",
                    "model": "SCADAPack334",
                    "firmware_version": "2.0",
                    "hardware_version": None,
                    "serial": None,
                },
                "deployment_info": {"modbus_slave_id": "7", "unit_id": "2"},
                "vulnerabilities": [],
                "last_seen": "2023-11-14T22:13:20.039997Z",
                "sources": ["passive"],
                "provenance": [
                    {
                        "field": "static_info.firmware_version",
                        "prior": "1.0",
                        "current": "1.1",
                        "at": "2023-11-14T22:13:20.015999Z",
                        "source": "passive",
                    },
                    {
                        "field": "static_info.manufacturer",
                        "prior": "Schneider Electric",
                        "current": "Telemecanique",
                        "at": "2023-11-14T22:13:20.023998Z",
                        "source": "passive",
                    },
                    {
                        "field": "deployment_info.modbus_slave_id",
                        "prior": "5",
                        "current": "6",
                        "at": "2023-11-14T22:13:20.023998Z",
                        "source": "passive",
                    },
                    {
                        "field": "deployment_info.unit_id",
                        "prior": "1",
                        "current": "2",
                        "at": "2023-11-14T22:13:20.023998Z",
                        "source": "passive",
                    },
                    {
                        "field": "static_info.model",
                        "prior": "SCADAPack32",
                        "current": "SCADAPack334",
                        "at": "2023-11-14T22:13:20.031998Z",
                        "source": "passive",
                    },
                    {
                        "field": "static_info.firmware_version",
                        "prior": "1.1",
                        "current": "2.0",
                        "at": "2023-11-14T22:13:20.031998Z",
                        "source": "passive",
                    },
                    {
                        "field": "deployment_info.modbus_slave_id",
                        "prior": "6",
                        "current": "7",
                        "at": "2023-11-14T22:13:20.039997Z",
                        "source": "passive",
                    },
                ],
            },
        ],
    },
}


# sha256 of the report document, without ``generated_at``, of a seeded capture
SEEDED_REPORT_DIGEST = "e84efcfb9fb8e734282ecffccd9308e579e4cfd667a597887801450c1c462afb"


def test_seeded_report_document_is_pinned(tmp_path, monkeypatch):
    rng = random.Random(12)
    flows = [
        (
            rng.randrange(3),
            rng.randrange(6),
            rng.choice(["modbus", "modbus", "s7comm", "enip", None]),
            rng.choice(["identity", "identity", "deployment", "other"]),
            rng.choice(TEXTS),
            rng.choice(VERSIONS),
            rng.randrange(1, 7),
            rng.random() < 0.9,
            None,  # each builder's default transaction id, PDU reference and session
        )
        for _ in range(60)
    ]
    monkeypatch.chdir(tmp_path)
    record_flows("seeded.pcap", flows)
    text = json.dumps(_report_document("seeded.pcap"), sort_keys=True)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == SEEDED_REPORT_DIGEST


MODBUS_REPLIES = [
    modbus.build_read_holding_response(1, 1, [1, 2, 3]),
    modbus.exception_frame(2, 1, modbus.FC_READ_HOLDING, 0x02),  # IllegalDataAddress
    modbus.exception_frame(3, 1, modbus.FC_ENCAPSULATED, modbus.EXC_ILLEGAL_FUNCTION),
    modbus.exception_frame(4, 1, modbus.FC_REPORT_SLAVE_ID, modbus.EXC_ILLEGAL_FUNCTION),
    modbus.build_device_id_response(5, 1, {0: "Vendor", 1: "Model"}, more_follows=True, next_object_id=2),
    modbus.build_device_id_response(6, 1, {2: "1.0"}),
    modbus.build_report_slave_id_response(7, 3, slave_id=9),
    modbus.build_device_id_request(unit=1),
    modbus.build_report_slave_id_request(unit=1),
]
MODBUS_FRAMES = st.one_of(
    st.sampled_from(MODBUS_REPLIES),
    one_byte_changed(MODBUS_REPLIES),
    st.sampled_from(MODBUS_REPLIES).flatmap(lambda f: st.integers(0, len(f) - 1).map(lambda n: f[:n])),
    st.binary(max_size=12),
)


OBJECT_FIELDS = {0x00: "manufacturer", 0x01: "model", 0x02: "firmware_version"}  # the basic category's objects


def _decode_every_frame(replies):
    """``modbus.identity_fields`` without its pre-filter: every frame goes through ``decode_modbus``."""
    objects, deployment = {}, {}
    for wire in replies:
        try:
            header, pdu = modbus.decode_modbus(wire)
            if pdu.function == modbus.FC_ENCAPSULATED:
                objects.update(modbus.parse_device_id_response(wire).objects)
            elif pdu.function == modbus.FC_REPORT_SLAVE_ID:
                deployment["modbus_slave_id"] = str(modbus.parse_report_slave_id_response(wire).slave_id)
                deployment["unit_id"] = str(header.unit_id)
        except (DecodeError, FormatError):
            continue
    return {OBJECT_FIELDS[k]: v for k, v in objects.items() if k in OBJECT_FIELDS}, deployment


@settings(max_examples=300, deadline=None)
@given(replies=st.lists(MODBUS_FRAMES, max_size=8))
def test_modbus_identity_prefilter_changes_nothing(replies):
    assert modbus.identity_fields(replies) == _decode_every_frame(replies)


# -- one decode per distinct identity reply set --------------------------------------

S7_REPLIES = [
    s7.build_szl_response_frame(s7.S7SzlResponse(s7.SZL_MODULE_ID, 0, s7.module_id_entries(
        {"module_order_number": "6ES7 151-8AB01-0AB0", "hardware_version": "2.0", "firmware_version": "3.2.6"}))),
    s7.build_szl_response_frame(s7.S7SzlResponse(s7.SZL_COMPONENT_ID, 0, s7.component_id_entries(
        {"system_name": "LINE-1", "copyright": "Original Siemens Equipment", "serial": "S C-1"}))),
    s7.build_szl_response_frame(s7.S7SzlResponse(s7.SZL_COMPONENT_ID, 0, (), error_code=0x8104)),  # refused
    s7.build_cotp_confirm(s7.CotpConnectionRequest(0x0100, 0x0102)),
    s7.build_setup_ack(1),
    s7.build_szl_read(s7.SZL_MODULE_ID),
]
ENIP_REPLIES = [
    enip.build_list_identity_response(enip.CipIdentity(1, 14, 54, (20, 11), 0x0060, 0x00C0FFEE, "1756-L61")),
    enip.build_list_identity_response(enip.CipIdentity(9999, 12, 7, (1, 0), 0, 1, "Unknown maker")),
    enip.build_list_identity(),  # no identity item
    enip.encode_header(enip.CMD_LIST_SERVICES, b""),
]
# each codec's per-exchange identifiers, which its identity_key leaves out: (start, end) in the frame
PER_EXCHANGE = {
    "modbus": ((0, 2),),  # MBAP transaction id
    "s7comm": ((11, 13),),  # PDU reference, after the TPKT, the 3-byte COTP DT header and 4 bytes of the S7 header
    "enip": ((4, 8), (12, 20)),  # session handle, sender context
}


def _reply_and_its_twin(protocol, valid):
    """A valid, mutated or random frame of ``protocol``, and the same frame with fresh per-exchange identifiers.

    Half the twins get one more byte changed, among the first 32 where every codec's header lies.
    """

    def twin(wire, fresh, change):
        for start, end in PER_EXCHANGE[protocol]:
            span = len(wire[start:end])
            wire, fresh = wire[:start] + fresh[:span] + wire[start + span :], fresh[span:]
        if change and wire:
            at = change[0] % len(wire)
            wire = wire[:at] + bytes([change[1]]) + wire[at + 1 :]
        return wire

    frames = st.one_of(st.sampled_from(valid), one_byte_changed(valid), st.binary(max_size=40))
    fresh = st.binary(min_size=12, max_size=12)
    change = st.one_of(st.none(), st.tuples(st.integers(0, 31), st.integers(0, 255)))
    return st.tuples(frames, fresh, change).map(lambda drawn: (drawn[0], twin(*drawn), drawn[2] is None))


@pytest.mark.parametrize(
    "protocol, valid", [("modbus", MODBUS_REPLIES), ("s7comm", S7_REPLIES), ("enip", ENIP_REPLIES)], ids=list(PROTOCOLS)
)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_equal_identity_keys_give_equal_identity_fields(protocol, valid, data):
    codec = PROTOCOLS[protocol]
    drawn = data.draw(st.lists(_reply_and_its_twin(protocol, valid), max_size=5))
    replies, twins = [wire for wire, _, _ in drawn], [wire for _, wire, _ in drawn]
    keys, twin_keys = list(map(codec.identity_key, replies)), list(map(codec.identity_key, twins))
    for (_reply, _twin, only_ids), key, twin_key in zip(drawn, keys, twin_keys):
        assert key == twin_key or not only_ids  # only per-exchange identifiers changed: the keys are equal
    fields = codec.identity_fields(replies)
    if keys == twin_keys:
        assert codec.identity_fields(twins) == fields
    # frames without a key add no field, so the memo decodes a flow's identity frames alone
    assert codec.identity_fields([wire for wire, key in zip(replies, keys) if key is not None]) == fields


def test_only_frames_identity_fields_may_read_have_a_key():
    # polls, exceptions, COTP confirms, setup acks and other commands have none; FC 0x2B and 0x11 requests and
    # S7 refusals have one, and decode to nothing
    assert [modbus.identity_key(wire) is not None for wire in MODBUS_REPLIES] == [0, 0, 0, 0, 1, 1, 1, 1, 1]
    assert [s7.identity_key(wire) is not None for wire in S7_REPLIES] == [1, 1, 1, 0, 0, 0]
    assert [enip.identity_key(wire) is not None for wire in ENIP_REPLIES] == [1, 1, 1, 0]


def test_identity_seen_again_after_another_logs_both_displacements(tmp_path, monkeypatch):
    path, writer, recorder = make_recorder(tmp_path)
    for index, vendor in enumerate(("Schneider Electric", "Telemecanique", "Schneider Electric")):
        flow = recorder.tcp_flow(("10.0.0.1", 40000 + index), ("10.0.0.2", 502))
        flow.handshake()
        flow.client_payload(modbus.build_device_id_request(1, transaction_id=index + 1))
        flow.server_payload(modbus.build_device_id_response(index + 1, 1, {0: vendor, 1: "M340"}))
        flow.close()
    writer.close()
    decoded = []
    identity_fields = modbus.identity_fields
    monkeypatch.setattr(modbus, "identity_fields", lambda frames: decoded.append(frames) or identity_fields(frames))
    _senders, flows, _read, _skipped = _dissect_file(path)
    times = [datetime.fromtimestamp(flow.last_seen, tz=timezone.utc) for flow in flows]
    asset = analyze_capture(PcapFile(str(path))).inventory.get("10.0.0.2")
    assert len(decoded) == 2  # the third flow's reply differs from the first's only in its transaction id
    assert [entry[:4] for entry in asset.provenance] == [
        ("static_info.manufacturer", "Schneider Electric", "Telemecanique", times[1]),
        ("static_info.manufacturer", "Telemecanique", "Schneider Electric", times[2]),
    ]
    assert asset.static_info == StaticDeviceInfo("Schneider Electric", "M340")


# -- against the simulator -------------------------------------------------------


def test_passive_parity_with_active_scan(tmp_path):
    fixtures = load_fixtures(default_fixtures_path())
    pcap_path = tmp_path / "mirror.pcap"
    station = StationHandle(list(fixtures.devices), scanner_ip=fixtures.scanner_ip, pcap_path=str(pcap_path)).start()
    try:
        config = ScanConfig(targets=tuple(d.ip for d in fixtures.devices), methods=frozenset({"icmp", "arp"}), rate_limit_pps=50, timeout_ms=500)
        active = Scanner(config, network=SimNetwork(station)).run()
    finally:
        station.stop()

    def packets_received() -> int:
        return sum(device.get_counters().packets_received for device in station.devices)

    before = packets_received()
    passive = analyze_capture(PcapFile(str(pcap_path)))
    # zero-emission: analyzing the capture sent nothing to the station
    assert packets_received() == before

    for ip, depth in active.per_asset_depth.items():
        assert passive.per_asset_depth[ip] == depth
    # the scanner host itself appears as a sender, at the floor level
    assert passive.per_asset_depth[fixtures.scanner_ip] == 1

    for ip in active.per_asset_depth:
        active_asset = active.inventory.get(ip)
        passive_asset = passive.inventory.get(ip)
        assert passive_asset.static_info == active_asset.static_info
        assert passive_asset.deployment_info == active_asset.deployment_info
        assert passive_asset.protocols == active_asset.protocols
        assert passive_asset.open_ports == active_asset.open_ports
        assert passive_asset.sources == frozenset({"passive"})


@pytest.fixture(scope="module")
def station_mirror(tmp_path_factory):
    """The records of one mirror capture of the default station under an active scan."""
    fixtures = load_fixtures(default_fixtures_path())
    path = tmp_path_factory.mktemp("mirror") / "station.pcap"
    station = StationHandle(list(fixtures.devices), scanner_ip=fixtures.scanner_ip, pcap_path=str(path)).start()
    try:
        config = ScanConfig(targets=tuple(d.ip for d in fixtures.devices), methods=frozenset({"icmp", "arp"}), rate_limit_pps=50, timeout_ms=500)
        Scanner(config, network=SimNetwork(station)).run()
    finally:
        station.stop()
    return list(CaptureReader(str(path)))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), changes=st.integers(1, 16))
def test_damaged_station_capture_raises_only_package_errors(station_mirror, tmp_path_factory, seed, changes):
    rng = random.Random(seed)
    frames = [bytearray(frame) for _when, frame in station_mirror]
    for _ in range(changes):
        frame = rng.choice(frames)
        frame[rng.randrange(len(frame))] = rng.randrange(256)
    for index in rng.sample(range(len(frames)), len(frames) // 5):
        del frames[index][rng.randrange(len(frames[index])) :]
    path = tmp_path_factory.getbasetemp() / "damaged.pcap"
    writer = PcapWriter(str(path))
    for (when, _frame), frame in zip(station_mirror, frames):
        writer.write(when, bytes(frame))
    writer.close()
    try:
        report = analyze_capture(PcapFile(str(path)))
    except IcsReconError:
        return
    assert report.frames_read == len(frames)


LAYOUTS = {"le_micro": ("<", False), "be_micro": (">", False), "le_nano": ("<", True), "be_nano": (">", True)}


def _relayout(blob, endian, nanos, over=None):
    """A little-endian microsecond capture in another header layout, each time kept; record ``over`` past the bound."""
    magic = MAGIC_NANOS if nanos else MAGIC_MICROS
    out, at, index = [struct.pack(endian + "IHHiIII", magic, 2, 4, 0, 0, 65535, LINKTYPE_ETHERNET)], 24, 0
    while at + 16 <= len(blob):
        sec, usec, incl, orig = struct.unpack_from("<IIII", blob, at)
        length = MAX_RECORD + 1 if index == over else incl
        out.append(struct.pack(endian + "IIII", sec, usec * 1000 if nanos else usec, length, orig))
        out.append(blob[at + 16 : at + 16 + incl])
        at, index = at + 16 + incl, index + 1
    return b"".join(out) + blob[at:]


@pytest.mark.parametrize("layout", LAYOUTS.values(), ids=list(LAYOUTS))
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**32 - 1), changes=st.integers(1, 16))
def test_chunked_walk_of_a_damaged_capture_matches_the_reader_and_the_parse_chain(
    station_mirror, tmp_path, layout, seed, changes
):
    rng = random.Random(seed)
    frames = [bytearray(frame) for _when, frame in station_mirror]
    for _ in range(changes):
        frame = rng.choice(frames)
        frame[rng.randrange(len(frame))] = rng.randrange(256)
    for index in rng.sample(range(len(frames)), len(frames) // 5):
        del frames[index][rng.randrange(len(frames[index])) :]
    path = tmp_path / "damaged.pcap"
    writer = PcapWriter(str(path))
    for (when, _frame), frame in zip(station_mirror, frames):
        writer.write(when, bytes(frame))
    writer.close()
    over = rng.choice([None, rng.randrange(len(frames))])
    blob = _relayout(path.read_bytes(), *layout, over=over)
    if rng.random() < 0.5:
        blob = blob[: rng.randrange(24, len(blob))]  # a final record cut short, or none at all
    path.write_bytes(blob)

    reader = CaptureReader(str(path))
    records = list(reader)
    chunks, at = [], 24
    while at < len(blob):  # 1-byte chunks, cuts inside a record header and longer runs
        size = rng.choice([1, rng.randrange(1, 20), rng.randrange(1, 600), rng.randrange(1, 8000)])
        chunks.append(blob[at : at + size])
        at += size
    want_senders, want_flows, want_skipped = _chain_dissect(records)
    senders, flows, frames_read, skipped = _dissect(chunks, reader.record_header, reader.divisor)
    assert (frames_read, skipped) == (len(records), want_skipped + reader.skipped)
    assert {ip_text(ip): [mac_text(mac), last] for ip, (mac, last) in senders.items()} == want_senders
    assert _flow_views(flows, _text_endpoint) == _flow_views(want_flows.values(), lambda e: e)
