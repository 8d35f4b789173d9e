"""Passive analyzer: classification rules, crafted captures, ceilings."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from icsrecon.codecs import enip, modbus, s7
from icsrecon.config import default_fixtures_path, load_fixtures
from icsrecon.errors import FormatError
from icsrecon.model import PortSpec
from icsrecon.passive import (
    LiveInterface,
    PcapFile,
    REASSEMBLY_CAP,
    _dissect,
    _Flow,
    analyze_capture,
    classify_flow,
    read_capture,
)
from icsrecon.pcapio import (
    BROADCAST_MAC,
    ETHERTYPE_ARP,
    ETHERTYPE_IPV4,
    PROTO_ICMP,
    PROTO_TCP,
    TCP_ACK,
    TCP_FIN,
    TCP_PSH,
    TCP_SYN,
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
from icsrecon.scanner import ScanConfig, run_scan
from icsrecon.simulator import SimNetwork, start_station
from icsrecon.taxonomy import classify_run

from conftest import one_byte_changed


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


# -- read_capture -------------------------------------------------------------


def test_empty_pcap_yields_empty_stream(tmp_path):
    path = tmp_path / "empty.pcap"
    PcapWriter(str(path)).close()
    assert list(read_capture(PcapFile(str(path)))) == []


def test_single_arp_frame(tmp_path):
    path, writer, recorder = make_recorder(tmp_path)
    recorder.register_mac("10.0.0.9", "00:1b:1b:00:00:09")
    recorder.arp_exchange("10.0.0.9", "10.0.0.1", answered=False)
    writer.close()
    frames = list(read_capture(PcapFile(str(path))))
    assert len(frames) == 1


def test_wrong_magic_raises_format_error(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"\x00" * 64)
    with pytest.raises(FormatError):
        list(read_capture(PcapFile(str(path))))


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
    assert rtu.deployment_info.get("modbus_slave_id") == "5"
    assert rtu.deployment_info.get("unit_id") == "1"


def test_live_interface_run_is_real_time(tmp_path, monkeypatch):
    path, writer, recorder = make_recorder(tmp_path)
    flow = recorder.tcp_flow(("192.168.90.1", 50003), ("192.168.90.13", 502))
    flow.handshake()
    flow.client_payload(modbus.build_report_slave_id_request(unit=1))
    flow.server_payload(modbus.build_report_slave_id_response(1, 1, slave_id=5))
    flow.close()
    writer.close()
    frames = list(read_capture(PcapFile(str(path))))
    monkeypatch.setattr(LiveInterface, "__iter__", lambda self: iter(frames))
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


def test_reassembly_cap_is_enforced():
    flow = _Flow(("a", 1), ("b", 2))
    direction = flow.dirs[("a", 1)]
    direction.add(0, b"x" * (REASSEMBLY_CAP + 500), flow)
    assert len(direction.buffer) == REASSEMBLY_CAP
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
    first = analyze_capture(PcapFile(str(path))).inventory.to_json()
    second = analyze_capture(PcapFile(str(path))).inventory.to_json()
    assert first == second


# -- frame dissection against the per-layer parse chain ------------------------

HOST_A, HOST_B, MAC_A, MAC_B = "10.0.0.9", "10.0.0.10", "00:1b:1b:00:00:09", "00:80:f4:00:00:0a"


def _ip_frame(src: str, dst: str, proto: int, body: bytes) -> bytes:
    return ethernet(MAC_B, MAC_A, ETHERTYPE_IPV4, ipv4(src, dst, proto, body))


def _tcp_frame(src: str, dst: str, sport: int, dport: int, seq: int, flags: int, payload: bytes = b"") -> bytes:
    return _ip_frame(src, dst, PROTO_TCP, tcp_segment(src, dst, sport, dport, seq, 0, flags, payload))


def _poke(frame: bytes, at: int, value: int) -> bytes:
    return frame[:at] + bytes([value]) + frame[at + 1 :]


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
]
FRAMES = st.one_of(
    st.sampled_from(VALID_FRAMES + MALFORMED_FRAMES),
    one_byte_changed(VALID_FRAMES),
    st.sampled_from(VALID_FRAMES).flatmap(lambda f: st.integers(0, len(f) - 1).map(lambda n: f[:n])),
)


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
        if packet.proto != PROTO_TCP:
            continue
        segment = parse_tcp(packet.payload)
        if segment is None:
            skipped += 1
            continue
        src, dst = (packet.src_ip, segment.src_port), (packet.dst_ip, segment.dst_port)
        key = (src, dst) if src < dst else (dst, src)
        flow = flows.setdefault(key, _Flow(*key))
        flow.last_seen = max(flow.last_seen, when)
        direction = flow.dirs[src]
        if segment.flags & TCP_SYN:
            if flow.client is None and not segment.flags & TCP_ACK:
                flow.client = src
            direction.bump(segment.seq, 1)
        if segment.payload:
            direction.add(segment.seq, segment.payload, flow)
        if segment.flags & TCP_FIN:
            direction.bump(segment.seq + len(segment.payload), 1)
    return senders, flows, skipped


def _flow_views(flows, name):
    return {
        frozenset(map(name, flow.endpoints)): (
            {name(e): (bytes(d.buffer), d.next_seq, d.capped) for e, d in flow.dirs.items()},
            flow.client and name(flow.client),
            flow.out_of_order,
            flow.last_seen,
        )
        for flow in flows.values()
    }


@settings(max_examples=300, deadline=None)
@given(records=st.lists(st.tuples(st.integers(0, 40).map(float), FRAMES), max_size=24))
def test_dissection_matches_the_parse_chain(records, tmp_path_factory):
    want_senders, want_flows, want_skipped = _chain_dissect(records)
    senders, flows, frames_read, skipped = _dissect(records)
    assert (frames_read, skipped) == (len(records), want_skipped)
    assert {ip_text(ip): [mac_text(mac), last] for ip, (mac, last) in senders.items()} == want_senders
    raw_views = _flow_views(flows, lambda endpoint: (ip_text(endpoint[0]), endpoint[1]))
    assert raw_views == _flow_views(want_flows, lambda endpoint: endpoint)

    path = tmp_path_factory.getbasetemp() / "dissect.pcap"
    writer = PcapWriter(str(path))
    for when, frame in records:
        writer.write(when, frame)
    writer.close()
    report = analyze_capture(PcapFile(str(path)))
    assert (report.frames_read, report.frames_skipped) == (len(records), want_skipped)
    assert {asset.ip: asset.mac for asset in report.inventory} == {ip: mac for ip, (mac, _) in want_senders.items()}


# -- against the simulator -------------------------------------------------------


def test_passive_parity_with_active_scan(tmp_path):
    fixtures = load_fixtures(default_fixtures_path())
    pcap_path = tmp_path / "mirror.pcap"
    station = start_station(list(fixtures.devices), scanner_ip=fixtures.scanner_ip, pcap_path=str(pcap_path))
    try:
        config = ScanConfig(targets=tuple(d.ip for d in fixtures.devices), methods=frozenset({"icmp", "arp"}), rate_limit_pps=50, timeout_ms=500)
        active = run_scan(config, network=SimNetwork(station))
    finally:
        station.stop()

    before = station.total_packets_received()
    passive = analyze_capture(PcapFile(str(pcap_path)))
    # zero-emission: analyzing the capture sent nothing to the station
    assert station.total_packets_received() == before

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
