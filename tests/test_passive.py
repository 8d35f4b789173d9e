"""Passive analyzer: classification rules, crafted captures, ceilings."""

from __future__ import annotations

import pytest

from icsrecon.codecs import enip, modbus, s7
from icsrecon.config import default_fixtures_path, load_fixtures
from icsrecon.errors import FormatError
from icsrecon.model import PortSpec
from icsrecon.passive import (
    PcapFile,
    REASSEMBLY_CAP,
    analyze_capture,
    classify_flow,
    read_capture,
)
from icsrecon.pcapio import PcapWriter, TrafficRecorder
from icsrecon.scanner import ScanConfig, run_scan
from icsrecon.simulator import SimNetwork, start_station


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


def test_reassembly_cap_is_enforced():
    from icsrecon.passive import _Flow

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
