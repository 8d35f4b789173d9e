"""Device simulator: fragility model, station lifecycle, conformance."""

from __future__ import annotations

import socket
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from icsrecon.codecs import enip, modbus, s7
from icsrecon.config import default_fixtures_path, load_fixtures
from icsrecon.errors import ConfigError, PortUnavailable
from icsrecon.netbase import recv_frame
from icsrecon.passive import PcapFile, read_capture
from icsrecon.pcapio import TCP_FIN, parse_ethernet, parse_ipv4, parse_tcp
from icsrecon.simulator import (
    ControlClient,
    ControlledStation,
    Counters,
    RemoteStation,
    SimDevice,
    SimDeviceConfig,
    SimNetwork,
    SimState,
    StationHandle,
    start_station,
)


def modbus_config(**kw) -> SimDeviceConfig:
    base = dict(
        name="rtu",
        protocol="modbus",
        ip="192.168.90.13",
        listen_port=502,
        identity={"manufacturer": "Schneider Electric", "product_code": "SCADAPack32",
                  "firmware_version": "1.0", "slave_id": "5"},
        feature_flags=frozenset({"device_id_fc2b", "report_slave_id_fc11"}),
    )
    base.update(kw)
    return SimDeviceConfig(**base)


@pytest.fixture
def station():
    handle = start_station([modbus_config()])
    yield handle
    handle.stop()


def exchange(station, config_port, ip, request, codec):
    real_port = station.lookup(ip, config_port)
    with socket.create_connection(("127.0.0.1", real_port), timeout=2) as sock:
        sock.sendall(request)
        return recv_frame(sock, codec, 2.0)


# -- config validation ---------------------------------------------------


def test_feature_flags_must_match_protocol():
    with pytest.raises(ConfigError):
        modbus_config(feature_flags=frozenset({"szl_0011"}))


def test_max_pps_positive():
    with pytest.raises(ConfigError):
        modbus_config(max_pps=0)


def test_unknown_protocol():
    with pytest.raises(ConfigError):
        modbus_config(protocol="profinet")


@pytest.mark.parametrize("port", [None, 0, 65536, -1, "502", True, 502.0])
def test_listen_port_must_be_a_port_number(port):
    with pytest.raises(ConfigError, match="listen_port"):
        modbus_config(listen_port=port)
    assert modbus_config(listen_port=1).listen_port == 1 and modbus_config(listen_port=65535).listen_port == 65535


@pytest.mark.parametrize(
    "text, message",
    [
        ("[station]\nscanner_ip = not-an-ip\n", "scanner_ip: not an IPv4 address"),
        ("[device:a]\nprotocol = modbus\nip = 192.168.90.999\nlisten_port = 502\n", "not an IPv4 address"),
        ("[device:a]\nprotocol = modbus\nip = 192.168.90.10\nlisten_port = 502\nmac = zz\n", "not a 48-bit"),
    ],
    ids=["scanner-ip", "device-ip", "device-mac"],
)
def test_fixture_addresses_are_checked_when_loaded(tmp_path, text, message):
    path = tmp_path / "station.conf"
    path.write_text(text)
    with pytest.raises(ConfigError, match=message):
        load_fixtures(path)


# -- fragility model ------------------------------------------------------


def make_device(**kw) -> SimDevice:
    station = StationHandle([], scanner_ip="192.168.90.1")
    return SimDevice(modbus_config(**kw), station)


def test_burst_over_budget_faults_within_one_second():
    device = make_device(fragile=True, max_pps=50)
    # direct-computation oracle: inject a 200 pps timestamp series; the
    # 51st packet (index 50) is the first where a 1 s window holds > 50
    state = SimState.RUNNING
    first_fault = None
    for i in range(200):
        now = 100.0 + i / 200.0
        state = device.note_received(now=now)
        if state is SimState.FAULT and first_fault is None:
            first_fault = i
    assert state is SimState.FAULT
    assert first_fault == 50
    assert (first_fault + 1) / 200.0 <= 1.0  # within one second of the burst


def test_slow_rate_keeps_running():
    device = make_device(fragile=True, max_pps=50)
    for i in range(200):
        assert device.note_received(now=100.0 + i / 20.0) is SimState.RUNNING


def test_non_fragile_survives_any_rate():
    device = make_device(fragile=False, max_pps=1)
    for i in range(500):
        assert device.note_received(now=100.0 + i / 1000.0) is SimState.RUNNING


def test_single_malformed_frame_faults_when_configured():
    device = make_device(fault_on_malformed=True)
    assert device.note_received(now=1.0) is SimState.RUNNING
    assert device.note_malformed() is SimState.FAULT


def test_malformed_tolerated_without_flag():
    device = make_device(fault_on_malformed=False)
    assert device.note_received(now=1.0) is SimState.RUNNING
    assert device.note_malformed() is SimState.RUNNING


def test_fault_latches_until_reset():
    device = make_device(fragile=True, max_pps=1)
    for i in range(10):
        device.note_received(now=50.0 + i / 100.0)
    assert device.get_state() is SimState.FAULT
    # still faulted even after quiet time
    assert device.note_received(now=500.0) is SimState.FAULT
    assert device.reset() is SimState.RUNNING
    assert device.get_state() is SimState.RUNNING


MALFORMED_S7 = bytes.fromhex("03000007025500")  # TPKT frames it; COTP type 0x55 does not decode


def s7_station(**kw) -> StationHandle:
    return start_station([SimDeviceConfig(name="plc", protocol=s7.NAME, ip="192.168.90.10", listen_port=102, **kw)])


def send_malformed_s7(station: StationHandle) -> None:
    """One connection, one malformed request; the device must hang up, not leave the read to time out."""
    with socket.create_connection(("127.0.0.1", station.lookup("192.168.90.10", 102)), timeout=2) as sock:
        sock.sendall(MALFORMED_S7)
        try:
            assert sock.recv(64) == b""
        except ConnectionResetError:
            pass


def test_malformed_request_takes_one_place_in_the_rate_window():
    station = s7_station(fragile=True, max_pps=2)
    try:
        send_malformed_s7(station)
        device = station.device("plc")
        assert device.get_counters().packets_received == 2
        assert device.get_state() is SimState.RUNNING  # 2 packets, within a budget of 2 per second
    finally:
        station.stop()


@pytest.mark.parametrize("fault_on_malformed", [False, True])
def test_malformed_request_is_counted_once_and_closes_the_connection(fault_on_malformed):
    station = s7_station(fault_on_malformed=fault_on_malformed)
    try:
        send_malformed_s7(station)
        device = station.device("plc")
        assert device.get_counters() == Counters(packets_received=2, packets_sent=0, malformed_seen=1)
        assert device.get_state() is (SimState.FAULT if fault_on_malformed else SimState.RUNNING)
    finally:
        station.stop()


def test_counters_preserved_across_reset():
    device = make_device()
    device.note_received(now=1.0)
    device.note_received(now=2.0)
    device.note_malformed()
    device.reset()
    counters = device.get_counters()
    assert counters.packets_received == 2
    assert counters.malformed_seen == 1


def test_counters_monotone_snapshots():
    device = make_device()
    previous = Counters()
    for i in range(5):
        device.note_received(now=float(i))
        current = device.get_counters()
        assert current.packets_received >= previous.packets_received
        previous = current


# -- station lifecycle ------------------------------------------------------


def test_duplicate_endpoint_rejected():
    with pytest.raises(PortUnavailable):
        StationHandle([modbus_config(), modbus_config(name="rtu2")])


def test_empty_station_is_valid():
    handle = start_station([])
    assert handle.devices == []
    handle.stop()


def test_distinct_ips_may_share_port_number():
    handle = start_station([modbus_config(), modbus_config(name="rtu2", ip="192.168.90.99")])
    try:
        assert handle.lookup("192.168.90.13", 502) != handle.lookup("192.168.90.99", 502)
    finally:
        handle.stop()


def test_default_fixture_station_starts_and_answers(station=None):
    config = load_fixtures(default_fixtures_path())
    assert len(config.devices) == 5
    handle = start_station(list(config.devices), scanner_ip=config.scanner_ip)
    try:
        reply = exchange(handle, 102, "192.168.90.10", s7.build_cotp_connect(0x0100, 0x0102), s7)
        assert isinstance(s7.decode_envelope(reply).cotp, s7.CotpConnectionConfirm)
    finally:
        handle.stop()


# -- protocol conformance (replies parse under the shared codecs) -----------


def test_modbus_replies_parse_cleanly(station):
    reply = exchange(station, 502, "192.168.90.13", modbus.build_device_id_request(unit=1), modbus)
    ident = modbus.parse_device_id_response(reply)
    assert ident.objects[modbus.OBJ_VENDOR_NAME] == "Schneider Electric"
    assert ident.objects[modbus.OBJ_PRODUCT_CODE] == "SCADAPack32"

    reply = exchange(station, 502, "192.168.90.13", modbus.build_report_slave_id_request(unit=1), modbus)
    parsed = modbus.parse_report_slave_id_response(reply)
    assert parsed.slave_id == 5


def test_modbus_wrong_unit_gets_gateway_exception(station):
    reply = exchange(station, 502, "192.168.90.13", modbus.build_report_slave_id_request(unit=99), modbus)
    _, pdu = modbus.decode_modbus(reply)
    assert pdu.is_exception
    assert pdu.exception_code == 0x0B


def test_modbus_unsupported_function_is_wellformed_exception():
    config = modbus_config(feature_flags=frozenset({"report_slave_id_fc11"}))
    handle = start_station([config])
    try:
        reply = exchange(handle, 502, "192.168.90.13", modbus.build_device_id_request(unit=1), modbus)
        _, pdu = modbus.decode_modbus(reply)
        assert pdu.is_exception
        assert pdu.exception_code == modbus.EXC_ILLEGAL_FUNCTION
    finally:
        handle.stop()


def test_s7_wrong_tsap_refused():
    config = SimDeviceConfig(
        name="plc",
        protocol="s7comm",
        ip="192.168.90.10",
        listen_port=102,
        identity={"module_order_number": "6ES7 151-8AB01-0AB0", "firmware_version": "3.2.6"},
        feature_flags=frozenset({"szl_0011"}),
        accepted_tsaps=(0x0102,),
    )
    handle = start_station([config])
    try:
        reply = exchange(handle, 102, "192.168.90.10", s7.build_cotp_connect(0x0100, 0x0999), s7)
        assert isinstance(s7.decode_envelope(reply).cotp, s7.CotpDisconnectRequest)
        reply = exchange(handle, 102, "192.168.90.10", s7.build_cotp_connect(0x0100, 0x0102), s7)
        assert isinstance(s7.decode_envelope(reply).cotp, s7.CotpConnectionConfirm)
    finally:
        handle.stop()


def test_s7_szl_refused_without_feature():
    config = load_fixtures(default_fixtures_path())
    handle = start_station(list(config.devices))
    try:
        real_port = handle.lookup("192.168.90.12", 102)  # the HMI-like panel
        with socket.create_connection(("127.0.0.1", real_port), timeout=2) as sock:
            sock.sendall(s7.build_cotp_connect(0x0100, 0x0102))
            assert isinstance(s7.decode_envelope(recv_frame(sock, s7, 2.0)).cotp, s7.CotpConnectionConfirm)
            sock.sendall(s7.build_setup_communication(pdu_ref=1))
            recv_frame(sock, s7, 2.0)
            sock.sendall(s7.build_szl_read(s7.SZL_MODULE_ID, pdu_ref=2))
            reply = recv_frame(sock, s7, 2.0)
            message = s7.decode_s7(s7.decode_envelope(reply).cotp.payload)
            assert isinstance(message, s7.S7SzlResponse)
            assert message.error_code != 0
    finally:
        handle.stop()


def test_enip_identity_reply_matches_fixture():
    config = load_fixtures(default_fixtures_path())
    handle = start_station(list(config.devices))
    try:
        reply = exchange(handle, 44818, "192.168.90.14", enip.build_list_identity(), enip)
        identity = enip.parse_list_identity(reply)
        assert identity.product_name == "ControlLogix 5561"
        assert identity.vendor_id == 1
        assert identity.revision == (20, 11)
    finally:
        handle.stop()


def test_unknown_enip_command_gets_status_one():
    config = load_fixtures(default_fixtures_path())
    handle = start_station(list(config.devices))
    try:
        reply = exchange(handle, 44818, "192.168.90.14", enip.encode_header(0x0999, b""), enip)
        message, payload = enip.decode_header(reply)
        assert (message.command, message.status, payload) == (0x0999, 0x0001, b"")
        assert handle.device("controllogix_like").counters.malformed_seen == 0
    finally:
        handle.stop()


def test_fault_latching_no_replies_until_reset(station):
    device = station.device("rtu")
    device.state = SimState.FAULT
    real_port = station.lookup("192.168.90.13", 502)
    # connections are still accepted, but nothing comes back
    with socket.create_connection(("127.0.0.1", real_port), timeout=2) as sock:
        sock.sendall(modbus.build_report_slave_id_request(unit=1))
        with pytest.raises(socket.timeout):
            recv_frame(sock, modbus, 1.0)
    device.reset()
    reply = exchange(station, 502, "192.168.90.13", modbus.build_report_slave_id_request(unit=1), modbus)
    assert modbus.parse_report_slave_id_response(reply).slave_id == 5


def test_ping_and_arp_through_mapping_layer(station):
    net = SimNetwork(station)
    assert net.ping("192.168.90.13", 1.0)
    assert not net.ping("192.168.90.200", 1.0)
    assert net.arp("192.168.90.13", 1.0) == "02:00:00:00:00:01"
    assert net.arp("192.168.90.200", 1.0) is None


def test_segment_is_the_scanner_address_slash_24_locally_and_through_the_map(station):
    assert "segment" not in station.address_map()  # worked out from scanner_ip on both sides
    controlled = ControlledStation(StationHandle([], scanner_ip="10.20.30.40").start())
    try:
        remote = RemoteStation(controlled.map_document())
        for net in (SimNetwork(controlled.station), SimNetwork(remote)):
            assert net.on_link("10.20.30.1") and net.on_link("10.20.30.254")
            assert not net.on_link("10.20.31.1") and not net.on_link("192.168.90.13")
        remote.close()
    finally:
        controlled.stop()


def test_unmapped_port_refused_vs_dead_timeout(station):
    net = SimNetwork(station)
    assert net.connect("192.168.90.13", 8080, 1.0).status == "refused"
    assert net.connect("192.168.90.200", 502, 1.0).status == "timeout"


def test_faulted_device_times_out_unmapped_ports(station):
    station.device("rtu").state = SimState.FAULT
    net = SimNetwork(station)
    assert net.connect("192.168.90.13", 8080, 1.0).status == "timeout"


def test_packets_sent_zero_without_requests(station):
    counters = station.device("rtu").get_counters()
    assert counters.packets_sent == 0


def test_control_ops_counters_reset_and_info(station):
    controlled = ControlledStation(station)
    client = ControlClient(controlled.control_port)
    request = modbus.build_report_slave_id_request(unit=1)
    try:
        exchange(station, 502, "192.168.90.13", request, modbus)
        assert station.wait_idle(timeout=5.0)
        counters = client.call("counters", name="rtu")["counters"]
        assert (counters["packets_received"], counters["packets_sent"]) == (2, 1)
        station.device("rtu").state = SimState.FAULT
        assert client.call("reset", name="rtu")["state"] == "running"
        assert modbus.parse_report_slave_id_response(exchange(station, 502, "192.168.90.13", request, modbus)).slave_id == 5
        assert client.call("info")["map"] == station.address_map()
    finally:
        client.close()
        controlled.stop()


def test_control_client_shared_by_concurrent_callers():
    # scan workers share one control connection to a separate simulator
    # process; every answer must reach the thread that asked for it
    config = load_fixtures(default_fixtures_path())
    controlled = ControlledStation(start_station(list(config.devices), scanner_ip=config.scanner_ip))
    client = ControlClient(controlled.control_port)
    expected = {device.ip: device.mac for device in config.devices}
    expected["192.168.90.200"] = None
    ips = sorted(expected)

    def wrong_answers(worker: int) -> int:
        wrong = 0
        for i in range(200):
            ip = ips[(worker + i) % len(ips)]
            wrong += client.call("arp", ip=ip)["mac"] != expected[ip]
        return wrong

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            assert list(pool.map(wrong_answers, range(8))) == [0] * 8
    finally:
        sys.setswitchinterval(interval)
        client.close()
        controlled.stop()


def test_wait_idle_returns_after_the_last_teardown_frame(tmp_path):
    pcap = tmp_path / "mirror.pcap"
    station = start_station([modbus_config()], pcap_path=str(pcap))
    try:
        sock = socket.create_connection(("127.0.0.1", station.lookup("192.168.90.13", 502)), timeout=2)
        sock.sendall(modbus.build_report_slave_id_request(unit=1))
        recv_frame(sock, modbus, 2.0)
        closer = threading.Timer(0.3, sock.close)  # the client lingers, then goes away
        closer.start()
        assert station.wait_idle(timeout=5.0)
        closer.join(timeout=5.0)
        after_wait = [frame for _, frame in read_capture(PcapFile(str(pcap)))]
    finally:
        station.stop()
    assert len(after_wait) == len(list(read_capture(PcapFile(str(pcap)))))
    last = parse_tcp(parse_ipv4(parse_ethernet(after_wait[-1]).payload).payload)
    assert last.flags & TCP_FIN  # the teardown was already written when the wait returned


def test_wait_idle_is_bounded_while_a_client_holds_its_connection(station):
    with socket.create_connection(("127.0.0.1", station.lookup("192.168.90.13", 502)), timeout=2) as sock:
        sock.sendall(modbus.build_report_slave_id_request(unit=1))
        recv_frame(sock, modbus, 2.0)  # the server has accepted and is serving it
        assert not station.wait_idle(timeout=0.2)
    assert station.wait_idle(timeout=5.0)


def test_wait_idle_counts_a_connection_not_yet_accepted(station):
    port = station.lookup("192.168.90.13", 502)
    for _ in range(20):
        # nothing is sent or read: the connection may still sit in the accept queue
        with socket.create_connection(("127.0.0.1", port), timeout=2):
            assert not station.wait_idle(timeout=0.2)
