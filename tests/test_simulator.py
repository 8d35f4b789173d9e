"""Device simulator: fragility model, station lifecycle, conformance."""

from __future__ import annotations

import contextlib
import socket
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import example, given, settings, strategies as st

from icsrecon import simulator
from icsrecon.codecs import PROTOCOLS, cut_frames, enip, modbus, s7
from icsrecon.config import default_fixtures_path, load_fixtures
from icsrecon.errors import ConfigError, DecodeError, FormatError, PortUnavailable
from icsrecon.netbase import recv_frame
from icsrecon.pcapio import TCP_FIN, CaptureReader, parse_ethernet, parse_ipv4, parse_tcp
from icsrecon.scanner import ScanConfig, Scanner
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
    handle = StationHandle([modbus_config()]).start()
    yield handle
    handle.stop()


def exchange(station, port, ip, request, codec):
    with SimNetwork(station).connect(ip, port, 2.0).sock as sock:
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


@pytest.mark.parametrize(
    "protocol, key, value",
    [("modbus", "accepted_tsaps", "0x0200"), ("enip", "unit_id", "9"), ("s7comm", "unit_id", "1"),
     ("enip", "accepted_tsaps", "0x0102")],
)
def test_a_device_field_only_another_protocol_reads_is_refused(tmp_path, protocol, key, value):
    path = tmp_path / "station.conf"
    path.write_text(f"[device:plc]\nprotocol = {protocol}\nip = 10.0.0.1\nlisten_port = 1000\n{key} = {value}\n")
    with pytest.raises(ConfigError, match=f"^plc: {key} is not read by a {protocol} device$"):
        load_fixtures(path)
    path.write_text(path.read_text().replace(f"{key} = {value}\n", ""))
    assert load_fixtures(path).devices[0].accepted_tsaps is None


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
    return SimDevice(modbus_config(**kw))


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
    config = SimDeviceConfig(name="plc", protocol=s7.NAME, ip="192.168.90.10", listen_port=102, **kw)
    return StationHandle([config]).start()


def send_malformed_s7(station: StationHandle) -> None:
    """One connection, one malformed request; the device must hang up, not leave the read to time out."""
    with SimNetwork(station).connect("192.168.90.10", 102, 2.0).sock as sock:
        sock.sendall(MALFORMED_S7)
        assert sock.recv(64) == b""


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
    handle = StationHandle([]).start()
    assert handle.devices == []
    handle.stop()


def test_distinct_ips_may_share_port_number():
    handle = StationHandle([modbus_config(), modbus_config(name="rtu2", ip="192.168.90.99")]).start()
    try:
        for ip in ("192.168.90.13", "192.168.90.99"):
            exchange(handle, 502, ip, modbus.build_report_slave_id_request(unit=1), modbus)
        # each connection reached its own device: the attempt and the request
        assert [device.get_counters().packets_received for device in handle.devices] == [2, 2]
    finally:
        handle.stop()


def test_default_fixture_station_starts_and_answers(station=None):
    config = load_fixtures(default_fixtures_path())
    assert len(config.devices) == 5
    handle = StationHandle(list(config.devices), scanner_ip=config.scanner_ip).start()
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
    handle = StationHandle([config]).start()
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
    handle = StationHandle([config]).start()
    try:
        reply = exchange(handle, 102, "192.168.90.10", s7.build_cotp_connect(0x0100, 0x0999), s7)
        assert isinstance(s7.decode_envelope(reply).cotp, s7.CotpDisconnectRequest)
        reply = exchange(handle, 102, "192.168.90.10", s7.build_cotp_connect(0x0100, 0x0102), s7)
        assert isinstance(s7.decode_envelope(reply).cotp, s7.CotpConnectionConfirm)
    finally:
        handle.stop()


def test_s7_szl_refused_without_feature():
    config = load_fixtures(default_fixtures_path())
    handle = StationHandle(list(config.devices)).start()
    try:
        with SimNetwork(handle).connect("192.168.90.12", 102, 2.0).sock as sock:  # the HMI-like panel
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
    handle = StationHandle(list(config.devices)).start()
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
    handle = StationHandle(list(config.devices)).start()
    try:
        reply = exchange(handle, 44818, "192.168.90.14", enip.encode_header(0x0999, b""), enip)
        message, payload = enip.decode_header(reply)
        assert (message.command, message.status, payload) == (0x0999, 0x0001, b"")
        assert handle.device("controllogix_like").get_counters().malformed_seen == 0
    finally:
        handle.stop()


def test_s7_cr_with_the_last_source_reference_is_confirmed():
    station = s7_station()
    try:
        request = s7.encode_envelope(s7.CotpConnectionRequest(0x0100, 0x0102, src_ref=0xFFFF))
        reply = s7.decode_envelope(exchange(station, 102, "192.168.90.10", request, s7)).cotp
        assert (reply.dst_ref, reply.src_ref) == (0xFFFF, 0x0000)  # the reference wraps in its 16-bit word
        assert station.device("plc").get_counters().malformed_seen == 0
    finally:
        station.stop()


# each protocol's requests in the order a scan sends them, so a mutated stream walks an S7 connection through its states
VALID_REQUESTS = {
    modbus.NAME: modbus.build_device_id_request(1) + modbus.build_report_slave_id_request(1)
    + modbus.build_read_holding_request(1, 0, 10),
    s7.NAME: s7.build_cotp_connect(0x0100, 0x0102) + s7.build_setup_communication()
    + s7.build_szl_read(s7.SZL_MODULE_ID) + s7.build_szl_read(s7.SZL_COMPONENT_ID),
    enip.NAME: enip.build_list_identity() + enip.encode_header(0x0999, b""),
}
DEFAULT_DEVICES = {config.name: config for config in load_fixtures(default_fixtures_path()).devices}


@settings(max_examples=300, deadline=None)
@given(
    name=st.sampled_from(sorted(DEFAULT_DEVICES)),
    writes=st.lists(st.tuples(st.integers(0, 0xFFFF), st.binary(min_size=1, max_size=4)), max_size=4),
)
@example(name="et200s_like", writes=[(8, b"\xff\xff")])  # the CR's src_ref: 0xFFFF once killed the connection
def test_a_device_answers_any_frame_cut_from_mutated_requests_or_refuses_it_as_malformed(name, writes):
    config = DEFAULT_DEVICES[name]
    codec, stream = PROTOCOLS[config.protocol], VALID_REQUESTS[config.protocol]
    for at, data in writes:
        at %= len(stream)
        stream = stream[:at] + data + stream[at + len(data):]
    session: dict = {}
    for frame in cut_frames(stream, codec.HEADER_SIZE, codec.frame_size)[0]:
        try:
            reply, hang_up = codec.respond(config, session, frame)
        except (DecodeError, FormatError):
            return  # the device counts a malformed packet and hangs up
        assert reply is None or isinstance(reply, bytes)
        if hang_up:
            return


# -- the simulator's reply functions as they stood before each codec's respond held them, kept as the reference --


class ReferenceConnection:
    """One client connection's state, handed with each request to the reference reply function."""

    def __init__(self, config: SimDeviceConfig):
        self.config = config
        self.connected = False  # a COTP connection was confirmed
        self.disconnect = False  # the device hangs up once this reply is sent


def reference_modbus_device_id(config, tx=0, unit=0):
    identity = config.identity
    objects = {
        modbus.OBJ_VENDOR_NAME: identity.get("manufacturer", ""),
        modbus.OBJ_PRODUCT_CODE: identity.get("product_code", ""),
        modbus.OBJ_REVISION: identity.get("firmware_version", ""),
    }
    return modbus.build_device_id_response(tx, unit, {k: v for k, v in objects.items() if v})


def reference_modbus_slave_id(config, tx=0, unit=0):
    slave_id = int(config.identity.get("slave_id", config.unit_id))
    extra = config.identity.get("product_code", "").encode("ascii")
    return modbus.build_report_slave_id_response(tx, unit, slave_id, running=True, additional=extra)


def reference_modbus_reply(connection, request):
    header, pdu = modbus.decode_modbus(request)
    config = connection.config
    tx, unit = header.transaction_id, header.unit_id
    if unit not in (config.unit_id, 0x00, 0xFF):
        return modbus.exception_frame(tx, unit, pdu.function, 0x0B)
    device_id = pdu.function == modbus.FC_ENCAPSULATED and pdu.payload[:1] == bytes([modbus.MEI_DEVICE_ID])
    if device_id and "device_id_fc2b" in config.feature_flags:
        return reference_modbus_device_id(config, tx, unit)
    if pdu.function == modbus.FC_REPORT_SLAVE_ID and "report_slave_id_fc11" in config.feature_flags:
        return reference_modbus_slave_id(config, tx, unit)
    if pdu.function == modbus.FC_READ_HOLDING and len(pdu.payload) == modbus.READ_HOLDING.size:
        _start, count = modbus.READ_HOLDING.unpack(pdu.payload)
        if 1 <= count <= 125:
            return modbus.build_read_holding_response(tx, unit, [0] * count)
    return modbus.exception_frame(tx, unit, pdu.function, modbus.EXC_ILLEGAL_FUNCTION)


def reference_s7_reply(connection, request):
    cotp = s7.decode_envelope(request).cotp
    config = connection.config
    if isinstance(cotp, s7.CotpConnectionRequest):
        if config.accepted_tsaps is not None and cotp.dst_tsap not in config.accepted_tsaps:
            connection.disconnect = True
            return s7.build_cotp_disconnect(reason=0x83)
        connection.connected = True
        return s7.build_cotp_confirm(cotp)
    if not connection.connected or not isinstance(cotp, s7.CotpData):
        connection.disconnect = True
        return None
    message = s7.decode_s7(cotp.payload)
    if isinstance(message, s7.S7SetupCommunication) and message.is_request:
        return s7.build_setup_ack(message.pdu_ref)
    if isinstance(message, s7.S7SzlRequest):
        szl = s7.SZL_LISTS.get(message.szl_id)
        entries, error = (), 0x8104
        if szl and szl.flag in config.feature_flags:
            entries, error = REFERENCE_IDENTITY_REPLIES[szl.flag](config), 0
        response = s7.S7SzlResponse(
            szl_id=message.szl_id, szl_index=message.szl_index, entries=entries,
            pdu_ref=message.pdu_ref, sequence=message.sequence, error_code=error,
        )
        return s7.build_szl_response_frame(response)
    raise FormatError("unsupported S7 request")


def reference_enip_list_identity(config):
    identity = config.identity
    revision = identity.get("firmware_version", "1.0").split(".")
    major = int(revision[0]) if revision[0].isdigit() else 1
    minor = int(revision[1]) if len(revision) > 1 and revision[1].isdigit() else 0
    cip = enip.CipIdentity(
        vendor_id=int(identity.get("vendor_id", "1")),
        device_type=int(identity.get("device_type", "14")),
        product_code=int(identity.get("product_code_number", "0") or 0),
        revision=(major, minor),
        status=int(identity.get("status", "0x0060"), 0),
        serial=int(identity.get("serial_number", "0"), 0),
        product_name=identity.get("product_name", config.name),
        state=3,
    )
    return enip.build_list_identity_response(cip, ip=config.ip, port=config.listen_port)


def reference_enip_reply(connection, request):
    message, _payload = enip.decode_header(request)
    config = connection.config
    if message.command == enip.CMD_LIST_IDENTITY and "list_identity" in config.feature_flags:
        return reference_enip_list_identity(config)
    return enip.encode_header(message.command, b"", status=0x0001)


REFERENCE_IDENTITY_REPLIES = {
    "device_id_fc2b": reference_modbus_device_id, "report_slave_id_fc11": reference_modbus_slave_id,
    "list_identity": reference_enip_list_identity,
    "szl_0011": lambda config: s7.module_id_entries(config.identity),
    "szl_001c": lambda config: s7.component_id_entries(config.identity),
}


def reference_reply(connection: ReferenceConnection, request: bytes) -> bytes | None:
    """The reply the simulator sent before each codec's ``respond`` held it; ``connection.disconnect`` says hang up."""
    reply_to = {modbus.NAME: reference_modbus_reply, s7.NAME: reference_s7_reply, enip.NAME: reference_enip_reply}
    return reply_to[connection.config.protocol](connection, request)


REFERENCE_DEVICES = {
    **DEFAULT_DEVICES,
    "s7_locked": SimDeviceConfig(
        name="s7_locked", protocol="s7comm", ip="192.168.90.20", listen_port=102, accepted_tsaps=(0x0200,),
        identity={"module_order_number": "6ES7 315-2EH14-0AB0", "hardware_version": "4.1",
                  "firmware_version": "3.3.12", "system_name": "Line 2", "copyright": "Original Siemens Equipment"},
        feature_flags=frozenset({"szl_0011", "szl_001c"}),
    ),
    "modbus_unit_7": modbus_config(name="modbus_unit_7", unit_id=7),
    "enip_silent": SimDeviceConfig(name="enip_silent", protocol="enip", ip="192.168.90.21", listen_port=44818),
}
# whole requests a stream is cut from before it is mutated: every branch of each device's replies, and some refusals
REQUEST_POOL = {
    modbus.NAME: (
        *(modbus.build_device_id_request(unit) for unit in (0, 1, 7, 0xFF, 3)),
        modbus.build_device_id_request(1, object_id=2), modbus.build_device_id_request(7, read_code=4),
        *(modbus.build_report_slave_id_request(unit) for unit in (0, 1, 7, 0xFF, 3)),
        *(modbus.build_read_holding_request(7, 0, count) for count in (0, 1, 125, 126)),
        modbus.frame(1, 1, modbus.FC_ENCAPSULATED, b"\x0d\x01\x00"), modbus.frame(1, 7, 0x05, b"\x00\x01\xff\x00"),
    ),
    s7.NAME: (
        *(s7.build_cotp_connect(src, dst) for src, dst in s7.DEFAULT_TSAP_PAIRS), s7.build_cotp_connect(0x0100, 0x0999),
        s7.build_setup_communication(), s7.build_setup_ack(1), s7.build_cotp_disconnect(),
        *(s7.build_szl_read(szl_id) for szl_id in (s7.SZL_MODULE_ID, s7.SZL_COMPONENT_ID, 0x0131)),
        s7.build_szl_read(s7.SZL_MODULE_ID, szl_index=1, pdu_ref=0xFFFF, sequence=0xFF),
    ),
    enip.NAME: (
        enip.build_list_identity(), enip.encode_header(0x0999, b""), enip.encode_header(enip.CMD_LIST_SERVICES, b""),
        enip.encode_header(enip.CMD_REGISTER_SESSION, b"\x01\x00\x00\x00", session=7),
    ),
}


def compared_outcomes(config: SimDeviceConfig, stream: bytes) -> list[tuple]:
    """For each frame cut from ``stream``, (codec.respond's reply and hang-up, or exception class; the reference's),
    until either side hangs up or raises."""
    codec, session, connection = PROTOCOLS[config.protocol], {}, ReferenceConnection(config)
    outcomes = []
    for frame in cut_frames(stream, codec.HEADER_SIZE, codec.frame_size)[0]:
        try:
            new = codec.respond(config, session, frame)
        except Exception as exc:  # the exception class is compared
            new = type(exc)
        try:
            old = reference_reply(connection, frame), connection.disconnect
        except Exception as exc:
            old = type(exc)
        outcomes.append((new, old))
        if isinstance(new, type) or isinstance(old, type) or new[1] or old[1]:
            break
    return outcomes


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_each_codec_responds_as_the_reference_reply_to_mutated_request_streams(data):
    config = REFERENCE_DEVICES[data.draw(st.sampled_from(sorted(REFERENCE_DEVICES)), label="device")]
    stream = b"".join(data.draw(st.lists(st.sampled_from(REQUEST_POOL[config.protocol]), min_size=1, max_size=6)))
    for at, written in data.draw(st.lists(st.tuples(st.integers(0, 0xFFFF), st.binary(min_size=1, max_size=4)),
                                          max_size=3)):
        at %= len(stream)
        stream = stream[:at] + written + stream[at + len(written):]
    for new, old in compared_outcomes(config, stream):
        assert new == old


def test_fault_latching_no_replies_until_reset(station):
    device = station.device("rtu")
    device.state = SimState.FAULT
    # connections are still accepted, but nothing comes back
    with SimNetwork(station).connect("192.168.90.13", 502, 2.0).sock as sock:
        sock.sendall(modbus.build_report_slave_id_request(unit=1))
        with pytest.raises(socket.timeout):
            recv_frame(sock, modbus, 1.0)
    device.reset()
    reply = exchange(station, 502, "192.168.90.13", modbus.build_report_slave_id_request(unit=1), modbus)
    assert modbus.parse_report_slave_id_response(reply).slave_id == 5


def test_a_frame_split_over_two_sends_is_one_packet_answered_once_whole(station):
    request = modbus.build_report_slave_id_request(unit=1)
    session = station.connect("192.168.90.13", 502)
    assert session.send(request[:3]) == (b"", False)
    reply, hung_up = session.send(request[3:])
    assert modbus.parse_report_slave_id_response(reply).slave_id == 5 and not hung_up
    session.close()
    assert station.device("rtu").get_counters() == Counters(packets_received=2, packets_sent=1)


def test_a_session_idle_past_the_timeout_is_hung_up_at_its_next_request(monkeypatch, station):
    monkeypatch.setattr(simulator, "CONNECTION_IDLE_TIMEOUT", 0.05)
    request = modbus.build_report_slave_id_request(unit=1)
    with SimNetwork(station).connect("192.168.90.13", 502, 2.0).sock as sock:
        sock.sendall(request)
        recv_frame(sock, modbus, 2.0)
        time.sleep(0.1)
        sock.sendall(request)
        assert sock.recv(64) == b""  # the device hung up before this request came: it is not counted
    assert station.device("rtu").get_counters() == Counters(packets_received=2, packets_sent=1)


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
    controlled = ControlledStation(StationHandle(list(config.devices), scanner_ip=config.scanner_ip).start())
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


# -- in memory: no thread and no socket for a device, one dialogue for both stations --------


def fifty_devices() -> list[SimDeviceConfig]:
    return [modbus_config(name=f"rtu{i}", ip=f"192.168.90.{100 + i}") for i in range(50)]


def timed_stop(stoppable) -> float:
    started = time.perf_counter()
    stoppable.stop()
    return time.perf_counter() - started


def test_a_station_of_fifty_devices_starts_no_thread():
    station = StationHandle(fifty_devices())
    before = threading.active_count()
    station.start()
    try:
        assert threading.active_count() == before
        assert exchange(station, 502, "192.168.90.149", modbus.build_report_slave_id_request(unit=1), modbus)
    finally:
        station.stop()


def test_concurrent_connections_to_every_device_are_each_served_once():
    station = StationHandle(fifty_devices()[:5]).start()
    request = modbus.build_report_slave_id_request(unit=1)

    def slave_ids(worker: int) -> list[int]:
        ips = [f"192.168.90.{100 + (worker + i) % 5}" for i in range(10)]
        return [modbus.parse_report_slave_id_response(exchange(station, 502, ip, request, modbus)).slave_id for ip in ips]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            assert list(pool.map(slave_ids, range(8))) == [[5] * 10] * 8
        received = sum(device.get_counters().packets_received for device in station.devices)
        assert received == 2 * 8 * 10  # each connection, then its one request
    finally:
        sys.setswitchinterval(interval)
        station.stop()


def test_an_idle_station_of_fifty_devices_stops_at_once():
    station = StationHandle(fifty_devices()).start()
    assert timed_stop(station) < 0.1


def test_a_second_stop_is_harmless(tmp_path):
    station = StationHandle([modbus_config()], pcap_path=str(tmp_path / "mirror.pcap")).start()
    controlled = ControlledStation(station)
    controlled.stop()
    controlled.stop()
    station.stop()
    assert list(CaptureReader(str(tmp_path / "mirror.pcap"))) == []  # a whole capture, of no traffic


def test_after_stop_no_device_port_nor_the_control_port_accepts():
    config = load_fixtures(default_fixtures_path())
    controlled = ControlledStation(StationHandle(list(config.devices), scanner_ip=config.scanner_ip).start())
    # a device has no port of its own to accept on: the map names only the fixtures' ports
    hosts = controlled.map_document()["hosts"]
    assert {(ip, port) for ip, host in hosts.items() for port in host["ports"]} == {
        (device.ip, device.listen_port) for device in config.devices}
    controlled.stop()
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection(("127.0.0.1", controlled.control_port), timeout=2).close()


def test_an_open_control_client_does_not_delay_stop():
    controlled = ControlledStation(StationHandle([modbus_config()]).start())
    client = ControlClient(controlled.control_port)
    try:
        assert client.call("state", name="rtu")["state"] == "running"
        assert timed_stop(controlled) < 0.1
    finally:
        client.close()


def test_wait_is_false_on_timeout_and_true_once_a_shutdown_arrives():
    controlled = ControlledStation(StationHandle([]).start())
    try:
        assert controlled.wait(0.01) is False
        client = ControlClient(controlled.control_port)
        client.call("shutdown")
        client.close()
        assert controlled.wait(5.0) is True
    finally:
        controlled.stop()


def default_station() -> StationHandle:
    fixtures = load_fixtures(default_fixtures_path())
    return StationHandle(list(fixtures.devices), scanner_ip=fixtures.scanner_ip).start()


def default_scan(network):
    """The bench's scan: the five devices and two dead addresses, in safe mode at 50 pps."""
    targets = (*sorted(config.ip for config in DEFAULT_DEVICES.values()), "192.168.90.200", "192.168.90.201")
    config = ScanConfig(targets=targets, methods=frozenset({"arp", "icmp"}), rate_limit_pps=50)
    return Scanner(config, network=network).run()


DEFAULT_DEPTHS = {"192.168.90.10": 5, "192.168.90.11": 5, "192.168.90.12": 3, "192.168.90.13": 5, "192.168.90.14": 4}


def timeless(asset):
    return asset._replace(last_seen=None, provenance=tuple(entry._replace(at=None) for entry in asset.provenance))


def test_an_in_process_station_and_a_scan_through_it_open_no_socket_and_start_no_thread(monkeypatch):
    started = []
    start = threading.Thread.start

    def recorded_start(thread):
        started.append(thread.name)
        start(thread)

    def no_socket(*args, **kwargs):
        raise AssertionError("a socket was opened")

    monkeypatch.setattr(socket, "socket", no_socket)
    monkeypatch.setattr(threading.Thread, "start", recorded_start)
    station = default_station()
    try:
        report = default_scan(SimNetwork(station))
    finally:
        station.stop()
    assert report.per_asset_depth == DEFAULT_DEPTHS and report.anomalies == []
    assert started and all(name.startswith("ThreadPoolExecutor") for name in started)  # the scanner's workers only


@contextlib.contextmanager
def served(handle: StationHandle, remote: bool):
    """``handle`` itself, or a RemoteStation of it behind a control socket; stopped after."""
    controlled = ControlledStation(handle)
    station = RemoteStation(controlled.map_document()) if remote else handle
    try:
        yield station
    finally:
        if remote:
            station.close()
        controlled.stop()


def test_both_stations_give_the_same_scan():
    reports, counters = [], []
    for remote in (False, True):
        handle = default_station()
        with served(handle, remote) as station:
            reports.append(default_scan(SimNetwork(station)))
        counters.append([device.get_counters() for device in handle.devices])
    here, there = reports
    assert here.packets_sent == there.packets_sent == 37
    assert here.per_asset_depth == there.per_asset_depth == DEFAULT_DEPTHS
    assert [timeless(asset) for asset in here.inventory.assets()] == [
        timeless(asset) for asset in there.inventory.assets()]
    assert counters[0] == counters[1]


@pytest.mark.parametrize("remote", [False, True], ids=["in-process", "remote"])
def test_a_faulted_device_costs_each_read_its_timeout_in_both_stations(remote):
    handle = StationHandle([modbus_config()]).start()
    handle.device("rtu").state = SimState.FAULT
    with served(handle, remote) as station, SimNetwork(station).connect("192.168.90.13", 502, 0.05).sock as sock:
        for _ in range(2):
            sock.sendall(modbus.build_report_slave_id_request(unit=1))
            started = time.monotonic()
            with pytest.raises(socket.timeout):
                recv_frame(sock, modbus, 0.05)
            assert time.monotonic() - started >= 0.05
    assert handle.device("rtu").get_counters() == Counters(packets_received=3)


@pytest.mark.parametrize("remote", [False, True], ids=["in-process", "remote"])
def test_a_malformed_request_ends_the_stream_at_once_in_both_stations(remote):
    handle = s7_station()
    with served(handle, remote) as station:
        send_malformed_s7(station)
    assert handle.device("plc").get_counters() == Counters(packets_received=2, packets_sent=0, malformed_seen=1)


def test_a_session_left_open_closes_with_its_control_connection(tmp_path):
    pcap = str(tmp_path / "mirror.pcap")
    controlled = ControlledStation(StationHandle([modbus_config()], pcap_path=pcap).start())
    remote = RemoteStation(controlled.map_document())

    def flags() -> list[int]:
        return [parse_tcp(parse_ipv4(parse_ethernet(frame).payload).payload).flags for _, frame in CaptureReader(pcap)]

    try:
        remote.connect("192.168.90.13", 502)  # its client never closes it
        remote.close()
        deadline = time.monotonic() + 5.0
        while len(flags()) < 4 and time.monotonic() < deadline:
            time.sleep(0.01)
    finally:
        controlled.stop()
    assert len(flags()) == 4 and flags()[-1] & TCP_FIN  # the handshake's three frames, then the teardown
