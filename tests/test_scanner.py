"""Active scanner: config rules, phases, probe discipline."""

from __future__ import annotations

import contextlib
import hashlib
import json
import logging
import re
import socket
import threading
import time
from collections import Counter

import pytest

from icsrecon.codecs import PROTOCOLS, enip, modbus, s7
from icsrecon.config import default_fixtures_path, load_fixtures, load_scan_config
from icsrecon.errors import ConfigError, IcsReconError, PrivilegeRequired
from icsrecon.model import Asset, PortSpec, compute_depth
from icsrecon.netbase import ConnectResult, RealNetwork
from icsrecon.scanner import DEFAULT_PORTS, PROTOCOL_PORTS, ScanConfig, Scanner, expand_targets
from icsrecon.simulator import REPLIES, SimDeviceConfig, SimNetwork, StationHandle
from icsrecon.taxonomy import classify_run

FIXTURE_IPS = ("192.168.90.10", "192.168.90.11", "192.168.90.12", "192.168.90.13", "192.168.90.14")


@pytest.fixture(scope="module")
def station():
    config = load_fixtures(default_fixtures_path())
    handle = StationHandle(list(config.devices), scanner_ip=config.scanner_ip).start()
    yield handle
    handle.stop()


def quick_config(**kw) -> ScanConfig:
    base = dict(
        targets=FIXTURE_IPS,
        methods=frozenset({"icmp"}),
        rate_limit_pps=50,
        timeout_ms=500,
        workers=4,
    )
    base.update(kw)
    return ScanConfig(**base)


# -- configuration rules -----------------------------------------------------


def test_methods_required():
    with pytest.raises(ConfigError):
        quick_config(methods=frozenset())


def test_safe_mode_caps_rate():
    with pytest.raises(ConfigError):
        quick_config(rate_limit_pps=200)  # safe_mode defaults to on
    config = quick_config(rate_limit_pps=200, safe_mode=False)
    assert config.rate_limit_pps == 200


def test_safe_mode_bans_unit_sweep():
    with pytest.raises(ConfigError):
        quick_config(unit_id_sweep=True)
    assert quick_config(unit_id_sweep=True, safe_mode=False).unit_id_sweep


def test_bad_cidr_is_config_error():
    with pytest.raises(ConfigError):
        expand_targets(("192.168.90.300/24",))
    with pytest.raises(ConfigError):
        expand_targets(("not-an-address",))


def test_expand_targets_cidr_and_dedup():
    hosts = expand_targets(("192.168.90.0/30", "192.168.90.1"))
    assert hosts == ["192.168.90.1", "192.168.90.2"]


def test_modbus_unit_outside_a_byte_is_config_error(tmp_path):
    path = tmp_path / "scan.conf"
    path.write_text("[scan]\ntargets = 192.168.90.13\nmodbus_unit = 300\n")
    with pytest.raises(ConfigError, match="modbus_unit"):
        load_scan_config(path)  # rejected before any packet: no scanner, no network
    assert quick_config(modbus_unit=0).modbus_unit == 0 and quick_config(modbus_unit=255).modbus_unit == 255


def test_scan_config_keys_set_empty_or_absent(tmp_path):
    path = tmp_path / "scan.conf"
    path.write_text("[scan]\ntargets = 192.168.90.13\n")
    config, network = load_scan_config(path)
    assert config == ScanConfig(targets=("192.168.90.13",))  # every absent key keeps ScanConfig's default
    assert (config.methods, config.rate_limit_pps, config.safe_mode, config.timeout_ms) == ({"icmp"}, 20, True, 800)
    assert (config.unit_id_sweep, config.workers, config.modbus_unit, config.vuln_db_path) == (False, 8, 1, None)
    assert network == ("real", None)
    path.write_text("[scan]\ntargets = 192.168.90.13\nports =\nworkers = 2\nvuln_db =\n")
    config, _ = load_scan_config(path)
    assert (config.ports, config.workers, config.vuln_db_path) == (DEFAULT_PORTS, 2, "")
    path.write_text("[scan]\ntargets = 192.168.90.13\nmethods =\n")
    with pytest.raises(ConfigError, match="at least one discovery method"):
        load_scan_config(path)


@pytest.mark.parametrize(
    "load, text, named",
    [
        (load_scan_config, "[scan]\ntargets = 192.168.90.13\nrate_limt_pps = 5\n", r"\[scan\] rate_limt_pps"),
        (load_scan_config, "[scan]\ntargets = 192.168.90.13\n[network]\nmod = sim\n", r"\[network\] mod"),
        (load_scan_config, "[scan]\ntargets = 192.168.90.13\n[netwrok]\nmode = sim\n", r"\[netwrok\] is not"),
        (load_fixtures, "[device:plc]\nprotocol = modbus\nip = 10.0.0.1\nlisten_port = 502\nfragil = true\n",
         r"\[device:plc\] fragil"),
    ],
    ids=["scan-key", "network-key", "section", "device-key"],
)
def test_a_key_or_section_the_loader_does_not_read_is_refused(tmp_path, load, text, named):
    path = tmp_path / "typo.conf"
    path.write_text(text)
    with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}: {named}"):
        load(path)


def test_every_shipped_config_loads():
    assert len(load_fixtures(default_fixtures_path()).devices) == 5
    assert load_scan_config(default_fixtures_path().with_name("demo_scan.conf"))[1].mode == "sim"


def test_fixture_device_keys_absent_keep_the_defaults(tmp_path):
    path = tmp_path / "station.conf"
    path.write_text("[device:rtu]\nprotocol = modbus\nip = 10.0.0.1\nlisten_port = 502\n")
    station = load_fixtures(path)
    assert station.scanner_ip == "192.168.90.1"
    assert station.devices == (SimDeviceConfig(name="rtu", protocol="modbus", ip="10.0.0.1", listen_port=502),)
    device = station.devices[0]
    assert (device.mac, device.fragile, device.max_pps) == ("02:00:00:00:00:01", False, 50)
    assert (device.fault_on_malformed, device.unit_id) == (False, 1)
    assert (device.accepted_tsaps, device.feature_flags, device.identity) == (None, frozenset(), {})


def test_protocol_table_and_the_ports_derived_from_it():
    assert list(PROTOCOLS.items()) == [("modbus", modbus), ("s7comm", s7), ("enip", enip)]  # classification order
    assert [codec.PORT for codec in PROTOCOLS.values()] == [502, 102, 44818]
    assert DEFAULT_PORTS == frozenset({102, 502, 44818})
    assert PROTOCOL_PORTS == {102: "s7comm", 502: "modbus", 44818: "enip"}
    # every codec states the shared interface, and the simulator answers each one
    functions = ("frame_size", "identity_fields", "identity_key", "claims", "opening_requests", "confirm")
    for codec in PROTOCOLS.values():
        assert isinstance(codec.HEADER_SIZE, int) and codec.EXCHANGES and isinstance(codec.EXCHANGES, frozenset)
        assert all(callable(getattr(codec, name, None)) for name in functions), codec.NAME
    assert list(REPLIES) == list(PROTOCOLS)


# -- phase 1 -----------------------------------------------------------------


def test_discover_finds_live_hosts(station):
    scanner = Scanner(quick_config(targets=FIXTURE_IPS[:3] + ("192.168.90.99",)), network=SimNetwork(station))
    assets = scanner.discover_hosts()
    assert sorted(a.ip for a in assets) == sorted(FIXTURE_IPS[:3])
    assert all(compute_depth(a) == 1 for a in assets)


def test_discover_empty_target_list(station):
    scanner = Scanner(quick_config(targets=()), network=SimNetwork(station))
    assert scanner.discover_hosts() == []


def test_arp_discovery_fills_mac_and_vendor(station):
    scanner = Scanner(
        quick_config(targets=("192.168.90.10",), methods=frozenset({"arp"})), network=SimNetwork(station)
    )
    (asset,) = scanner.discover_hosts()
    assert asset.mac == "00:1b:1b:aa:10:01"
    assert asset.oui_vendor == "Siemens AG"


def test_discovery_stops_at_first_answering_method(station):
    config = quick_config(targets=("192.168.90.10", "192.168.90.99"), methods=frozenset({"arp", "icmp"}))
    scanner = Scanner(config, network=SimNetwork(station))
    (asset,) = scanner.discover_hosts()
    tried = {ip: [e["detail"] for e in scanner.probe_log if e["ip"] == ip] for ip in config.targets}
    # ARP proved the host alive, so no ICMP echo followed it
    assert tried["192.168.90.10"] == ["arp"]
    assert asset.mac == "00:1b:1b:aa:10:01"
    assert asset.oui_vendor == "Siemens AG"
    # on the link a failed ARP is final: a silent address gets no ICMP echo and never becomes an asset
    assert tried["192.168.90.99"] == ["arp"]
    assert asset.ip == "192.168.90.10"


def test_subnet_sweep_spends_one_token_per_address(station):
    fragile = station.device("et200s_like")
    before = fragile.get_counters().packets_received
    config = quick_config(
        targets=("192.168.90.0/24",),
        methods=frozenset({"arp", "icmp"}),
        safe_mode=False,
        rate_limit_pps=20000,
        workers=8,
    )
    scanner = Scanner(config, network=SimNetwork(station))
    assets = scanner.discover_hosts()
    assert scanner.limiter.granted == 254  # one ARP request per host address, none followed by an echo
    assert {asset.ip: asset.mac for asset in assets} == {
        device.config.ip: device.config.mac for device in station.devices
    }
    assert fragile.get_counters().packets_received - before == 1


@pytest.fixture(scope="module")
def routed_station():
    """One Modbus RTU behind a router: outside the /24 of the scanner at 192.168.90.1."""
    handle = StationHandle(
        [SimDeviceConfig(name="remote_rtu", protocol="modbus", ip="10.1.0.5", listen_port=502)],
        scanner_ip="192.168.90.1",
    ).start()
    yield handle
    handle.stop()


def test_off_link_target_skips_arp(routed_station):
    network = SimNetwork(routed_station)
    assert not network.on_link("10.1.0.5") and network.on_link("192.168.90.254")
    config = quick_config(targets=("10.1.0.5", "10.1.0.6"), methods=frozenset({"arp", "icmp"}))
    scanner = Scanner(config, network=network)
    (asset,) = scanner.discover_hosts()
    assert asset.ip == "10.1.0.5" and asset.mac is None and asset.oui_vendor is None
    tried = {ip: [e["detail"] for e in scanner.probe_log if e["ip"] == ip] for ip in config.targets}
    assert tried == {"10.1.0.5": ["icmp"], "10.1.0.6": ["icmp"]}
    assert scanner.limiter.granted == 2 and scanner.anomalies == []


def test_arp_alone_cannot_reach_an_off_link_target(routed_station):
    config = quick_config(targets=("10.1.0.5",), methods=frozenset({"arp"}))
    scanner = Scanner(config, network=SimNetwork(routed_station))
    assert scanner.discover_hosts() == []
    assert scanner.anomalies == ["arp cannot reach off-link 10.1.0.5"]
    assert scanner.probe_log == [] and scanner.limiter.granted == 0


def test_icmp_in_methods_used_is_still_classified(station):
    config = quick_config(targets=("192.168.90.14",), methods=frozenset({"arp", "icmp"}))
    scanner = Scanner(config, network=SimNetwork(station))
    report = scanner.run()
    assert sorted(report.methods_used) == ["arp", "icmp"]
    assert not any(e["detail"] == "icmp" for e in scanner.probe_log)
    enumeration = classify_run(report).exec.enumeration
    assert {"icmp_scanning", "arp_scanning"} <= set(enumeration)


def test_tcp_connect_discovery(station):
    scanner = Scanner(
        quick_config(targets=("192.168.90.13", "192.168.90.99"), methods=frozenset({"tcp_connect"})),
        network=SimNetwork(station),
    )
    assets = scanner.discover_hosts()
    assert [a.ip for a in assets] == ["192.168.90.13"]


def test_arp_without_privilege_raises(monkeypatch):
    monkeypatch.setattr("icsrecon.netbase.os.geteuid", lambda: 1000)
    scanner = Scanner(quick_config(targets=("10.0.0.1",), methods=frozenset({"arp"})), network=RealNetwork())
    with pytest.raises(PrivilegeRequired) as err:
        scanner.discover_hosts()
    assert err.value.method == "arp"


class UnprivilegedNetwork(SimNetwork):
    def require(self, method):
        if method in ("icmp", "arp"):
            raise PrivilegeRequired(method)


def test_partial_privilege_keeps_tcp_connect(station, monkeypatch):
    scanner = Scanner(
        quick_config(targets=("192.168.90.13",), methods=frozenset({"icmp", "tcp_connect"})),
        network=UnprivilegedNetwork(station),
    )
    assets = scanner.discover_hosts()
    assert [a.ip for a in assets] == ["192.168.90.13"]
    assert any("icmp" in a for a in scanner.anomalies)


def test_each_anomaly_is_logged_once(station, caplog):
    scanner = Scanner(
        quick_config(targets=("192.168.90.13",), methods=frozenset({"icmp", "tcp_connect"})),
        network=UnprivilegedNetwork(station),
    )
    with caplog.at_level(logging.WARNING, logger="icsrecon.scanner"):
        report = scanner.run()  # run() checks the methods, then discover_hosts() checks them again
    logged = [record.getMessage() for record in caplog.records if record.name == "icsrecon.scanner"]
    assert len([text for text in logged if text.startswith("discovery method unavailable")]) == 1
    assert logged == report.anomalies


# -- phase 2 -----------------------------------------------------------------


def test_scan_ports_iso_fixture(station):
    scanner = Scanner(quick_config(), network=SimNetwork(station))
    (asset,) = [a for a in scanner.discover_hosts() if a.ip == "192.168.90.10"]
    asset = scanner.scan_ports(asset)
    assert asset.open_ports == frozenset({PortSpec(102)})


def test_scan_ports_modbus_fixture(station):
    scanner = Scanner(quick_config(targets=("192.168.90.13",)), network=SimNetwork(station))
    (asset,) = scanner.discover_hosts()
    probed = []

    def not_probing(asset, port, sock):
        probed.append((port, int(compute_depth(asset))))
        return asset

    scanner.probe_protocol = not_probing
    asset = scanner.scan_ports(asset)
    assert asset.open_ports == frozenset({PortSpec(502)})
    assert compute_depth(asset) == 2
    # the open port was merged before its probe was handed the connection
    assert probed == [(502, 2)]


def test_scan_ports_no_listeners_keeps_depth_one(station):
    scanner = Scanner(
        quick_config(targets=("192.168.90.13",), ports=frozenset({9999, 10000})),
        network=SimNetwork(station),
    )
    (asset,) = scanner.discover_hosts()
    asset = scanner.scan_ports(asset)
    assert asset.open_ports == frozenset()
    assert compute_depth(asset) == 1


class CloseCountingSocket(socket.socket):
    """A socket that counts the times it is closed; a plain socket ignores all but the first."""

    closes = 0

    def close(self):
        self.closes += 1
        super().close()

    def __exit__(self, *args):
        if self.fileno() == -1:
            self.closes += 1  # socket.__exit__ skips close() on a closed socket
        super().__exit__(*args)


class CountingNetwork(SimNetwork):
    """SimNetwork that counts connection attempts per (ip, port) and keeps every socket it opened."""

    def __init__(self, station):
        super().__init__(station)
        self.connects: Counter = Counter()
        self.sockets: list[CloseCountingSocket] = []
        self._lock = threading.Lock()

    def connect(self, ip, port, timeout):
        result = super().connect(ip, port, timeout)
        with self._lock:
            self.connects[(ip, port)] += 1
            if result.sock is None:
                return result
            sock = CloseCountingSocket(fileno=result.sock.detach())
            sock.settimeout(timeout)
            self.sockets.append(sock)
        return ConnectResult(result.status, sock)

    def closes(self) -> list[int]:
        return [sock.closes for sock in self.sockets]


# -- phase 2b / 3 --------------------------------------------------------------


@contextlib.contextmanager
def port_found_open(station, ip, port):
    """A scanner, the asset with ``port`` merged open, and the connection that found it open."""
    scanner = Scanner(quick_config(targets=(ip,)), network=CountingNetwork(station))
    (asset,) = scanner.discover_hosts()
    result = scanner.network.connect(ip, port, scanner.config.timeout)
    assert result.status == "open"
    with result.sock:  # the port scan's connection: its opener closes it, not the probe
        yield scanner, scanner._merge(asset, open_ports=frozenset({PortSpec(port)})), result.sock
        assert result.sock.fileno() != -1


def test_probe_modbus_exception_still_confirms(station):
    # the RTU refuses identification reads, yet the exception reply is
    # well-formed Modbus and counts as protocol evidence
    with port_found_open(station, "192.168.90.13", 502) as (scanner, asset, sock):
        asset = scanner.probe_protocol(asset, 502, sock)
    assert asset.protocols == frozenset({"modbus"})


def test_probe_s7_and_enip(station):
    with port_found_open(station, "192.168.90.10", 102) as (scanner, asset, sock):
        assert scanner.probe_protocol(asset, 102, sock).protocols == frozenset({"s7comm"})
    with port_found_open(station, "192.168.90.14", 44818) as (scanner, asset, sock):
        assert scanner.probe_protocol(asset, 44818, sock).protocols == frozenset({"enip"})


def test_probe_refused_tsaps_makes_no_claim():
    config = load_fixtures(default_fixtures_path())
    (plc,) = [c for c in config.devices if c.name == "et200s_like"]
    locked = SimDeviceConfig(**{**plc._asdict(), "accepted_tsaps": (0x0FFF,), "fragile": False})
    handle = StationHandle([locked]).start()
    try:
        with port_found_open(handle, "192.168.90.10", 102) as (scanner, asset, sock):
            asset = scanner.probe_protocol(asset, 102, sock)
        assert asset.protocols == frozenset()
        # the first pair went out on the open connection, each later one on its own, closed once
        assert scanner.network.connects[("192.168.90.10", 102)] == 3
        assert scanner.network.closes() == [1, 1, 1]
        assert compute_depth(asset) == 2
    finally:
        handle.stop()


def test_probe_requires_open_port_evidence(station):
    scanner = Scanner(quick_config(targets=("192.168.90.13",)), network=SimNetwork(station))
    (asset,) = scanner.discover_hosts()
    client, device = socket.socketpair()
    with client, device:
        with pytest.raises(ValueError):
            scanner.probe_protocol(asset, 502, client)
        device.setblocking(False)
        with pytest.raises(BlockingIOError):
            device.recv(1)  # not a byte of probe was sent
    assert scanner.limiter.granted == 1  # discovery's echo only


def test_enumerate_requires_protocol_evidence(station):
    # even handed an open Modbus session, enumeration refuses an unconfirmed protocol
    with port_found_open(station, "192.168.90.13", 502) as (scanner, asset, sock):
        session = scanner._open(asset.ip, 502, sock, modbus)
        with pytest.raises(ValueError):
            scanner.enumerate_modbus(asset, session)


def test_identification_cut_short_keeps_objects_already_received():
    # the device announces more objects, then drops the connection on the continuation round
    first = modbus.build_device_id_response(1, 1, {0x00: "Vendor", 0x01: "Model"}, more_follows=True, next_object_id=2)
    client, device = socket.socketpair()
    device.close()
    scanner = Scanner(quick_config(targets=("192.168.90.13",)), network=RealNetwork())
    asset = Asset.discovered("192.168.90.13", scanner._now())
    asset = scanner._merge(asset, open_ports=frozenset({PortSpec(502)}), protocols=frozenset({"modbus"}))
    with client:  # the session's owner closes it, as probe_protocol does
        asset = scanner.enumerate_modbus(asset, (client, first))
    assert asset.static_info.manufacturer == "Vendor"
    assert asset.static_info.model == "Model"
    assert asset.deployment_info is None


def test_late_continuation_reply_ends_the_session():
    # the continuation is answered 0.45 s late against a 300 ms timeout: the late
    # reply must not be read as the answer to a report-server-id request
    first = modbus.build_device_id_response(1, 1, {0x00: "Vendor", 0x01: "Model"}, more_follows=True, next_object_id=2)
    late = modbus.build_device_id_response(1, 1, {0x02: "9.9"})
    client, device = socket.socketpair()
    requests = []

    def serve():
        with contextlib.suppress(OSError):  # the scanner may hang up before the late reply
            while request := device.recv(4096):
                requests.append(request)
                if request[7] == modbus.FC_ENCAPSULATED:
                    time.sleep(0.45)
                    device.sendall(late)
                else:
                    device.sendall(modbus.build_report_slave_id_response(2, 1, slave_id=5))

    peer = threading.Thread(target=serve)
    peer.start()
    scanner = Scanner(quick_config(targets=("192.168.90.13",), timeout_ms=300), network=RealNetwork())
    asset = Asset.discovered("192.168.90.13", scanner._now())
    asset = scanner._merge(asset, open_ports=frozenset({PortSpec(502)}), protocols=frozenset({"modbus"}))
    with device:
        with client:
            asset = scanner.enumerate_modbus(asset, (client, first))
        peer.join()
    assert (asset.static_info.manufacturer, asset.static_info.model) == ("Vendor", "Model")
    assert asset.static_info.firmware_version is None  # nothing from the late reply
    assert asset.deployment_info is None
    assert [request[7] for request in requests] == [modbus.FC_ENCAPSULATED]  # no FC 0x11 sent
    assert scanner.limiter.granted == 1


def test_late_szl_reply_ends_the_session():
    setup, module_read = s7.build_setup_communication(pdu_ref=1), s7.build_szl_read(s7.SZL_MODULE_ID, pdu_ref=2)
    entries = s7.module_id_entries({"module_order_number": "6ES7 151-8AB01-0AB0", "firmware_version": "3.2.6"})
    late = s7.build_szl_response_frame(s7.S7SzlResponse(s7.SZL_MODULE_ID, 0, entries, pdu_ref=2))
    client, device = socket.socketpair()
    received = bytearray()

    def serve():
        with contextlib.suppress(OSError):  # the scanner may hang up before the late reply
            while request := device.recv(4096):
                received.extend(request)
                if request == setup:
                    device.sendall(s7.build_setup_ack(1))
                else:
                    time.sleep(0.45)
                    device.sendall(late)

    peer = threading.Thread(target=serve)
    peer.start()
    scanner = Scanner(quick_config(targets=("192.168.90.10",), timeout_ms=300), network=RealNetwork())
    asset = Asset.discovered("192.168.90.10", scanner._now())
    asset = scanner._merge(asset, open_ports=frozenset({PortSpec(102)}), protocols=frozenset({"s7comm"}))
    with device:
        with client:
            asset = scanner.enumerate_s7(asset, (client, b""))
        peer.join()
    assert asset.static_info is None
    assert bytes(received) == setup + module_read  # the component list was never asked for
    assert scanner.limiter.granted == 2


def test_unframeable_continuation_reply_ends_the_session():
    # the continuation reply's MBAP header names protocol id 1: the bytes behind it cannot be trusted
    first = modbus.build_device_id_response(1, 1, {0x00: "Vendor", 0x01: "Model"}, more_follows=True, next_object_id=2)
    bad = bytearray(modbus.build_device_id_response(1, 1, {0x02: "9.9"}))
    bad[3] = 0x01
    client, device = socket.socketpair()
    requests = []

    def serve():
        with contextlib.suppress(OSError):
            while request := device.recv(4096):
                requests.append(request)
                if request[7] == modbus.FC_ENCAPSULATED:
                    device.sendall(bad)
                else:
                    device.sendall(modbus.build_report_slave_id_response(2, 1, slave_id=5))

    peer = threading.Thread(target=serve)
    peer.start()
    scanner = Scanner(quick_config(targets=("192.168.90.13",)), network=RealNetwork())
    asset = Asset.discovered("192.168.90.13", scanner._now())
    asset = scanner._merge(asset, open_ports=frozenset({PortSpec(502)}), protocols=frozenset({"modbus"}))
    with device:
        with client:
            asset = scanner.enumerate_modbus(asset, (client, first))
        peer.join()
    assert (asset.static_info.manufacturer, asset.static_info.model) == ("Vendor", "Model")
    assert asset.static_info.firmware_version is None
    assert asset.deployment_info is None
    assert [request[7] for request in requests] == [modbus.FC_ENCAPSULATED]  # no FC 0x11 sent
    assert scanner.limiter.granted == 1


def test_unframeable_szl_reply_ends_the_session():
    # the first SZL reply starts with TPKT version 9: the component list must not be asked for
    setup, module_read = s7.build_setup_communication(pdu_ref=1), s7.build_szl_read(s7.SZL_MODULE_ID, pdu_ref=2)
    entries = s7.module_id_entries({"module_order_number": "6ES7 151-8AB01-0AB0", "firmware_version": "3.2.6"})
    bad = b"\x09" + s7.build_szl_response_frame(s7.S7SzlResponse(s7.SZL_MODULE_ID, 0, entries, pdu_ref=2))[1:]
    client, device = socket.socketpair()
    received = bytearray()

    def serve():
        with contextlib.suppress(OSError):
            while request := device.recv(4096):
                received.extend(request)
                device.sendall(s7.build_setup_ack(1) if request == setup else bad)

    peer = threading.Thread(target=serve)
    peer.start()
    scanner = Scanner(quick_config(targets=("192.168.90.10",)), network=RealNetwork())
    asset = Asset.discovered("192.168.90.10", scanner._now())
    asset = scanner._merge(asset, open_ports=frozenset({PortSpec(102)}), protocols=frozenset({"s7comm"}))
    with device:
        with client:
            asset = scanner.enumerate_s7(asset, (client, b""))
        peer.join()
    assert asset.static_info is None
    assert bytes(received) == setup + module_read  # no further request
    assert scanner.limiter.granted == 2


def test_unit_sweep_stops_at_its_first_timeout():
    config = quick_config(targets=("192.168.90.13",), timeout_ms=100, safe_mode=False, unit_id_sweep=True)
    scanner = Scanner(config, network=RealNetwork())
    client, device = socket.socketpair()
    with client, device:
        assert scanner._sweep_units(client) == []
        device.setblocking(False)
        assert device.recv(4096) == modbus.build_report_slave_id_request(1)
    assert scanner.limiter.granted == 1


def test_exchange_sends_each_request_once():
    # a silent peer: a resent copy would only queue its own reply behind the late first one
    scanner = Scanner(quick_config(targets=("192.168.90.13",), timeout_ms=100), network=RealNetwork())
    request = modbus.build_device_id_request(unit=1)
    client, device = socket.socketpair()
    with client, device:
        with pytest.raises(socket.timeout):
            scanner._exchange(client, request, modbus)
        device.setblocking(False)
        assert device.recv(4096) == request  # exactly one frame
    assert scanner.limiter.granted == 1


# -- full pipeline ---------------------------------------------------------------


def test_run_scan_fixture_depths(station):
    report = Scanner(quick_config(), network=SimNetwork(station)).run()
    assert report.per_asset_depth == {
        "192.168.90.10": 5,
        "192.168.90.11": 5,
        "192.168.90.12": 3,
        "192.168.90.13": 5,
        "192.168.90.14": 4,
    }
    scadapack = report.inventory.get("192.168.90.13")
    assert scadapack.static_info is None
    assert scadapack.deployment_info.as_dict().get("modbus_slave_id") == "5"
    et200s = report.inventory.get("192.168.90.10")
    assert et200s.deployment_info.as_dict().get("system_name") == "SIMATIC ET200S Station"
    assert report.packets_sent > 0
    assert not report.unit_id_sweep_used


def test_run_scan_zero_reachable_targets(station):
    report = Scanner(quick_config(targets=("192.168.90.200", "192.168.90.201")), network=SimNetwork(station)).run()
    assert len(report.inventory) == 0
    assert report.per_asset_depth == {}


def test_no_probe_without_evidence(station):
    scanner = Scanner(quick_config(), network=SimNetwork(station))
    report = scanner.run()
    confirmed = {
        (asset.ip, protocol) for asset in report.inventory for protocol in asset.protocols
    }
    protocol_of = {"enumerate_modbus": "modbus", "enumerate_s7": "s7comm", "enumerate_enip": "enip"}
    port_of = {"enumerate_modbus": 502, "enumerate_s7": 102, "enumerate_enip": 44818}
    enumerated = 0
    for index, entry in enumerate(scanner.probe_log):
        if entry["phase"] != "enumeration":
            continue
        enumerated += 1
        assert (entry["ip"], protocol_of[entry["detail"]]) in confirmed, entry
        # the protocol was confirmed on this host before enumeration began
        probe = {"phase": "service_identification", "ip": entry["ip"], "detail": f"probe:{port_of[entry['detail']]}"}
        assert probe in scanner.probe_log[:index], entry
    assert enumerated == 5


def test_phase_monotonicity(station):
    config = quick_config(targets=("192.168.90.10",))
    scanner = Scanner(config, network=SimNetwork(station))
    (asset,) = scanner.discover_hosts()
    depths = [int(compute_depth(asset))]
    probe_protocol, enumerate_s7 = scanner.probe_protocol, scanner.enumerate_s7

    def probing(asset, port, sock):
        # the port scan merged the open port before handing its connection on
        depths.append(int(compute_depth(asset)))
        return probe_protocol(asset, port, sock)

    def recording(asset, session):
        # the probe confirmed S7 and hands its open session straight on
        depths.append(int(compute_depth(asset)))
        return enumerate_s7(asset, session)

    scanner.probe_protocol, scanner.enumerate_s7 = probing, recording
    asset = scanner.scan_ports(asset)
    depths.append(int(compute_depth(asset)))
    assert depths == [1, 2, 3, 5]


def start_two_service_host():
    """One host with Modbus (the RTU) and EtherNet/IP (the ControlLogix) open."""
    config = load_fixtures(default_fixtures_path())
    devices = {c.name: c for c in config.devices}
    rtu = devices["scadapack32_like"]
    enip_side = SimDeviceConfig(**{**devices["controllogix_like"]._asdict(), "ip": rtu.ip})
    return StationHandle([rtu, enip_side], scanner_ip=config.scanner_ip).start(), rtu


def test_failed_probe_keeps_earlier_confirmed_protocol(monkeypatch):
    # the second port's probe raises after the first protocol was confirmed
    def broken_confirm(reply):
        raise IcsReconError("enip probe broke")

    monkeypatch.setattr(enip, "confirm", broken_confirm)
    handle, rtu = start_two_service_host()
    try:
        scanner = Scanner(quick_config(targets=(rtu.ip,)), network=SimNetwork(handle))
        report = scanner.run()
    finally:
        handle.stop()
    asset = report.inventory.get(rtu.ip)
    assert asset.open_ports == frozenset({PortSpec(502), PortSpec(44818)})
    assert "modbus" in asset.protocols
    assert any("enip probe broke" in a for a in report.anomalies)


def test_default_station_scan_cost(station):
    # the benchmark's active workload: the station plus two dead addresses
    network = CountingNetwork(station)
    config = quick_config(
        targets=FIXTURE_IPS + ("192.168.90.20", "192.168.90.21"),
        methods=frozenset({"arp", "icmp"}),
        timeout_ms=800,
        workers=8,
    )
    report = Scanner(config, network=network).run()
    assert report.per_asset_depth == {
        "192.168.90.10": 5,
        "192.168.90.11": 5,
        "192.168.90.12": 3,
        "192.168.90.13": 5,
        "192.168.90.14": 4,
    }
    # 7/15/5/10: discovery 5 ARP + 1 ARP for each dead address (a failed
    # ARP is final on the link), port scan 15, probes 5 (on the port scan's
    # connections), enumeration 10 (S7 3 x 3, Modbus report-slave-id 1, ENIP 0)
    assert report.packets_sent == 37
    open_ports = {(asset.ip, spec.port) for asset in report.inventory for spec in asset.open_ports}
    assert len(open_ports) == 5
    # every port is connected once, by the port scan; an open one is probed on that connection
    scanned = {(ip, port) for ip in FIXTURE_IPS for port in config.ports}
    assert network.connects == Counter({key: 1 for key in scanned})
    assert sum(network.connects.values()) == 15
    assert network.closes() == [1] * 5  # each open connection closed once
    # the inventory itself, less the times it was taken at
    document = report.inventory.to_document()
    for asset in document["assets"]:
        del asset["last_seen"]
        for entry in asset["provenance"]:
            del entry["at"]
    digest = hashlib.sha256(json.dumps(document, sort_keys=True).encode()).hexdigest()
    assert digest == "eb6715090bbd91393c71d17b29ef351941a8cf769be2c8e900e71db6b8410bf6"


def test_two_service_host_enumerates_each_port_before_probing_the_next():
    # Modbus is probed and enumerated on the port scan's connection, which is
    # closed before the EtherNet/IP port is connected; one connect per port
    handle, rtu = start_two_service_host()
    try:
        network = CountingNetwork(handle)
        scanner = Scanner(quick_config(targets=(rtu.ip,)), network=network)
        report = scanner.run()
    finally:
        handle.stop()
    asset = report.inventory.get(rtu.ip)
    assert asset.protocols == frozenset({"modbus", "enip"})
    assert asset.deployment_info.as_dict().get("modbus_slave_id") == "5"  # Modbus enumeration
    assert asset.static_info is not None  # ENIP identity; the RTU refuses device-ID reads
    assert report.per_asset_depth == {rtu.ip: 5}
    steps = [e["detail"] for e in scanner.probe_log if e["ip"] == rtu.ip and e["phase"] != "device_discovery"]
    assert steps == [
        "connect:102",
        "connect:502",
        "probe:502",
        "enumerate_modbus",
        "connect:44818",
        "probe:44818",
        "enumerate_enip",
    ]
    assert report.anomalies == []
    assert network.connects == Counter({(rtu.ip, 502): 1, (rtu.ip, 44818): 1, (rtu.ip, 102): 1})
    assert network.closes() == [1, 1]


def test_tsap_retry_opens_one_new_connection_and_every_socket_is_closed_once():
    # the PLC takes only the second default TSAP pair: the first COTP CR, sent
    # on the port scan's connection, is refused; the retry gets its own connection
    config = load_fixtures(default_fixtures_path())
    (plc,) = [c for c in config.devices if c.name == "et200s_like"]
    second_pair = SimDeviceConfig(**{**plc._asdict(), "accepted_tsaps": (0x0200,), "fragile": False})
    handle = StationHandle([second_pair], scanner_ip=config.scanner_ip).start()
    try:
        network = CountingNetwork(handle)
        scanner = Scanner(quick_config(targets=(plc.ip,)), network=network)
        report = scanner.run()
    finally:
        handle.stop()
    asset = report.inventory.get(plc.ip)
    assert asset.protocols == frozenset({"s7comm"})
    assert asset.static_info is not None and asset.deployment_info is not None
    assert report.per_asset_depth == {plc.ip: 5}
    steps = [e["detail"] for e in scanner.probe_log if e["phase"] != "device_discovery"]
    assert steps[:3] == ["connect:102", "probe:102", "enumerate_s7"]
    assert network.connects[(plc.ip, 102)] == 2
    # the port scan's connection and the retry's, each closed exactly once by its opener
    assert network.closes() == [1, 1]


def test_tsap_retry_that_cannot_connect_makes_no_claim():
    # the PLC takes only the second default TSAP pair, but the retry's connect times out
    class RetryTimesOut(CountingNetwork):
        def connect(self, ip, port, timeout):
            if not self.connects[(ip, port)]:
                return super().connect(ip, port, timeout)
            self.connects[(ip, port)] += 1
            return ConnectResult("timeout")

    config = load_fixtures(default_fixtures_path())
    (plc,) = [c for c in config.devices if c.name == "et200s_like"]
    second_pair = SimDeviceConfig(**{**plc._asdict(), "accepted_tsaps": (0x0200,), "fragile": False})
    handle = StationHandle([second_pair], scanner_ip=config.scanner_ip).start()
    try:
        network = RetryTimesOut(handle)
        report = Scanner(quick_config(targets=(plc.ip,)), network=network).run()
    finally:
        handle.stop()
    assert report.inventory.get(plc.ip).protocols == frozenset()
    assert report.anomalies == []
    assert network.connects[(plc.ip, 102)] == 2
    assert network.closes() == [1]  # the port scan's connection, closed once by its opener


def test_idle_timeout_does_not_cost_an_earlier_port_its_enumeration(monkeypatch):
    # a faulted EtherNet/IP side accepts connections but never answers, so its
    # probe waits out two timeouts; the device drops a session idle for 0.5 s
    from icsrecon import simulator
    from icsrecon.simulator import SimState

    monkeypatch.setattr(simulator, "CONNECTION_IDLE_TIMEOUT", 0.5)
    handle, rtu = start_two_service_host()
    try:
        handle.device("controllogix_like").state = SimState.FAULT
        report = Scanner(quick_config(targets=(rtu.ip,)), network=SimNetwork(handle)).run()
    finally:
        handle.stop()
    asset = report.inventory.get(rtu.ip)
    assert asset.protocols == frozenset({"modbus"})
    assert asset.deployment_info.as_dict().get("modbus_slave_id") == "5"
    assert report.per_asset_depth == {rtu.ip: 5}


def test_cancellation_emits_partial_report(station):
    stop = threading.Event()
    stop.set()
    report = Scanner(quick_config(), network=SimNetwork(station), stop_event=stop).run()
    assert any("cancelled" in a for a in report.anomalies)


def test_cancelled_scan_reports_the_cve_database_unconsulted(station):
    # the lookup is skipped once the scan is cancelled, so no level 6 can be claimed
    stop = threading.Event()
    stop.set()
    db_path = str(default_fixtures_path().parent / "cve_demo.json")
    report = Scanner(quick_config(vuln_db_path=db_path), network=SimNetwork(station), stop_event=stop).run()
    assert report.vuln_db_consulted is False
    assert report.to_document()["vuln_db_consulted"] is False


def test_report_document_shape(station):
    report = Scanner(quick_config(targets=("192.168.90.14",)), network=SimNetwork(station)).run()
    doc = report.to_document()
    assert doc["version"] == 1
    assert doc["kind"] == "active"
    assert doc["per_asset_depth"] == {"192.168.90.14": 4}
    assert doc["levels_achieved"] == [1, 2, 3, 4]
    assert doc["inventory"]["version"] == 1


# -- capture-level invariants ----------------------------------------------------


def modbus_requests_in_capture(pcap_path):
    """All client->server Modbus frames in a capture, as (unit, function)."""
    from icsrecon.codecs import modbus
    from icsrecon.passive import PcapFile, read_capture
    from icsrecon.pcapio import parse_ethernet, parse_ipv4, parse_tcp, PROTO_TCP

    requests = []
    for _, frame in read_capture(PcapFile(str(pcap_path))):
        eth = parse_ethernet(frame)
        if eth is None or eth.ethertype != 0x0800:
            continue
        packet = parse_ipv4(eth.payload)
        if packet is None or packet.proto != PROTO_TCP:
            continue
        segment = parse_tcp(packet.payload)
        if segment is None or segment.dst_port != 502 or not segment.payload:
            continue
        frames, _ = modbus.extract_frames(segment.payload)
        for wire in frames:
            header, pdu = modbus.decode_modbus(wire)
            requests.append((header.unit_id, pdu.function))
    return requests


def test_safe_mode_scan_capture_has_no_sweep_packets(tmp_path):
    fixtures = load_fixtures(default_fixtures_path())
    pcap = tmp_path / "safe.pcap"
    handle = StationHandle(list(fixtures.devices), scanner_ip=fixtures.scanner_ip, pcap_path=str(pcap)).start()
    try:
        report = Scanner(quick_config(targets=("192.168.90.13",)), network=SimNetwork(handle)).run()
    finally:
        handle.stop()
    assert not report.unit_id_sweep_used
    requests = modbus_requests_in_capture(pcap)
    assert requests, "expected Modbus probe traffic in the capture"
    # every request went to the configured unit; nothing swept 1..247
    assert {unit for unit, _ in requests} == {1}
    fc11 = [unit for unit, function in requests if function == 0x11]
    assert len(fc11) == 1


def test_unsafe_unit_sweep_reaches_capture_and_report(tmp_path):
    fixtures = load_fixtures(default_fixtures_path())
    pcap = tmp_path / "sweep.pcap"
    handle = StationHandle(list(fixtures.devices), scanner_ip=fixtures.scanner_ip, pcap_path=str(pcap)).start()
    try:
        config = quick_config(
            targets=("192.168.90.13",),
            safe_mode=False,
            unit_id_sweep=True,
            rate_limit_pps=400,
            timeout_ms=300,
        )
        report = Scanner(config, network=SimNetwork(handle)).run()
    finally:
        handle.stop()
    assert report.unit_id_sweep_used
    asset = report.inventory.get("192.168.90.13")
    assert asset.deployment_info.as_dict().get("unit_ids") == "1"  # only the real unit answers
    swept_units = {unit for unit, function in modbus_requests_in_capture(pcap) if function == 0x11}
    assert len(swept_units) == 247


@pytest.mark.parametrize(
    "port, reply",
    [
        # well-framed MBAP length, but a nonzero protocol id
        pytest.param(502, bytes.fromhex("000199990003012b00"), id="mbap_protocol_id"),
        # something that is not TPKT answering on the S7 port
        pytest.param(102, b"HTTP/1.1 400 Bad Request\r\n\r\n", id="non_tpkt"),
    ],
)
def test_malformed_reply_recorded_as_anomaly_without_claim(port, reply):
    import socketserver
    import threading

    class GarbageHandler(socketserver.BaseRequestHandler):
        def handle(self):
            try:
                self.request.recv(1024)
                self.request.sendall(reply)
            except OSError:
                pass

    server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), GarbageHandler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    real_port = server.server_address[1]

    from icsrecon.netbase import ConnectResult, Network
    import socket as socket_mod

    class RogueNetwork(Network):
        def require(self, method):
            pass

        def ping(self, ip, timeout):
            return True

        def arp(self, ip, timeout):
            return None

        def connect(self, ip, port_number, timeout):
            if port_number != port:
                return ConnectResult("refused")
            sock = socket_mod.create_connection(("127.0.0.1", real_port), timeout=timeout)
            return ConnectResult("open", sock)

    try:
        scanner = Scanner(quick_config(targets=("10.9.9.9",)), network=RogueNetwork())
        (asset,) = scanner.discover_hosts()
        asset = scanner.scan_ports(asset)  # probes the open port on the connection that found it
        assert asset.open_ports == frozenset({PortSpec(port)})
        assert asset.protocols == frozenset()
        assert any(e["detail"] == f"probe:{port}" for e in scanner.probe_log)
        assert any("malformed reply" in a for a in scanner.anomalies)
    finally:
        server.shutdown()
        server.server_close()
