"""Protocol-faithful stand-ins for small ICS field stations.

Each simulated device listens on a loopback TCP port, served with the
control socket by one accept loop and a thread per connection; an
address-mapping layer presents the set to the scanner as distinct
logical hosts on one subnet (CI cannot create interface aliases
portably). All framing goes through the shared codecs, so every reply
the simulator emits parses cleanly on the scanner side.

Fragility model: a fragile device faults when the observed packet rate
over a sliding one-second window exceeds its budget, or (optionally)
when a single malformed frame arrives. A faulted device still accepts
connections but never replies until reset, mimicking gear that needs a
power cycle. Real fault conditions are device-specific and mostly
undisclosed; this model is a deliberately generic stand-in.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import ipaddress
import json
import logging
import select
import selectors
import socket
import threading
import time
from enum import Enum
from typing import NamedTuple

from .codecs import PROTOCOLS, enip, modbus, s7
from .errors import ConfigError, DecodeError, FormatError, IcsReconError, PortUnavailable
from .model import _check_ip, _check_mac
from .netbase import ConnectResult, Network, recv_frame
from .pcapio import PcapWriter, TrafficRecorder

logger = logging.getLogger(__name__)

CONNECTION_IDLE_TIMEOUT = 5.0
SCANNER_IP = "192.168.90.1"  # the scanner's address on a station whose fixtures name none
SEGMENT_PREFIX = 24  # the station's link: the /24 around its scanner address; ARP reaches nothing else


class SimState(Enum):
    RUNNING = "running"
    FAULT = "fault"


class Counters(NamedTuple):
    packets_received: int = 0
    packets_sent: int = 0
    malformed_seen: int = 0


class _SimDeviceConfigFields(NamedTuple):
    name: str
    protocol: str
    ip: str
    listen_port: int
    mac: str
    identity: dict[str, str]
    feature_flags: frozenset[str]
    fragile: bool
    max_pps: int
    fault_on_malformed: bool
    accepted_tsaps: tuple[int, ...] | None
    unit_id: int


class SimDeviceConfig(_SimDeviceConfigFields):
    """Identity plus fragility parameters for one simulated device."""

    __slots__ = ()

    def __new__(cls, name, protocol, ip, listen_port, mac="02:00:00:00:00:01", identity=None, feature_flags=frozenset(),
                fragile=False, max_pps=50, fault_on_malformed=False, accepted_tsaps=None, unit_id=1):
        if protocol not in PROTOCOLS:
            raise ConfigError(f"{name}: unsupported protocol {protocol!r}")
        feature_flags = frozenset(feature_flags)
        extra = feature_flags - PROTOCOLS[protocol].EXCHANGES
        if extra:
            raise ConfigError(f"{name}: flags {sorted(extra)} not valid for {protocol}")
        if max_pps < 1:
            raise ConfigError(f"{name}: max_pps must be >= 1")
        if isinstance(listen_port, bool) or not isinstance(listen_port, int) or not 1 <= listen_port <= 65535:
            raise ConfigError(f"{name}: listen_port must be an integer within 1..65535, got {listen_port!r}")
        if not 0 <= unit_id <= 0xFF:
            raise ConfigError(f"{name}: unit_id must be within 0..255, got {unit_id}")
        try:
            ip, mac = _check_ip(ip), _check_mac(mac)
        except ValueError as exc:
            raise ConfigError(f"{name}: {exc}") from exc
        if mac is None:
            raise ConfigError(f"{name}: mac must be a 48-bit hardware address")
        config = tuple.__new__(cls, (name, protocol, ip, listen_port, mac, dict(identity or {}), feature_flags, fragile,
                                     max_pps, fault_on_malformed, accepted_tsaps, unit_id))
        for flag in sorted(feature_flags):  # each reply the device serves is built once, before any device starts
            try:
                IDENTITY_REPLIES[flag](config)
            except ValueError as exc:
                raise ConfigError(f"{name}: identity for {flag} cannot be encoded: {exc}") from exc
        return config


class SimDevice:
    """One simulated device: state machine, counters, protocol logic."""

    def __init__(self, config: SimDeviceConfig, station: "StationHandle"):
        self.config = config
        self.station = station
        self.state = SimState.RUNNING
        self.packets_received = self.packets_sent = self.malformed_seen = 0
        self._window: collections.deque[float] = collections.deque()
        self._lock = threading.Lock()
        self.bound_port: int | None = None

    # -- state & counters: one note_received per arriving packet -----------

    def note_received(self, now: float | None = None) -> SimState:
        """Count one packet; a fragile device faults past max_pps in one sliding second of ``now`` (default: station clock)."""
        with self._lock:
            self.packets_received += 1
            if self.config.fragile and self.state is SimState.RUNNING:
                now = self.station.clock() if now is None else now
                self._window.append(now)
                while self._window[0] < now - 1.0:
                    self._window.popleft()
                if len(self._window) > self.config.max_pps:
                    self._fault("rate")
            return self.state

    def note_malformed(self) -> SimState:
        """Count one packet the device could not take; one is enough to fault a fault_on_malformed device."""
        with self._lock:
            self.malformed_seen += 1
            if self.config.fault_on_malformed and self.state is SimState.RUNNING:
                self._fault("malformed frame")
            return self.state

    def _fault(self, cause: str) -> None:  # with self._lock held
        self.state = SimState.FAULT
        logger.warning("device %s entered fault state (%s)", self.config.name, cause)

    def note_sent(self) -> None:
        with self._lock:
            self.packets_sent += 1

    def reset(self) -> SimState:
        with self._lock:
            self.state = SimState.RUNNING
            self._window.clear()
        return self.state

    def get_state(self) -> SimState:
        return self.state

    def get_counters(self) -> Counters:
        with self._lock:
            return Counters(self.packets_received, self.packets_sent, self.malformed_seen)


# -- protocol handlers ----------------------------------------------------


class _Connection:
    """One client connection's state, handed with each request to its device's reply function."""

    __slots__ = ("device", "connected", "disconnect")

    def __init__(self, device: SimDevice):
        self.device = device
        self.connected = False  # a COTP connection was confirmed
        self.disconnect = False  # the device hangs up once this reply is sent


def _modbus_device_id(config: SimDeviceConfig, tx: int = 0, unit: int = 0) -> bytes:
    identity = config.identity
    objects = {
        modbus.OBJ_VENDOR_NAME: identity.get("manufacturer", ""),
        modbus.OBJ_PRODUCT_CODE: identity.get("product_code", ""),
        modbus.OBJ_REVISION: identity.get("firmware_version", ""),
    }
    return modbus.build_device_id_response(tx, unit, {k: v for k, v in objects.items() if v})


def _modbus_slave_id(config: SimDeviceConfig, tx: int = 0, unit: int = 0) -> bytes:
    slave_id = int(config.identity.get("slave_id", config.unit_id))
    extra = config.identity.get("product_code", "").encode("ascii")  # UnicodeEncodeError, a ValueError, at load
    return modbus.build_report_slave_id_response(tx, unit, slave_id, running=True, additional=extra)


def _modbus_reply(connection: _Connection, request: bytes) -> bytes | None:
    """Answers FC 0x2B, FC 0x11 and register reads; an exception for anything else, or for a flag not set."""
    header, pdu = modbus.decode_modbus(request)
    config = connection.device.config
    tx, unit = header.transaction_id, header.unit_id
    if unit not in (config.unit_id, 0x00, 0xFF):
        return modbus.exception_frame(tx, unit, pdu.function, 0x0B)  # gateway-style: the unit is not present
    device_id = pdu.function == modbus.FC_ENCAPSULATED and pdu.payload[:1] == bytes([modbus.MEI_DEVICE_ID])
    if device_id and "device_id_fc2b" in config.feature_flags:
        return _modbus_device_id(config, tx, unit)
    if pdu.function == modbus.FC_REPORT_SLAVE_ID and "report_slave_id_fc11" in config.feature_flags:
        return _modbus_slave_id(config, tx, unit)
    if pdu.function == modbus.FC_READ_HOLDING and len(pdu.payload) == modbus.READ_HOLDING.size:
        _start, count = modbus.READ_HOLDING.unpack(pdu.payload)
        if 1 <= count <= 125:
            return modbus.build_read_holding_response(tx, unit, [0] * count)
    return modbus.exception_frame(tx, unit, pdu.function, modbus.EXC_ILLEGAL_FUNCTION)


def _s7_reply(connection: _Connection, request: bytes) -> bytes | None:
    """COTP connect, then S7 setup, then status-list reads; a list whose flag is not set is refused."""
    cotp = s7.decode_envelope(request).cotp
    config = connection.device.config
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
        entries, error = (), 0x8104  # refused: a list this device does not serve
        if szl and szl.flag in config.feature_flags:
            entries, error = IDENTITY_REPLIES[szl.flag](config), 0
        response = s7.S7SzlResponse(
            szl_id=message.szl_id, szl_index=message.szl_index, entries=entries,
            pdu_ref=message.pdu_ref, sequence=message.sequence, error_code=error,
        )
        return s7.build_szl_response_frame(response)
    raise FormatError("unsupported S7 request")


def _enip_list_identity(config: SimDeviceConfig) -> bytes:
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


def _enip_reply(connection: _Connection, request: bytes) -> bytes | None:
    message, _payload = enip.decode_header(request)
    config = connection.device.config
    if message.command == enip.CMD_LIST_IDENTITY and "list_identity" in config.feature_flags:
        return _enip_list_identity(config)
    return enip.encode_header(message.command, b"", status=0x0001)


# identity flag -> its reply's identity part, built from the config alone (a whole Modbus or EtherNet/IP reply, or S7
# list entries); SimDeviceConfig builds each one a device serves once, so an identity it cannot encode fails at load
IDENTITY_REPLIES = {
    "device_id_fc2b": _modbus_device_id, "report_slave_id_fc11": _modbus_slave_id, "list_identity": _enip_list_identity,
    "szl_0011": lambda config: s7.module_id_entries(config.identity),
    "szl_001c": lambda config: s7.component_id_entries(config.identity),
}
REPLIES = {modbus.NAME: _modbus_reply, s7.NAME: _s7_reply, enip.NAME: _enip_reply}  # codec NAME -> reply function


def _serve_device(device: SimDevice, sock: socket.socket, address: tuple[str, int]) -> None:
    """One connection to a device: frames in, replies out, until the client goes, idles or sends junk."""
    station = device.station
    device.note_received()  # the connection attempt itself
    flow = station.recorder.tcp_flow((station.scanner_ip, address[1]), (device.config.ip, device.config.listen_port))
    flow.handshake()
    codec = PROTOCOLS[device.config.protocol]
    reply_to, connection = REPLIES[device.config.protocol], _Connection(device)
    reset = False
    try:
        while True:
            try:
                request = recv_frame(sock, codec, CONNECTION_IDLE_TIMEOUT)
            except socket.timeout:
                return
            except (FormatError, OSError):
                request = None  # unframeable input: whatever is pending is one malformed packet
            state = device.note_received()
            if request is None:
                device.note_malformed()
                reset = True
                return
            flow.client_payload(request)
            if state is SimState.FAULT:
                continue  # accepts traffic, never replies
            try:
                reply = reply_to(connection, request)
            except (DecodeError, FormatError):
                device.note_malformed()
                reset = True
                return
            if reply is not None:
                sock.sendall(reply)
                device.note_sent()
                flow.server_payload(reply)
            if connection.disconnect:
                return
    finally:
        flow.close(reset=reset)


class StationHandle:
    """A set of simulated devices plus the address-mapping layer."""

    def __init__(
        self,
        configs: list[SimDeviceConfig],
        scanner_ip: str = SCANNER_IP,
        pcap_path: str | None = None,
        clock=time.time,
    ):
        self.scanner_ip = scanner_ip
        self.clock = clock
        self._pcap_writer = PcapWriter(pcap_path) if pcap_path else None
        self.recorder = TrafficRecorder(self._pcap_writer, clock=clock)
        self.recorder.register_mac(scanner_ip, "02:00:5e:00:00:01")
        self.devices: list[SimDevice] = []
        self._selector: selectors.BaseSelector | None = None
        self._loop: threading.Thread | None = None
        self._listeners: list[socket.socket] = []  # the devices' listeners, the ones wait_idle() checks
        self._by_endpoint: dict[tuple[str, int], SimDevice] = {}
        self._by_ip: dict[str, SimDevice] = {}
        self._idle = threading.Condition()
        self._in_flight = 0
        seen = set()
        for config in configs:
            endpoint = (config.ip, config.listen_port)
            if endpoint in seen:
                raise PortUnavailable(f"duplicate endpoint {config.ip}:{config.listen_port}")
            seen.add(endpoint)
            device = SimDevice(config, self)
            self.devices.append(device)
            self._by_endpoint[endpoint] = device
            self._by_ip.setdefault(config.ip, device)
            self.recorder.register_mac(config.ip, config.mac)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "StationHandle":
        self._selector = selectors.DefaultSelector()
        self._wake, self._waker = socket.socketpair()
        self._selector.register(self._wake, selectors.EVENT_READ)
        self._loop = threading.Thread(target=self._accept_loop, daemon=True, name="sim-accept")
        self._loop.start()
        for device in self.devices:
            try:
                device.bound_port = self.listen(functools.partial(_serve_device, device))
            except OSError as exc:
                self.stop()
                raise PortUnavailable(f"{device.config.name}: {exc}") from exc
        return self

    def listen(self, serve, counted: bool = True) -> int:
        """Bind a loopback port; each connection runs ``serve(sock, address)`` on a thread of its own.

        A ``counted`` connection holds wait_idle(), and so stop(), until it is served.
        """
        listener = socket.create_server(("127.0.0.1", 0))
        listener.setblocking(False)
        self._selector.register(listener, selectors.EVENT_READ, (serve, counted))
        if counted:
            self._listeners.append(listener)
        self._waker.send(b"\0")  # a loop already in select() takes the new listener on
        return listener.getsockname()[1]

    def _accept_loop(self) -> None:
        while True:
            for key, _ in self._selector.select():
                if key.data is None:  # the wake socket: a byte for a new listener, end of file from stop()
                    if not self._wake.recv(4096):
                        return
                    continue
                serve, counted = key.data
                if counted:
                    self._serving(+1)  # before accept(), so wait_idle() never sees the connection in neither place
                try:
                    sock, address = key.fileobj.accept()
                except OSError:  # the client went away while queued
                    if counted:
                        self._serving(-1)
                    continue
                sock.setblocking(True)  # some systems hand on the listener's non-blocking mode
                threading.Thread(target=self._serve, args=(serve, counted, sock, address), daemon=True).start()

    def _serve(self, serve, counted: bool, sock: socket.socket, address: tuple[str, int]) -> None:
        try:
            serve(sock, address)
        except OSError:  # the client went away mid-reply
            pass
        finally:
            with contextlib.suppress(OSError):
                sock.shutdown(socket.SHUT_WR)  # an orderly end of stream before the close
            sock.close()
            if counted:
                self._serving(-1)

    def stop(self) -> None:
        """Close every listener at once; wait for the connections being served (up to their idle timeout)."""
        with self._idle:
            self._listeners = []  # wait_idle() polls the list under this lock: it never sees a closed socket
        if self._loop is not None:
            self._waker.close()
            self._loop.join()
            for key in list(self._selector.get_map().values()):
                key.fileobj.close()
            self._selector.close()
            self._selector = self._loop = None
        self.wait_idle()  # teardown frames of the last connections belong in the pcap
        if self._pcap_writer is not None:
            self._pcap_writer.close()

    def _serving(self, delta: int) -> None:
        with self._idle:
            self._in_flight += delta
            self._idle.notify_all()

    def wait_idle(self, timeout: float = CONNECTION_IDLE_TIMEOUT + 1.0) -> bool:
        """Wait until every connection is accepted and served, and its teardown recorded.

        A handler outlives its client by at most the idle timeout; False
        means a connection was still pending or open when ``timeout`` ran out.
        """
        def idle() -> bool:  # a readable listening socket holds a connection not yet accepted
            if self._in_flight:
                return False
            queued = select.poll()  # poll, unlike select(), takes descriptors of 1024 and up
            for listener in self._listeners:
                queued.register(listener, select.POLLIN)
            return not queued.poll(0)

        with self._idle:
            return self._idle.wait_for(idle, timeout)

    def __enter__(self) -> "StationHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- address mapping ---------------------------------------------------

    def device(self, name: str) -> SimDevice:
        for device in self.devices:
            if device.config.name == name:
                return device
        raise KeyError(name)

    def lookup(self, ip: str, port: int) -> int | None:
        device = self._by_endpoint.get((ip, port))
        return None if device is None else device.bound_port

    def ping(self, ip: str) -> bool:
        device = self._by_ip.get(ip)
        if device is None:
            self.recorder.icmp_echo_exchange(self.scanner_ip, ip, answered=False)
            return False
        answered = device.note_received() is SimState.RUNNING
        self.recorder.icmp_echo_exchange(self.scanner_ip, ip, answered=answered)
        return answered

    def arp(self, ip: str) -> str | None:
        device = self._by_ip.get(ip)
        if device is None:
            self.recorder.arp_exchange(self.scanner_ip, ip, answered=False)
            return None
        device.note_received()  # link-layer resolution keeps working even for faulted devices
        self.recorder.arp_exchange(self.scanner_ip, ip, answered=True)
        return device.config.mac

    def unmapped_syn(self, ip: str, port: int, client_port: int = 0) -> str:
        flow = self.recorder.tcp_flow((self.scanner_ip, client_port or 65000), (ip, port))
        device = self._by_ip.get(ip)
        if device is None:
            flow.unanswered()
            return "timeout"
        if device.note_received() is SimState.RUNNING:
            flow.refused()
            return "refused"
        flow.unanswered()
        return "timeout"

    def address_map(self) -> dict:
        return {
            "scanner_ip": self.scanner_ip,
            "hosts": {
                device.config.ip: {
                    "mac": device.config.mac,
                    "name": device.config.name,
                    "ports": {str(device.config.listen_port): device.bound_port},
                }
                for device in self.devices
            },
        }


class SimNetwork(Network):
    """Scanner-facing view of a StationHandle or a RemoteStation: the drop-in Network."""

    def __init__(self, station: StationHandle | RemoteStation):
        self.station = station
        self.source_ip = station.scanner_ip
        self._segment = ipaddress.IPv4Network(f"{station.scanner_ip}/{SEGMENT_PREFIX}", strict=False)

    def on_link(self, ip: str) -> bool:
        return ipaddress.IPv4Address(ip) in self._segment

    def ping(self, ip: str, timeout: float) -> bool:
        return self.station.ping(ip)

    def arp(self, ip: str, timeout: float) -> str | None:
        return self.station.arp(ip)

    def connect(self, ip: str, port: int, timeout: float) -> ConnectResult:
        real_port = self.station.lookup(ip, port)
        if real_port is None:
            return ConnectResult(self.station.unmapped_syn(ip, port))
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.settimeout(timeout)
        try:
            sock.connect(("127.0.0.1", real_port))
            return ConnectResult("open", sock)
        except (ConnectionRefusedError, socket.timeout, OSError):
            sock.close()
            return ConnectResult("timeout")

    def close(self) -> None:
        """Close a remote station's control channel; a local one keeps running."""
        if isinstance(self.station, RemoteStation):
            self.station.close()


# -- remote control (separate-process simulator) ---------------------------


CONTROL_OPS = {  # op -> the fields its response adds to "ok": true
    "ping": lambda station, request: {"alive": station.ping(request["ip"])},
    "arp": lambda station, request: {"mac": station.arp(request["ip"])},
    "unmapped_syn": lambda station, request: {"status": station.unmapped_syn(request["ip"], request["port"])},
    "state": lambda station, request: {"state": station.device(request["name"]).get_state().value},
    "counters": lambda station, request: {"counters": station.device(request["name"]).get_counters()._asdict()},
    "reset": lambda station, request: {"state": station.device(request["name"]).reset().value},
    "info": lambda station, request: {"map": station.address_map()},
    "shutdown": lambda station, request: {},
}


class ControlledStation:
    """Station plus its control socket, as run by the simulate command."""

    def __init__(self, station: StationHandle):
        self.station = station
        self._shutdown = threading.Event()
        self.control_port = station.listen(self._serve, counted=False)  # stop() never waits for a control client

    def _serve(self, sock: socket.socket, address: tuple[str, int]) -> None:
        """JSON-lines requests, one response each, until the client closes or asks for shutdown."""
        with sock.makefile("rb") as rfile:
            for line in rfile:
                request: dict = {}
                try:
                    request = json.loads(line.decode("utf-8"))
                    op = CONTROL_OPS.get(request.get("op"))
                    if op is None:
                        raise FormatError(f"unknown op {request.get('op')!r}")
                    response = {"ok": True, **op(self.station, request)}
                except Exception as exc:  # never kill the control channel
                    response = {"ok": False, "error": str(exc)}
                sock.sendall((json.dumps(response) + "\n").encode("utf-8"))
                if isinstance(request, dict) and request.get("op") == "shutdown":
                    self._shutdown.set()
                    return

    def map_document(self) -> dict:
        doc = self.station.address_map()
        doc["control_port"] = self.control_port
        return doc

    def wait(self, timeout: float | None = None) -> bool:
        """Block until a control client asks for shutdown (True) or ``timeout`` seconds pass (False)."""
        return self._shutdown.wait(timeout)

    def stop(self) -> None:
        self.station.stop()


class ControlClient:
    """JSON-lines client for a ControlledStation."""

    def __init__(self, port: int, host: str = "127.0.0.1", timeout: float = 5.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._fh = self._sock.makefile("rwb")
        self._lock = threading.Lock()

    def call(self, op: str, **kwargs) -> dict:
        """One request/response pair; safe to share across threads."""
        request = {"op": op, **kwargs}
        with self._lock:
            self._fh.write((json.dumps(request) + "\n").encode("utf-8"))
            self._fh.flush()
            line = self._fh.readline()
        if not line:
            raise IcsReconError("control channel closed")
        response = json.loads(line.decode("utf-8"))
        if not response.get("ok"):
            raise IcsReconError(f"control call {op} failed: {response.get('error')}")
        return response

    def close(self) -> None:
        with contextlib.suppress(OSError):
            self._fh.close()
            self._sock.close()


class RemoteStation:
    """SimNetwork's station for a simulator in another process: map file plus control socket."""

    def __init__(self, map_document: dict, timeout: float = 5.0):
        try:
            self.scanner_ip = _check_ip(map_document["scanner_ip"])
            self._hosts = map_document["hosts"]
            control_port = map_document["control_port"]
        except KeyError as exc:
            raise FormatError(f"station map lacks {exc}; simulate --map-out writes a complete one") from exc
        except ValueError as exc:
            raise FormatError(f"station map scanner_ip: {exc}") from exc
        if not isinstance(self._hosts, dict):
            raise FormatError("station map hosts must be a JSON object of address -> host")
        for ip, host in self._hosts.items():
            ports = host.get("ports") if isinstance(host, dict) else None
            if not isinstance(ports, dict) or not all(isinstance(port, int) for port in ports.values()):
                raise FormatError(f"station map host {ip} must be an object holding a ports object of port -> port")
        self._client = ControlClient(control_port, timeout=timeout)

    def lookup(self, ip: str, port: int) -> int | None:
        host = self._hosts.get(ip)
        return host["ports"].get(str(port)) if host else None

    def ping(self, ip: str) -> bool:
        return bool(self._client.call("ping", ip=ip)["alive"])

    def arp(self, ip: str) -> str | None:
        return self._client.call("arp", ip=ip)["mac"]

    def unmapped_syn(self, ip: str, port: int) -> str:
        return self._client.call("unmapped_syn", ip=ip, port=port)["status"]

    def close(self) -> None:
        self._client.close()
