"""Protocol-faithful stand-ins for small ICS field stations.

Every simulated device is served in memory: ``StationHandle.connect``
opens the device's side of a session, whose ``send`` frames the
client's bytes by the codec's frame rule and answers them, and
``SimNetwork`` wraps it in a socket-like connection for the scanner. A
station in another process (``simulate``) carries the same sessions over
its control socket, the one listening socket here, so both stations
share one dialogue path. An address-mapping layer presents the devices
as distinct logical hosts on one subnet. Replies come from each codec's
``respond``, and a device whose ``SERVES`` identity its codec cannot
read is refused at load, so every reply the simulator emits parses
cleanly on the scanner side; so is a device setting a field its codec's
``respond`` never reads (one outside ``DEVICE_FIELDS``), or an identity
key ``IDENTITY`` does not name.

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
import ipaddress
import itertools
import json
import logging
import socket
import threading
import time
from enum import Enum
from typing import NamedTuple

from .codecs import PROTOCOLS, cut_frames
from .errors import ConfigError, DecodeError, FormatError, IcsReconError, PortUnavailable
from .model import _check_ip, _check_mac
from .netbase import ConnectResult, Network
from .pcapio import PcapWriter, TcpFlowRecord, TrafficRecorder

logger = logging.getLogger(__name__)

CONNECTION_IDLE_TIMEOUT = 5.0  # a device hangs up a session idle for longer, at its next request
CONTROL_TIMEOUT = 5.0  # a control client's connect and each of its calls
SCANNER_IP = "192.168.90.1"  # the scanner's address on a station whose fixtures name none
CLIENT_PORTS = range(49152, 65536)  # the scanner's side of each recorded connection, in turn
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
    unit_id: int | None


class SimDeviceConfig(_SimDeviceConfigFields):
    """Identity plus fragility parameters for one simulated device."""

    __slots__ = ()

    # protocol, ip and listen_port are None only where a fixture leaves them out, and the checks below refuse that
    def __new__(cls, name, protocol=None, ip=None, listen_port=None, mac="02:00:00:00:00:01", identity=None,
                feature_flags=frozenset(), fragile=False, max_pps=50, fault_on_malformed=False, accepted_tsaps=None,
                unit_id=None):
        if protocol not in PROTOCOLS:
            raise ConfigError(f"{name}: unsupported protocol {protocol!r}")
        feature_flags = frozenset(feature_flags)
        extra = feature_flags - PROTOCOLS[protocol].EXCHANGES
        if extra:
            raise ConfigError(f"{name}: flags {sorted(extra)} not valid for {protocol}")
        own = PROTOCOLS[protocol].DEVICE_FIELDS  # the fields only this protocol reads, each with its default
        given = {"accepted_tsaps": accepted_tsaps, "unit_id": unit_id}
        identity = dict(identity or {})
        unread = [field for field, value in given.items() if value is not None and field not in own]
        unread += [f"identity.{key}" for key in sorted(identity.keys() - PROTOCOLS[protocol].IDENTITY)]
        if unread:
            raise ConfigError(f"{name}: {unread[0]} is not read by a {protocol} device")
        accepted_tsaps, unit_id = (own.get(field) if value is None else value for field, value in given.items())
        if max_pps < 1:
            raise ConfigError(f"{name}: max_pps must be >= 1")
        if isinstance(listen_port, bool) or not isinstance(listen_port, int) or not 1 <= listen_port <= 65535:
            raise ConfigError(f"{name}: listen_port must be an integer within 1..65535, got {listen_port!r}")
        if unit_id is not None and not 0 <= unit_id <= 0xFF:
            raise ConfigError(f"{name}: unit_id must be within 0..255, got {unit_id}")
        if accepted_tsaps is not None and not all(0 <= tsap <= 0xFFFF for tsap in accepted_tsaps):
            raise ConfigError(f"{name}: accepted_tsaps must each be within 0..0xFFFF, got {accepted_tsaps}")
        try:
            ip, mac = _check_ip(ip), _check_mac(mac)
        except ValueError as exc:
            raise ConfigError(f"{name}: {exc}") from exc
        if mac is None:
            raise ConfigError(f"{name}: mac must be a 48-bit hardware address")
        config = tuple.__new__(cls, (name, protocol, ip, listen_port, mac, identity, feature_flags, fragile,
                                     max_pps, fault_on_malformed, accepted_tsaps, unit_id))
        for flag in sorted(feature_flags):  # each reply the device serves is built once, before any device starts
            try:
                PROTOCOLS[protocol].SERVES[flag](config)
            except ValueError as exc:
                raise ConfigError(f"{name}: identity for {flag} cannot be served: {exc}") from exc
        return config


class SimDevice:
    """One simulated device: state machine, counters, protocol logic."""

    def __init__(self, config: SimDeviceConfig):
        self.config = config
        self.state = SimState.RUNNING
        self.packets_received = self.packets_sent = self.malformed_seen = 0
        self._window: collections.deque[float] = collections.deque()
        self._lock = threading.Lock()

    # -- state & counters: one note_received per arriving packet -----------

    def note_received(self, now: float | None = None) -> SimState:
        """Count one packet; a fragile device faults past max_pps in one sliding second of ``now`` (default: wall clock)."""
        with self._lock:
            self.packets_received += 1
            if self.config.fragile and self.state is SimState.RUNNING:
                now = time.time() if now is None else now
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


class DeviceSession:
    """The device's side of one connection: each ``send`` is framed, counted, recorded in the mirror and answered."""

    def __init__(self, device: SimDevice, flow: TcpFlowRecord):
        self._device = device
        self._flow = flow
        self._codec = PROTOCOLS[device.config.protocol]
        self._state: dict = {}  # the codec's own, one per connection
        self._pending = b""  # the start of a frame not yet complete
        self._open = True
        device.note_received()  # the connection attempt itself
        flow.handshake()
        self._last = time.monotonic()

    def send(self, data: bytes) -> tuple[bytes, bool]:
        """The device's replies to the client's ``data``, one packet per frame or unframeable rest; and whether it
        has hung up."""
        if self._open and time.monotonic() - self._last > CONNECTION_IDLE_TIMEOUT:
            self.close()  # the device dropped the idle session before ``data`` came
        if not self._open:
            return b"", True
        device, codec, replies = self._device, self._codec, []
        frames, self._pending = cut_frames(self._pending + data, codec.HEADER_SIZE, codec.frame_size)
        if len(self._pending) >= codec.HEADER_SIZE and codec.frame_size(self._pending) is None:
            frames.append(None)  # unframeable: whatever is pending is one malformed packet
        for request in frames:
            state = device.note_received()
            if request is None:
                device.note_malformed()
                self.close(reset=True)
                break
            self._flow.client_payload(request)
            if state is SimState.FAULT:
                continue  # accepts traffic, never replies
            try:
                reply, hang_up = codec.respond(device.config, self._state, request)
            except (DecodeError, FormatError):
                device.note_malformed()
                self.close(reset=True)
                break
            if reply is not None:
                replies.append(reply)
                device.note_sent()
                self._flow.server_payload(reply)
            if hang_up:
                self.close()
                break
        self._last = time.monotonic()
        return b"".join(replies), not self._open

    def close(self, reset: bool = False) -> None:
        """End the session from either side; its teardown, a reset after malformed input, is recorded once."""
        self._open = False
        self._flow.close(reset=reset)


class StationHandle:
    """A set of simulated devices plus the address-mapping layer; each session is served on its caller's thread."""

    def __init__(
        self,
        configs: list[SimDeviceConfig],
        scanner_ip: str = SCANNER_IP,
        pcap_path: str | None = None,
    ):
        self.scanner_ip = scanner_ip
        self._pcap_writer = PcapWriter(pcap_path) if pcap_path else None
        self.recorder = TrafficRecorder(self._pcap_writer)
        self.recorder.register_mac(scanner_ip, "02:00:5e:00:00:01")
        self.devices: list[SimDevice] = []
        self._by_endpoint: dict[tuple[str, int], SimDevice] = {}
        self._by_ip: dict[str, SimDevice] = {}
        self._connections = itertools.count()  # picks each connection's client port
        for config in configs:
            endpoint = (config.ip, config.listen_port)
            if endpoint in self._by_endpoint:
                raise PortUnavailable(f"duplicate endpoint {config.ip}:{config.listen_port}")
            device = SimDevice(config)
            self.devices.append(device)
            self._by_endpoint[endpoint] = device
            self._by_ip.setdefault(config.ip, device)
            self.recorder.register_mac(config.ip, config.mac)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "StationHandle":
        return self  # nothing runs until a client connects

    def stop(self) -> None:
        """End the mirror capture; a session still open records nothing more."""
        if self._pcap_writer is not None:
            self._pcap_writer.close()

    # -- address mapping ---------------------------------------------------

    def device(self, name: str) -> SimDevice:
        for device in self.devices:
            if device.config.name == name:
                return device
        raise KeyError(name)

    def connect(self, ip: str, port: int) -> DeviceSession | str:
        """The device's side of a new session with ``ip:port``; "refused" or "timeout" where no device listens."""
        client_port = CLIENT_PORTS[next(self._connections) % len(CLIENT_PORTS)]
        flow = self.recorder.tcp_flow((self.scanner_ip, client_port), (ip, port))
        device = self._by_endpoint.get((ip, port))
        if device is not None:
            return DeviceSession(device, flow)
        device = self._by_ip.get(ip)
        if device is not None and device.note_received() is SimState.RUNNING:
            flow.refused()
            return "refused"
        flow.unanswered()
        return "timeout"

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

    def address_map(self) -> dict:
        hosts: dict[str, dict] = {}
        for config in (device.config for device in self.devices):
            host = hosts.setdefault(config.ip, {"mac": config.mac, "name": config.name, "ports": []})
            host["ports"].append(config.listen_port)
        return {"scanner_ip": self.scanner_ip, "hosts": hosts}


class SimConnection:
    """The scanner's end of one session, in place of a socket: what the device sends back waits here to be read."""

    def __init__(self, session: DeviceSession | RemoteSession, timeout: float | None):
        self._session = session
        self._timeout = timeout
        self._inbox = b""
        self._ended = False  # the device hung up: a read past the inbox finds the end of the stream

    def sendall(self, data: bytes) -> None:
        reply, self._ended = self._session.send(data)
        self._inbox += reply

    def recv(self, size: int) -> bytes:
        if not self._inbox and not self._ended:
            time.sleep(self._timeout or 0.0)  # nothing is coming: the read waits out its timeout, as on a silent socket
            raise socket.timeout("timed out")
        data, self._inbox = self._inbox[:size], self._inbox[size:]
        return data

    def settimeout(self, value: float | None) -> None:
        self._timeout = value

    def close(self) -> None:
        self._session.close()

    def __enter__(self) -> "SimConnection":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


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
        session = self.station.connect(ip, port)
        if isinstance(session, str):
            return ConnectResult(session)
        return ConnectResult("open", SimConnection(session, timeout))

    def close(self) -> None:
        """Close a remote station's control channel; a local one keeps running."""
        if isinstance(self.station, RemoteStation):
            self.station.close()


# -- remote control (separate-process simulator) ---------------------------


def _open_session(station: StationHandle, sessions: dict, request: dict) -> dict:
    session = station.connect(request["ip"], request["port"])
    if isinstance(session, str):
        return {"status": session}
    sessions[id(session)] = session
    return {"status": "open", "session": id(session)}


def _send(station: StationHandle, sessions: dict, request: dict) -> dict:
    reply, hang_up = sessions[request["session"]].send(bytes.fromhex(request["data"]))
    return {"reply": reply.hex(), "hang_up": hang_up}


CONTROL_OPS = {  # op -> the fields its response adds to "ok": true; ``sessions`` are the control connection's own
    "ping": lambda station, sessions, request: {"alive": station.ping(request["ip"])},
    "arp": lambda station, sessions, request: {"mac": station.arp(request["ip"])},
    "connect": _open_session,
    "send": _send,
    "close": lambda station, sessions, request: sessions.pop(request["session"]).close() or {},
    "state": lambda station, sessions, request: {"state": station.device(request["name"]).get_state().value},
    "counters": lambda station, sessions, request: {
        "counters": station.device(request["name"]).get_counters()._asdict()},
    "reset": lambda station, sessions, request: {"state": station.device(request["name"]).reset().value},
    "info": lambda station, sessions, request: {"map": station.address_map()},
    "shutdown": lambda station, sessions, request: {},
}


class ControlledStation:
    """Station plus its control socket, as run by the simulate command: the one socket the simulator listens on."""

    def __init__(self, station: StationHandle):
        self.station = station
        self._shutdown = threading.Event()
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.control_port = self._listener.getsockname()[1]
        self._clients = threading.Thread(target=self._take_clients, daemon=True, name="sim-control")
        self._clients.start()

    def _take_clients(self) -> None:
        while True:
            try:
                sock, _address = self._listener.accept()
            except OSError:  # stop() shut the listener down
                return
            threading.Thread(target=self._serve, args=(sock,), daemon=True).start()

    def _serve(self, sock: socket.socket) -> None:
        """JSON-lines requests, one response each, until the client closes or asks for shutdown.

        The sessions the client opened and left open close with its connection.
        """
        sessions: dict[int, DeviceSession] = {}
        try:
            with sock, sock.makefile("rb") as rfile:
                for line in rfile:
                    request: dict = {}
                    try:
                        request = json.loads(line.decode("utf-8"))
                        op = CONTROL_OPS.get(request.get("op"))
                        if op is None:
                            raise FormatError(f"unknown op {request.get('op')!r}")
                        response = {"ok": True, **op(self.station, sessions, request)}
                    except Exception as exc:  # never kill the control channel
                        response = {"ok": False, "error": str(exc)}
                    sock.sendall((json.dumps(response) + "\n").encode("utf-8"))
                    if isinstance(request, dict) and request.get("op") == "shutdown":
                        self._shutdown.set()
                        return
        except OSError:  # the client went away mid-reply
            pass
        finally:
            for session in sessions.values():
                session.close()

    def map_document(self) -> dict:
        doc = self.station.address_map()
        doc["control_port"] = self.control_port
        return doc

    def wait(self, timeout: float | None = None) -> bool:
        """Block until a control client asks for shutdown (True) or ``timeout`` seconds pass (False)."""
        return self._shutdown.wait(timeout)

    def stop(self) -> None:
        """Stop taking control clients at once; one still connected is served until it leaves."""
        with contextlib.suppress(OSError):  # a second stop finds the listener closed
            self._listener.shutdown(socket.SHUT_RDWR)  # wakes the accept() in _take_clients
        self._clients.join()
        self._listener.close()
        self.station.stop()


class ControlClient:
    """JSON-lines client for a ControlledStation."""

    def __init__(self, port: int):
        self._sock = socket.create_connection(("127.0.0.1", port), timeout=CONTROL_TIMEOUT)
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


class RemoteSession:
    """A device session held by a simulator in another process, driven through its control channel."""

    def __init__(self, client: ControlClient, session: int):
        self._client = client
        self._session = session

    def send(self, data: bytes) -> tuple[bytes, bool]:
        response = self._client.call("send", session=self._session, data=data.hex())
        return bytes.fromhex(response["reply"]), response["hang_up"]

    def close(self) -> None:
        self._client.call("close", session=self._session)


class RemoteStation:
    """SimNetwork's station for a simulator in another process: the map's scanner address and control socket."""

    def __init__(self, map_document: dict):
        try:
            self.scanner_ip = _check_ip(map_document["scanner_ip"])
            control_port = map_document["control_port"]
        except KeyError as exc:
            raise FormatError(f"station map lacks {exc}; simulate --map-out writes a complete one") from exc
        except ValueError as exc:
            raise FormatError(f"station map scanner_ip: {exc}") from exc
        self._client = ControlClient(control_port)

    def connect(self, ip: str, port: int) -> RemoteSession | str:
        response = self._client.call("connect", ip=ip, port=port)
        return RemoteSession(self._client, response["session"]) if response["status"] == "open" else response["status"]

    def ping(self, ip: str) -> bool:
        return bool(self._client.call("ping", ip=ip)["alive"])

    def arp(self, ip: str) -> str | None:
        return self._client.call("arp", ip=ip)["mac"]

    def close(self) -> None:
        self._client.close()
