"""Active scanning pipeline: discovery, service identification,
enumeration, then optional vulnerability lookup.

Later phases only visit hosts that survived earlier ones, and
protocol enumeration is never attempted without a confirmed protocol
(the probe log makes that auditable). Discovery spends one packet per
address where it can: an on-link target gets ARP alone, and an ARP
request that was sent and went unanswered is final there; an off-link
target, which ARP cannot reach, or one whose ARP request could not be
sent, gets ICMP and then TCP connect, stopping at the first that
answers. Each host is then handled in one pass over its ports, in
order: a port with a known protocol is probed on the connection that
found it open and, once its protocol is confirmed, enumerated at once
on that same connection, reusing the first reply. What follows the probe
is the codec's ``enumeration``; one loop sends every protocol's requests
and the unit sweep's, and ends a session at the first reply that does not
arrive whole. Only an open port without a known protocol is closed
immediately. No session outlives its port, so a device's idle timeout
never runs while another port is probed. A single token bucket gates
every emitted packet across all workers; TCP connect scanning (full
handshake) is used instead of half-open scanning because it needs no
privilege and is gentler on fragile stacks.
"""

from __future__ import annotations

import contextlib
import ipaddress
import logging
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from datetime import datetime, timezone
from enum import Enum
from typing import NamedTuple

from .codecs import PROTOCOLS, enip, modbus, s7
from .errors import (
    ConfigError,
    ConnectionRefusedByTsap,
    DecodeError,
    FormatError,
    FramingError,
    IcsReconError,
    PrivilegeRequired,
)
from .model import (
    Asset,
    DeploymentInfo,
    Inventory,
    PortSpec,
    RunReport,
    StaticDeviceInfo,
    merge_observation,
)
from .netbase import Network, RealNetwork, recv_frame
from .ouidb import vendor_for_mac
from .ratelimit import TokenBucket

logger = logging.getLogger(__name__)

PROTOCOL_PORTS = {codec.PORT: name for name, codec in PROTOCOLS.items()}
DEFAULT_PORTS = frozenset(PROTOCOL_PORTS)
METHOD_ORDER = ("arp", "icmp", "tcp_connect")

SAFE_MODE_MAX_PPS = 50

Session = tuple[socket.socket, bytes]  # an open socket and the reply to its opening exchange


class ScanPhase(str, Enum):
    """Pipeline stages; later phases only visit survivors of earlier ones."""

    DEVICE_DISCOVERY = "device_discovery"
    SERVICE_IDENTIFICATION = "service_identification"
    ENUMERATION = "enumeration"
    VULNERABILITY_IDENTIFICATION = "vulnerability_identification"


class _ScanConfigFields(NamedTuple):
    targets: tuple[str, ...]
    ports: frozenset[int]
    methods: frozenset[str]
    rate_limit_pps: int
    safe_mode: bool
    unit_id_sweep: bool
    timeout_ms: int
    vuln_db_path: str | None
    vuln_alias_path: str | None
    workers: int
    modbus_unit: int
    pcap_out: str | None


class ScanConfig(_ScanConfigFields):
    """Scan parameters; safe mode caps the rate and bans unit sweeps."""

    __slots__ = ()

    def __new__(cls, targets, ports=DEFAULT_PORTS, methods=frozenset({"icmp"}), rate_limit_pps=20, safe_mode=True,
                unit_id_sweep=False, timeout_ms=800, vuln_db_path=None, vuln_alias_path=None, workers=8, modbus_unit=1,
                pcap_out=None):
        ports, methods = frozenset(ports), frozenset(methods)
        if not methods:
            raise ConfigError("at least one discovery method is required")
        unknown = methods - set(METHOD_ORDER)
        if unknown:
            raise ConfigError(f"unknown discovery methods: {sorted(unknown)}")
        if rate_limit_pps < 1:
            raise ConfigError("rate_limit_pps must be positive")
        if timeout_ms < 1:
            raise ConfigError("timeout_ms must be positive")
        if any(not 1 <= p <= 65535 for p in ports):
            raise ConfigError("ports must be within 1..65535")
        if safe_mode and rate_limit_pps > SAFE_MODE_MAX_PPS:
            raise ConfigError(f"safe mode caps the rate at {SAFE_MODE_MAX_PPS} pps (asked for {rate_limit_pps}); "
                              "disable safe mode explicitly to go faster")
        if safe_mode and unit_id_sweep:
            raise ConfigError("unit id sweeps are disabled in safe mode")
        if workers < 1:
            raise ConfigError("workers must be positive")
        if not 0 <= modbus_unit <= 0xFF:
            raise ConfigError(f"modbus_unit must be within 0..255, got {modbus_unit}")
        return tuple.__new__(cls, (tuple(targets), ports, methods, rate_limit_pps, safe_mode, unit_id_sweep, timeout_ms,
                                   vuln_db_path, vuln_alias_path, workers, modbus_unit, pcap_out))

    @property
    def timeout(self) -> float:
        return self.timeout_ms / 1000.0


def expand_targets(targets: tuple[str, ...]) -> list[str]:
    """CIDR blocks and single addresses -> concrete IPv4 list."""
    out: list[str] = []
    seen: set[str] = set()
    for target in targets:
        target = target.strip()
        if not target:
            continue
        try:
            if "/" in target:
                network = ipaddress.IPv4Network(target, strict=False)
                hosts = [str(h) for h in network.hosts()] or [str(network.network_address)]
            else:
                hosts = [str(ipaddress.IPv4Address(target))]
        except (ipaddress.AddressValueError, ipaddress.NetmaskValueError, ValueError) as exc:
            raise ConfigError(f"bad scan target {target!r}: {exc}") from exc
        for host in hosts:
            if host not in seen:
                seen.add(host)
                out.append(host)
    return out


class Scanner:
    """One scan run; each worker returns its asset with the evidence folded in."""

    def __init__(
        self,
        config: ScanConfig,
        network: Network | None = None,
        stop_event: threading.Event | None = None,
    ):
        self.config = config
        self.network = network if network is not None else RealNetwork()
        self._recorder = None
        if config.pcap_out:
            from .audit import RecordingNetwork

            self.network = self._recorder = RecordingNetwork(self.network, config.pcap_out)
        self.limiter = TokenBucket(config.rate_limit_pps)
        self.anomalies: list[str] = []
        self.probe_log: list[dict[str, str]] = []
        self._log_lock = threading.Lock()
        self._stop = stop_event or threading.Event()
        self._sweep_used = False

    # -- plumbing ----------------------------------------------------------

    def _now(self) -> datetime:
        return datetime.now(timezone.utc)

    def _note(self, phase: ScanPhase, ip: str, detail: str) -> None:
        with self._log_lock:
            self.probe_log.append({"phase": phase.value, "ip": ip, "detail": detail})

    def _anomaly(self, text: str) -> None:
        with self._log_lock:
            if text in self.anomalies:
                return  # logged when first seen
            self.anomalies.append(text)
        logger.warning("%s", text)

    def _merge(self, asset: Asset, **evidence) -> Asset:
        """Fold one batch of this scan's evidence into the asset."""
        return merge_observation(asset, Asset.discovered(asset.ip, self._now(), **evidence))

    def _connect(self, ip: str, port: int):
        self.limiter.acquire()
        return self.network.connect(ip, port, self.config.timeout)

    # -- phase 1: device discovery ------------------------------------------

    def _usable_methods(self) -> list[str]:
        usable, missing = [], []
        for method in METHOD_ORDER:
            if method not in self.config.methods:
                continue
            try:
                self.network.require(method)
                usable.append(method)
            except PrivilegeRequired as exc:
                missing.append(method)
                self._anomaly(f"discovery method unavailable: {exc}")
        if not usable:
            raise PrivilegeRequired(missing[0] if missing else "none")
        return usable

    def _discover_one(self, ip: str, methods: list[str]) -> Asset | None:
        """One packet per address where it can: ARP alone on the link, else ICMP, then TCP connect."""
        if self._stop.is_set():
            return None
        routed = [method for method in methods if method != "arp"]
        if "arp" in methods and self.network.on_link(ip):
            self.limiter.acquire()
            try:
                mac = self.network.arp(ip, self.config.timeout)
            except OSError as exc:  # no request went out, so no answer is final: the routed methods decide
                self._anomaly(f"arp request failed: {exc}")
            else:
                self._note(ScanPhase.DEVICE_DISCOVERY, ip, "arp")
                if mac is None:
                    return None  # final: no IP-level probe reaches an on-link address that does not answer ARP
                return Asset.discovered(ip, self._now(), mac=mac, oui_vendor=vendor_for_mac(mac))
        elif not routed:
            self._anomaly(f"arp cannot reach off-link {ip}")
            return None
        if any(self._answers(ip, method) for method in routed):  # stops at the first that answers
            return Asset.discovered(ip, self._now())
        return None

    def _answers(self, ip: str, method: str) -> bool:
        """Does ``ip`` answer an ICMP echo, or a TCP connect on any scanned port?"""
        if method == "icmp":
            self.limiter.acquire()
            alive = self.network.ping(ip, self.config.timeout)
            self._note(ScanPhase.DEVICE_DISCOVERY, ip, "icmp")
            return alive
        for port in sorted(self.config.ports):
            result = self._connect(ip, port)
            self._note(ScanPhase.DEVICE_DISCOVERY, ip, f"tcp_connect:{port}")
            if result.sock is not None:
                result.sock.close()
            if result.status in ("open", "refused"):
                return True
        return False

    def discover_hosts(self, pool: ThreadPoolExecutor | None = None) -> list[Asset]:
        """Phase 1: one asset per responding target address."""
        methods = self._usable_methods()
        targets = expand_targets(self.config.targets)
        if pool is None:
            found = [self._discover_one(ip, methods) for ip in targets]
        else:
            found = list(pool.map(lambda ip: self._discover_one(ip, methods), targets))
        return [asset for asset in found if asset is not None]

    # -- phase 2: service identification -------------------------------------

    def scan_ports(self, asset: Asset) -> Asset:
        """Connect scan: a port is open iff the handshake completes; a known protocol is probed on that connection."""
        for port in sorted(self.config.ports):
            if self._stop.is_set():
                break
            result = self._connect(asset.ip, port)
            self._note(ScanPhase.SERVICE_IDENTIFICATION, asset.ip, f"connect:{port}")
            if result.status != "open":
                continue
            with result.sock:  # opened here, so closed here, before the next port is connected
                asset = self._merge(asset, open_ports=frozenset({PortSpec(port)}))
                if port not in PROTOCOL_PORTS:
                    continue  # evidence gathered; be brief
                try:
                    asset = self.probe_protocol(asset, port, result.sock)
                except (IcsReconError, OSError) as exc:
                    self._anomaly(f"probe failed for {asset.ip}:{port}: {exc}")
        return asset

    def _exchange(self, sock: socket.socket, payload: bytes, codec) -> bytes:
        """Send one request and read one reply framed by ``codec``.

        Never resent: on a stream a second copy recovers nothing, as its
        read would return the late first reply.
        """
        self.limiter.acquire()
        sock.sendall(payload)
        return recv_frame(sock, codec, self.config.timeout)

    def probe_protocol(self, asset: Asset, port: int, sock: socket.socket) -> Asset:
        """Payload-level protocol confirmation on the port scan's open ``sock``, then enumeration on that session."""
        if PortSpec(port) not in asset.open_ports:
            raise ValueError(f"port {port} is not known open on {asset.ip}")
        protocol = PROTOCOL_PORTS[port]
        enumerate_ = {"modbus": self.enumerate_modbus, "s7comm": self.enumerate_s7, "enip": self.enumerate_enip}
        session = None
        try:
            session = self._open(asset.ip, port, sock, PROTOCOLS[protocol])
        except (DecodeError, FormatError) as exc:
            self._anomaly(f"{asset.ip}:{port} malformed reply during probe: {exc}")
        except (ConnectionRefusedByTsap, OSError):
            pass  # absence of evidence
        self._note(ScanPhase.SERVICE_IDENTIFICATION, asset.ip, f"probe:{port}")
        if session is None:
            return asset
        # a retry's connection was opened by this probe, so it closes here; ``sock`` is the caller's
        with session[0] if session[0] is not sock else contextlib.nullcontext():
            asset = self._merge(asset, protocols=frozenset({protocol}))
            if self._stop.is_set():
                return asset
            try:
                return enumerate_[protocol](asset, session)
            except (IcsReconError, OSError) as exc:
                self._anomaly(f"enumeration failed for {asset.ip}/{protocol}: {exc}")
                return asset

    def _open(self, ip: str, port: int, sock: socket.socket, codec) -> Session | None:
        """The codec's opening requests in order until one is confirmed; None if a retry cannot connect.

        The first goes on the port scan's ``sock``, each later one on a new connection.
        """
        for index, request in enumerate(codec.opening_requests(self.config.modbus_unit)):
            if index:
                result = self._connect(ip, port)
                if result.sock is None:
                    return None
                sock = result.sock
            try:
                reply = self._exchange(sock, request, codec)
                codec.confirm(reply)
                return sock, reply
            except BaseException as exc:
                if index:
                    sock.close()  # a failed retry's own connection; a confirmed one is the probe's to close
                if not isinstance(exc, ConnectionRefusedByTsap):
                    raise
        raise ConnectionRefusedByTsap(f"{ip}:{port}: every opening request was refused")

    # -- phase 3: enumeration, on the probe's session, closed by its connection's opener ---

    def _converse(self, sock: socket.socket, codec, requests) -> tuple[list[bytes], bool]:
        """Each request the generator ``requests`` yields, sent and its reply sent back; the replies, and False if
        one did not arrive whole, which ends the session, as a late reply would answer the next request."""
        replies: list[bytes] = []
        with contextlib.suppress(StopIteration):
            request = next(requests)
            while True:
                try:
                    replies.append(self._exchange(sock, request, codec))
                except (OSError, FramingError):
                    return replies, False
                request = requests.send(replies[-1])
        return replies, True

    def _enumerate(self, asset: Asset, session: Session, codec, step: str) -> tuple[Asset, bool]:
        """The codec's enumeration on a confirmed protocol's session, its identity merged; and whether it is in step."""
        if codec.NAME not in asset.protocols:
            raise ValueError(f"{asset.ip}: {codec.NAME} not confirmed at protocol level")
        self._note(ScanPhase.ENUMERATION, asset.ip, step)
        sock, first = session
        replies, in_step = self._converse(sock, codec, codec.enumeration(self.config.modbus_unit, first))
        static_fields, deployment = codec.identity_fields([first, *replies])
        static, deploy = StaticDeviceInfo.from_fields(static_fields), DeploymentInfo.from_dict(deployment)
        if static is not None or deploy is not None:
            asset = self._merge(asset, static_info=static, deployment_info=deploy)
        return asset, in_step

    def enumerate_modbus(self, asset: Asset, session: Session) -> Asset:
        asset, in_step = self._enumerate(asset, session, modbus, "enumerate_modbus")
        if in_step and self.config.unit_id_sweep and not self.config.safe_mode:
            if unit_ids := ",".join(str(unit) for unit in self._sweep_units(session[0])):
                asset = self._merge(asset, deployment_info=DeploymentInfo.from_dict({"unit_ids": unit_ids}))
        return asset

    def _sweep_units(self, sock: socket.socket) -> list[int]:
        """Units 1..247 that answer FC 0x11, one request each, until the scan is cancelled or the stream breaks."""
        self._sweep_used = True
        requests = (modbus.build_report_slave_id_request(unit) for unit in range(1, 248) if not self._stop.is_set())
        replies = self._converse(sock, modbus, requests)[0]
        return [unit for unit, reply in enumerate(replies, start=1) if modbus.identity_fields([reply])[1]]

    def enumerate_s7(self, asset: Asset, session: Session) -> Asset:
        return self._enumerate(asset, session, s7, "enumerate_s7")[0]

    def enumerate_enip(self, asset: Asset, session: Session) -> Asset:
        return self._enumerate(asset, session, enip, "enumerate_enip")[0]

    # -- phase 4: vulnerability identification --------------------------------

    def _match_vulnerabilities(self, assets: list[Asset]) -> list[Asset]:
        from . import vulnmatch

        db = vulnmatch.load_db(self.config.vuln_db_path, alias_path=self.config.vuln_alias_path)

        def note(asset: Asset) -> None:
            self._note(ScanPhase.VULNERABILITY_IDENTIFICATION, asset.ip, "cve_match")

        return vulnmatch.enrich(assets, db, on_lookup=note)[0]

    # -- whole pipeline --------------------------------------------------------

    def _identify(self, asset: Asset) -> Asset:
        """Phases 2 and 3 on one host: each port scanned, then probed and enumerated on its own connection."""
        try:
            return self.scan_ports(asset)
        except (IcsReconError, OSError) as exc:
            self._anomaly(f"service_identification failed for {asset.ip}: {exc}")
            return asset

    def run(self) -> RunReport:
        started = time.monotonic()
        methods_used: list[str] = []
        assets: list[Asset] = []
        consulted = False
        try:
            with ThreadPoolExecutor(max_workers=self.config.workers) as pool:
                methods_used = self._usable_methods()
                assets = self.discover_hosts(pool)
                assets = list(pool.map(self._identify, assets))
            if self.config.vuln_db_path and not self._stop.is_set():
                assets = self._match_vulnerabilities(assets)
                consulted = True
        finally:
            if self._stop.is_set():
                self._anomaly("scan cancelled; emitting partial results")
            if self._recorder is not None:
                self._recorder.close()
        return RunReport(
            "active",
            Inventory(assets),
            anomalies=self.anomalies,
            duration_seconds=round(time.monotonic() - started, 6),
            packets_sent=self.limiter.granted,
            rate_limit_pps=self.config.rate_limit_pps,
            safe_mode=self.config.safe_mode,
            methods_used=sorted(methods_used),
            unit_id_sweep_used=self._sweep_used,
            vuln_db_consulted=consulted,
        )
