"""Transport abstraction between the scanner and a real or simulated net.

The scanner only ever talks through a :class:`Network`: ICMP/ARP
liveness checks, which addresses ARP can reach, plus TCP connections
that yield socket objects. The real implementation uses the operating
system; the simulator's drop-in replacement hands out in-memory
connections with the socket methods the scanner calls.
"""

from __future__ import annotations

import contextlib
import ipaddress
import os
import socket
import struct
import threading
import time
from typing import NamedTuple

from .errors import FramingError, PrivilegeRequired
from .pcapio import BROADCAST_MAC, ETHERTYPE_ARP, arp_frame, icmp_echo, mac_text, parse_arp, parse_ethernet

RTF_UP = 0x0001
ARPHRD_ETHER = 1  # hardware type of an Ethernet interface, the only kind ARP runs on here


class ConnectResult(NamedTuple):
    status: str  # "open" | "refused" | "timeout"
    sock: socket.socket | None = None  # or the simulator's in-memory stand-in


class Network:
    """Interface the scanner depends on; see RealNetwork / SimNetwork."""

    def source_for(self, ip: str) -> str:
        """The scanner's address in a packet to ``ip``: here the ``source_ip`` the network states."""
        return self.source_ip

    def require(self, method: str) -> None:
        """Raise PrivilegeRequired if the method is unavailable, ValueError if unknown."""
        if method not in ("icmp", "arp", "tcp_connect"):
            raise ValueError(f"unknown discovery method {method!r}")

    def on_link(self, ip: str) -> bool:
        """Can ARP reach ``ip``? A network that states no routes is one link."""
        return True

    def ping(self, ip: str, timeout: float) -> bool:
        raise NotImplementedError

    def arp(self, ip: str, timeout: float) -> str | None:
        """Resolve a hardware address; None when a request was sent and nothing answered.

        OSError when the request could not be sent or its reply not read:
        that is no answer, so the caller may still try routed methods.
        """
        raise NotImplementedError

    def connect(self, ip: str, port: int, timeout: float) -> ConnectResult:
        raise NotImplementedError


def link_routes(text: str) -> list[tuple[int, int, str]]:
    """Directly connected routes of a ``/proc/net/route`` text as (network, mask, interface), most specific first.

    A route is direct when it is up, has no gateway and a mask other
    than 0; the kernel prints addresses as hex of the in-memory
    (network-order) word, so they are read back in native order.
    """
    routes = []
    for line in text.splitlines()[1:]:
        fields = line.split()
        try:
            iface, destination, gateway, flags, mask = fields[0], fields[1], fields[2], fields[3], fields[7]
            network, netmask = (int.from_bytes(struct.pack("=I", int(v, 16)), "big") for v in (destination, mask))
            direct = int(gateway, 16) == 0 and int(flags, 16) & RTF_UP != 0 and netmask != 0
        except (IndexError, ValueError, struct.error):
            continue
        if direct:
            routes.append((network & netmask, netmask, iface))
    return sorted(routes, key=lambda route: route[1], reverse=True)


def _replies(sock: socket.socket, deadline: float):
    """Each datagram read before the ``time.monotonic()`` deadline; every read waits only the time left."""
    while (remaining := deadline - time.monotonic()) > 0:
        sock.settimeout(remaining)
        try:
            yield sock.recvfrom(2048)
        except socket.timeout:
            return


class RealNetwork(Network):
    """Operating-system backed probes.

    TCP connect scans need no privilege. ICMP and ARP need raw
    sockets, so they are gated on effective uid and reported as
    PrivilegeRequired instead of failing obscurely at socket creation.
    ARP reaches the directly connected routes of ``route_path`` whose
    interface is Ethernet by its ``<interface_path>/<name>/type``, read
    once, on first use. A tun, WireGuard or other point-to-point link has
    no ARP, so its routes are off-link, as is every address when the
    table cannot be read.
    """

    def __init__(self, route_path: str = "/proc/net/route", interface_path: str = "/sys/class/net"):
        self.route_path = route_path
        self.interface_path = interface_path
        self._routes: list[tuple[int, int, str]] | None = None
        self._routes_lock = threading.Lock()

    def require(self, method: str) -> None:
        super().require(method)
        if method in ("icmp", "arp") and os.geteuid() != 0:
            raise PrivilegeRequired(method)

    def _interface_for(self, ip: str) -> str | None:
        """The interface of the most specific direct route holding ``ip``; None when it is off-link."""
        with self._routes_lock:
            if self._routes is None:
                try:
                    with open(self.route_path, "r", encoding="ascii") as fh:
                        routes = link_routes(fh.read())
                except (OSError, UnicodeDecodeError):
                    routes = []
                self._routes = [route for route in routes if self._is_ethernet(route[2])]
        address = int(ipaddress.IPv4Address(ip))
        return next((iface for network, mask, iface in self._routes if address & mask == network), None)

    def _is_ethernet(self, iface: str) -> bool:
        try:
            with open(os.path.join(self.interface_path, iface, "type"), "r", encoding="ascii") as fh:
                return int(fh.read()) == ARPHRD_ETHER
        except (OSError, UnicodeDecodeError, ValueError):
            return False

    def on_link(self, ip: str) -> bool:
        return self._interface_for(ip) is not None

    def source_for(self, ip: str) -> str:
        """The address the routing table sends from to ``ip``; a UDP connect picks it and sends nothing."""
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as udp, contextlib.suppress(OSError):
            udp.connect((ip, 9))
            return udp.getsockname()[0]
        return "0.0.0.0"  # no route reaches ip, so nothing was sent to it

    def ping(self, ip: str, timeout: float) -> bool:
        self.require("icmp")
        with socket.socket(socket.AF_INET, socket.SOCK_RAW, socket.IPPROTO_ICMP) as sock:
            ident = os.getpid() & 0xFFFF
            deadline = time.monotonic() + timeout
            sock.sendto(icmp_echo(ident, 1), (ip, 0))
            for data, addr in _replies(sock, deadline):
                start = (data[0] & 0x0F) * 4 if data else 0  # the IPv4 header carries options when IHL > 5
                if addr[0] != ip or start < 20 or len(data) < start + 8:
                    continue
                if data[start] == 0 and struct.unpack_from(">H", data, start + 4)[0] == ident:
                    return True
        return False

    def arp(self, ip: str, timeout: float) -> str | None:
        """One ARP request on the route's interface; the first reply from ``ip`` before the deadline.

        A socket error (no CAP_NET_RAW, an interface that is gone or down)
        propagates as OSError: only a request that was sent can go unanswered.
        """
        self.require("arp")
        iface = self._interface_for(ip)
        if iface is None:
            return None
        deadline = time.monotonic() + timeout
        source_ip = self.source_for(ip)
        with socket.socket(socket.AF_PACKET, socket.SOCK_RAW, socket.htons(ETHERTYPE_ARP)) as sock:
            sock.bind((iface, ETHERTYPE_ARP))
            _name, _proto, _kind, hatype, hardware = sock.getsockname()
            if hatype != ARPHRD_ETHER or len(hardware) != 6:
                raise OSError(f"{iface} is not an Ethernet interface (hardware type {hatype}); ARP cannot run on it")
            sock.send(arp_frame(1, mac_text(hardware), source_ip, BROADCAST_MAC, ip))
            for frame, _addr in _replies(sock, deadline):
                eth = parse_ethernet(frame)
                reply = parse_arp(eth.payload) if eth is not None and eth.ethertype == ETHERTYPE_ARP else None
                if reply is not None and reply.op == 2 and reply.sender_ip == ip:
                    return reply.sender_mac
        return None

    def connect(self, ip: str, port: int, timeout: float) -> ConnectResult:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.settimeout(timeout)
        try:
            sock.connect((ip, port))
            return ConnectResult("open", sock)
        except (ConnectionRefusedError, ConnectionResetError):
            sock.close()
            return ConnectResult("refused")
        except (socket.timeout, OSError):
            sock.close()
            return ConnectResult("timeout")


def recv_exactly(sock: socket.socket, count: int, deadline: float) -> bytes:
    """Read exactly ``count`` bytes by the ``time.monotonic()`` deadline or raise socket.timeout."""
    chunks = bytearray()
    while len(chunks) < count:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise socket.timeout("read deadline exceeded")
        sock.settimeout(remaining)
        chunk = sock.recv(count - len(chunks))
        if not chunk:
            raise socket.timeout("peer closed before frame completed")
        chunks += chunk
    return bytes(chunks)


def recv_frame(sock: socket.socket, codec, timeout: float) -> bytes:
    """Read one frame by the codec's frame rule within one ``timeout``; FramingError when the header cannot start one."""
    deadline = time.monotonic() + timeout
    head = recv_exactly(sock, codec.HEADER_SIZE, deadline)
    size = codec.frame_size(head)
    if size is None:
        raise FramingError(f"{codec.__name__}: {head.hex()} cannot start a frame")
    return head + recv_exactly(sock, size - len(head), deadline)
