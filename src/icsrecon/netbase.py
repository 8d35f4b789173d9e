"""Transport abstraction between the scanner and a real or simulated net.

The scanner only ever talks through a :class:`Network`: ICMP/ARP
liveness checks plus TCP connections that yield ordinary socket
objects. The real implementation uses the operating system; the
simulator provides a drop-in replacement whose TCP connections are
genuine loopback sockets.
"""

from __future__ import annotations

import os
import socket
import struct
import time
from dataclasses import dataclass

from .errors import FramingError, PrivilegeRequired
from .pcapio import icmp_echo


@dataclass(frozen=True)
class ConnectResult:
    status: str  # "open" | "refused" | "timeout"
    sock: socket.socket | None = None


class Network:
    """Interface the scanner depends on; see RealNetwork / SimNetwork."""

    def require(self, method: str) -> None:
        """Raise PrivilegeRequired if the method is unavailable, ValueError if unknown."""
        if method not in ("icmp", "arp", "tcp_connect"):
            raise ValueError(f"unknown discovery method {method!r}")

    def ping(self, ip: str, timeout: float) -> bool:
        raise NotImplementedError

    def arp(self, ip: str, timeout: float) -> str | None:
        """Resolve a hardware address; None when nothing answers."""
        raise NotImplementedError

    def connect(self, ip: str, port: int, timeout: float) -> ConnectResult:
        raise NotImplementedError


class RealNetwork(Network):
    """Operating-system backed probes.

    TCP connect scans need no privilege. ICMP and ARP need raw
    sockets, so they are gated on effective uid and reported as
    PrivilegeRequired instead of failing obscurely at socket creation.
    """

    def require(self, method: str) -> None:
        super().require(method)
        if method in ("icmp", "arp") and os.geteuid() != 0:
            raise PrivilegeRequired(method)

    def ping(self, ip: str, timeout: float) -> bool:
        self.require("icmp")
        with socket.socket(socket.AF_INET, socket.SOCK_RAW, socket.IPPROTO_ICMP) as sock:
            sock.settimeout(timeout)
            ident = os.getpid() & 0xFFFF
            sock.sendto(icmp_echo(ident, 1), (ip, 0))
            deadline = time.monotonic() + timeout
            while time.monotonic() < deadline:
                try:
                    data, addr = sock.recvfrom(2048)
                except socket.timeout:
                    return False
                if addr[0] != ip or len(data) < 28:
                    continue
                icmp = data[20:]
                if icmp[0] == 0 and struct.unpack_from(">H", icmp, 4)[0] == ident:
                    return True
        return False

    def arp(self, ip: str, timeout: float) -> str | None:
        self.require("arp")
        # Kernel-mediated resolution: poke the address over UDP, then
        # read the neighbour cache instead of crafting AF_PACKET frames.
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
            sock.settimeout(timeout)
            try:
                sock.sendto(b"", (ip, 9))
            except OSError:
                return None
        time.sleep(min(timeout, 0.05))
        try:
            with open("/proc/net/arp", "r", encoding="ascii") as fh:
                for line in fh.readlines()[1:]:
                    fields = line.split()
                    if fields and fields[0] == ip and fields[3] != "00:00:00:00:00:00":
                        return fields[3]
        except OSError:
            return None
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
