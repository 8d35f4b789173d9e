"""Scanner-side audit capture: record every probe the scanner emits.

Wraps any :class:`Network` so that pings, ARP lookups, connection
attempts and all connection payloads are synthesized into a pcap file
from the scanner's own point of view. In simulator runs the station's
mirror-port recording is richer (it knows real device MACs); this
wrapper exists for real-network runs and for audit trails.
"""

from __future__ import annotations

import itertools
import socket

from .netbase import ConnectResult, Network
from .pcapio import PcapWriter, TcpFlowRecord, TrafficRecorder


class _RecordingSocket:
    """Socket facade that mirrors payload bytes into a flow record."""

    def __init__(self, sock: socket.socket, flow: TcpFlowRecord):
        self._sock = sock
        self._flow = flow

    def sendall(self, data: bytes) -> None:
        self._sock.sendall(data)
        self._flow.client_payload(data)

    def recv(self, size: int) -> bytes:
        data = self._sock.recv(size)
        if data:
            self._flow.server_payload(data)
        return data

    def settimeout(self, value: float | None) -> None:
        self._sock.settimeout(value)

    def close(self) -> None:
        self._flow.close()
        self._sock.close()

    def __enter__(self) -> "_RecordingSocket":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class RecordingNetwork(Network):
    """Network decorator writing an audit pcap of all probe traffic."""

    def __init__(self, inner: Network, pcap_path: str):
        self.inner = inner
        self._writer = PcapWriter(pcap_path)
        self.recorder = TrafficRecorder(self._writer)
        self._client_ports = itertools.cycle(range(47001, 64001))  # the scanner's side of a connection with no socket

    def close(self) -> None:
        """Finish the pcap; ``inner`` belongs to the caller."""
        self._writer.close()

    def require(self, method: str) -> None:
        self.inner.require(method)

    def on_link(self, ip: str) -> bool:
        return self.inner.on_link(ip)

    def ping(self, ip: str, timeout: float) -> bool:
        answered = self.inner.ping(ip, timeout)
        self.recorder.icmp_echo_exchange(self.inner.source_for(ip), ip, answered=answered)
        return answered

    def arp(self, ip: str, timeout: float) -> str | None:
        mac = self.inner.arp(ip, timeout)
        if mac:
            self.recorder.register_mac(ip, mac)
        self.recorder.arp_exchange(self.inner.source_for(ip), ip, answered=mac is not None)
        return mac

    def connect(self, ip: str, port: int, timeout: float) -> ConnectResult:
        result = self.inner.connect(ip, port, timeout)
        if isinstance(result.sock, socket.socket):  # a real connection, recorded from the address it was given
            source = result.sock.getsockname()
        else:
            source = (self.inner.source_for(ip), next(self._client_ports))
        flow = self.recorder.tcp_flow(source, (ip, port))
        if result.status == "open":
            flow.handshake()
            return ConnectResult("open", _RecordingSocket(result.sock, flow))
        if result.status == "refused":
            flow.refused()
        else:
            flow.unanswered()
        return result
