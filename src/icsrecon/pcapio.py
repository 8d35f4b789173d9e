"""Classic libpcap file I/O and minimal Ethernet/IPv4/TCP frames.

The reader accepts both byte orders and both tick resolutions
(microsecond magic 0xA1B2C3D4, nanosecond 0xA1B23C4D), as records or
as raw chunks; malformed records are counted and end the stream, never
raising. The writer emits little-endian microsecond files with Ethernet
link type.

Frame builders synthesize honest ARP/ICMP/TCP traffic (checksums
included) so recorded captures look like mirror-port output; the
:class:`TrafficRecorder` tracks per-connection sequence numbers.
"""

from __future__ import annotations

import struct
import threading
import time
from typing import BinaryIO, Callable, Iterator, NamedTuple

from .errors import FormatError

MAGIC_MICROS = 0xA1B2C3D4
MAGIC_NANOS = 0xA1B23C4D
LINKTYPE_ETHERNET = 1
SNAPLEN = 65535
RECORD_FIELDS = "IIII"  # a record header: seconds, fraction, captured length, original length
RECORD_HEADER = 16
MAX_RECORD = 262_144  # libpcap's MAXIMUM_SNAPLEN, tcpdump's default snaplen
# Each read of a capture's records. At most MAX_RECORD + RECORD_HEADER, it cannot hold a whole record over
# the bound after a carried one, so a walk checks the bound only in ``record_tail``.
READ_SIZE = 256 * 1024

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_ARP = 0x0806

ETHERNET_HEADER = 14  # destination MAC, source MAC, ethertype
ARP_LENGTH = 28  # an Ethernet/IPv4 ARP message

PROTO_ICMP = 1
PROTO_TCP = 6

TCP_FIN = 0x01
TCP_SYN = 0x02
TCP_RST = 0x04
TCP_PSH = 0x08
TCP_ACK = 0x10

BROADCAST_MAC = "ff:ff:ff:ff:ff:ff"


def mac_bytes(mac: str) -> bytes:
    return bytes(int(part, 16) for part in mac.split(":"))


def mac_text(raw: bytes) -> str:
    return raw.hex(":")


def ip_bytes(ip: str) -> bytes:
    return bytes(int(part) for part in ip.split("."))


def ip_text(raw: bytes) -> str:
    return ".".join(map(str, raw))


def inet_checksum(data: bytes) -> int:
    if len(data) % 2:
        data += b"\x00"
    total = sum(struct.unpack(f">{len(data) // 2}H", data))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def ethernet(dst_mac: str, src_mac: str, ethertype: int, payload: bytes) -> bytes:
    return mac_bytes(dst_mac) + mac_bytes(src_mac) + struct.pack(">H", ethertype) + payload


def arp_frame(op: int, sender_mac: str, sender_ip: str, target_mac: str, target_ip: str) -> bytes:
    body = struct.pack(">HHBBH", 1, ETHERTYPE_IPV4, 6, 4, op)
    body += mac_bytes(sender_mac) + ip_bytes(sender_ip)
    body += mac_bytes("00:00:00:00:00:00" if op == 1 else target_mac) + ip_bytes(target_ip)
    dst = BROADCAST_MAC if op == 1 else target_mac
    return ethernet(dst, sender_mac, ETHERTYPE_ARP, body)


def ipv4(src_ip: str, dst_ip: str, proto: int, payload: bytes, ident: int = 0) -> bytes:
    header = struct.pack(
        ">BBHHHBBH4s4s",
        0x45, 0, 20 + len(payload), ident, 0, 64, proto, 0, ip_bytes(src_ip), ip_bytes(dst_ip),
    )
    checksum = inet_checksum(header)
    header = header[:10] + struct.pack(">H", checksum) + header[12:]
    return header + payload


def icmp_echo(ident: int, seq: int, reply: bool = False, data: bytes = b"icsrecon") -> bytes:
    kind = 0 if reply else 8
    head = struct.pack(">BBHHH", kind, 0, 0, ident, seq)
    checksum = inet_checksum(head + data)
    return struct.pack(">BBHHH", kind, 0, checksum, ident, seq) + data


def tcp_segment(
    src_ip: str,
    dst_ip: str,
    src_port: int,
    dst_port: int,
    seq: int,
    ack: int,
    flags: int,
    payload: bytes = b"",
) -> bytes:
    header = struct.pack(
        ">HHIIBBHHH", src_port, dst_port, seq & 0xFFFFFFFF, ack & 0xFFFFFFFF,
        5 << 4, flags, 8192, 0, 0,
    )
    pseudo = ip_bytes(src_ip) + ip_bytes(dst_ip) + struct.pack(">BBH", 0, PROTO_TCP, len(header) + len(payload))
    checksum = inet_checksum(pseudo + header + payload)
    header = header[:16] + struct.pack(">H", checksum) + header[18:]
    return header + payload


class EthernetFrame(NamedTuple):
    dst_mac: str
    src_mac: str
    ethertype: int
    payload: bytes


class ArpMessage(NamedTuple):
    op: int
    sender_mac: str
    sender_ip: str
    target_ip: str


class Ipv4Packet(NamedTuple):
    src_ip: str
    dst_ip: str
    proto: int
    payload: bytes


class TcpSegment(NamedTuple):
    src_port: int
    dst_port: int
    seq: int
    ack: int
    flags: int
    payload: bytes


def parse_ethernet(frame: bytes) -> EthernetFrame | None:
    if len(frame) < ETHERNET_HEADER:
        return None
    ethertype = struct.unpack_from(">H", frame, 12)[0]
    return EthernetFrame(mac_text(frame[:6]), mac_text(frame[6:12]), ethertype, bytes(frame[ETHERNET_HEADER:]))


def parse_arp(payload: bytes) -> ArpMessage | None:
    if len(payload) < ARP_LENGTH:
        return None
    op = struct.unpack_from(">H", payload, 6)[0]
    return ArpMessage(
        op=op,
        sender_mac=mac_text(payload[8:14]),
        sender_ip=ip_text(payload[14:18]),
        target_ip=ip_text(payload[24:28]),
    )


def ipv4_span(buf: bytes, at: int) -> tuple[int, int] | None:
    """Payload (start, end) of the IPv4 packet at ``buf[at:]``, cut to the bytes captured; None if malformed."""
    size = len(buf) - at
    if size < 20 or buf[at] >> 4 != 4:
        return None
    ihl = (buf[at] & 0x0F) * 4
    if ihl < 20 or size < ihl:
        return None
    total = buf[at + 2] << 8 | buf[at + 3]
    if total < ihl:
        return None
    return at + ihl, at + min(total, size)


def tcp_data_start(buf: bytes, at: int, end: int) -> int | None:
    """Payload offset of the TCP segment in ``buf[at:end]``; None if its header is malformed.

    A segment from or to port 0 is malformed: no connection uses that port.
    """
    if end - at < 20 or 0 in struct.unpack_from(">HH", buf, at):
        return None
    offset = (buf[at + 12] >> 4) * 4
    if offset < 20 or end - at < offset:
        return None
    return at + offset


def parse_ipv4(payload: bytes) -> Ipv4Packet | None:
    span = ipv4_span(payload, 0)
    if span is None:
        return None
    return Ipv4Packet(
        src_ip=ip_text(payload[12:16]),
        dst_ip=ip_text(payload[16:20]),
        proto=payload[9],
        payload=bytes(payload[span[0] : span[1]]),
    )


def parse_tcp(payload: bytes) -> TcpSegment | None:
    start = tcp_data_start(payload, 0, len(payload))
    if start is None:
        return None
    src_port, dst_port, seq, ack = struct.unpack_from(">HHII", payload)
    return TcpSegment(src_port, dst_port, seq, ack, payload[13], bytes(payload[start:]))


class PcapWriter:
    """Little-endian microsecond libpcap writer; thread-safe."""

    def __init__(self, target: str | BinaryIO):
        self._own = isinstance(target, (str, bytes))
        self._fh: BinaryIO = open(target, "wb") if self._own else target
        self._lock = threading.Lock()
        self._fh.write(struct.pack("<IHHiIII", MAGIC_MICROS, 2, 4, 0, 0, SNAPLEN, LINKTYPE_ETHERNET))
        self._fh.flush()

    def write(self, timestamp: float, frame: bytes) -> None:
        sec = int(timestamp)
        usec = int(round((timestamp - sec) * 1_000_000))
        if usec >= 1_000_000:
            sec, usec = sec + 1, usec - 1_000_000
        record = struct.pack("<IIII", sec, usec, len(frame), len(frame)) + frame
        with self._lock:
            if self._fh.closed:
                return  # the capture has ended
            self._fh.write(record)
            self._fh.flush()

    def close(self) -> None:
        with self._lock:
            if self._own and not self._fh.closed:
                self._fh.close()


def record_tail(chunk: bytes, at: int, unpack) -> bytes | None:
    """The record cut at ``chunk[at:]``, carried into the next chunk; None if it is over MAX_RECORD.

    A walk stops at None, and counts one skipped record if it stops
    carrying anything but b"".
    """
    if len(chunk) - at >= RECORD_HEADER and unpack(chunk, at)[2] > MAX_RECORD:
        return None
    return chunk[at:]


class CaptureReader:
    """Iterates (timestamp, frame) records from a classic pcap file, or hands out its ``chunks``.

    Malformed records bump :attr:`skipped` and end the stream instead
    of raising; a wrong magic number, a truncated global header or a
    link type other than Ethernet is a FormatError up front.
    """

    def __init__(self, path: str):
        self.path = path
        self.skipped = 0
        with open(path, "rb") as fh:
            header = fh.read(24)
        if len(header) < 4:
            raise FormatError("capture file shorter than a pcap global header", offset=0)
        endian, nanos = self._classify_magic(header[:4])
        if len(header) < 24:
            raise FormatError("truncated pcap global header", offset=len(header))
        self.link_type = struct.unpack(endian + "I", header[20:24])[0]
        if self.link_type != LINKTYPE_ETHERNET:
            raise FormatError(f"link type {self.link_type} is not Ethernet ({LINKTYPE_ETHERNET})", offset=20)
        self.record_header = struct.Struct(endian + RECORD_FIELDS)
        self.divisor = 1e9 if nanos else 1e6  # fraction ticks per second

    @staticmethod
    def _classify_magic(raw: bytes) -> tuple[str, bool]:
        for endian in ("<", ">"):
            magic = struct.unpack(endian + "I", raw)[0]
            if magic == MAGIC_MICROS:
                return endian, False
            if magic == MAGIC_NANOS:
                return endian, True
        raise FormatError(f"not a libpcap capture (magic {raw.hex()})", offset=0)

    def chunks(self) -> Iterator[bytes]:
        """The bytes after the global header, READ_SIZE at a time."""
        with open(self.path, "rb") as fh:
            fh.seek(24)
            read = fh.read
            while chunk := read(READ_SIZE):
                yield chunk

    def __iter__(self) -> Iterator[tuple[float, bytes]]:
        unpack, divisor = self.record_header.unpack_from, self.divisor
        tail = b""
        for chunk in self.chunks():
            if tail:
                chunk = tail + chunk
            at, last = 0, len(chunk) - RECORD_HEADER
            while at <= last:
                sec, frac, incl, _orig = unpack(chunk, at)
                start = at + RECORD_HEADER
                if start + incl > len(chunk):
                    break
                at = start + incl
                yield sec + frac / divisor, chunk[start:at]
            tail = record_tail(chunk, at, unpack)
            if tail is None:
                break
        if tail != b"":
            self.skipped += 1


class TcpFlowRecord:
    """Sequence-tracked view of one TCP connection being recorded."""

    def __init__(self, recorder: "TrafficRecorder", client: tuple[str, int], server: tuple[str, int]):
        self._recorder = recorder
        self.client = client
        self.server = server
        self._client_seq = 1001
        self._server_seq = 42001
        self._open = False

    def handshake(self) -> None:
        rec, (cip, cport), (sip, sport) = self._recorder, self.client, self.server
        rec._tcp(cip, sip, cport, sport, self._client_seq - 1, 0, TCP_SYN)
        rec._tcp(sip, cip, sport, cport, self._server_seq - 1, self._client_seq, TCP_SYN | TCP_ACK)
        rec._tcp(cip, sip, cport, sport, self._client_seq, self._server_seq, TCP_ACK)
        self._open = True

    def refused(self) -> None:
        rec, (cip, cport), (sip, sport) = self._recorder, self.client, self.server
        rec._tcp(cip, sip, cport, sport, self._client_seq - 1, 0, TCP_SYN)
        rec._tcp(sip, cip, sport, cport, 0, self._client_seq, TCP_RST | TCP_ACK)

    def unanswered(self) -> None:
        (cip, cport), (sip, sport) = self.client, self.server
        self._recorder._tcp(cip, sip, cport, sport, self._client_seq - 1, 0, TCP_SYN)

    def client_payload(self, data: bytes) -> None:
        (cip, cport), (sip, sport) = self.client, self.server
        self._recorder._tcp(cip, sip, cport, sport, self._client_seq, self._server_seq, TCP_PSH | TCP_ACK, data)
        self._client_seq += len(data)

    def server_payload(self, data: bytes) -> None:
        (cip, cport), (sip, sport) = self.client, self.server
        self._recorder._tcp(sip, cip, sport, cport, self._server_seq, self._client_seq, TCP_PSH | TCP_ACK, data)
        self._server_seq += len(data)

    def close(self, reset: bool = False) -> None:
        if not self._open:
            return
        (cip, cport), (sip, sport) = self.client, self.server
        flags = TCP_RST | TCP_ACK if reset else TCP_FIN | TCP_ACK
        self._recorder._tcp(cip, sip, cport, sport, self._client_seq, self._server_seq, flags)
        self._open = False


class TrafficRecorder:
    """Synthesizes mirror-port style frames for everything it is told.

    All knowledge is logical (IPs, MACs, payload bytes); the recorder
    fabricates well-formed link/network/transport layers around it.
    """

    def __init__(self, writer: PcapWriter | None, clock: Callable[[], float] = time.time):
        self._writer = writer
        self._clock = clock
        self._lock = threading.Lock()
        self._macs: dict[str, str] = {}
        self._icmp_ident = 0
        self._ip_ident = 0

    def register_mac(self, ip: str, mac: str) -> None:
        self._macs[ip] = mac

    def mac_for(self, ip: str) -> str:
        mac = self._macs.get(ip)
        if mac is None:
            # locally administered placeholder derived from the address
            octets = ip_bytes(ip)
            mac = mac_text(bytes([0x02, 0x00]) + octets)
            self._macs[ip] = mac
        return mac

    def _emit(self, frame: bytes) -> None:
        if self._writer is not None:
            self._writer.write(self._clock(), frame)

    def _next_ip_ident(self) -> int:
        with self._lock:
            self._ip_ident = (self._ip_ident + 1) & 0xFFFF
            return self._ip_ident

    def arp_exchange(self, src_ip: str, target_ip: str, answered: bool) -> None:
        src_mac = self.mac_for(src_ip)
        self._emit(arp_frame(1, src_mac, src_ip, BROADCAST_MAC, target_ip))
        if answered:
            target_mac = self.mac_for(target_ip)
            self._emit(arp_frame(2, target_mac, target_ip, src_mac, src_ip))

    def icmp_echo_exchange(self, src_ip: str, dst_ip: str, answered: bool) -> None:
        with self._lock:
            self._icmp_ident = (self._icmp_ident + 1) & 0xFFFF
            ident = self._icmp_ident
        self._ip_payload(src_ip, dst_ip, PROTO_ICMP, icmp_echo(ident, 1, reply=False))
        if answered:
            self._ip_payload(dst_ip, src_ip, PROTO_ICMP, icmp_echo(ident, 1, reply=True))

    def _ip_payload(self, src_ip: str, dst_ip: str, proto: int, payload: bytes) -> None:
        packet = ipv4(src_ip, dst_ip, proto, payload, ident=self._next_ip_ident())
        self._emit(ethernet(self.mac_for(dst_ip), self.mac_for(src_ip), ETHERTYPE_IPV4, packet))

    def _tcp(self, src_ip: str, dst_ip: str, src_port: int, dst_port: int,
             seq: int, ack: int, flags: int, payload: bytes = b"") -> None:
        segment = tcp_segment(src_ip, dst_ip, src_port, dst_port, seq, ack, flags, payload)
        self._ip_payload(src_ip, dst_ip, PROTO_TCP, segment)

    def tcp_flow(self, client: tuple[str, int], server: tuple[str, int]) -> TcpFlowRecord:
        return TcpFlowRecord(self, client, server)
