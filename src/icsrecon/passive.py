"""Zero-packet asset extraction from mirrored traffic.

The analyzer never opens a sending socket: everything comes from pcap
records, a file's 256 KiB reads or a live interface's frames, which the
dissect loop walks in place. Each frame is dissected once, by offset:
one read at offset 12 gives its ethertype and IPv4 fields and, behind a
20-byte IPv4 header, its raw addresses and ports and its TCP fields, so
a TCP frame costs that read and one lookup, which finds its direction;
IPv4 options cost a second read of the TCP header. A frame stamps only
its direction, which holds its flow and its sender: each flow and sender
takes the latest of its directions' times once the walk ends. An IPv4
fragment with a nonzero offset carries no TCP header: it counts its
sender and opens no flow. A segment from or to port 0 is
malformed: it is counted as skipped and its sender still counts, and
this is checked only where a direction is opened. Addresses stay raw
bytes until they become text once per asset. Protocol claims need payload
evidence, never a port alone; identity replies are decoded by the
shared codecs, once per distinct reply set in a capture: a flow's
identity frames are named by their codec's ``identity_key``, which
leaves out per-exchange identifiers such as a Modbus transaction id,
and a set of keys seen before in the same capture reuses the fields it
decoded and cleaned then. Each address's evidence is folded flow by
flow, in first-frame order, memo hits included, into one ``model.Fold``,
the fold ``merge_observation`` runs, and frozen into one asset at the
end; a flow's displaced values are stamped with its own time, and
a flow is dropped once folded, so its buffers go. The report's
``levels_achieved`` counts each level on its own evidence. Reassembly is
in-order per direction, capped at 64 KiB, and done in the dissect loop
itself: an in-order segment is sliced from its chunk straight into its
direction's buffer, and past the cap it only advances the sequence
number; a SYN or a FIN takes one sequence number there too. Out-of-order
segments are dropped and counted; retransmissions are ignored.
"""

from __future__ import annotations

import os
import struct
import threading
import time
from typing import Iterable, Iterator, NamedTuple

from .codecs import PROTOCOLS, cut_frames
from .errors import PrivilegeRequired
from .model import Fold, Inventory, PortSpec, RunReport, clean_deployment, clean_static
from .ouidb import vendor_for_mac
from .pcapio import (
    ARP_LENGTH,
    CaptureReader,
    ETHERNET_HEADER,
    ETHERTYPE_ARP,
    ETHERTYPE_IPV4,
    PROTO_TCP,
    RECORD_FIELDS,
    RECORD_HEADER,
    TCP_ACK,
    TCP_FIN,
    TCP_SYN,
    ip_text,
    mac_text,
    record_tail,
)

REASSEMBLY_CAP = 64 * 1024
WELL_KNOWN_SERVER_PORTS = frozenset({*(codec.PORT for codec in PROTOCOLS.values()), 20000})  # 20000: DNP3


class PcapFile(NamedTuple):
    path: str


class LiveInterface:
    """A live interface, read through an AF_PACKET socket: its chunks are one nanosecond pcap record per frame.

    The chunks end once ``stop`` is set: a socket with no frame to read looks at it every ``poll_s`` seconds.
    """

    __slots__ = ("name", "stop")
    record_header = struct.Struct("<" + RECORD_FIELDS)
    divisor = 1e9
    poll_s = 0.25

    def __init__(self, name: str, stop: threading.Event | None = None):
        self.name = name
        self.stop = threading.Event() if stop is None else stop

    def chunks(self) -> Iterator[bytes]:
        import socket  # here, so that reading a pcap file never loads it

        if os.geteuid() != 0:
            raise PrivilegeRequired("live_capture")
        sock = socket.socket(socket.AF_PACKET, socket.SOCK_RAW, socket.htons(0x0003))
        sock.bind((self.name, 0))
        sock.settimeout(self.poll_s)
        pack = self.record_header.pack
        try:
            while not self.stop.is_set():
                try:
                    frame = sock.recv(65536)
                except TimeoutError:  # no frame yet
                    continue
                now = time.time_ns()
                yield pack(now // 1_000_000_000, now % 1_000_000_000, len(frame), len(frame)) + frame
        finally:
            sock.close()


CaptureSource = PcapFile | LiveInterface


def _frames(protocol: str | None, data: bytes) -> list[bytes]:
    """Complete frames cut off the front of ``data`` by the protocol's frame rule."""
    codec = PROTOCOLS.get(protocol)
    return cut_frames(data, codec.HEADER_SIZE, codec.frame_size)[0] if codec else []


def classify_flow(data: bytes) -> tuple[str | None, list[bytes]]:
    """Payload-level protocol classification of one direction, and its frames.

    The first codec to claim the first of at least one complete frame wins;
    (None, []) when none does (ports are deliberately ignored). DNP3 is
    recognised by its start bytes and not cut.
    """
    for protocol, codec in PROTOCOLS.items():
        frames = _frames(protocol, data)
        if frames and codec.claims(frames[0]):
            return protocol, frames
    return ("dnp3" if data[:2] == b"\x05\x64" else None), []


class _Direction:
    __slots__ = ("next_seq", "buffer", "capped", "flow", "seen", "last_seen")

    def __init__(self):
        self.next_seq: int | None = None
        self.buffer = bytearray()
        self.capped = False
        self.flow: _Flow | None = None  # set, with ``seen``, when a frame opens the direction
        self.seen: list | None = None  # its sender's [raw MAC, last seen] entry; None for the unnumbered address
        self.last_seen = 0.0


def _seq_after(a: int, b: int) -> bool:
    return ((a - b) & 0xFFFFFFFF) < 0x80000000 and a != b


class _Flow:
    """One TCP connection: its endpoints, in first-frame order, and the direction each one sends."""

    __slots__ = ("endpoints", "forward", "reverse", "client", "out_of_order", "last_seen")

    def __init__(self, first: tuple[bytes, int], second: tuple[bytes, int]):
        self.endpoints = (first, second)
        self.forward = _Direction()  # sent by ``first``
        self.reverse = _Direction()  # sent by ``second``
        self.client: tuple[bytes, int] | None = None
        self.out_of_order = 0
        self.last_seen = 0.0

    def direction(self, sender: tuple[bytes, int]) -> _Direction:
        return self.forward if sender == self.endpoints[0] else self.reverse

    def server(self) -> tuple[bytes, int]:
        if self.client is not None:
            first, second = self.endpoints
            return second if self.client == first else first
        # without a SYN, ties go to the address that sorts first as text:
        # 10.0.0.10 before 10.0.0.9, unlike their raw bytes
        ordered = sorted(self.endpoints, key=lambda e: (ip_text(e[0]), e[1]))
        known = [endpoint for endpoint in ordered if endpoint[1] in WELL_KNOWN_SERVER_PORTS]
        return known[0] if known else min(ordered, key=lambda e: e[1])

    def classify(self) -> tuple[str | None, tuple[bytes, int], list[bytes]]:
        """The flow's protocol, its server and the server's frames, each direction cut once."""
        server = self.server()
        sent = self.direction(server)
        protocol, replies = classify_flow(sent.buffer)
        if protocol is None:
            protocol, _requests = classify_flow((self.reverse if sent is self.forward else self.forward).buffer)
            replies = _frames(protocol, sent.buffer)
        return protocol, server, replies


_NO_IDENTITY: tuple[tuple, tuple] = ((), ())
_PASSIVE = frozenset({"passive"})


def _identity_items(memo: dict, codec, replies: list[bytes]) -> tuple[tuple, tuple]:
    """A flow's cleaned static items and its cleaned deployment items sorted by key, as ``Fold.add`` takes them.

    ``memo`` holds one capture's items by the codec and the ``identity_key`` of each identity frame, in order:
    a set of keys not seen before is decoded, from its identity frames alone, and cleaned, once.
    """
    identity_key = codec.identity_key
    keys, frames = [], []
    for wire in replies:  # the one walk over the flow's frames
        key = identity_key(wire)
        if key is not None:
            keys.append(key)
            frames.append(wire)
    if not keys:
        return _NO_IDENTITY
    memo_key = (codec, *keys)
    items = memo.get(memo_key)
    if items is None:
        static, deployment = codec.identity_fields(frames)
        static = clean_static(static) if static else None
        items = memo[memo_key] = (
            tuple(static.items()) if static else (),
            tuple(sorted(clean_deployment(deployment.items()).items())) if deployment else (),
        )
    return items


_HEADERS = struct.Struct(">HBxH2xHxB2x12sI4xBB")  # from offset 12: Ethernet and IPv4, then TCP behind 20 bytes
_NO_ADDRESS = b"\x00\x00\x00\x00"


def _saw(senders: dict[bytes, list], sender: bytes, mac: bytes, when: float) -> list | None:
    """Note a frame from ``sender``; its [raw MAC, last seen] entry, None for the unnumbered address."""
    entry = senders.get(sender)
    if entry is None:
        if sender != _NO_ADDRESS:
            entry = senders[sender] = [mac, when]
    elif when > entry[1]:
        entry[1] = when
    return entry


def _open_direction(table: dict, flows: list[_Flow], key: bytes, seen: list | None) -> _Direction | None:
    """Register the direction a raw key names, with its sender: the reverse of a known flow's first, or a new flow's.

    None for a segment from or to port 0, which no connection uses: it is malformed.
    """
    known = table.get(key[4:8] + key[:4] + key[10:12] + key[8:10])
    if known is None:
        src_port, dst_port = struct.unpack_from(">HH", key, 8)
        if not (src_port and dst_port):
            return None
        flow = _Flow((key[:4], src_port), (key[4:8], dst_port))
        flows.append(flow)
        direction = flow.forward
    else:
        flow = known.flow
        direction = flow.reverse
    direction.flow, direction.seen = flow, seen
    table[key] = direction
    return direction


def _dissect(
    chunks: Iterable[bytes], record_header: struct.Struct, divisor: float
) -> tuple[dict[bytes, list], list[_Flow], int, int]:
    """Senders (raw IPv4 -> [raw MAC, last seen]), flows in first-frame order, frames read and frames skipped.

    ``chunks`` of at most ``pcapio.READ_SIZE`` bytes hold pcap records laid out by ``record_header``, with
    ``divisor`` fraction ticks a second, walked in place. One pass by offset, under ``pcapio.ipv4_span``'s
    and ``pcapio.tcp_data_start``'s rules; an IPv4 fragment with a nonzero offset is not read as TCP. One read
    gives a frame's headers; a TCP frame stamps its direction alone, and each flow and sender takes the latest
    time of its directions once the walk ends.
    """
    senders: dict[bytes, list] = {}
    table: dict[bytes, _Direction] = {}  # raw source and destination IPv4, source and destination port -> direction
    flows: list[_Flow] = []
    frames_read = skipped = 0
    fields, unpack = _HEADERS.unpack_from, record_header.unpack_from
    tail = b""
    for chunk in chunks:
        if tail:
            chunk = tail + chunk
        at, chunk_size = 0, len(chunk)
        last = chunk_size - RECORD_HEADER
        while at <= last:
            sec, frac, size, _orig = unpack(chunk, at)
            offset = at + RECORD_HEADER
            at = offset + size
            if at > chunk_size:  # the record goes on in the next chunk
                at = offset - RECORD_HEADER
                break
            when = sec + frac / divisor
            frames_read += 1
            if size < ETHERNET_HEADER:  # no ethertype
                skipped += 1
                continue
            ethertype, version_ihl, total, fragment, protocol, key, seq, data_offset, flags = (
                fields(chunk, offset + 12) if size >= ETHERNET_HEADER + 40  # one read of both headers; a shorter
                else fields(chunk[offset:at] + bytes(40), 12))  # frame reads padded, the bounds below keep to it
            if version_ihl == 0x45 and ethertype == ETHERTYPE_IPV4 and total >= 20 and size >= ETHERNET_HEADER + 20:
                start = offset + ETHERNET_HEADER + 20  # the common IPv4 header, read with the TCP key and fields
            else:
                if ethertype != ETHERTYPE_IPV4:
                    if ethertype == ETHERTYPE_ARP and size >= ETHERNET_HEADER + ARP_LENGTH:  # ARP sender IPv4 and MAC
                        _saw(senders, chunk[offset + 28 : offset + 32], chunk[offset + 22 : offset + 28], when)
                    continue
                ihl = (version_ihl & 0x0F) * 4
                if not 0x45 <= version_ihl <= 0x4F or size < ETHERNET_HEADER + ihl or total < ihl:  # IPv4, IHL >= 5
                    skipped += 1
                    continue
                start = offset + ETHERNET_HEADER + ihl  # behind IPv4 options: read again as if they were cut out
                *_, key, seq, data_offset, flags = fields(chunk[offset : offset + 34] + chunk[start:at] + bytes(20), 12)
            if protocol == PROTO_TCP and not fragment & 0x1FFF:  # a later fragment carries no TCP header
                end = offset + ETHERNET_HEADER + total
                if end > at:
                    end = at
                data = start + (data_offset >> 4) * 4
                if start + 20 <= data <= end:
                    direction = table.get(key)
                    if direction is None:
                        seen = _saw(senders, chunk[offset + 26 : offset + 30], chunk[offset + 6 : offset + 12], when)
                        direction = _open_direction(table, flows, key, seen)
                        if direction is None:
                            skipped += 1  # a port 0; its sender counted
                            continue
                    if when > direction.last_seen:
                        direction.last_seen = when
                    # the SYN and the FIN each take one sequence number, in order or to start the direction
                    if flags & TCP_SYN:
                        flow = direction.flow
                        if flow.client is None and not (flags & TCP_ACK):
                            flow.client = flow.endpoints[direction is flow.reverse]
                        next_seq = direction.next_seq
                        if next_seq is None or seq == next_seq:
                            direction.next_seq = (seq + 1) & 0xFFFFFFFF
                    if data < end:
                        next_seq = direction.next_seq
                        if next_seq is None or seq == next_seq:  # in order: keep what fits under the cap
                            if not direction.capped:
                                buffer = direction.buffer
                                room = REASSEMBLY_CAP - len(buffer)
                                if end - data > room:
                                    buffer += chunk[data : data + room]
                                    direction.capped = True
                                else:
                                    buffer += chunk[data:end]
                            direction.next_seq = (seq + end - data) & 0xFFFFFFFF
                        elif _seq_after(seq, next_seq):
                            direction.flow.out_of_order += 1  # dropped, by design
                        # else: a retransmission of data already consumed; ignored
                    if flags & TCP_FIN:
                        fin = (seq + end - data) & 0xFFFFFFFF
                        next_seq = direction.next_seq
                        if next_seq is None or fin == next_seq:
                            direction.next_seq = (fin + 1) & 0xFFFFFFFF
                    continue
                skipped += 1  # a malformed TCP header; its sender still counts
            _saw(senders, chunk[offset + 26 : offset + 30], chunk[offset + 6 : offset + 12], when)  # IPv4, MAC sources
        tail = record_tail(chunk, at, unpack)
        if tail is None:
            break
    if tail != b"":  # a record over the bound, or one cut short by the end of the stream
        skipped += 1
    for direction in table.values():  # each frame stamped its direction alone: its flow and sender take the latest
        flow, seen, when = direction.flow, direction.seen, direction.last_seen
        direction.flow = None  # no cycle is left, so a flow's buffers go with its last reference
        if when > flow.last_seen:
            flow.last_seen = when
        if seen is not None and when > seen[1]:
            seen[1] = when
    return senders, flows, frames_read, skipped


def analyze_capture(source: CaptureSource) -> RunReport:
    """Single pass over the capture; builds the passive inventory."""
    reader = CaptureReader(source.path) if isinstance(source, PcapFile) else source
    senders, flows, frames_read, skipped = _dissect(reader.chunks(), reader.record_header, reader.divisor)

    folds = {raw_ip: Fold(ip_text(raw_ip), last, mac := mac_text(raw_mac), vendor_for_mac(mac), _PASSIVE)
             for raw_ip, (raw_mac, last) in senders.items()}
    classified = 0
    out_of_order = 0
    memo: dict[tuple, tuple[tuple, tuple]] = {}  # this capture's identity replies, each distinct set decoded once
    port_specs: dict[int, tuple[PortSpec]] = {}  # one PortSpec per server port in the capture
    for position, flow in enumerate(flows):
        flows[position] = None  # the last reference: its buffers go before the next flow's frames are cut
        out_of_order += flow.out_of_order
        protocol, (raw_server, server_port), replies = flow.classify()
        if protocol is None:
            continue
        classified += 1
        server = folds.get(raw_server)
        if server is None:
            continue  # never transmitted; do not invent an asset
        codec = PROTOCOLS.get(protocol)  # None for DNP3: recognised, never decoded
        identity = _identity_items(memo, codec, replies) if codec else _NO_IDENTITY
        port = port_specs.get(server_port) or port_specs.setdefault(server_port, (PortSpec(server_port),))
        server.add(flow.last_seen, "passive", port, (protocol,), *identity)

    return RunReport(
        "passive",
        Inventory(fold.freeze() for fold in folds.values()),
        nature="real_time" if isinstance(source, LiveInterface) else "offline",
        source=source.path if isinstance(source, PcapFile) else source.name,
        frames_read=frames_read,
        frames_skipped=skipped,
        out_of_order_segments=out_of_order,
        classified_flows=classified,
    )
