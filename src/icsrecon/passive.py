"""Zero-packet asset extraction from mirrored traffic.

The analyzer never opens a sending socket: everything is derived from
capture records (offline pcap files, or a live interface behind the
same reader seam). Classification needs payload evidence, a port
number alone is never enough for a protocol claim; identity-bearing
replies are parsed with the shared codecs and lift assets to static /
deployment depth. Flow reassembly is deliberately minimal: in-order
segment concatenation per direction with a 64 KiB cap, out-of-order
segments are dropped and counted.
"""

from __future__ import annotations

import os
import socket
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Any, ClassVar, Iterator

from .codecs import enip, modbus, s7
from .errors import IcsReconError, PrivilegeRequired
from .model import (
    DeploymentInfo,
    Inventory,
    Observation,
    PortSpec,
    StaticDeviceInfo,
    compute_depth,
    format_timestamp,
)
from .ouidb import load_enip_vendors, vendor_for_mac
from .pcapio import (
    CaptureReader,
    ETHERTYPE_ARP,
    ETHERTYPE_IPV4,
    PROTO_TCP,
    TCP_ACK,
    TCP_FIN,
    TCP_SYN,
    parse_arp,
    parse_ethernet,
    parse_ipv4,
    parse_tcp,
)

REASSEMBLY_CAP = 64 * 1024
WELL_KNOWN_SERVER_PORTS = (102, 502, 44818, 20000)


@dataclass(frozen=True)
class PcapFile:
    path: str


@dataclass(frozen=True)
class LiveInterface:
    """A live interface, read through an AF_PACKET socket by iterating it."""

    name: str
    promiscuous: bool = True
    skipped: ClassVar[int] = 0  # the kernel hands over whole frames

    def __iter__(self) -> Iterator[tuple[float, bytes]]:
        if os.geteuid() != 0:
            raise PrivilegeRequired("live_capture")
        sock = socket.socket(socket.AF_PACKET, socket.SOCK_RAW, socket.htons(0x0003))
        sock.bind((self.name, 0))
        try:
            while True:
                frame = sock.recv(65536)
                yield time.time(), frame
        finally:
            sock.close()


CaptureSource = PcapFile | LiveInterface


def read_capture(source: CaptureSource) -> CaptureReader | LiveInterface:
    """The source's (timestamp, link frame) records.

    The returned reader's ``skipped`` counts the malformed records it
    dropped without aborting the stream; a wrong magic number raises
    FormatError up front.
    """
    if isinstance(source, PcapFile):
        return CaptureReader(source.path)
    if isinstance(source, LiveInterface):
        return source
    raise TypeError(f"not a capture source: {source!r}")


def _frames(protocol: str | None, data: bytes) -> list[bytes]:
    """Complete frames cut off the front of ``data`` by the protocol's extractor."""
    if protocol == "modbus":
        return modbus.extract_frames(data)[0]
    if protocol == "s7comm":
        return s7.extract_tpkt_frames(data)[0]
    if protocol == "enip":
        return enip.extract_frames(data)[0]
    return []


def classify_flow(data: bytes) -> tuple[str | None, list[bytes]]:
    """Payload-level protocol classification of one direction, and its frames.

    Requires at least one complete frame of the protocol in question;
    returns (None, []) when nothing matches (ports are deliberately
    ignored). DNP3 is recognised by its start bytes and not cut.
    """
    for protocol in ("modbus", "s7comm", "enip"):
        frames = _frames(protocol, data)
        try:
            if frames and (protocol != "s7comm" or s7.decode_envelope(frames[0])):
                return protocol, frames
        except IcsReconError:
            continue  # TPKT-shaped bytes that do not carry COTP
    return ("dnp3" if data[:2] == b"\x05\x64" else None), []


def _identity_fields(protocol: str, replies: list[bytes]) -> tuple[dict[str, str], dict[str, str]]:
    if protocol == "modbus":
        return modbus.identity_fields(replies)
    if protocol == "s7comm":
        return s7.identity_fields(replies)
    if protocol == "enip":
        return enip.identity_fields(replies, load_enip_vendors())
    return {}, {}


class _Direction:
    __slots__ = ("next_seq", "buffer", "capped")

    def __init__(self):
        self.next_seq: int | None = None
        self.buffer = bytearray()
        self.capped = False

    def add(self, seq: int, payload: bytes, flow: "_Flow") -> None:
        if self.next_seq is None:
            self.next_seq = seq
        if seq == self.next_seq:
            if not self.capped:
                room = REASSEMBLY_CAP - len(self.buffer)
                self.buffer += payload[:room]
                if room < len(payload):
                    self.capped = True
            self.next_seq = (self.next_seq + len(payload)) & 0xFFFFFFFF
        elif _seq_after(seq, self.next_seq):
            flow.out_of_order += 1  # dropped, by design
        # else: retransmission of already-consumed data; ignore

    def bump(self, seq: int, amount: int) -> None:
        # SYN/FIN consume one sequence number without carrying data
        if self.next_seq is None or seq == self.next_seq:
            self.next_seq = ((seq if self.next_seq is None else self.next_seq) + amount) & 0xFFFFFFFF


def _seq_after(a: int, b: int) -> bool:
    return ((a - b) & 0xFFFFFFFF) < 0x80000000 and a != b


class _Flow:
    def __init__(self, low, high):
        self.endpoints = (low, high)
        self.dirs = {low: _Direction(), high: _Direction()}
        self.client: tuple[str, int] | None = None
        self.out_of_order = 0
        self.last_seen = 0.0

    def server(self) -> tuple[str, int]:
        low, high = self.endpoints
        if self.client is not None:
            return high if self.client == low else low
        for endpoint in (low, high):
            if endpoint[1] in WELL_KNOWN_SERVER_PORTS:
                return endpoint
        return min((low, high), key=lambda e: e[1])

    def classify(self) -> tuple[str | None, list[bytes]]:
        """The flow's protocol and the server's frames, each direction cut once."""
        low, high = self.endpoints
        server = self.server()
        protocol, replies = classify_flow(self.dirs[server].buffer)
        if protocol is None:
            protocol, _requests = classify_flow(self.dirs[high if server == low else low].buffer)
            replies = _frames(protocol, self.dirs[server].buffer)
        return protocol, replies


@dataclass
class PassiveReport:
    """Outcome of one capture analysis run."""

    inventory: Inventory
    per_asset_depth: dict[str, int]
    frames_read: int
    frames_skipped: int
    out_of_order_segments: int
    classified_flows: int
    source: str
    generated_at: datetime
    kind: str = "passive"
    nature: str = "offline"

    def to_document(self) -> dict[str, Any]:
        return {
            "version": 1,
            "kind": self.kind,
            "nature": self.nature,
            "source": self.source,
            "generated_at": format_timestamp(self.generated_at),
            "frames_read": self.frames_read,
            "frames_skipped": self.frames_skipped,
            "out_of_order_segments": self.out_of_order_segments,
            "classified_flows": self.classified_flows,
            "per_asset_depth": dict(sorted(self.per_asset_depth.items())),
            "anomalies": [],
            "inventory": self.inventory.to_document(),
        }


def analyze_capture(source: CaptureSource) -> PassiveReport:
    """Single pass over the capture; builds the passive inventory."""
    senders: dict[str, dict] = {}
    flows: dict[tuple, _Flow] = {}
    frames_read = 0

    def saw_sender(ip: str, mac: str | None, when: float) -> None:
        if ip == "0.0.0.0":
            return
        entry = senders.setdefault(ip, {"mac": None, "last": when})
        entry["last"] = max(entry["last"], when)
        if mac and entry["mac"] is None:
            entry["mac"] = mac

    skipped = 0
    reader = read_capture(source)
    for when, frame in reader:
        frames_read += 1
        eth = parse_ethernet(frame)
        if eth is None:
            skipped += 1
            continue
        if eth.ethertype == ETHERTYPE_ARP:
            arp = parse_arp(eth.payload)
            if arp is not None:
                saw_sender(arp.sender_ip, arp.sender_mac, when)
            continue
        if eth.ethertype != ETHERTYPE_IPV4:
            continue
        packet = parse_ipv4(eth.payload)
        if packet is None:
            skipped += 1
            continue
        saw_sender(packet.src_ip, eth.src_mac, when)
        if packet.proto != PROTO_TCP:
            continue
        segment = parse_tcp(packet.payload)
        if segment is None:
            skipped += 1
            continue
        src = (packet.src_ip, segment.src_port)
        dst = (packet.dst_ip, segment.dst_port)
        key = (src, dst) if src < dst else (dst, src)
        flow = flows.get(key) or flows.setdefault(key, _Flow(*key))
        flow.last_seen = max(flow.last_seen, when)
        direction = flow.dirs[src]
        if segment.flags & TCP_SYN:
            if flow.client is None and not (segment.flags & TCP_ACK):
                flow.client = src
            direction.bump(segment.seq, 1)
        if segment.payload:
            direction.add(segment.seq, segment.payload, flow)
        if segment.flags & TCP_FIN:
            direction.bump(segment.seq + len(segment.payload), 1)

    inventory = Inventory()
    for ip, entry in senders.items():
        inventory.apply(
            Observation(
                ip=ip,
                source="passive",
                timestamp=datetime.fromtimestamp(entry["last"], tz=timezone.utc),
                mac=entry["mac"],
                oui_vendor=vendor_for_mac(entry["mac"]),
            )
        )

    classified = 0
    out_of_order = 0
    for flow in flows.values():
        out_of_order += flow.out_of_order
        protocol, replies = flow.classify()
        if protocol is None:
            continue
        classified += 1
        server_ip, server_port = flow.server()
        if server_ip not in senders:
            continue  # never transmitted; do not invent an asset
        static_fields, deployment = _identity_fields(protocol, replies)
        inventory.apply(
            Observation(
                ip=server_ip,
                source="passive",
                timestamp=datetime.fromtimestamp(flow.last_seen, tz=timezone.utc),
                open_ports=frozenset({PortSpec(server_port)}),
                protocols=frozenset({protocol}),
                static_info=StaticDeviceInfo.from_fields(static_fields),
                deployment_info=DeploymentInfo.from_dict(deployment),
            )
        )

    depths = {asset.ip: int(compute_depth(asset)) for asset in inventory}
    return PassiveReport(
        inventory=inventory,
        per_asset_depth=depths,
        frames_read=frames_read,
        frames_skipped=skipped + reader.skipped,
        out_of_order_segments=out_of_order,
        classified_flows=classified,
        source=source.path if isinstance(source, PcapFile) else source.name,
        generated_at=datetime.now(timezone.utc),
    )

