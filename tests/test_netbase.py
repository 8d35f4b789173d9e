"""RealNetwork's link table, its one-frame ARP and its ICMP echo, through fake sockets; its audit capture on loopback."""

from __future__ import annotations

import os
import socket
import struct
import sys
import time

import pytest

from icsrecon import netbase
from icsrecon.audit import RecordingNetwork
from icsrecon.netbase import ARPHRD_ETHER, RealNetwork, link_routes
from icsrecon.pcapio import (
    BROADCAST_MAC, ETHERTYPE_ARP, PROTO_ICMP, PROTO_TCP, TCP_SYN, CaptureReader, arp_frame, icmp_echo, parse_arp,
    parse_ethernet, parse_ipv4, parse_tcp,
)
from icsrecon.scanner import ScanConfig, Scanner

# /proc/net/route as a little-endian host prints it: each address is the hex of its network-order word
ROUTES = """\
Iface\tDestination\tGateway \tFlags\tRefCnt\tUse\tMetric\tMask\t\tMTU\tWindow\tIRTT
eth0\t00000000\t015AA8C0\t0003\t0\t0\t100\t00000000\t0\t0\t0
eth0\t005AA8C0\t00000000\t0001\t0\t0\t100\t00FFFFFF\t0\t0\t0
eth1\t0000000A\t00000000\t0001\t0\t0\t0\t0000FFFF\t0\t0\t0
eth3\t0005000A\t00000000\t0001\t0\t0\t0\t00FFFFFF\t0\t0\t0
eth1\t0000010A\t00000000\t0000\t0\t0\t0\t00FFFFFF\t0\t0\t0
eth2\t0000020A\t0100000A\t0003\t0\t0\t0\t00FFFFFF\t0\t0\t0
wg0\t0000080A\t00000000\t0001\t0\t0\t0\t00FFFFFF\t0\t0\t0
eth4\t0000090A\t00000000\t0001\t0\t0\t0\t00FFFFFF\t0\t0\t0
"""
# /sys/class/net/<name>/type: wg0 is a layer-3 tunnel with no ARP, eth4 has no entry
INTERFACE_TYPES = {"eth0": ARPHRD_ETHER, "eth1": ARPHRD_ETHER, "eth2": ARPHRD_ETHER, "eth3": ARPHRD_ETHER, "wg0": 65534}

SCANNER_MAC = "02:00:00:aa:bb:cc"
little_endian_only = pytest.mark.skipif(sys.byteorder != "little", reason="the route fixture is little-endian")


class FakeSockets:
    """Stands in for ``socket.socket``: keeps every socket opened, and feeds ``replies`` to their reads.

    Each reply is (delay, data, address); once they run out, a read waits
    out its timeout and raises ``socket.timeout``, as a silent wire does.
    """

    def __init__(self, replies=()):
        self.replies = list(replies)
        self.opened: list[FakeSocket] = []
        self.packet_hardware = (ARPHRD_ETHER, bytes.fromhex(SCANNER_MAC.replace(":", "")))
        self.send_error: OSError | None = None

    def __call__(self, family=-1, kind=-1, proto=-1, fileno=None):
        sock = FakeSocket(self, family, kind, proto)
        self.opened.append(sock)
        return sock


class FakeSocket:
    def __init__(self, owner: FakeSockets, family, kind, proto):
        self.owner, self.family, self.kind, self.proto = owner, family, kind, proto
        self.sent: list[bytes] = []
        self.timeouts: list[float] = []
        self.waits: list[float] = []  # each timeout a silent read waited out
        self.bound = self.connected = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass

    def settimeout(self, value):
        self.timeouts.append(value)

    def bind(self, address):
        self.bound = address

    def connect(self, address):
        self.connected = address

    def getsockname(self):
        if self.family == socket.AF_PACKET:
            return (self.bound[0], ETHERTYPE_ARP, 0, *self.owner.packet_hardware)
        return ("192.168.90.1", 40000)

    def send(self, data):
        if self.owner.send_error is not None:
            raise self.owner.send_error
        self.sent.append(data)
        return len(data)

    def sendto(self, data, address):
        self.sent.append(data)
        return len(data)

    def recvfrom(self, size):
        if not self.owner.replies:
            self.waits.append(self.timeouts[-1])
            time.sleep(self.timeouts[-1])
            raise socket.timeout("timed out")
        delay, data, address = self.owner.replies.pop(0)
        time.sleep(delay)
        return data, address


def interface_dir(tmp_path):
    for name, kind in INTERFACE_TYPES.items():
        (tmp_path / "net" / name).mkdir(parents=True)
        (tmp_path / "net" / name / "type").write_text(f"{kind}\n")
    return str(tmp_path / "net")


@pytest.fixture
def links(tmp_path):
    """RealNetwork's file arguments: the route fixture and the interface types."""
    path = tmp_path / "route"
    path.write_text(ROUTES)
    return {"route_path": str(path), "interface_path": interface_dir(tmp_path)}


def fake_sockets(monkeypatch, replies=()) -> FakeSockets:
    sockets = FakeSockets(replies)
    monkeypatch.setattr(netbase.socket, "socket", sockets)
    monkeypatch.setattr(netbase.os, "geteuid", lambda: 0)
    return sockets


# -- the link table ------------------------------------------------------------


@little_endian_only
def test_link_routes_keeps_direct_up_routes_most_specific_first():
    routes = link_routes(ROUTES)
    assert [(socket.inet_ntoa(struct.pack(">I", net)), socket.inet_ntoa(struct.pack(">I", mask)), iface)
            for net, mask, iface in routes] == [
        ("192.168.90.0", "255.255.255.0", "eth0"),
        ("10.0.5.0", "255.255.255.0", "eth3"),
        ("10.8.0.0", "255.255.255.0", "wg0"),
        ("10.9.0.0", "255.255.255.0", "eth4"),
        ("10.0.0.0", "255.255.0.0", "eth1"),
    ]  # the default route, the route that is down and the one through a gateway are gone
    assert link_routes("Iface\tDestination\nbroken line\n") == []


@little_endian_only
def test_on_link_reads_the_route_table_once_on_first_use(tmp_path):
    path = tmp_path / "route"
    # nothing there yet: the table is not read at construction
    network = RealNetwork(route_path=str(path), interface_path=interface_dir(tmp_path))
    path.write_text(ROUTES)
    assert network.on_link("192.168.90.77") and network.on_link("10.0.200.3") and network.on_link("10.0.5.9")
    assert not network.on_link("8.8.8.8")  # reached through the default gateway
    assert not network.on_link("10.1.0.5")  # its route is down
    assert not network.on_link("10.2.0.5")  # behind a gateway
    assert not network.on_link("10.8.0.5")  # on a WireGuard tunnel, which has no ARP
    assert not network.on_link("10.9.0.5")  # its interface type cannot be read
    path.write_text(ROUTES.splitlines()[0] + "\n")
    assert network.on_link("192.168.90.77")  # read once


def test_unreadable_route_table_leaves_every_address_off_link(tmp_path, monkeypatch):
    sockets = fake_sockets(monkeypatch)
    network = RealNetwork(route_path=str(tmp_path / "missing"), interface_path=interface_dir(tmp_path))
    assert not network.on_link("192.168.90.10") and not network.on_link("127.0.0.1")
    assert network.arp("192.168.90.10", 0.2) is None
    assert sockets.opened == []  # ARP is skipped, not tried


# -- ARP: one request frame ----------------------------------------------------------


@little_endian_only
def test_arp_sends_one_request_on_the_route_interface_and_takes_the_target_reply(links, monkeypatch):
    replies = [
        (0, arp_frame(2, "00:1b:1b:99:99:99", "192.168.90.11", SCANNER_MAC, "192.168.90.1"), ("eth0",)),
        (0, arp_frame(1, "00:1b:1b:aa:10:01", "192.168.90.10", BROADCAST_MAC, "192.168.90.1"), ("eth0",)),
        (0, arp_frame(2, "00:1b:1b:aa:10:01", "192.168.90.10", SCANNER_MAC, "192.168.90.1"), ("eth0",)),
    ]
    sockets = fake_sockets(monkeypatch, replies)
    assert RealNetwork(**links).arp("192.168.90.10", 1.0) == "00:1b:1b:aa:10:01"
    udp, packet = sockets.opened
    assert udp.connected == ("192.168.90.10", 9) and udp.sent == []  # routing only
    assert (packet.family, packet.proto, packet.bound) == (socket.AF_PACKET, socket.htons(ETHERTYPE_ARP),
                                                          ("eth0", ETHERTYPE_ARP))
    assert packet.sent == [arp_frame(1, SCANNER_MAC, "192.168.90.1", BROADCAST_MAC, "192.168.90.10")]
    assert sockets.replies == []  # another host's reply and the target's own request were read past


@little_endian_only
def test_arp_binds_the_most_specific_route(links, monkeypatch):
    sockets = fake_sockets(monkeypatch)
    assert RealNetwork(**links).arp("10.0.5.9", 0.05) is None
    assert sockets.opened[1].bound == ("eth3", ETHERTYPE_ARP)


@little_endian_only
def test_arp_to_a_silent_target_returns_none_at_the_deadline(links, monkeypatch):
    chatter = arp_frame(2, "00:1b:1b:99:99:99", "192.168.90.11", SCANNER_MAC, "192.168.90.1")
    sockets = fake_sockets(monkeypatch, [(0.05, chatter, ("eth0",))] * 3)
    started = time.monotonic()
    assert RealNetwork(**links).arp("192.168.90.10", 0.2) is None
    elapsed = time.monotonic() - started
    packet = sockets.opened[1]
    assert len(packet.sent) == 1
    assert all(wait <= 0.2 - 0.15 + 1e-6 for wait in packet.waits)  # three chatter reads took 0.15 s of the 0.2
    assert 0.2 <= elapsed < 0.5


@little_endian_only
def test_arp_on_an_interface_without_ethernet_hardware_raises_and_sends_nothing(links, monkeypatch):
    sockets = fake_sockets(monkeypatch)
    sockets.packet_hardware = (65534, b"")  # what a tun or WireGuard socket reports
    with pytest.raises(OSError, match="eth0 is not an Ethernet interface"):
        RealNetwork(**links).arp("192.168.90.10", 0.2)
    assert sockets.opened[1].sent == []


@little_endian_only
def test_arp_that_cannot_be_sent_raises_rather_than_reading_as_no_answer(links, monkeypatch):
    sockets = fake_sockets(monkeypatch)
    sockets.send_error = OSError(100, "Network is down")
    with pytest.raises(OSError, match="Network is down"):
        RealNetwork(**links).arp("192.168.90.10", 0.2)


# -- ICMP echo ------------------------------------------------------------------------


def echo_reply(ident: int, header_words: int = 5) -> bytes:
    header = bytes([0x40 | header_words]) + bytes(header_words * 4 - 1)
    return header + icmp_echo(ident, 1, reply=True)


def test_ping_waits_one_deadline_however_much_chatter_arrives(monkeypatch):
    chatter = echo_reply(os.getpid() & 0xFFFF)
    sockets = fake_sockets(monkeypatch, [(0.05, chatter, ("192.168.90.99", 0))] * 6)
    started = time.monotonic()
    assert RealNetwork().ping("192.168.90.10", 0.4) is False
    elapsed = time.monotonic() - started
    (sock,) = sockets.opened
    assert all(timeout <= 0.4 - 0.05 * index + 1e-6 for index, timeout in enumerate(sock.timeouts))
    assert all(wait <= 0.4 - 0.3 + 1e-6 for wait in sock.waits)  # six chatter reads took 0.3 s of the 0.4
    assert elapsed < 0.7  # a fresh timeout after the chatter would take 0.3 + 0.4 s


def test_ping_reads_the_icmp_header_after_ip_options(monkeypatch):
    ident = os.getpid() & 0xFFFF
    replies = [
        (0, echo_reply(ident ^ 1, header_words=6), ("192.168.90.10", 0)),  # another process's echo
        (0, echo_reply(ident)[:27], ("192.168.90.10", 0)),  # too short to hold an echo header
        (0, echo_reply(ident, header_words=6), ("192.168.90.10", 0)),
    ]
    fake_sockets(monkeypatch, replies)
    assert RealNetwork().ping("192.168.90.10", 1.0) is True


# -- the scanner over RealNetwork -------------------------------------------------


def discover(network: RealNetwork, target: str, methods: set[str]):
    config = ScanConfig(targets=(target,), methods=frozenset(methods), timeout_ms=200, workers=1)
    scanner = Scanner(config, network=network)
    return scanner, scanner.discover_hosts()


@little_endian_only
def test_a_host_behind_a_tunnel_is_found_by_icmp_without_arp(links, monkeypatch):
    sockets = fake_sockets(monkeypatch, [(0, echo_reply(os.getpid() & 0xFFFF), ("10.8.0.5", 0))])
    scanner, (asset,) = discover(RealNetwork(**links), "10.8.0.5", {"arp", "icmp"})
    assert asset.ip == "10.8.0.5" and asset.mac is None
    assert [sock.family for sock in sockets.opened] == [socket.AF_INET]  # the echo socket; no AF_PACKET one
    assert [entry["detail"] for entry in scanner.probe_log] == ["icmp"] and scanner.anomalies == []


@little_endian_only
def test_an_arp_request_that_cannot_be_sent_falls_through_to_icmp(links, monkeypatch):
    sockets = fake_sockets(monkeypatch, [(0, echo_reply(os.getpid() & 0xFFFF), ("192.168.90.10", 0))])
    sockets.send_error = OSError(100, "Network is down")
    scanner, (asset,) = discover(RealNetwork(**links), "192.168.90.10", {"arp", "icmp"})
    assert asset.ip == "192.168.90.10" and asset.mac is None
    assert [entry["detail"] for entry in scanner.probe_log] == ["icmp"]
    assert scanner.anomalies == ["arp request failed: [Errno 100] Network is down"]
    arp_only, assets = discover(RealNetwork(**links), "192.168.90.10", {"arp"})
    assert assets == [] and arp_only.anomalies == scanner.anomalies


# -- the audit capture of a real scan ---------------------------------------------


def test_source_for_is_the_routed_address_and_sends_nothing(monkeypatch):
    assert RealNetwork().source_for("127.0.0.1") == "127.0.0.1"
    sockets = fake_sockets(monkeypatch)
    assert RealNetwork().source_for("192.168.90.10") == "192.168.90.1"
    (udp,) = sockets.opened
    assert udp.connected == ("192.168.90.10", 9) and udp.sent == []

    def unreachable(self, address):
        raise OSError(101, "Network is unreachable")

    monkeypatch.setattr(FakeSocket, "connect", unreachable)
    assert RealNetwork().source_for("10.200.0.1") == "0.0.0.0"  # no route, so nothing was sent from anywhere


def test_the_audit_capture_of_a_real_scan_names_the_scanner(tmp_path):
    class Unprivileged(RealNetwork):  # no raw sockets here: ICMP and ARP go unanswered, and are still recorded
        def ping(self, ip, timeout):
            return False

        def arp(self, ip, timeout):
            return None

    with socket.create_server(("127.0.0.1", 0)) as closed:
        closed_port = closed.getsockname()[1]  # nothing listens there once it closes
    pcap = tmp_path / "audit.pcap"
    network = RecordingNetwork(Unprivileged(), str(pcap))
    with socket.create_server(("127.0.0.1", 0)) as listener:
        port = listener.getsockname()[1]
        result = network.connect("127.0.0.1", port, 1.0)
        served, client = listener.accept()
        with served, result.sock as sock:
            sock.sendall(b"hello")
    try:
        assert result.status == "open" and network.connect("127.0.0.1", closed_port, 1.0).status == "refused"
        assert not network.ping("127.0.0.1", 0.1) and network.arp("127.0.0.1", 0.1) is None
    finally:
        network.close()
    syns, echo_sources, arp_senders = [], [], []
    for _, frame in CaptureReader(str(pcap)):
        eth = parse_ethernet(frame)
        if eth.ethertype == ETHERTYPE_ARP:
            arp_senders.append(parse_arp(eth.payload).sender_ip)
            continue
        packet = parse_ipv4(eth.payload)
        if packet.proto == PROTO_ICMP and packet.dst_ip == "127.0.0.1":
            echo_sources.append(packet.src_ip)
        elif packet.proto == PROTO_TCP and (segment := parse_tcp(packet.payload)).flags == TCP_SYN:
            syns.append(((packet.src_ip, segment.src_port), segment.dst_port))
    # the open connection from the address its socket was given, the refused one from the routed address
    assert syns == [(client, port), (("127.0.0.1", 47001), closed_port)]
    assert echo_sources == ["127.0.0.1"] and arp_senders == ["127.0.0.1"]
