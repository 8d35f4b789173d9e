"""Scanner-side audit capture of probe traffic."""

from __future__ import annotations

from collections import Counter

from icsrecon.config import default_fixtures_path, load_fixtures
from icsrecon.passive import PcapFile, analyze_capture
from icsrecon.pcapio import (
    CaptureReader,
    ETHERTYPE_ARP,
    PROTO_ICMP,
    PROTO_TCP,
    TCP_ACK,
    TCP_SYN,
    parse_arp,
    parse_ethernet,
    parse_ipv4,
    parse_tcp,
)
from icsrecon.scanner import ScanConfig, Scanner
from icsrecon.simulator import SimNetwork, StationHandle


def test_audit_capture_mirrors_probe_traffic(tmp_path):
    fixtures = load_fixtures(default_fixtures_path())
    station = StationHandle(list(fixtures.devices), scanner_ip=fixtures.scanner_ip).start()
    audit_path = tmp_path / "audit.pcap"
    try:
        config = ScanConfig(
            targets=tuple(d.ip for d in fixtures.devices),
            methods=frozenset({"icmp", "arp"}),
            rate_limit_pps=50,
            timeout_ms=500,
            pcap_out=str(audit_path),
        )
        report = Scanner(config, network=SimNetwork(station)).run()
    finally:
        station.stop()

    assert audit_path.exists()
    passive = analyze_capture(PcapFile(str(audit_path)))
    # the scanner's own view carries the same identity evidence the
    # station mirror does, so depths agree
    for ip, depth in report.per_asset_depth.items():
        assert passive.per_asset_depth[ip] == depth
    # ARP answers were folded into the audit frames, so vendors resolve
    assert passive.inventory.get("192.168.90.10").oui_vendor == "Siemens AG"
    # every flow opens with one SYN, and concurrent workers never share
    # a client port
    client_ports = syn_client_ports(audit_path)
    assert len(client_ports) >= len(fixtures.devices) * len(config.ports)
    assert len(set(client_ports)) == len(client_ports)


def test_audit_capture_holds_one_arp_request_per_dead_address(tmp_path):
    fixtures = load_fixtures(default_fixtures_path())
    station = StationHandle(list(fixtures.devices), scanner_ip=fixtures.scanner_ip).start()
    audit_path = tmp_path / "audit.pcap"
    dead = ("192.168.90.20", "192.168.90.21")
    try:
        config = ScanConfig(
            targets=tuple(d.ip for d in fixtures.devices) + dead,
            methods=frozenset({"icmp", "arp"}),
            rate_limit_pps=50,
            timeout_ms=500,
            pcap_out=str(audit_path),
        )
        report = Scanner(config, network=SimNetwork(station)).run()
    finally:
        station.stop()
    assert report.packets_sent == 37
    arp_requests, echoes = Counter(), Counter()
    for _, frame in CaptureReader(str(audit_path)):
        eth = parse_ethernet(frame)
        if eth.ethertype == ETHERTYPE_ARP:
            message = parse_arp(eth.payload)
            if message.op == 1:
                arp_requests[message.target_ip] += 1
        elif eth.ethertype == 0x0800:
            packet = parse_ipv4(eth.payload)
            if packet.proto == PROTO_ICMP and packet.payload[0] == 8:
                echoes[packet.dst_ip] += 1
    assert arp_requests == Counter({ip: 1 for ip in config.targets})
    assert echoes == Counter()  # a failed ARP on the link is final, so no echo follows it


def syn_client_ports(pcap_path) -> list[int]:
    ports = []
    for _, frame in CaptureReader(str(pcap_path)):
        eth = parse_ethernet(frame)
        packet = parse_ipv4(eth.payload) if eth is not None and eth.ethertype == 0x0800 else None
        if packet is None or packet.proto != PROTO_TCP:
            continue
        segment = parse_tcp(packet.payload)
        if segment is not None and segment.flags & (TCP_SYN | TCP_ACK) == TCP_SYN:
            ports.append(segment.src_port)
    return ports
