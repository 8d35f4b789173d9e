"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines as they complete. Expensive checks (10^6 fuzz inputs, 10^4
randomized frames and merge sequences, 10^3 randomized databases) live
here rather than in the unit modules.
"""

from __future__ import annotations

import contextlib
import itertools
import random
import time

import pytest

from icsrecon.codecs import enip, modbus, s7
from icsrecon.config import default_fixtures_path, load_fixtures
from icsrecon.errors import IcsReconError
from icsrecon.model import (
    Asset,
    compute_depth,
    merge_observation,
)
from icsrecon.passive import PcapFile, analyze_capture
from icsrecon.scanner import ScanConfig, Scanner
from icsrecon.simulator import SimNetwork, SimState, StationHandle
from icsrecon import taxonomy as tx
from icsrecon import vulnmatch

from conftest import asset_holding, random_observation, same_record, ts
from test_vulnmatch import naive_match_oracle, random_db, random_info

DEVICE_IPS = ("192.168.90.10", "192.168.90.11", "192.168.90.12", "192.168.90.13", "192.168.90.14")
EXPECTED_DEPTHS = {
    "192.168.90.10": 5,  # older S7 PLC: verbose, static + deployment
    "192.168.90.11": 5,  # newer S7 PLC
    "192.168.90.12": 3,  # HMI: ISO port answers, nothing enumerable
    "192.168.90.13": 5,  # Modbus RTU: deployment without static info
    "192.168.90.14": 4,  # EtherNet/IP controller: static info ceiling
}


@contextlib.contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL - {title}")
        raise
    print(f"[criterion {number}] PASS - {title}")


@pytest.fixture(scope="module")
def fixture_scan(tmp_path_factory):
    """One full safe-mode scan of the default station, capture recorded."""
    fixtures = load_fixtures(default_fixtures_path())
    pcap = tmp_path_factory.mktemp("acceptance") / "mirror.pcap"
    station = StationHandle(
        list(fixtures.devices), scanner_ip=fixtures.scanner_ip, pcap_path=str(pcap)
    ).start()
    try:
        config = ScanConfig(
            targets=DEVICE_IPS + ("192.168.90.20", "192.168.90.21"),
            methods=frozenset({"icmp", "arp"}),
            rate_limit_pps=20,
            safe_mode=True,
        )
        started = time.monotonic()
        report = Scanner(config, network=SimNetwork(station)).run()
        wall = time.monotonic() - started
    finally:
        station.stop()
    return {"report": report, "wall": wall, "pcap": str(pcap), "station": station}


def test_criterion_1_depth_pattern_reproduction(fixture_scan):
    with criterion(1, "active scan reproduces the per-device depth pattern in < 60 s"):
        report = fixture_scan["report"]
        assert report.per_asset_depth == EXPECTED_DEPTHS
        # the RTU reaches deployment depth with no static info at all
        rtu = report.inventory.get("192.168.90.13")
        assert rtu.static_info is None
        assert rtu.deployment_info is not None
        # dead targets never become assets
        assert "192.168.90.20" not in report.inventory
        assert fixture_scan["wall"] < 60.0
        assert report.rate_limit_pps == 20


def test_criterion_2_passive_parity(fixture_scan, tmp_path):
    with criterion(2, "passive pcap analysis matches active depths; identity-free stays <= 3"):
        passive = analyze_capture(PcapFile(fixture_scan["pcap"]))
        active_depths = fixture_scan["report"].per_asset_depth
        for ip, depth in active_depths.items():
            assert passive.per_asset_depth[ip] == depth, ip
            # the same inventory, field by field, not only the same depth
            active_asset = fixture_scan["report"].inventory.get(ip)
            passive_asset = passive.inventory.get(ip)
            for name in ("static_info", "deployment_info", "protocols", "open_ports", "mac"):
                assert getattr(passive_asset, name) == getattr(active_asset, name), (ip, name)
        # extras in the capture (the scanning host) never exceed level 1
        for ip in set(passive.per_asset_depth) - set(active_depths):
            assert passive.per_asset_depth[ip] == 1

        # identity-free capture: plain register polling, no identity replies
        from icsrecon.pcapio import PcapWriter, TrafficRecorder

        path = tmp_path / "identity_free.pcap"
        writer = PcapWriter(str(path))
        clock = itertools.count(1_700_000_000.0, 0.001)
        recorder = TrafficRecorder(writer, clock=lambda: next(clock))
        flow = recorder.tcp_flow(("192.168.90.1", 51000), ("192.168.90.13", 502))
        flow.handshake()
        for tx_id in range(1, 4):
            flow.client_payload(modbus.build_read_holding_request(1, 0, 8, transaction_id=tx_id))
            flow.server_payload(modbus.build_read_holding_response(tx_id, 1, [0] * 8))
        flow.close()
        writer.close()
        identity_free = analyze_capture(PcapFile(str(path)))
        assert identity_free.per_asset_depth, "capture produced no assets"
        assert max(identity_free.per_asset_depth.values()) <= 3


def test_criterion_3_fragility_reproduction():
    with criterion(3, "safe scan leaves fragile device running; 200 pps flood faults it until reset"):
        fixtures = load_fixtures(default_fixtures_path())
        station = StationHandle(list(fixtures.devices), scanner_ip=fixtures.scanner_ip).start()
        fragile = station.device("et200s_like")
        assert fragile.config.fragile and fragile.config.max_pps == 50
        try:
            safe = ScanConfig(
                targets=DEVICE_IPS, methods=frozenset({"icmp"}), rate_limit_pps=20, safe_mode=True
            )
            Scanner(safe, network=SimNetwork(station)).run()
            assert fragile.get_state() is SimState.RUNNING

            flood = ScanConfig(
                targets=("192.168.90.10",),
                ports=frozenset(range(1, 241)),
                methods=frozenset({"icmp"}),
                rate_limit_pps=200,
                safe_mode=False,
                timeout_ms=300,
            )
            report = Scanner(flood, network=SimNetwork(station)).run()
            assert report.duration_seconds < 5.0
            assert fragile.get_state() is SimState.FAULT

            # latched: further contact changes nothing until reset
            station.ping("192.168.90.10")
            assert fragile.get_state() is SimState.FAULT
            assert fragile.reset() is SimState.RUNNING
        finally:
            station.stop()


def test_criterion_4_taxonomy_fixture_fidelity():
    with criterion(4, "28-tool dataset: 19/28 manual (68%) and pinned matrix columns match"):
        profiles = tx.load_profiles()
        assert len(profiles) == 28
        stats = tx.dataset_stats(profiles)
        assert stats["counts"]["execution/manual"] == 19
        assert abs(stats["fraction_manual"] - 19 / 28) < 1e-12
        assert f"{stats['fraction_manual']:.0%}" == "68%"

        document = tx.render_matrix(profiles, format="csv")
        lines = document.strip().splitlines()
        header = lines[0].split(",")
        columns = {name: header.index(name) for name in ("Nmap", "Plcscan", "Modscan", "OpenVAS")}
        level_rows = {
            int(cells[1].split("_")[1]): cells
            for cells in (line.split(",") for line in lines[1:])
            if cells[0] == "output"
        }
        expected_levels = {
            "Nmap": {1, 2},
            "Modscan": {1, 2},
            "Plcscan": {1, 2, 3, 4, 5},
            "OpenVAS": {1, 2, 3, 4, 5, 6},
        }
        for tool, levels in expected_levels.items():
            for level in range(1, 7):
                cell = level_rows[level][columns[tool]]
                assert cell == ("1" if level in levels else "0"), (tool, level)


def test_criterion_5_codec_properties():
    with criterion(5, "codec round trips (1e4/protocol), fuzz totality (1e6), golden vectors"):
        # golden byte vectors
        assert modbus.build_device_id_request(unit=1) == bytes.fromhex("000100000005012b0e0100")
        assert enip.build_list_identity() == bytes.fromhex("6300" + "00" * 22)
        assert len(enip.build_list_identity()) == 24
        assert s7.encode_tpkt(b"\x01\x02\x03") == bytes.fromhex("03000007010203")

        rng = random.Random(0x5EED)

        # modbus round trips
        for _ in range(10_000):
            header = modbus.MbapHeader(rng.randrange(0x10000), rng.randrange(0x100), 0)
            payload = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 32)))
            function = rng.randrange(1, 0x80)
            wire = modbus.frame(header.transaction_id, header.unit_id, function, payload)
            got_header, got_pdu = modbus.decode_modbus(wire)
            assert (got_header.transaction_id, got_header.unit_id) == (header.transaction_id, header.unit_id)
            assert (got_pdu.function, got_pdu.payload) == (function, payload)
            assert got_header.length == len(wire) - 6  # length honesty

        # iso-on-tcp / S7 round trips
        for _ in range(10_000):
            choice = rng.randrange(4)
            if choice == 0:
                cotp = s7.CotpConnectionRequest(src_tsap=rng.randrange(0x10000), dst_tsap=rng.randrange(0x10000))
            elif choice == 1:
                cotp = s7.CotpDisconnectRequest(reason=rng.randrange(256))
            elif choice == 2:
                cotp = s7.CotpData(bytes(rng.randrange(256) for _ in range(rng.randrange(0, 48))))
            else:
                entries = tuple(
                    s7.SzlEntry(
                        index=rng.randrange(1, 8),
                        text="".join(chr(rng.randrange(0x21, 0x7F)) for _ in range(rng.randrange(0, 19))),
                        words=(rng.randrange(0x10000), rng.randrange(0x10000), rng.randrange(0x10000)),
                    )
                    for _ in range(rng.randrange(1, 4))
                )
                message = s7.S7SzlResponse(szl_id=s7.SZL_MODULE_ID, szl_index=0, entries=entries)
                assert same_record(s7.decode_s7(s7.encode_s7(message)), message)
                continue
            wire = s7.encode_envelope(cotp)
            envelope = s7.decode_envelope(wire)
            assert same_record(envelope.cotp, cotp)
            assert envelope.tpkt_length == len(wire)  # length honesty

        # EtherNet/IP round trips
        for _ in range(10_000):
            ident = enip.CipIdentity(
                vendor_id=rng.randrange(0x10000),
                device_type=rng.randrange(0x10000),
                product_code=rng.randrange(0x10000),
                revision=(rng.randrange(256), rng.randrange(256)),
                status=rng.randrange(0x10000),
                serial=rng.randrange(0x100000000),
                product_name="".join(chr(rng.randrange(0x21, 0x7F)) for _ in range(rng.randrange(0, 24))),
                state=rng.randrange(256),
            )
            wire = enip.build_list_identity_response(ident)
            assert same_record(enip.parse_list_identity(wire), ident)
            message, payload = enip.decode_header(wire)
            assert message.length == len(payload)  # length honesty

        # decoder fuzz: >= 1e6 inputs in total, zero non-codec exceptions
        seeds = [
            modbus.build_device_id_request(unit=1),
            modbus.build_device_id_response(1, 1, {0: "V", 1: "P", 2: "1.0"}),
            s7.build_cotp_connect(0x0100, 0x0102),
            s7.build_szl_read(s7.SZL_MODULE_ID),
            enip.build_list_identity(),
            enip.build_list_identity_response(
                enip.CipIdentity(1, 14, 54, (20, 11), 0x60, 0xBEEF01, "ControlLogix 5561")
            ),
        ]
        decoders = (
            modbus.decode_modbus,
            modbus.parse_device_id_response,
            modbus.parse_report_slave_id_response,
            s7.decode_envelope,
            s7.parse_szl_response,
            enip.decode_header,
            enip.parse_list_identity,
        )
        fuzz_rng = random.Random(0xF022)
        total = 0
        per_decoder = 150_000
        for decoder in decoders:
            for i in range(per_decoder):
                if i % 3 == 0:
                    data = bytes(fuzz_rng.randrange(256) for _ in range(fuzz_rng.randrange(0, 40)))
                else:
                    mutated = bytearray(fuzz_rng.choice(seeds))
                    for _ in range(fuzz_rng.randrange(1, 4)):
                        mutated[fuzz_rng.randrange(len(mutated))] = fuzz_rng.randrange(256)
                    if i % 5 == 0:
                        mutated = mutated[: fuzz_rng.randrange(0, len(mutated) + 1)]
                    data = bytes(mutated)
                try:
                    decoder(data)
                except IcsReconError:
                    pass  # the decoders' error vocabulary; anything else aborts the test
                total += 1
        assert total >= 1_000_000


def test_criterion_6_depth_oracle():
    with criterion(6, "depth equals the 64-case predicate table; monotone over 1e4 merge sequences"):
        def table_oracle(ports, protocols, static, deployment, vulns, consulted):
            satisfied = {1: True, 2: ports, 3: protocols, 4: static, 5: deployment, 6: vulns and consulted}
            return max(level for level, ok in satisfied.items() if ok)

        checked = refused = 0
        for *bits, consulted in itertools.product([False, True], repeat=6):
            try:
                asset = asset_holding(*bits)
            except ValueError:
                assert bits[4] and not bits[2]  # vulnerabilities without static info cannot exist
                refused += 1
                continue
            assert compute_depth(asset, consulted) == table_oracle(*bits, consulted)
            checked += 1
        assert (checked, refused) == (48, 16)

        rng = random.Random(0xDE9)
        sequences = 0
        while sequences < 10_000:
            asset = Asset.discovered("10.20.30.40", ts())
            for _ in range(rng.randint(1, 3)):
                merged = merge_observation(asset, random_observation(rng, "10.20.30.40"))
                for consulted in (False, True):
                    assert compute_depth(merged, consulted) >= compute_depth(asset, consulted)
                asset = merged
                sequences += 1


def test_criterion_7_rate_limit_honesty():
    with criterion(7, "measured pps <= configured limit x 1.1 for limits 5, 20, 50"):
        fixtures = load_fixtures(default_fixtures_path())
        for limit in (5, 20, 50):
            station = StationHandle(list(fixtures.devices), scanner_ip=fixtures.scanner_ip).start()
            try:
                # three hosts on the default ports: 19 packets, so the
                # one-token burst stays within the tolerance at 50 pps
                config = ScanConfig(
                    targets=("192.168.90.12", "192.168.90.13", "192.168.90.14"),
                    methods=frozenset({"icmp"}),
                    rate_limit_pps=limit,
                    timeout_ms=500,
                )
                report = Scanner(config, network=SimNetwork(station)).run()
                received = sum(device.get_counters().packets_received for device in station.devices)
                assert received >= 11  # enough samples for the tolerance to be meaningful
                measured = received / report.duration_seconds
                assert measured <= limit * 1.1, (limit, measured)
            finally:
                station.stop()


def test_criterion_8_vuln_matcher_oracle():
    with criterion(8, "matcher equals brute force on 1e3 random dbs; fixture db lifts the PLC to 6"):
        rng = random.Random(0xCAFE)
        databases = 0
        while databases < 1_000:
            db = random_db(rng)
            info = random_info(rng)
            if not (info.manufacturer or info.model):
                continue
            got = {hit.cve_id for hit in vulnmatch.match(info, db)}
            assert got == naive_match_oracle(info, db)
            databases += 1

        fixtures = load_fixtures(default_fixtures_path())
        station = StationHandle(list(fixtures.devices), scanner_ip=fixtures.scanner_ip).start()
        try:
            from importlib import resources

            db_path = str(resources.files("icsrecon.data").joinpath("fixtures").joinpath("cve_demo.json"))
            config = ScanConfig(
                targets=DEVICE_IPS,
                methods=frozenset({"icmp"}),
                rate_limit_pps=50,
                vuln_db_path=db_path,
            )
            report = Scanner(config, network=SimNetwork(station)).run()
        finally:
            station.stop()
        et200s = report.inventory.get("192.168.90.10")
        assert len(et200s.vulnerabilities) >= 1
        assert et200s.vulnerabilities[0].cve_id == "CVE-2019-99001"
        assert report.per_asset_depth["192.168.90.10"] == 6
        # the identification-less RTU cannot be matched and stays at 5
        assert report.per_asset_depth["192.168.90.13"] == 5
        # no database entry covers the EtherNet/IP controller
        assert report.per_asset_depth["192.168.90.14"] == 4
