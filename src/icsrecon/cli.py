"""Operator command line: scan, sniff, simulate, report, depth, vulnmatch.

Batch-oriented by design: every command is non-interactive after
launch. Exit codes: 0 success, 1 operational error, 2 usage error.
Verbosity comes from the ICSRECON_LOG environment variable.

Each command imports only the modules it runs: this module imports at
its top only what ``depth`` and ``vulnmatch`` need, and every other
handler imports its own modules (scanner, simulator, passive analyzer,
taxonomy, config) inside its body, so a command never pays to compile
the code of another.
"""

from __future__ import annotations

import argparse
import logging
import os
import signal
import sys
import threading

from . import vulnmatch
from .errors import FormatError, IcsReconError
from .model import Inventory, compute_depth, json_text, read_json, write_whole

logger = logging.getLogger("icsrecon")


def _setup_logging() -> None:
    level_name = os.environ.get("ICSRECON_LOG", "WARNING").upper()
    level = getattr(logging, level_name, logging.WARNING)
    logging.basicConfig(level=level, format="%(asctime)s %(levelname)s %(name)s: %(message)s")


def _summary(**fields) -> None:
    print("summary " + " ".join(f"{key}={value}" for key, value in fields.items()))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icsrecon",
        description="ICS/OT asset discovery: active scanning, passive capture analysis, "
        "device simulation, tool taxonomy reporting, and offline CVE matching.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scan = sub.add_parser("scan", help="run the active scan pipeline from a config file")
    scan.add_argument("--config", required=True, help="scan config file (key/section format)")
    scan.add_argument("--targets", nargs="+", help="override configured targets (IPs or CIDR)")
    scan.add_argument("--ports", nargs="+", type=int, help="override configured ports")
    scan.add_argument("--rate", type=int, help="override rate limit (packets per second)")
    scan.add_argument("--vuln-db", help="CVE database path; enables vulnerability identification")
    scan.add_argument(
        "--unsafe",
        action="store_true",
        help="disable safe mode (rate cap and sweep restrictions); requires the acknowledgment flag",
    )
    scan.add_argument(
        "--i-understand-fragile-devices",
        action="store_true",
        help="acknowledge that unsafe scanning can fault fragile devices",
    )
    scan.add_argument("--unit-id-sweep", action="store_true", help="sweep Modbus unit ids 1..247 (unsafe mode only)")
    scan.add_argument("--map-file", help="scan the simulated station this map names (overrides the config's map_file)")
    scan.add_argument("--out", default="inventory.json", help="inventory output path")
    scan.add_argument("--report-out", help="scan report output path (JSON)")
    scan.add_argument("--pcap-out", help="audit capture of all probe traffic (pcap)")

    sniff = sub.add_parser("sniff", help="passive analysis of a capture")
    source = sniff.add_mutually_exclusive_group(required=True)
    source.add_argument("--pcap", help="libpcap capture file to analyze offline")
    source.add_argument("--interface", help="live capture interface (requires privilege; Ctrl-C ends the capture)")
    sniff.add_argument("--out", default="inventory.json", help="inventory output path")
    sniff.add_argument("--report-out", help="passive run report output path (JSON)")

    simulate = sub.add_parser("simulate", help="run the device simulator station")
    simulate.add_argument("--fixtures", help="station fixture file (defaults to the shipped station)")
    simulate.add_argument("--pcap-out", help="record all station traffic to this pcap file")
    simulate.add_argument("--map-out", default="station_map.json", help="address map output for scan --map-file")
    simulate.add_argument("--max-seconds", type=float, help="stop automatically after this long")

    report = sub.add_parser("report", help="render the tool feature matrix or classify scan runs")
    report.add_argument("--dataset", help="tool profile dataset (defaults to the shipped 28-tool file)")
    report.add_argument(
        "--scan-report",
        nargs="+",
        help="classify these scan/sniff report files into profiles instead of using a dataset",
    )
    report.add_argument("--format", choices=("text_table", "csv", "json"), default="text_table")
    report.add_argument("--stats", action="store_true", help="print dataset statistics instead of the matrix")
    report.add_argument("--out", help="write the document here instead of stdout")

    depth = sub.add_parser("depth", help="print achieved scanning depth per asset")
    depth.add_argument("--inventory", required=True, help="inventory JSON file")

    vuln = sub.add_parser("vulnmatch", help="match inventory assets against a CVE database")
    vuln.add_argument("--inventory", required=True, help="inventory JSON file")
    vuln.add_argument("--db", required=True, help="CVE database (JSON array)")
    vuln.add_argument("--aliases", help="vendor alias table (JSON map)")
    vuln.add_argument("--out", help="output inventory path (defaults to the input path)")
    return parser


def _read_json_object(path: str, what: str) -> dict:
    document = read_json(path, f"{what} {path}")
    if not isinstance(document, dict):
        raise FormatError(f"{what} {path} must be a JSON object", offset=0)
    return document


def _network_for(map_path: str | None):
    if map_path is None:
        from .netbase import RealNetwork

        return RealNetwork()
    from .simulator import RemoteStation, SimNetwork

    return SimNetwork(RemoteStation(_read_json_object(map_path, "station map")))


def cmd_scan(args) -> int:
    from .config import load_scan_config
    from .scanner import Scanner

    overrides = {
        "targets": tuple(args.targets) if args.targets else None,
        "ports": frozenset(args.ports) if args.ports else None,
        "rate_limit_pps": args.rate,
        "vuln_db_path": args.vuln_db,
        "pcap_out": args.pcap_out,
    }
    if args.unsafe:
        overrides["safe_mode"] = False
    if args.unit_id_sweep:
        overrides["unit_id_sweep"] = True
    config, map_file = load_scan_config(args.config, overrides)
    network = _network_for(map_file if args.map_file is None else args.map_file)

    stop = threading.Event()
    previous = signal.signal(signal.SIGINT, lambda *_: stop.set())
    try:
        scanner = Scanner(config, network=network, stop_event=stop)
        report = scanner.run()
    finally:
        signal.signal(signal.SIGINT, previous)
        if hasattr(network, "close"):
            network.close()

    report.save(args.out, args.report_out)
    depths = report.per_asset_depth
    _summary(
        command="scan",
        assets=len(depths),
        max_depth=max(depths.values(), default=0),
        packets=report.packets_sent,
        duration=f"{report.duration_seconds:.2f}s",
        anomalies=len(report.anomalies),
        inventory=args.out,
    )
    if stop.is_set():
        print("scan cancelled; partial results written", file=sys.stderr)
        return 1
    return 0


def cmd_sniff(args) -> int:
    from .passive import LiveInterface, PcapFile, analyze_capture

    stop = threading.Event()
    if args.pcap:
        report = analyze_capture(PcapFile(args.pcap))
    else:  # a live capture runs until SIGINT, and what it read is written
        previous = signal.signal(signal.SIGINT, lambda *_: stop.set())
        try:
            report = analyze_capture(LiveInterface(args.interface, stop))
        finally:
            signal.signal(signal.SIGINT, previous)
    report.save(args.out, args.report_out)
    _summary(
        command="sniff",
        assets=len(report.inventory),
        frames=report.frames_read,
        skipped=report.frames_skipped,
        classified_flows=report.classified_flows,
        inventory=args.out,
    )
    if stop.is_set():
        print("sniff cancelled; partial results written", file=sys.stderr)
        return 1
    return 0


def cmd_simulate(args) -> int:
    from .config import default_fixtures_path, load_fixtures
    from .simulator import ControlledStation, StationHandle

    fixtures_path = args.fixtures or default_fixtures_path()
    station_config = load_fixtures(fixtures_path)
    if not station_config.devices:
        logger.warning("fixture file defines no devices; running an empty station")
    station = StationHandle(
        list(station_config.devices),
        scanner_ip=station_config.scanner_ip,
        pcap_path=args.pcap_out,
    ).start()
    controlled = ControlledStation(station)
    try:
        write_whole(args.map_out, json_text(controlled.map_document()))
        _summary(
            command="simulate",
            devices=len(station.devices),
            control_port=controlled.control_port,
            map=args.map_out,
            pcap=args.pcap_out or "-",
        )
        controlled.wait(args.max_seconds)
    except KeyboardInterrupt:
        pass
    finally:
        controlled.stop()
    return 0


def cmd_report(args) -> int:
    from . import taxonomy

    if args.scan_report:
        profiles = [taxonomy.classify_run(_read_json_object(path, "scan report")) for path in args.scan_report]
    else:
        profiles = taxonomy.load_profiles(args.dataset)
    if args.stats:
        stats = taxonomy.dataset_stats(profiles)
        manual = f"{stats['counts']['execution/manual']}/{stats['tool_count']} ({stats['fraction_manual']:.0%})"
        document = json_text(stats) + f"manual tools: {manual}\n"
    else:
        document = taxonomy.render_matrix(profiles, args.format)
    if args.out:
        write_whole(args.out, document)
    else:
        sys.stdout.write(document)
    return 0


def cmd_depth(args) -> int:
    inventory = Inventory.load(args.inventory)
    # stored vulnerability matches imply the lookup ran for that asset
    print(f"{'ip':15s} {'depth':5s} meaning")
    for asset in inventory:
        level = compute_depth(asset, vuln_db_consulted=bool(asset.vulnerabilities))
        print(f"{asset.ip:15s} {int(level):<5d} {level.describe()}")
    return 0


def cmd_vulnmatch(args) -> int:
    inventory = Inventory.load(args.inventory)
    db = vulnmatch.load_db(args.db, alias_path=args.aliases)
    assets, total = vulnmatch.enrich(inventory, db)
    updated = Inventory(assets)
    out = args.out or args.inventory
    updated.save(out)
    _summary(command="vulnmatch", assets=len(updated), matches=total, inventory=out)
    if total:
        print("note: matches are cpe-style and approximate; verify manually", file=sys.stderr)
    return 0


_HANDLERS = {
    "scan": cmd_scan,
    "sniff": cmd_sniff,
    "simulate": cmd_simulate,
    "report": cmd_report,
    "depth": cmd_depth,
    "vulnmatch": cmd_vulnmatch,
}


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "scan" and args.unsafe and not args.i_understand_fragile_devices:
        parser.error("--unsafe requires --i-understand-fragile-devices")
    try:
        return _HANDLERS[args.command](args)
    except IcsReconError as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error[OSError]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
