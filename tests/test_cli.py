"""Command line: exit codes, guard rails, end-to-end workflows."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from datetime import datetime, timezone
from importlib import resources

import pytest

import icsrecon
from icsrecon.cli import build_parser, main
from icsrecon.config import default_fixtures_path, load_fixtures
from icsrecon.model import Asset, DeploymentInfo, PortSpec, ProvenanceEntry, StaticDeviceInfo
from icsrecon.pcapio import (
    PROTO_TCP, TCP_ACK, TCP_FIN, TCP_SYN, CaptureReader, PcapWriter, arp_frame, parse_ethernet, parse_ipv4, parse_tcp,
)
from icsrecon.simulator import ControlClient, ControlledStation, StationHandle

FIXTURE_DIR = resources.files("icsrecon.data").joinpath("fixtures")
CVE_DB = str(FIXTURE_DIR.joinpath("cve_demo.json"))


def schema_registry():
    import referencing

    schemas = {}
    schema_dir = resources.files("icsrecon.data").joinpath("schemas")
    for name in ("inventory.schema.json", "scan_report.schema.json", "tool_profiles.schema.json"):
        with schema_dir.joinpath(name).open("r", encoding="utf-8") as fh:
            schemas[name] = json.load(fh)
    registry = referencing.Registry().with_resources(
        (name, referencing.Resource.from_contents(doc)) for name, doc in schemas.items()
    )
    return schemas, registry


def validate_json(document: dict, schema_name: str) -> None:
    import jsonschema

    schemas, registry = schema_registry()
    jsonschema.Draft202012Validator(schemas[schema_name], registry=registry).validate(document)


@pytest.fixture
def sim(tmp_path):
    """Running station with a control socket and a map file on disk."""
    fixtures = load_fixtures(default_fixtures_path())
    pcap = tmp_path / "mirror.pcap"
    station = StationHandle(
        list(fixtures.devices), scanner_ip=fixtures.scanner_ip, pcap_path=str(pcap)
    ).start()
    controlled = ControlledStation(station)
    map_path = tmp_path / "station_map.json"
    map_path.write_text(json.dumps(controlled.map_document()))
    yield {"map": str(map_path), "pcap": str(pcap), "station": station, "controlled": controlled}
    controlled.stop()


def assert_each_flow_ended(pcap: str) -> None:
    """Each connection the mirror pcap holds a SYN-ACK of also holds its FIN: its teardown is recorded."""
    opened, ended = set(), set()
    for _, frame in CaptureReader(pcap):
        packet = parse_ipv4(parse_ethernet(frame).payload)
        segment = parse_tcp(packet.payload) if packet is not None and packet.proto == PROTO_TCP else None
        if segment is not None:
            ends = frozenset({(packet.src_ip, segment.src_port), (packet.dst_ip, segment.dst_port)})
            if segment.flags & (TCP_SYN | TCP_ACK) == TCP_SYN | TCP_ACK:
                opened.add(ends)
            if segment.flags & TCP_FIN:
                ended.add(ends)
    assert opened and opened == ended


def scan_config_file(tmp_path, map_path: str, extra: str = "") -> str:
    path = tmp_path / "scan.conf"
    path.write_text(
        "[scan]\n"
        "targets = 192.168.90.10 192.168.90.11 192.168.90.12 192.168.90.13 192.168.90.14\n"
        "ports = 102 502 44818\n"
        "methods = icmp arp\n"
        "rate_limit_pps = 50\n"
        "timeout_ms = 500\n"
        f"{extra}"
        "[network]\n"
        "mode = sim\n"
        f"map_file = {map_path}\n"
    )
    return str(path)


# -- parser-level behavior ---------------------------------------------------


def test_unknown_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["scan", "--config", "x.conf", "--frobnicate"])
    assert exit_info.value.code == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_unsafe_requires_acknowledgment(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["scan", "--config", "whatever.conf", "--unsafe"])
    assert exit_info.value.code == 2
    assert "i-understand-fragile-devices" in capsys.readouterr().err


def test_every_flag_appears_in_help():
    import argparse

    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for name, sub in subparsers.choices.items():
        help_text = sub.format_help()
        for action in sub._actions:
            for option in action.option_strings:
                assert option in help_text, f"{name}: {option} missing from help"


def test_missing_config_is_operational_error(capsys):
    code = main(["scan", "--config", "/nonexistent/path.conf"])
    assert code == 1
    assert "ConfigError" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, named",
    [
        ("[scan]\ntargets = 192.168.90.13\nports = 502, 5o2\n", "[scan] ports: "),
        ("[scan]\ntargets = 192.168.90.13\nrate_limit_pps = fast\n", "[scan] rate_limit_pps: "),
        ("[scan]\ntargets = 192.168.90.13\nsafe_mode = maybe\n", "[scan] safe_mode is not a key"),  # flags only
        ("[scan]\ntargets = 192.168.90.13\nvuln_db = 100%.json\n", "[scan] vuln_db: "),  # no key to interpolate
        ("[scan]\ntargets = 192.168.90.13\n[network]\nmap_file = station_map.json\n", "[network] map_file "),
        ("targets = 192.168.90.13\n", "no section headers"),
    ],
    ids=["ports", "rate_limit_pps", "safe_mode", "percent", "map_file_under_mode_real", "no_section_header"],
)
def test_bad_scan_config_value_is_operational_error(tmp_path, capsys, text, named):
    path = tmp_path / "scan.conf"
    path.write_text(text)
    code = main(["scan", "--config", str(path)])
    assert code == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error[ConfigError]: {path}: ") and named in err


def test_a_scan_config_cannot_leave_safe_mode(sim, tmp_path, capsys):
    # only --unsafe with its acknowledgement leaves safe mode: a file asking for a fast sweep is refused, unsent
    path = tmp_path / "unsafe.conf"
    path.write_text(
        "[scan]\ntargets = 192.168.90.13\nsafe_mode = off\nunit_id_sweep = true\nrate_limit_pps = 400\n"
        f"[network]\nmode = sim\nmap_file = {sim['map']}\n"
    )
    assert main(["scan", "--config", str(path), "--out", str(tmp_path / "inventory.json")]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error[ConfigError]: ") and "[scan] safe_mode" in err
    assert [device.get_counters().packets_received for device in sim["station"].devices] == [0] * 5
    assert not (tmp_path / "inventory.json").exists()


@pytest.mark.parametrize("entry", [[1], "x", None])
def test_vulnmatch_non_object_db_entry_is_format_error(tmp_path, capsys, entry):
    inventory = tmp_path / "inventory.json"
    inventory.write_text(json.dumps({"version": 1, "assets": []}))
    db = tmp_path / "db.json"
    db.write_text(json.dumps([entry]))
    assert main(["vulnmatch", "--inventory", str(inventory), "--db", str(db)]) == 1
    assert "error[FormatError]: bad CVE record at index 0" in capsys.readouterr().err


def inventory_document() -> dict:
    when = datetime(2024, 1, 1, tzinfo=timezone.utc)
    asset = Asset(
        ip="192.168.90.10",
        last_seen=when,
        mac="00:1b:1b:aa:10:01",
        oui_vendor="Siemens AG",
        open_ports=frozenset({PortSpec(102)}),
        protocols=frozenset({"s7comm"}),
        static_info=StaticDeviceInfo(manufacturer="Siemens", model="6ES7 151-8AB01-0AB0"),
        deployment_info=DeploymentInfo((("plant_id", "PLANT-01"),)),
        sources=frozenset({"active"}),
        provenance=(ProvenanceEntry("static_info.model", "CPU 1", "6ES7 151-8AB01-0AB0", when, "active"),),
    )
    return {"version": 1, "assets": [asset.to_dict()]}


@pytest.mark.parametrize(
    "path",
    [
        ("deployment_info", "plant_id"),
        ("static_info", "model"),
        ("mac",),
        ("oui_vendor",),
        ("open_ports", 0),
        ("last_seen",),
        ("provenance", 0, "at"),
        ("provenance", 0, "field"),
        ("provenance", 0, "prior"),
        ("provenance", 0, "current"),
        ("provenance", 0, "source"),
        ("ip",),
    ],
    ids=lambda path: ".".join(map(str, path)),
)
def test_depth_rejects_non_text_inventory_field(tmp_path, capsys, path):
    *parents, last = path
    assert_depth_rejects(tmp_path, capsys, parents, last, 5)


def assert_depth_rejects(tmp_path, capsys, parents, last, value):
    """``icsrecon depth`` loads the sample inventory, and fails with a FormatError once ``last`` is set to ``value``."""
    inventory = tmp_path / "inventory.json"
    document = inventory_document()
    inventory.write_text(json.dumps(document))
    assert main(["depth", "--inventory", str(inventory)]) == 0
    capsys.readouterr()
    field = document["assets"][0]
    for key in parents:
        field = field[key]
    field[last] = value
    inventory.write_text(json.dumps(document))
    assert main(["depth", "--inventory", str(inventory)]) == 1
    assert "error[FormatError]: bad asset record" in capsys.readouterr().err


# values of the wrong JSON type: each would crash the loader or load as something else,
# "modbus" as six one-letter protocols and an object as its keys
WRONG_JSON_TYPES = {
    "static_info": "Siemens",
    "deployment_info": ["plant"],
    "open_ports": {"102/tcp": True},
    "protocols": "modbus",
    "sources": {"active": True},
    "vulnerabilities": {},
    "provenance": {},
}


@pytest.mark.parametrize("field", WRONG_JSON_TYPES)
def test_depth_rejects_inventory_field_of_the_wrong_json_type(tmp_path, capsys, field):
    assert_depth_rejects(tmp_path, capsys, [], field, WRONG_JSON_TYPES[field])


# vulnerability fields the inventory schema types as text, or text or null, each given another JSON type
NON_TEXT_VULNERABILITY_FIELDS = {"vendor": 5, "product": ["x"], "note": 7, "version_min": 3, "version_max": 3}


@pytest.mark.parametrize("field", NON_TEXT_VULNERABILITY_FIELDS)
def test_depth_and_vulnmatch_reject_non_text_vulnerability_field(tmp_path, capsys, field):
    inventory = tmp_path / "inventory.json"
    document = inventory_document()
    vulnerability = {"cve_id": "CVE-2019-99001", "vendor": "siemens", "product": "6ES7 151-8AB01",
                     "version_min": None, "version_max": "4.0", "note": "cpe-style match - verify manually"}
    document["assets"][0]["vulnerabilities"] = [vulnerability]
    inventory.write_text(json.dumps(document))
    assert main(["depth", "--inventory", str(inventory)]) == 0
    vulnerability[field] = NON_TEXT_VULNERABILITY_FIELDS[field]
    inventory.write_text(json.dumps(document))
    for command in (["depth"], ["vulnmatch", "--db", CVE_DB, "--out", str(tmp_path / "enriched.json")]):
        capsys.readouterr()
        assert main([*command, "--inventory", str(inventory)]) == 1
        assert "error[FormatError]: bad asset record" in capsys.readouterr().err
    assert not (tmp_path / "enriched.json").exists()


# -- end-to-end against the simulator ------------------------------------------


def test_scan_command_end_to_end(sim, tmp_path, capsys):
    config = scan_config_file(tmp_path, sim["map"])
    inventory_path = tmp_path / "inventory.json"
    report_path = tmp_path / "report.json"
    code = main(
        ["scan", "--config", config, "--out", str(inventory_path), "--report-out", str(report_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "summary command=scan" in out
    assert "assets=5" in out

    inventory_doc = json.loads(inventory_path.read_text())
    validate_json(inventory_doc, "inventory.schema.json")
    report_doc = json.loads(report_path.read_text())
    validate_json(report_doc, "scan_report.schema.json")
    assert report_doc["per_asset_depth"] == {
        "192.168.90.10": 5,
        "192.168.90.11": 5,
        "192.168.90.12": 3,
        "192.168.90.13": 5,
        "192.168.90.14": 4,
    }


def test_sniff_command_deterministic(sim, tmp_path, capsys):
    config = scan_config_file(tmp_path, sim["map"])
    assert main(["scan", "--config", config, "--out", str(tmp_path / "active.json")]) == 0
    assert_each_flow_ended(sim["pcap"])  # the scan returned after the last teardown frame

    out_a, out_b = tmp_path / "passive_a.json", tmp_path / "passive_b.json"
    assert main(["sniff", "--pcap", sim["pcap"], "--out", str(out_a)]) == 0
    assert main(["sniff", "--pcap", sim["pcap"], "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    validate_json(json.loads(out_a.read_text()), "inventory.schema.json")


def test_sniff_report_validates_and_classifies_as_a_passive_offline_run(sim, tmp_path, capsys):
    config = scan_config_file(tmp_path, sim["map"])
    scan_report, sniff_report = tmp_path / "report.json", tmp_path / "passive_report.json"
    assert main(["scan", "--config", config, "--out", str(tmp_path / "a.json"), "--report-out", str(scan_report)]) == 0
    assert_each_flow_ended(sim["pcap"])  # the scan returned after the last teardown frame
    sniff = ["sniff", "--pcap", sim["pcap"], "--out", str(tmp_path / "p.json"), "--report-out", str(sniff_report)]
    assert main(sniff) == 0
    document = json.loads(sniff_report.read_text())
    validate_json(document, "scan_report.schema.json")
    assert document["kind"] == "passive" and document["nature"] == "offline"
    capsys.readouterr()
    assert main(["report", "--scan-report", str(scan_report), str(sniff_report), "--format", "csv"]) == 0
    rows = capsys.readouterr().out.splitlines()
    # one column per run, in the order given: the scan, then the sniff
    for row in ("execution,active,1,0", "execution,passive,0,1", "execution,offline,0,1"):
        assert row in rows, row


def test_depth_command_prints_ladder(sim, tmp_path, capsys):
    config = scan_config_file(tmp_path, sim["map"])
    inventory_path = tmp_path / "inventory.json"
    main(["scan", "--config", config, "--out", str(inventory_path)])
    capsys.readouterr()
    assert main(["depth", "--inventory", str(inventory_path)]) == 0
    out = capsys.readouterr().out
    assert "192.168.90.10" in out
    assert "deployment specific info" in out
    assert "protocol & service identification" in out


def test_vulnmatch_command_lifts_depth(sim, tmp_path, capsys):
    config = scan_config_file(tmp_path, sim["map"])
    inventory_path = tmp_path / "inventory.json"
    main(["scan", "--config", config, "--out", str(inventory_path)])
    capsys.readouterr()
    enriched = tmp_path / "enriched.json"
    code = main(["vulnmatch", "--inventory", str(inventory_path), "--db", CVE_DB, "--out", str(enriched)])
    assert code == 0
    captured = capsys.readouterr()
    assert "matches=" in captured.out
    assert "verify manually" in captured.err
    doc = json.loads(enriched.read_text())
    validate_json(doc, "inventory.schema.json")
    et200s = [a for a in doc["assets"] if a["ip"] == "192.168.90.10"][0]
    assert et200s["vulnerabilities"][0]["cve_id"] == "CVE-2019-99001"

    capsys.readouterr()
    main(["depth", "--inventory", str(enriched)])
    out = capsys.readouterr().out
    assert "vulnerability identification" in out


def test_scan_with_vuln_db_reaches_level_six(sim, tmp_path):
    config = scan_config_file(tmp_path, sim["map"])
    report_path = tmp_path / "report.json"
    code = main(
        ["scan", "--config", config, "--vuln-db", CVE_DB,
         "--out", str(tmp_path / "inv.json"), "--report-out", str(report_path)]
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["vuln_db_consulted"] is True
    assert report["per_asset_depth"]["192.168.90.10"] == 6
    assert report["per_asset_depth"]["192.168.90.14"] == 4  # no db entry for it


# -- report command ---------------------------------------------------------------


def test_report_matrix_formats(tmp_path, capsys):
    assert main(["report", "--format", "csv"]) == 0
    csv_out = capsys.readouterr().out
    assert csv_out.splitlines()[0].startswith("class,feature")
    assert main(["report", "--format", "text_table"]) == 0
    assert "legend" in capsys.readouterr().out

    out_path = tmp_path / "matrix.json"
    assert main(["report", "--format", "json", "--out", str(out_path)]) == 0
    doc = json.loads(out_path.read_text())
    validate_json(doc, "tool_profiles.schema.json")
    assert len(doc["tools"]) == 28


def test_report_stats_shows_manual_percentage(capsys):
    assert main(["report", "--stats"]) == 0
    out = capsys.readouterr().out
    assert "19/28" in out
    assert "(68%)" in out


def test_report_classifies_scan_reports(sim, tmp_path, capsys):
    config = scan_config_file(tmp_path, sim["map"])
    report_path = tmp_path / "report.json"
    main(["scan", "--config", config, "--out", str(tmp_path / "i.json"), "--report-out", str(report_path)])
    capsys.readouterr()
    assert main(["report", "--scan-report", str(report_path), "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert "icsrecon" in out.splitlines()[0]


TOOL = {"name": "t", "last_update": "2021-01-01", "spec": {"run": "standalone"},
        "exec": {"usage": "manual", "effort": "interactive"}}


@pytest.mark.parametrize(
    "command, what",
    [
        (["depth", "--inventory", "{bad}"], "inventory"),
        (["vulnmatch", "--inventory", "{inventory}", "--db", "{bad}"], "CVE database"),
        (["vulnmatch", "--inventory", "{inventory}", "--db", "{db}", "--aliases", "{bad}"], "alias table"),
        (["report", "--dataset", "{bad}"], "dataset"),
        (["report", "--scan-report", "{bad}"], "scan report {bad}"),
    ],
    ids=["inventory", "cve-database", "alias-table", "dataset", "scan-report"],
)
def test_each_json_input_that_is_not_json_is_named_with_its_place(tmp_path, capsys, command, what):
    files = {"bad": tmp_path / "bad.json", "inventory": tmp_path / "inventory.json", "db": tmp_path / "db.json"}
    files["bad"].write_text('{\n  "version": 1,\n  oops\n}\n')
    files["inventory"].write_text(json.dumps({"version": 1, "assets": []}))
    files["db"].write_text("[]")
    assert main([arg.format(**files) for arg in command]) == 1
    message = f"{what.format(**files)} is not valid JSON: Expecting property name enclosed in double quotes (line 3)"
    assert capsys.readouterr().err == f"error[FormatError]: {message} (at byte 20)\n"


@pytest.mark.parametrize(
    "document, message",
    [
        ([5], "dataset must be an array of tool objects"),
        ({"tools": "x"}, "dataset must be an array of tool objects"),
        ("x", "dataset must be an array of tool objects"),
        ([{**TOOL, "name": 5}], "name and version must be text"),
        ({"tools": [{**TOOL, "version": 1.0}]}, "name and version must be text"),
    ],
    ids=["array-of-int", "tools-string", "string", "name-int", "version-number"],
)
def test_report_with_a_malformed_dataset_is_format_error(tmp_path, capsys, document, message):
    path = tmp_path / "dataset.json"
    path.write_text(json.dumps(document))
    assert main(["report", "--dataset", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error[FormatError]: ") and message in err


# -- simulate command ----------------------------------------------------------------


def test_simulate_device_without_listen_port_is_config_error(tmp_path, capsys):
    fixtures = tmp_path / "station.conf"
    fixtures.write_text("[device:a]\nprotocol = modbus\nip = 10.0.0.1\n")
    map_path = tmp_path / "map.json"
    code = main(["simulate", "--fixtures", str(fixtures), "--map-out", str(map_path), "--max-seconds", "5"])
    assert code == 1
    assert "error[ConfigError]: a: listen_port must be" in capsys.readouterr().err
    assert not map_path.exists()  # rejected before any device started


@pytest.mark.parametrize("line", ["max_pps = lots", "fragile = maybe", "identity.product_code = 100%"],
                         ids=["max_pps", "fragile", "identity_percent"])
def test_bad_fixture_value_names_the_file_section_and_key(tmp_path, capsys, line):
    fixtures = tmp_path / "station.conf"
    fixtures.write_text(f"[device:plc]\nprotocol = modbus\nip = 10.0.0.1\nlisten_port = 502\n{line}\n")
    map_path = tmp_path / "map.json"
    assert main(["simulate", "--fixtures", str(fixtures), "--map-out", str(map_path), "--max-seconds", "5"]) == 1
    key = line.partition(" =")[0]
    assert capsys.readouterr().err.startswith(f"error[ConfigError]: {fixtures}: [device:plc] {key}: ")
    assert not map_path.exists()


@pytest.mark.parametrize(
    "protocol,lines",
    [
        ("modbus", "features = report_slave_id_fc11\nunit_id = 300"),  # no unit byte holds 300
        ("modbus", "features = report_slave_id_fc11\nidentity.slave_id = 256"),
        ("enip", "features = list_identity\nidentity.vendor_id = x"),
        ("modbus", "features = device_id_fc2b\nidentity.manufacturer = " + "M" * 256),  # over an object's 255 bytes
        # each object fits, the reply of 424 bytes is over the 260 of a Modbus/TCP frame
        ("modbus", "features = device_id_fc2b\nidentity.manufacturer = " + "M" * 200 + "\nidentity.product_code = "
         + "P" * 200),
        ("s7comm", "features = szl_0011\nidentity.firmware_version = v3"),  # not dotted-numeric
        # a version word holds a byte each for major and minor, then a 16-bit patch word
        ("s7comm", "features = szl_0011\nidentity.hardware_version = 300.1"),
        ("s7comm", "features = szl_0011\nidentity.firmware_version = 4.300.70000"),
        ("s7comm", "features = szl_0011\nidentity.firmware_version = 4.4.70000"),
        ("s7comm", "features = szl_0011\nidentity.module_order_number = " + "6" * 21),  # over a record's 20 characters
        ("s7comm", "features = szl_001c\nidentity.system_name = " + "S" * 33),  # over a record's 32 characters
        # identity text is ASCII: no encoder writes "?" for a character it cannot carry
        ("modbus", "features = device_id_fc2b\nidentity.manufacturer = Schnéider"),
        ("modbus", "features = report_slave_id_fc11\nidentity.product_code = Pompé"),
        ("s7comm", "features = szl_001c\nidentity.system_name = Sté"),
        ("enip", "features = list_identity\nidentity.product_name = Réacteur"),
        # a revision is dotted decimal, as S7's version words are, not text a ListIdentity reply would guess at
        ("enip", "features = list_identity\nidentity.firmware_version = v2"),
        ("enip", "features = list_identity\nidentity.firmware_version = 2.x"),
        # replies the device's own codec refuses: FC 0x2B with no object, a list 0x001C reply with no record
        ("modbus", "features = device_id_fc2b\nidentity.slave_id = 5"),
        ("s7comm", "features = szl_001c\nidentity.module_order_number = 6ES7 151-8AB01-0AB0"),
        # a CR's called TSAP is 16 bits
        ("s7comm", "accepted_tsaps = 0x0102 0x10102"),
        ("s7comm", "accepted_tsaps = -1"),
    ],
    ids=["unit_id", "slave_id", "enip_number", "long_text", "long_reply", "s7_version", "s7_hardware_300",
         "s7_firmware_300", "s7_patch_70000", "s7_order_number_21", "s7_component_text_33", "modbus_object_not_ascii",
         "modbus_slave_id_extra_not_ascii", "s7_component_text_not_ascii", "enip_product_name_not_ascii",
         "enip_version_v2", "enip_version_2x",
         "modbus_no_object", "s7_component_no_record", "s7_tsap_over_16_bits", "s7_tsap_negative"],
)
def test_simulate_refuses_a_device_whose_identity_replies_cannot_be_built(tmp_path, capsys, protocol, lines):
    fixtures = tmp_path / "station.conf"
    fixtures.write_text(f"[device:broken]\nprotocol = {protocol}\nip = 10.0.0.1\nlisten_port = 1000\n{lines}\n")
    map_path = tmp_path / "map.json"
    code = main(["simulate", "--fixtures", str(fixtures), "--map-out", str(map_path), "--max-seconds", "0"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error[ConfigError]: broken: ")
    assert not map_path.exists()  # rejected before any device started


@pytest.mark.parametrize(
    "protocol, line",
    [("modbus", "identity.firmware_verison = 2.1"), ("enip", "identity.serial = 0x10"),
     ("modbus", "identity.plant_id = LINE-A")],
    ids=["modbus_misspelt", "enip_s7_key", "modbus_s7_key"],
)
def test_simulate_refuses_an_identity_key_the_device_does_not_serve(tmp_path, capsys, protocol, line):
    fixtures = tmp_path / "station.conf"
    fixtures.write_text(f"[device:plc]\nprotocol = {protocol}\nip = 10.0.0.1\nlisten_port = 1000\n{line}\n")
    map_path = tmp_path / "map.json"
    assert main(["simulate", "--fixtures", str(fixtures), "--map-out", str(map_path), "--max-seconds", "0"]) == 1
    key = line.partition(" =")[0]
    assert capsys.readouterr().err.startswith(f"error[ConfigError]: plc: {key} is not read by a {protocol} device")
    assert not map_path.exists()  # rejected before any device started


@pytest.mark.parametrize(
    "command, name",
    [(["simulate", "--max-seconds", "0", "--map-out"], "map.json"), (["report", "--out"], "matrix.txt")],
)
def test_a_write_that_fails_part_way_leaves_the_old_file(tmp_path, command, name):
    """Files may grow to 200 bytes only, less than the map or the matrix: the write fails after its first 200."""
    path = tmp_path / name
    path.write_text("old\n")
    script = (  # Python ignores SIGXFSZ, so the write past the limit raises OSError
        "import resource; resource.setrlimit(resource.RLIMIT_FSIZE, (200, 200))\n"
        f"from icsrecon.cli import main; raise SystemExit(main({[*command, str(path)]!r}))\n"
    )
    env = {**_child_env(), "PYTHONDONTWRITEBYTECODE": "1"}
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 1 and "error[OSError]" in result.stderr, result.stderr
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == [name]  # no partial file left behind


def test_scan_with_a_map_file_without_control_port_is_format_error(tmp_path, capsys):
    map_path = tmp_path / "map.json"
    map_path.write_text(json.dumps({"scanner_ip": "192.168.90.1", "hosts": {}}))
    config = tmp_path / "scan.conf"
    config.write_text("[scan]\ntargets = 192.168.90.10\n[network]\nmode = real\n")  # --map-file selects the simulator
    assert main(["scan", "--config", str(config), "--map-file", str(map_path)]) == 1
    assert "error[FormatError]: station map lacks 'control_port'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        ("not json", "is not valid JSON"),
        ("[]", "must be a JSON object"),
        (
            json.dumps({"scanner_ip": "not-an-ip", "hosts": {}, "control_port": 1}),
            "scanner_ip: not an IPv4 address",
        ),
    ],
    ids=["not-json", "array", "scanner-ip-not-ipv4"],
)
def test_scan_with_a_malformed_map_file_is_format_error(tmp_path, capsys, text, message):
    map_path = tmp_path / "map.json"
    map_path.write_text(text)
    config = tmp_path / "scan.conf"
    config.write_text("[scan]\ntargets = 192.168.90.10\n")
    assert main(["scan", "--config", str(config), "--map-file", str(map_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error[FormatError]: ") and message in err


@pytest.mark.parametrize(
    "text, message",
    [
        ("not json", "is not valid JSON"),
        ('"x"', "must be a JSON object"),
        (json.dumps({"inventory": []}), "inventory has the wrong JSON type"),
        (json.dumps({"kind": "active", "levels_achieved": {}}), "levels_achieved has the wrong JSON type"),
        (json.dumps({"kind": "active", "levels_achieved": [], "methods_used": 5}), "methods_used has the wrong JSON type"),
        (json.dumps({"kind": 5}), "kind has the wrong JSON type"),
        (json.dumps({"kind": "passive", "levels_achieved": [], "nature": 5}), "nature has the wrong JSON type"),
        (json.dumps({"inventory": {"assets": [5]}}), "assets has the wrong JSON type"),
        (json.dumps({"inventory": {"assets": [{"protocols": 5}]}}), "protocols has the wrong JSON type"),
        (json.dumps({"levels_achieved": [], "generated_at": "x"}), "generated_at is not a timestamp"),
    ],
    ids=[
        "not-json", "string", "inventory-array", "levels-object", "methods-int", "kind-int", "nature-int",
        "asset-int", "protocols-int", "generated-at-not-date",
    ],
)
def test_report_with_a_malformed_scan_report_is_format_error(tmp_path, capsys, text, message):
    path = tmp_path / "scan_report.json"
    path.write_text(text)
    assert main(["report", "--scan-report", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error[FormatError]: ") and message in err


# -- each command loads only the modules it runs -------------------------------

CLI_CORE = {"icsrecon", "icsrecon.cli", "icsrecon.errors", "icsrecon.model", "icsrecon.vulnmatch"}
SCANNER_AND_SIMULATOR = {"icsrecon.scanner", "icsrecon.simulator", "icsrecon.netbase"}
ACTIVE_AND_PASSIVE = SCANNER_AND_SIMULATOR | {"icsrecon.passive", "icsrecon.pcapio", "icsrecon.codecs"}


def _child_env() -> dict[str, str]:
    """This environment, with the tested package's source directory first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(icsrecon.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}


def _modules_loaded(code: str, roots: tuple[str, ...] = ("icsrecon",)) -> set[str]:
    """The modules under ``roots`` a fresh interpreter holds after running ``code``."""
    script = (
        "import contextlib, io, json, sys\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"    {code}\n"
        f"print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in {roots!r})))\n"
    )
    env = _child_env()
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return set(json.loads(result.stdout))


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    inventory = tmp_path / "inventory.json"
    inventory.write_text(json.dumps({"version": 1, "assets": []}))
    pcap = tmp_path / "arp.pcap"
    writer = PcapWriter(str(pcap))
    writer.write(1.0, arp_frame(2, "00:1b:1b:00:00:10", "192.168.90.10", "02:00:00:00:00:01", "192.168.90.1"))
    writer.close()
    scan_config = tmp_path / "scan.conf"
    scan_config.write_text("[scan]\ntargets = 192.168.90.10\n")

    def run(*argv, roots=("icsrecon",)) -> set[str]:
        return _modules_loaded(f"from icsrecon.cli import main; assert main({list(map(str, argv))!r}) == 0", roots)

    # dataclasses imports inspect, ast, dis and tokenize: about 10 ms of start-up none of these commands needs
    record_machinery = ("dataclasses", "inspect")
    assert _modules_loaded("import icsrecon.cli") == CLI_CORE
    assert run("depth", "--inventory", inventory, roots=("icsrecon", *record_machinery)) == CLI_CORE
    # icsrecon.data is the package of the shipped alias table the matcher reads
    vuln = run("vulnmatch", "--inventory", inventory, "--db", CVE_DB, "--out", tmp_path / "out.json",
               roots=("icsrecon", *record_machinery))
    assert vuln == CLI_CORE | {"icsrecon.data"}

    report = run("report", "--stats", roots=("icsrecon", *record_machinery))
    assert "icsrecon.taxonomy" in report and not report & ACTIVE_AND_PASSIVE  # a codec loads icsrecon.codecs
    assert not report & set(record_machinery)

    sniff = run(
        "sniff", "--pcap", pcap, "--out", tmp_path / "sniffed.json", roots=("icsrecon", "socket", *record_machinery)
    )
    assert "icsrecon.passive" in sniff
    assert "socket" not in sniff  # only live capture opens one
    assert not sniff & set(record_machinery)
    assert not sniff & (SCANNER_AND_SIMULATOR | {"icsrecon.taxonomy", "icsrecon.config"})

    scan_settings = _modules_loaded(
        f"from icsrecon.config import load_scan_config; load_scan_config({str(scan_config)!r})",
        roots=("icsrecon", *record_machinery),
    )
    assert "icsrecon.scanner" in scan_settings and "icsrecon.simulator" not in scan_settings
    assert not scan_settings & set(record_machinery)
    fixtures = _modules_loaded(
        "from icsrecon.config import default_fixtures_path, load_fixtures; load_fixtures(default_fixtures_path())",
        roots=("icsrecon", *record_machinery),
    )
    assert "icsrecon.simulator" in fixtures and "icsrecon.scanner" not in fixtures
    assert not fixtures & set(record_machinery)


def test_simulate_command_runs_and_shuts_down(tmp_path, capsys):
    map_path = tmp_path / "map.json"
    result = {}

    def run():
        result["code"] = main(["simulate", "--map-out", str(map_path), "--max-seconds", "20"])

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    deadline = time.monotonic() + 10
    while not map_path.exists() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert map_path.exists()
    doc = json.loads(map_path.read_text())
    assert doc["hosts"]["192.168.90.10"]["name"] == "et200s_like"

    client = ControlClient(doc["control_port"])
    assert client.call("state", name="et200s_like")["state"] == "running"
    client.call("shutdown")
    client.close()
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert result["code"] == 0


def test_simulate_ends_with_code_0_on_ctrl_c(tmp_path):
    command = [sys.executable, "-u", "-c", "import sys; from icsrecon.cli import main; sys.exit(main(sys.argv[1:]))",
               "simulate", "--map-out", str(tmp_path / "map.json")]
    process = subprocess.Popen(command, env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        assert process.stdout.readline().startswith("summary command=simulate")  # the station is up
        process.send_signal(signal.SIGINT)
        assert process.wait(timeout=10) == 0, process.stderr.read()
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
        process.stdout.close()
        process.stderr.close()
