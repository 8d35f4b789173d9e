"""Command line: exit codes, guard rails, end-to-end workflows."""

from __future__ import annotations

import json
import os
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
from icsrecon.pcapio import PcapWriter, arp_frame
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
    "text",
    [
        "[scan]\ntargets = 192.168.90.13\nports = 502, 5o2\n",
        "[scan]\ntargets = 192.168.90.13\nrate_limit_pps = fast\n",
        "[scan]\ntargets = 192.168.90.13\nsafe_mode = maybe\n",
        "targets = 192.168.90.13\n",  # no section header
    ],
    ids=["ports", "rate_limit_pps", "safe_mode", "no_section_header"],
)
def test_bad_scan_config_value_is_operational_error(tmp_path, capsys, text):
    path = tmp_path / "scan.conf"
    path.write_text(text)
    code = main(["scan", "--config", str(path)])
    assert code == 1
    assert "error[ConfigError]" in capsys.readouterr().err


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
    assert sim["station"].wait_idle()  # the last teardown frames are in the mirror pcap

    out_a, out_b = tmp_path / "passive_a.json", tmp_path / "passive_b.json"
    assert main(["sniff", "--pcap", sim["pcap"], "--out", str(out_a)]) == 0
    assert main(["sniff", "--pcap", sim["pcap"], "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    validate_json(json.loads(out_a.read_text()), "inventory.schema.json")


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
    assert "error[ConfigError]" in capsys.readouterr().err
    assert not map_path.exists()  # rejected before any device started


def test_scan_with_a_map_file_without_control_port_is_format_error(tmp_path, capsys):
    map_path = tmp_path / "map.json"
    map_path.write_text(json.dumps({"scanner_ip": "192.168.90.1", "hosts": {}}))
    config = tmp_path / "scan.conf"
    config.write_text("[scan]\ntargets = 192.168.90.10\n")
    assert main(["scan", "--config", str(config), "--map-file", str(map_path)]) == 1
    assert "error[FormatError]: station map lacks 'control_port'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        ("not json", "is not valid JSON"),
        ("[]", "must be a JSON object"),
        (json.dumps({"scanner_ip": "192.168.90.1", "hosts": [], "control_port": 1}), "hosts must be a JSON object"),
        (
            json.dumps({"scanner_ip": "192.168.90.1", "hosts": {"192.168.90.10": 5}, "control_port": 1}),
            "host 192.168.90.10 must be an object holding a ports object",
        ),
        (
            json.dumps({"scanner_ip": "not-an-ip", "hosts": {}, "control_port": 1}),
            "scanner_ip: not an IPv4 address",
        ),
    ],
    ids=["not-json", "array", "hosts-array", "host-not-object", "scanner-ip-not-ipv4"],
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


def _modules_loaded(code: str, roots: tuple[str, ...] = ("icsrecon",)) -> set[str]:
    """The modules under ``roots`` a fresh interpreter holds after running ``code``."""
    src = os.path.dirname(os.path.dirname(icsrecon.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    script = (
        "import contextlib, io, json, sys\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"    {code}\n"
        f"print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in {roots!r})))\n"
    )
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

    assert _modules_loaded("import icsrecon.cli") == CLI_CORE
    assert run("depth", "--inventory", inventory) == CLI_CORE
    # icsrecon.data is the package of the shipped alias table the matcher reads
    vuln = run("vulnmatch", "--inventory", inventory, "--db", CVE_DB, "--out", tmp_path / "out.json")
    assert vuln == CLI_CORE | {"icsrecon.data"}

    report = run("report", "--stats")
    assert "icsrecon.taxonomy" in report and not report & ACTIVE_AND_PASSIVE  # a codec loads icsrecon.codecs

    sniff = run("sniff", "--pcap", pcap, "--out", tmp_path / "sniffed.json", roots=("icsrecon", "socket"))
    assert "icsrecon.passive" in sniff
    assert "socket" not in sniff  # only live capture opens one
    assert not sniff & (SCANNER_AND_SIMULATOR | {"icsrecon.taxonomy", "icsrecon.config"})

    scan_settings = _modules_loaded(
        f"from icsrecon.config import load_scan_config; load_scan_config({str(scan_config)!r})"
    )
    assert "icsrecon.scanner" in scan_settings and "icsrecon.simulator" not in scan_settings
    fixtures = _modules_loaded(
        "from icsrecon.config import default_fixtures_path, load_fixtures; load_fixtures(default_fixtures_path())"
    )
    assert "icsrecon.simulator" in fixtures and "icsrecon.scanner" not in fixtures


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
