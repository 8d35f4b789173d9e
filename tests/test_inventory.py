"""Inventory: upsert semantics, persistence round trip, error paths."""

from __future__ import annotations

import json
import os
import random

import pytest
from hypothesis import given, strategies as st

from icsrecon import taxonomy
from icsrecon.config import default_fixtures_path, load_fixtures
from icsrecon.errors import FormatError
from icsrecon.model import (
    Asset,
    CveRecord,
    DepthLevel,
    Inventory,
    PortSpec,
    ProvenanceEntry,
    RunReport,
    StaticDeviceInfo,
    json_text,
)
from icsrecon.simulator import ControlledStation, StationHandle

from conftest import random_asset, random_observation, same_record, ts


def test_upsert_same_ip_merges_into_one(tmp_path):
    inv = Inventory()
    inv.upsert(Asset.discovered("192.168.90.10", ts(), open_ports=frozenset({PortSpec(102)})))
    inv.upsert(
        Asset.discovered("192.168.90.10", ts(1), static_info=StaticDeviceInfo(manufacturer="Siemens"))
    )
    assert len(inv) == 1
    asset = inv.get("192.168.90.10")
    assert asset.open_ports == frozenset({PortSpec(102)})
    assert asset.static_info.manufacturer == "Siemens"


def test_upsert_is_idempotent():
    asset = Asset.discovered("192.168.90.10", ts(), open_ports=frozenset({PortSpec(102)}))
    inv = Inventory()
    first = inv.upsert(asset)
    second = inv.upsert(asset)
    assert len(inv) == 1
    assert first.open_ports == second.open_ports
    assert first.static_info == second.static_info
    # an asset carrying provenance: upserting it again logs nothing twice
    revised = Asset.discovered(
        "192.168.90.10",
        ts(1),
        static_info=StaticDeviceInfo(manufacturer="Siemens", firmware_version="3.2.6"),
        provenance=(ProvenanceEntry("static_info.firmware_version", "3.2.5", "3.2.6", ts(1), "active"),),
    )
    inv = Inventory()
    first = inv.upsert(revised)
    second = inv.upsert(revised)
    assert first == second == revised


def test_upsert_keeps_the_incoming_assets_provenance():
    ip = "192.168.90.13"
    passive = Asset.discovered(
        ip,
        ts(2),
        "passive",
        static_info=StaticDeviceInfo(manufacturer="Schneider Electric", firmware_version="2"),
        provenance=(ProvenanceEntry("static_info.firmware_version", "1", "2", ts(2), "passive"),),
    )
    inv = Inventory([Asset.discovered(ip, ts(), static_info=StaticDeviceInfo(manufacturer="Schneider"))])
    merged = inv.upsert(passive)
    assert [(p.field, p.prior, p.current, p.at, p.source) for p in merged.provenance] == [
        ("static_info.manufacturer", "Schneider", "Schneider Electric", ts(2), "passive"),
        ("static_info.firmware_version", "1", "2", ts(2), "passive"),
    ]
    assert merged.static_info.firmware_version == "2"
    assert inv.upsert(passive) == merged  # nothing logged twice


def test_save_load_round_trip(tmp_path, rng):
    inv = Inventory(random_asset(rng) for _ in range(50))
    path = tmp_path / "inventory.json"
    inv.save(path)
    assert Inventory.load(path) == inv


def test_save_load_round_trip_1000_random_assets(tmp_path):
    rng = random.Random(99)
    seen = set()
    assets = []
    while len(assets) < 1000:
        asset = random_asset(rng)
        if asset.ip in seen:
            continue
        seen.add(asset.ip)
        assets.append(asset)
    inv = Inventory(assets)
    path = tmp_path / "big.json"
    inv.save(path)
    loaded = Inventory.load(path)
    assert loaded == inv
    # records compare as plain tuples, so their types are compared as well
    assert sum(bool(a.vulnerabilities) for a in assets) > 50
    assert all(same_record(loaded.get(a.ip).vulnerabilities, a.vulnerabilities) for a in assets)
    # and the rendering itself is stable
    loaded.save(tmp_path / "big2.json")
    assert (tmp_path / "big.json").read_bytes() == (tmp_path / "big2.json").read_bytes()


def test_a_failed_save_leaves_the_saved_files_as_they_were(tmp_path, rng, monkeypatch):
    inventory_path, report_path = tmp_path / "inventory.json", tmp_path / "report.json"
    report = RunReport("passive", Inventory([random_asset(rng, ip="10.0.0.7")]), source="capture.pcap")
    report.save(inventory_path, report_path)
    saved = {path: path.read_bytes() for path in (inventory_path, report_path)}

    with monkeypatch.context() as patch:
        patch.setattr(Asset, "to_dict", lambda asset: {"unencodable": object()})
        with pytest.raises(TypeError):
            report.save(inventory_path, report_path)  # the inventory's encode fails
    assert {path: path.read_bytes() for path in saved} == saved
    with monkeypatch.context() as patch:
        patch.setattr(RunReport, "to_document", lambda report: {"unencodable": object()})
        with pytest.raises(TypeError):
            report.save(inventory_path, report_path)  # the report's encode fails
    assert {path: path.read_bytes() for path in saved} == saved

    def cut_short(source, target):
        raise OSError("cut short")

    monkeypatch.setattr(os, "replace", cut_short)
    with pytest.raises(OSError):
        Inventory([random_asset(rng, ip="10.0.0.8")]).save(inventory_path)
    assert inventory_path.read_bytes() == saved[inventory_path]
    assert sorted(tmp_path.iterdir()) == sorted(saved)  # no partial file left beside them


def test_document_shape(tmp_path, rng):
    inv = Inventory([random_asset(rng, ip="10.0.0.7")])
    doc = inv.to_document()
    assert doc["version"] == 1
    assert isinstance(doc["assets"], list)
    asset = doc["assets"][0]
    for port in asset["open_ports"]:
        assert "/" in port
    assert asset["last_seen"].endswith("Z") or "+" in asset["last_seen"]


def test_load_truncated_file_reports_offset(tmp_path, rng):
    inv = Inventory([random_asset(rng)])
    path = tmp_path / "inv.json"
    inv.save(path)
    blob = path.read_bytes()[: len(path.read_bytes()) // 2]
    path.write_bytes(blob)
    with pytest.raises(FormatError) as err:
        Inventory.load(path)
    assert err.value.offset is not None


def test_load_wrong_version(tmp_path):
    path = tmp_path / "inv.json"
    path.write_text(json.dumps({"version": 7, "assets": []}))
    with pytest.raises(FormatError):
        Inventory.load(path)


def test_load_bad_asset_record(tmp_path):
    path = tmp_path / "inv.json"
    path.write_text(json.dumps({"version": 1, "assets": [{"ip": "not-an-ip", "last_seen": "x"}]}))
    with pytest.raises(FormatError):
        Inventory.load(path)


def test_load_refuses_a_duplicated_address(tmp_path):
    # each record holds evidence the other lacks: keeping only one would lose it
    first = {"ip": "10.0.0.1", "last_seen": "2026-01-01T00:00:00Z", "open_ports": ["502/tcp"]}
    second = {"ip": "10.0.0.1", "last_seen": "2026-01-01T00:00:01Z", "protocols": ["modbus"]}
    path = tmp_path / "inv.json"
    path.write_text(json.dumps({"version": 1, "assets": [first, {**first, "ip": "10.0.0.2"}, second]}))
    with pytest.raises(FormatError, match=r"duplicate asset 10\.0\.0\.1 at index 2"):
        Inventory.load(path)


@pytest.mark.parametrize("assets", [["x"], [5], [[]], "x", {"ip": "10.0.0.1"}, None])
def test_load_refuses_assets_that_are_not_an_array_of_objects(tmp_path, assets):
    path = tmp_path / "inv.json"
    path.write_text(json.dumps({"version": 1, "assets": assets}))
    with pytest.raises(FormatError, match="bad asset record"):
        Inventory.load(path)


@pytest.mark.parametrize(
    "fields",
    [{"severity": True}, {"severity": "9.8"}, {"summary": ["x"]}, {"summary": None}, {"severity": 10.5},
     {"cve_id": "CVE-20-1"}, {"cve_id": "CVE-2020-12345\n"}, {"cve_id": "CVE-\u0662\u0660\u0662\u0660-12345"}],
)
def test_load_rejects_non_numeric_severity_and_non_text_summary(tmp_path, fields):
    asset = Asset(
        "10.0.0.1", ts(), static_info=StaticDeviceInfo(manufacturer="Siemens"),
        vulnerabilities=(CveRecord("CVE-2020-12345", "siemens", "et200s", summary="ok", severity=7.5),),
    )
    path = tmp_path / "inv.json"
    Inventory([asset]).save(path)
    doc = json.loads(path.read_text())
    assert Inventory.from_document(doc).get("10.0.0.1") == asset
    doc["assets"][0]["vulnerabilities"][0].update(fields)
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError, match="bad asset record"):
        Inventory.load(path)


def test_assets_sorted_by_ip():
    inv = Inventory(
        [Asset.discovered(ip, ts()) for ip in ["10.0.0.10", "10.0.0.2", "10.0.0.1"]]
    )
    assert [a.ip for a in inv.assets()] == ["10.0.0.1", "10.0.0.2", "10.0.0.10"]


# -- the JSON writer ------------------------------------------------------------------


def dumped(document) -> str:
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


TRICKY_TEXT = st.text(st.characters() | st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9\u2028\U0001f600'))
JSON_SCALARS = (
    TRICKY_TEXT | st.none() | st.booleans() | st.sampled_from([0, 1, -0.0, 1e16, float("nan"), float("inf"),
                                                                float("-inf"), DepthLevel.VULNERABILITY])
    | st.integers() | st.integers(-(10**40), 10**40) | st.floats()
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(TRICKY_TEXT, children, max_size=4)
        | st.dictionaries(st.integers() | st.floats() | st.booleans(), children, max_size=4)  # mutually comparable
        | st.dictionaries(st.none(), children, max_size=1)
    ),
    max_leaves=20,
)


@given(JSON_VALUES)
def test_json_text_writes_what_json_dumps_writes(value):
    assert json_text(value) == dumped(value)


def test_json_text_refuses_what_json_dumps_refuses():
    for document in ({"x": object()}, {(1, 2): 0}, {"a": 1, 2: 0}):
        with pytest.raises(TypeError):
            dumped(document)
        with pytest.raises(TypeError):
            json_text(document)


def program_documents() -> dict:
    """One document of each kind the program writes."""
    rng = random.Random(0x15ED)
    inventory = Inventory()
    for _ in range(60):
        inventory.upsert(random_observation(rng, f"10.0.0.{rng.randrange(1, 6)}"))
    assert any(asset.provenance for asset in inventory) and any(asset.vulnerabilities for asset in inventory)
    active = RunReport(
        "active", inventory, anomalies=["10.0.0.3: reply cut short"], duration_seconds=1.25, packets_sent=37,
        rate_limit_pps=50.0, safe_mode=True, methods_used=["icmp", "arp"], unit_id_sweep_used=False,
        vuln_db_consulted=True,
    )
    passive = RunReport(
        "passive", inventory, nature="offline", source="./capture.pcap", frames_read=990, frames_skipped=3,
        out_of_order_segments=0, classified_flows=12,
    )
    profiles = taxonomy.load_profiles()
    fixtures = load_fixtures(default_fixtures_path())
    controlled = ControlledStation(StationHandle(list(fixtures.devices), scanner_ip=fixtures.scanner_ip).start())
    try:
        station_map = controlled.map_document()
    finally:
        controlled.stop()
    return {
        "inventory": inventory.to_document(),
        "active report": active.to_document(),
        "passive report": passive.to_document(),
        "report --stats": taxonomy.dataset_stats(profiles),  # int keys under fraction_reaching_level
        "json matrix": {"version": taxonomy.DATASET_VERSION, "tools": list(map(taxonomy.profile_to_dict, profiles))},
        "station map": station_map,
    }


def test_json_text_writes_each_program_document_as_json_dumps_does():
    for kind, document in program_documents().items():
        assert json_text(document) == dumped(document), kind
