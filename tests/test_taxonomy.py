"""Tool taxonomy: validation rules, shipped dataset, rendering."""

from __future__ import annotations

import hashlib
import json
from datetime import date
from importlib import resources

import pytest

from icsrecon import taxonomy as tx
from icsrecon.cli import main
from icsrecon.codecs import modbus
from icsrecon.config import default_fixtures_path, load_fixtures
from icsrecon.errors import FormatError, ValidationRequired
from icsrecon.passive import PcapFile, analyze_capture
from icsrecon.pcapio import PcapWriter, TrafficRecorder
from icsrecon.model import RunReport
from icsrecon.scanner import ScanConfig, Scanner
from icsrecon.simulator import SimNetwork, StationHandle


def make_profile(**kw) -> tx.ToolProfile:
    base = dict(
        name="exampletool",
        version="1.0",
        last_update=date(2021, 6, 1),
        spec=tx.SpecificationFeatures(
            run="standalone",
            license=frozenset({"open_source"}),
            scope=frozenset({"single_target"}),
            protocol_support="single",
            protocols=frozenset({"modbus"}),
        ),
        exec=tx.ExecutionFeatures(
            method=frozenset({"active"}),
            usage="manual",
            effort="interactive",
            nature=frozenset({"real_time"}),
            enumeration=frozenset({"port_scanning"}),
        ),
        output_levels=frozenset({1, 2}),
    )
    base.update(kw)
    return tx.ToolProfile(**base)


def test_valid_profile_has_no_violations():
    assert tx.validate_profile(make_profile()) == []


def test_nmap_profile_from_dataset_is_clean():
    (nmap,) = [p for p in tx.load_profiles() if p.name == "Nmap"]
    assert tx.validate_profile(nmap) == []


def test_empty_method_violation():
    profile = make_profile(exec=tx.ExecutionFeatures(method=frozenset(), usage="manual", effort="interactive"))
    rules = {v.rule for v in tx.validate_profile(profile)}
    assert "MethodEmpty" in rules


def test_protocol_support_contradiction():
    profile = make_profile(
        spec=tx.SpecificationFeatures(
            run="standalone",
            protocol_support="single",
            protocols=frozenset({"modbus", "s7comm", "dnp3"}),
        )
    )
    rules = {v.rule for v in tx.validate_profile(profile)}
    assert "ScopeContradiction" in rules


def test_active_requires_real_time():
    profile = make_profile(
        exec=tx.ExecutionFeatures(
            method=frozenset({"active"}), usage="manual", effort="interactive", nature=frozenset()
        )
    )
    rules = {v.rule for v in tx.validate_profile(profile)}
    assert "ActiveRequiresRealTime" in rules


def test_level_one_required():
    profile = make_profile(output_levels=frozenset({2, 3}))
    rules = {v.rule for v in tx.validate_profile(profile)}
    assert "MissingLevelOne" in rules


@pytest.mark.parametrize(
    "section,name", [(section, name) for _, section, name, _, _ in tx.FEATURES] + [("spec", "protocols")]
)
def test_one_unknown_value_is_one_violation(section, name):
    profile = make_profile()
    features = getattr(profile, section)
    held = getattr(features, name)
    if name == "protocols":
        value = frozenset({"bogus"})  # replaced, not added, so the profile stays single-protocol
    elif isinstance(held, frozenset):
        value = held | {"bogus"}
    else:
        value = "bogus"
    profile = profile._replace(**{section: features._replace(**{name: value})})
    assert [(v.field, v.rule) for v in tx.validate_profile(profile)] == [(f"{section}.{name}", "InvalidValue")]


def test_schema_enums_equal_the_feature_table():
    with resources.files("icsrecon.data").joinpath("schemas/tool_profiles.schema.json").open() as fh:
        profile = json.load(fh)["$defs"]["profile"]["properties"]
    for _, section, name, values, is_set in tx.FEATURES:
        prop = profile[section]["properties"][name]
        assert (prop.get("type") == "array") == is_set, name
        assert (prop["items"]["enum"] if is_set else prop["enum"]) == list(values), name
    assert profile["spec"]["properties"]["protocols"]["items"]["enum"] == list(tx.PROTOCOL_TOKENS)
    table_fields = {(section, name) for _, section, name, _, _ in tx.FEATURES} | {("spec", "protocols")}
    assert {(s, n) for s in ("spec", "exec") for n in profile[s]["properties"]} == table_fields


def test_profile_from_dict_defaults_and_required_keys():
    minimal = {
        "name": "t",
        "last_update": "2021-01-01",
        "spec": {"run": "standalone", "unknown": 1},
        "exec": {"usage": "manual", "effort": "interactive", "unknown": 2},
    }
    assert tx.profile_from_dict(minimal) == tx.ToolProfile(
        name="t",
        version="",
        last_update=date(2021, 1, 1),
        spec=tx.SpecificationFeatures(run="standalone"),
        exec=tx.ExecutionFeatures(method=frozenset(), usage="manual", effort="interactive"),
    )
    for section, key in (("spec", "run"), ("exec", "usage"), ("exec", "effort")):
        broken = {**minimal, section: {k: v for k, v in minimal[section].items() if k != key}}
        with pytest.raises(FormatError, match=key):
            tx.profile_from_dict(broken)
    with pytest.raises(FormatError):
        tx.profile_from_dict({**minimal, "exec": ["manual"]})


# -- shipped dataset -----------------------------------------------------------


def test_dataset_has_28_validated_tools():
    profiles = tx.load_profiles()
    assert len(profiles) == 28
    for profile in profiles:
        assert tx.validate_profile(profile) == [], profile.name


def test_dataset_manual_fraction_displays_as_68_percent():
    stats = tx.dataset_stats(tx.load_profiles())
    assert stats["counts"]["execution/manual"] == 19
    assert stats["tool_count"] == 28
    assert abs(stats["fraction_manual"] - 19 / 28) < 1e-12
    assert round(stats["fraction_manual"] * 100) == 68


def test_dataset_pinned_depth_columns():
    levels = {p.name: sorted(p.output_levels) for p in tx.load_profiles()}
    assert levels["Nmap"] == [1, 2]
    assert levels["Modscan"] == [1, 2]
    assert levels["Plcscan"] == [1, 2, 3, 4, 5]
    assert levels["OpenVAS"] == [1, 2, 3, 4, 5, 6]


def test_every_tool_reaches_level_one():
    assert all(1 in p.output_levels for p in tx.load_profiles())


# Cell-for-cell expectations for six tool columns, written out by hand
# as an independent check on the dataset file.
PINNED_COLUMNS = {
    "SIMATIC": dict(run="standalone", license={"shareware"}, scope={"wide_target"},
                    support="multiple", method={"active"}, usage="manual", effort="point_and_click",
                    nature={"real_time"}, enumeration=set(), service_id=set(),
                    exploitation={"automation_protocols"}, levels={1, 2, 3, 4}),
    "Modscan": dict(run="standalone", license={"open_source"}, scope={"single_target", "wide_target"},
                    support="single", method={"active"}, usage="manual", effort="interactive",
                    nature={"real_time"}, enumeration={"port_scanning"}, service_id=set(),
                    exploitation={"automation_protocols"}, levels={1, 2}),
    "Nmap": dict(run="standalone", license={"open_source"}, scope={"single_target", "wide_target"},
                 support="multiple", method={"active"}, usage="manual", effort="interactive",
                 nature={"real_time"},
                 enumeration={"port_scanning", "icmp_scanning", "arp_scanning"},
                 service_id={"banner_grabbing", "fingerprinting"},
                 exploitation={"automation_protocols", "internet_protocols"}, levels={1, 2}),
    "Plcscan": dict(run="standalone", license={"open_source"}, scope={"single_target"},
                    support="multiple", method={"active"}, usage="manual", effort="interactive",
                    nature={"real_time"}, enumeration={"port_scanning"}, service_id=set(),
                    exploitation={"automation_protocols"}, levels={1, 2, 3, 4, 5}),
    "OpenVAS": dict(run="standalone", license={"freeware"}, scope={"single_target", "wide_target"},
                    support="multiple", method={"active"}, usage="automatic", effort="point_and_click",
                    nature={"real_time"},
                    enumeration={"port_scanning", "icmp_scanning", "arp_scanning"},
                    service_id={"banner_grabbing", "fingerprinting"},
                    exploitation={"automation_protocols", "internet_protocols"},
                    levels={1, 2, 3, 4, 5, 6}),
    "Wireshark": dict(run="standalone", license={"freeware"}, scope={"wide_target"},
                      support="multiple", method={"passive"}, usage="automatic",
                      effort="point_and_click", nature={"offline", "real_time"},
                      enumeration=set(), service_id={"fingerprinting"},
                      exploitation={"automation_protocols", "internet_protocols"}, levels={1, 2, 3}),
}


def test_dataset_pinned_columns_cell_for_cell():
    profiles = {p.name: p for p in tx.load_profiles()}
    for name, want in PINNED_COLUMNS.items():
        p = profiles[name]
        got = dict(run=p.spec.run, license=set(p.spec.license), scope=set(p.spec.scope),
                   support=p.spec.protocol_support, method=set(p.exec.method), usage=p.exec.usage,
                   effort=p.exec.effort, nature=set(p.exec.nature),
                   enumeration=set(p.exec.enumeration), service_id=set(p.exec.service_id),
                   exploitation=set(p.exec.exploitation), levels=set(p.output_levels))
        assert got == want, name


def test_single_tool_stats_ratios_are_zero_or_one():
    stats = tx.dataset_stats([make_profile()])
    for value in (stats["fraction_manual"], stats["fraction_active"], stats["fraction_passive"]):
        assert value in (0.0, 1.0)


# -- rendering -----------------------------------------------------------------


def test_render_empty_profile_list_is_header_only():
    document = tx.render_matrix([], format="csv")
    lines = document.strip().splitlines()
    assert lines[0] == "class,feature"
    assert len(lines) == 1 + len(tx.MATRIX_ROWS)
    for line in lines[1:]:
        assert line.count(",") == 1  # no tool columns


def test_render_csv_cells_are_ones_and_zeroes():
    document = tx.render_matrix(tx.load_profiles(), format="csv")
    lines = document.strip().splitlines()
    assert len(lines) == 1 + len(tx.MATRIX_ROWS)
    for line in lines[1:]:
        cells = line.split(",")[2:]
        assert set(cells) <= {"0", "1"}
        assert len(cells) == 28


def test_render_json_round_trip(tmp_path):
    profiles = tx.load_profiles()
    path = tmp_path / "matrix.json"
    path.write_text(tx.render_matrix(profiles, format="json"))
    assert tx.load_profiles(str(path)) == profiles


def test_render_refuses_invalid_profiles():
    broken = make_profile(output_levels=frozenset({2}))
    with pytest.raises(ValidationRequired):
        tx.render_matrix([broken], format="csv")
    with pytest.raises(ValidationRequired):
        tx.dataset_stats([broken])


def test_stats_survive_render_parse_round_trip(tmp_path):
    profiles = tx.load_profiles()
    path = tmp_path / "matrix.json"
    path.write_text(tx.render_matrix(profiles, format="json"))
    reparsed = tx.load_profiles(str(path))
    assert tx.dataset_stats(reparsed) == tx.dataset_stats(profiles)


def test_matrix_rows_are_the_taxonomy_leaves_in_order():
    specification = (
        "bundled standalone commercial open_source shareware freeware"
        " single_target wide_target single_protocol multiple_protocols"
    )
    execution = (
        "passive active manual automatic interactive point_and_click offline real_time"
        " port_scanning icmp_scanning arp_scanning banner_grabbing fingerprinting"
        " automation_protocols internet_protocols"
    )
    assert tx.MATRIX_ROWS == tuple(
        [("specification", leaf) for leaf in specification.split()]
        + [("execution", leaf) for leaf in execution.split()]
        + [("output", f"level_{level}") for level in range(1, 7)]
    )


# sha256 of each `icsrecon report` document on the shipped dataset
REPORT_DIGESTS = {
    "--format text_table": "d6eb4488d4153a414ce30cbf3f532ae143290a5d215e1558d00afc8d54d8f4e9",
    "--format csv": "3518c9e56a702b90bf3de16d1014e7e6f26426cef7999b4f94e7d5b53a6a34f1",
    "--format json": "673ab61b5983aaef2e5570cdfb7e2bb4ed5b42704ced9a86698c92a8218b98e9",
    "--stats": "3f2bf92b5fc46954a5abb2908f5dbc6e515f26ccac85162838f8913ce44aed10",
}


@pytest.mark.parametrize("args", sorted(REPORT_DIGESTS))
def test_report_documents_are_pinned(args, capsys):
    assert main(["report", *args.split()]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == REPORT_DIGESTS[args]


def test_text_table_renders_all_rows():
    document = tx.render_matrix(tx.load_profiles(), format="text_table")
    for _, leaf in tx.MATRIX_ROWS:
        assert leaf in document
    assert "legend" in document


# -- self-classification ---------------------------------------------------------


@pytest.fixture(scope="module")
def fixture_run(tmp_path_factory):
    fixtures = load_fixtures(default_fixtures_path())
    pcap = tmp_path_factory.mktemp("tax") / "mirror.pcap"
    station = StationHandle(list(fixtures.devices), scanner_ip=fixtures.scanner_ip, pcap_path=str(pcap)).start()
    try:
        config = ScanConfig(
            targets=tuple(d.ip for d in fixtures.devices),
            methods=frozenset({"icmp"}),
            rate_limit_pps=50,
            timeout_ms=500,
        )
        report = Scanner(config, network=SimNetwork(station)).run()
    finally:
        station.stop()
    return report, str(pcap)


def test_classify_active_run(fixture_run):
    report, _ = fixture_run
    profile = tx.classify_run(report)
    assert profile.exec.method == frozenset({"active"})
    assert profile.exec.enumeration >= {"icmp_scanning", "port_scanning"}
    assert profile.output_levels == frozenset({1, 2, 3, 4, 5})
    assert tx.validate_profile(profile) == []


def test_classify_passive_run(fixture_run):
    _, pcap = fixture_run
    profile = tx.classify_run(analyze_capture(PcapFile(pcap)))
    assert profile.exec.method == frozenset({"passive"})
    assert "offline" in profile.exec.nature
    assert tx.validate_profile(profile) == []


def rtu_capture_report(tmp_path):
    # an RTU that answers only Report Slave ID: deployment info without static info
    path = tmp_path / "rtu.pcap"
    writer = PcapWriter(str(path))
    flow = TrafficRecorder(writer).tcp_flow(("192.168.90.1", 50000), ("192.168.90.13", 502))
    flow.handshake()
    flow.client_payload(modbus.build_report_slave_id_request(unit=1))
    flow.server_payload(modbus.build_report_slave_id_response(1, 1, slave_id=5))
    flow.close()
    writer.close()
    return analyze_capture(PcapFile(str(path)))


def test_passive_levels_are_independent_as_in_active_runs(tmp_path):
    passive = rtu_capture_report(tmp_path)
    assert passive.per_asset_depth["192.168.90.13"] == 5
    assert passive.inventory.get("192.168.90.13").static_info is None
    active = RunReport(
        "active",
        passive.inventory,
        generated_at=passive.generated_at,
        duration_seconds=0.0,
        packets_sent=0,
        rate_limit_pps=50,
        safe_mode=True,
        methods_used=["icmp"],
        unit_id_sweep_used=False,
        vuln_db_consulted=False,
    )
    assert active.per_asset_depth == passive.per_asset_depth
    assert passive.to_document()["levels_achieved"] == [1, 2, 3, 5]
    assert tx.classify_run(passive.to_document()).output_levels == frozenset({1, 2, 3, 5})
    assert tx.classify_run(active.to_document()).output_levels == frozenset({1, 2, 3, 5})


def test_report_without_recorded_levels_classifies_by_its_inventory(tmp_path):
    document = rtu_capture_report(tmp_path).to_document()
    del document["levels_achieved"]  # as written before reports recorded their levels
    assert document["per_asset_depth"]["192.168.90.13"] == 5
    assert tx.classify_run(document).output_levels == frozenset({1, 2, 3, 5})


def test_classified_run_renders_alongside_dataset(fixture_run):
    report, _ = fixture_run
    profiles = tx.load_profiles() + [tx.classify_run(report)]
    document = tx.render_matrix(profiles, format="csv")
    assert "icsrecon" in document.splitlines()[0]
