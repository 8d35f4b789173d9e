"""Asset model: depth semantics, merging, normalization."""

from __future__ import annotations

import collections
import ipaddress
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from icsrecon import model
from icsrecon.errors import AddressMismatch, FormatError
from icsrecon.model import (
    Asset,
    CveRecord,
    DeploymentInfo,
    DepthLevel,
    Inventory,
    PortSpec,
    StaticDeviceInfo,
    _check_ip,
    compute_depth,
    merge_observation,
    satisfied_levels,
)

from conftest import asset_holding, random_observation, ts


def oracle_depth(ports, protocols, static, deployment, vulns, consulted) -> int:
    """Independent predicate-table oracle: highest satisfied level."""
    predicates = {
        1: True,
        2: ports,
        3: protocols,
        4: static,
        5: deployment,
        6: vulns and consulted,
    }
    return max(level for level, holds in predicates.items() if holds)


def test_depth_agrees_with_predicate_table_on_all_64_cases():
    checked = refused = 0
    for *bits, consulted in itertools.product([False, True], repeat=6):
        try:
            asset = asset_holding(*bits)
        except ValueError:
            assert bits[4] and not bits[2]  # only vulnerabilities without static info cannot exist
            refused += 1
            continue
        assert compute_depth(asset, consulted) == oracle_depth(*bits, consulted)
        checked += 1
    assert (checked, refused) == (48, 16)


def test_depth_ip_only_is_level_1():
    asset = Asset.discovered("192.168.90.10", ts())
    assert compute_depth(asset) == DepthLevel.IP_DISCOVERY == 1


def test_depth_open_port_is_level_2():
    asset = Asset.discovered("192.168.90.13", ts(), open_ports=frozenset({PortSpec(502)}))
    assert compute_depth(asset) == 2


def test_depth_deployment_without_static_is_level_5():
    # levels are independent predicates: deployment evidence without
    # static info still counts as level 5
    asset = Asset.discovered(
        "192.168.90.13",
        ts(),
        open_ports=frozenset({PortSpec(502)}),
        protocols=frozenset({"modbus"}),
        deployment_info=DeploymentInfo.from_dict({"unit_id": "1"}),
    )
    assert asset.static_info is None
    assert compute_depth(asset) == 5


def test_depth_level_6_requires_db_consultation():
    asset = Asset.discovered(
        "192.168.90.10",
        ts(),
        open_ports=frozenset({PortSpec(102)}),
        protocols=frozenset({"s7comm"}),
        static_info=StaticDeviceInfo(manufacturer="Siemens"),
        deployment_info=DeploymentInfo.from_dict({"system_name": "x"}),
        vulnerabilities=(CveRecord("CVE-2020-12345", "siemens", "et200s"),),
    )
    assert compute_depth(asset, vuln_db_consulted=True) == 6
    assert compute_depth(asset, vuln_db_consulted=False) == 5


def test_depth_level_order_and_range():
    assert list(DepthLevel) == sorted(DepthLevel)
    assert [level.value for level in DepthLevel] == [1, 2, 3, 4, 5, 6]


def test_satisfied_levels_sparse_ladder():
    asset = Asset.discovered(
        "192.168.90.13",
        ts(),
        open_ports=frozenset({PortSpec(502)}),
        protocols=frozenset({"modbus"}),
        deployment_info=DeploymentInfo.from_dict({"unit_id": "1"}),
    )
    assert satisfied_levels(asset) == {1, 2, 3, 5}


def naive_union(asset: Asset, obs: Asset) -> dict:
    """Reference merge: plain field-wise union, the evidence wins scalars."""
    static = obs.static_info or asset.static_info
    if asset.static_info and obs.static_info:
        merged = asset.static_info.to_dict()
        for key, value in obs.static_info.to_dict().items():
            if value is not None:
                merged[key] = value
        static = StaticDeviceInfo(**merged)
    deployment = obs.deployment_info or asset.deployment_info
    if asset.deployment_info and obs.deployment_info:
        entries = asset.deployment_info.as_dict()
        entries.update(obs.deployment_info.as_dict())
        deployment = DeploymentInfo.from_dict(entries)
    vuln_ids = list(dict.fromkeys([v.cve_id for v in asset.vulnerabilities + obs.vulnerabilities]))
    return {
        "mac": obs.mac or asset.mac,
        "oui_vendor": obs.oui_vendor or asset.oui_vendor,
        "open_ports": asset.open_ports | obs.open_ports,
        "protocols": asset.protocols | obs.protocols,
        "static_info": static,
        "deployment_info": deployment,
        "vuln_ids": vuln_ids,
        "last_seen": max(asset.last_seen, obs.last_seen),
        "sources": asset.sources | obs.sources,
    }


def test_merge_union_with_empty_port_set():
    asset = Asset.discovered("192.168.90.13", ts())
    obs = Asset.discovered("192.168.90.13", ts(1), open_ports=frozenset({PortSpec(502)}))
    merged = merge_observation(asset, obs)
    assert merged.open_ports == frozenset({PortSpec(502)})
    assert merged.ip == asset.ip


def test_merge_gains_static_ports_unchanged():
    asset = Asset.discovered("192.168.90.10", ts(), open_ports=frozenset({PortSpec(102)}))
    obs = Asset.discovered("192.168.90.10", ts(1), static_info=StaticDeviceInfo(manufacturer="Siemens"))
    merged = merge_observation(asset, obs)
    reference = naive_union(asset, obs)
    assert merged.static_info == reference["static_info"]
    assert merged.open_ports == reference["open_ports"] == frozenset({PortSpec(102)})


def test_merge_ip_mismatch():
    asset = Asset.discovered("192.168.90.10", ts())
    obs = Asset.discovered("192.168.90.11", ts(1))
    with pytest.raises(AddressMismatch):
        merge_observation(asset, obs)


def test_merge_matches_naive_union_on_random_observations(rng):
    for _ in range(500):
        asset = Asset.discovered("10.0.0.1", ts())
        for _ in range(rng.randint(1, 5)):
            obs = random_observation(rng, "10.0.0.1")
            reference = naive_union(asset, obs)
            asset = merge_observation(asset, obs)
            assert asset.mac == reference["mac"]
            assert asset.oui_vendor == reference["oui_vendor"]
            assert asset.open_ports == reference["open_ports"]
            assert asset.protocols == reference["protocols"]
            assert asset.static_info == reference["static_info"]
            assert asset.deployment_info is None or set(dict(asset.deployment_info.entries)) == set(
                reference["deployment_info"].as_dict()
            )
            assert [v.cve_id for v in asset.vulnerabilities] == reference["vuln_ids"]
            assert asset.last_seen == reference["last_seen"]
            assert asset.sources == reference["sources"]


def test_merge_newest_wins_keeps_provenance():
    asset = Asset.discovered(
        "192.168.90.10", ts(), static_info=StaticDeviceInfo(manufacturer="Siemens", firmware_version="3.2.5")
    )
    obs = Asset.discovered(
        "192.168.90.10",
        ts(5),
        "passive",
        static_info=StaticDeviceInfo(manufacturer="Siemens", firmware_version="3.2.6"),
    )
    merged = merge_observation(asset, obs)
    assert merged.static_info.firmware_version == "3.2.6"
    entries = [p for p in merged.provenance if p.field == "static_info.firmware_version"]
    assert len(entries) == 1
    assert entries[0].prior == "3.2.5"
    assert entries[0].current == "3.2.6"
    assert entries[0].source == "passive"


def test_depth_monotone_under_random_merges(rng):
    for _ in range(300):
        asset = Asset.discovered("10.1.2.3", ts())
        for consulted in (False, True):
            depth = compute_depth(asset, consulted)
        for _ in range(rng.randint(1, 6)):
            asset_next = merge_observation(asset, random_observation(rng, "10.1.2.3"))
            for consulted in (False, True):
                assert compute_depth(asset_next, consulted) >= compute_depth(asset, consulted)
            asset = asset_next


@settings(max_examples=200)
@given(data=st.data())
def test_depth_monotone_property(data):
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = random.Random(seed)
    asset = Asset.discovered("10.9.9.9", ts())
    for _ in range(data.draw(st.integers(1, 4))):
        merged = merge_observation(asset, random_observation(rng, "10.9.9.9"))
        assert compute_depth(merged) >= compute_depth(asset)
        asset = merged


def test_static_info_normalizes_empty_to_absent():
    info = StaticDeviceInfo(manufacturer="Siemens", model="  ", serial="")
    assert info.model is None
    assert info.serial is None
    with pytest.raises(ValueError):
        StaticDeviceInfo(manufacturer="", model=" ", firmware_version=None)
    assert StaticDeviceInfo.from_fields({"serial": "only-serial"}) is None
    with pytest.raises(ValueError, match="expected text"):
        StaticDeviceInfo(manufacturer="Siemens", model=1200)
    assert StaticDeviceInfo(" Siemens ", "S7") == StaticDeviceInfo(model="S7", manufacturer="Siemens")
    assert tuple(StaticDeviceInfo(" Siemens ", "S7")) == ("Siemens", "S7", None, None, None)


def test_each_static_and_deployment_field_is_cleaned_once(monkeypatch):
    from icsrecon.passive import _Evidence, _identity_items

    static = {"manufacturer": " Siemens ", "model": "S7-1200", "serial": "  "}
    deployment = {" plant ": "north", "unit_id": "7"}
    texts = [*static.values(), *deployment.keys(), *deployment.values()]
    calls = collections.Counter()
    clean = model._clean

    def counting_clean(text):
        calls[text] += 1
        return clean(text)

    class Codec:  # one identity frame, whose fields are the loose dicts above
        identity_key = staticmethod(lambda wire: wire)
        identity_fields = staticmethod(lambda frames: (dict(static), dict(deployment)))

    monkeypatch.setattr(model, "_clean", counting_clean)
    raw = {"ip": "10.0.0.1", "last_seen": "2026-01-01T00:00:00Z", "static_info": static, "deployment_info": deployment}
    evidence = _Evidence(b"\x02\x00\x00\x00\x00\x01", 0.0)
    memo = {}

    def passive_flow(when):  # as analyze_capture folds a flow: its items through the capture's memo
        evidence.add_flow(when, 502, "modbus", *_identity_items(memo, Codec, [b"reply"]))

    for build in (
        lambda: Asset.from_dict(raw),
        lambda: (StaticDeviceInfo.from_fields(static), DeploymentInfo.from_dict(deployment)),
        lambda: (passive_flow(1.0), evidence.freeze("10.0.0.1")),
    ):
        calls.clear()
        build()
        assert {text: calls[text] for text in texts} == dict.fromkeys(texts, 1)
    calls.clear()
    passive_flow(2.0)  # the same reply again: a memo hit cleans nothing
    assert not calls and len(memo) == 1
    monkeypatch.undo()
    asset = Asset.from_dict(raw)
    assert asset.static_info == StaticDeviceInfo("Siemens", "S7-1200")
    assert asset.deployment_info == DeploymentInfo({"plant": "north", "unit_id": "7"}.items())
    assert evidence.freeze("10.0.0.1")[6:8] == asset[6:8]  # static and deployment info


@pytest.mark.parametrize(
    "static", [{"manufacturer": "Siemens", "vendor": "x"}, {"serial": "1", "colour": "red"}, {"model": 5}, {"serial": 5}]
)
def test_inventory_refuses_static_info_with_an_unknown_key_or_a_non_text_value(static):
    asset = {"ip": "10.0.0.1", "last_seen": "2026-01-01T00:00:00Z", "static_info": static}
    document = {"version": 1, "assets": [asset]}
    with pytest.raises(FormatError, match="bad asset record"):
        Inventory.from_document(document)


def test_static_info_below_the_bar_loads_as_none_and_is_refused_by_keyword():
    raw = {"ip": "10.0.0.1", "last_seen": "2026-01-01T00:00:00Z", "static_info": {"serial": "1", "model": " "}}
    assert Asset.from_dict(raw).static_info is None
    with pytest.raises(ValueError, match="needs manufacturer, model or firmware_version"):
        StaticDeviceInfo(serial="1", model=" ")


def test_deployment_info_rejects_empty():
    with pytest.raises(ValueError):
        DeploymentInfo(entries=(("", ""),))
    assert DeploymentInfo.from_dict({"": "x", "unit_id": ""}) is None
    info = DeploymentInfo(((" unit_id ", "1"), ("plant", "a"), ("unit_id", "2")))
    assert info == DeploymentInfo(entries=[("plant", "a"), ("unit_id", "2")])
    assert info.entries == (("plant", "a"), ("unit_id", "2"))


def test_vulnerabilities_require_static_info():
    with pytest.raises(ValueError):
        Asset.discovered(
            "10.0.0.1", ts(), vulnerabilities=(CveRecord("CVE-2020-12345", "v", "p"),)
        )
    with pytest.raises(ValueError, match="unknown sources"):
        Asset("10.0.0.1", ts(), sources={"active", "rumour"})
    for token in ("Modbus", "s7-comm", ""):
        with pytest.raises(ValueError, match="invalid protocol token"):
            Asset("10.0.0.1", ts(), protocols={"modbus", token})


def test_asset_normalizes_its_fields_by_position_or_keyword():
    static = StaticDeviceInfo(manufacturer="Siemens")
    by_position = Asset(
        "10.0.0.1", ts(), "00-1B-1B-0A-0B-0C", " Siemens ", [PortSpec(102)], ["s7comm"], static, None,
        [CveRecord("CVE-2020-12345", "siemens", "et200s")], ["passive"],
    )
    by_keyword = Asset(
        sources=["passive"], vulnerabilities=[CveRecord("CVE-2020-12345", "siemens", "et200s")], static_info=static,
        protocols=["s7comm"], open_ports=[PortSpec(102)], oui_vendor=" Siemens ", mac="00:1b:1b:0A:0B:0C",
        last_seen=ts(), ip="10.0.0.1",
    )
    assert by_position == by_keyword
    assert by_position.mac == "00:1b:1b:0a:0b:0c"
    assert by_position.oui_vendor == "Siemens"
    assert by_position.open_ports == frozenset({PortSpec(102)}) and by_position.protocols == frozenset({"s7comm"})
    assert by_position.vulnerabilities == (CveRecord("CVE-2020-12345", "siemens", "et200s"),)
    assert by_position.sources == frozenset({"passive"}) and by_position.provenance == ()
    with pytest.raises(ValueError, match="48-bit"):
        Asset("10.0.0.1", ts(), mac="00:1b:1b:0a:0b")


def test_port_spec_parse_and_render():
    assert str(PortSpec(502)) == "502/tcp"
    assert PortSpec.parse("44818/udp") == PortSpec(44818, "udp")
    with pytest.raises(ValueError):
        PortSpec.parse("0/tcp")
    with pytest.raises(ValueError):
        PortSpec.parse("not-a-port")
    with pytest.raises(ValueError, match="unknown transport"):
        PortSpec(502, "sctp")
    with pytest.raises(ValueError):
        PortSpec.parse("502/TCP")
    assert PortSpec(port=502, transport="udp") == PortSpec(502, "udp") != PortSpec(502)
    ports = [PortSpec(102), PortSpec(502), PortSpec(502, "udp")]
    assert sorted(reversed(ports)) == ports


# -- address validation ---------------------------------------------------------

OCTET_TEXT = st.one_of(
    st.integers(0, 999).map(str),
    st.integers(0, 255).map(lambda n: f"0{n}"),  # leading zero
    st.sampled_from(["", "\u0661", "\uff11", "1\u0662", " 1", "1 ", "+1", "-1", "0x1", "\u00b2"]),
)
ADDRESS_TEXT = st.one_of(
    st.tuples(
        st.sampled_from(["", " ", "\t", "\n"]),
        st.lists(OCTET_TEXT, min_size=3, max_size=5).map(".".join),
        st.sampled_from(["", " ", "\n", "\r\n", "."]),
    ).map("".join),
    st.text(max_size=20),
)


@settings(max_examples=1000)
@given(ADDRESS_TEXT)
def test_check_ip_agrees_with_ipaddress(text):
    try:
        expected = str(ipaddress.IPv4Address(text))
    except ipaddress.AddressValueError:
        with pytest.raises(ValueError, match="not an IPv4 address"):
            _check_ip(text)
    else:
        assert _check_ip(text) == expected
