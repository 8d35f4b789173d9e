"""CVE matcher: version rules, alias handling, brute-force oracle."""

from __future__ import annotations

import json
import logging
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from icsrecon.errors import FormatError
from icsrecon.model import CveRecord, StaticDeviceInfo
from icsrecon import vulnmatch
from icsrecon.vulnmatch import (
    CveDatabase,
    compare_versions,
    load_aliases,
    load_db,
    match,
    normalize_product,
    normalize_vendor,
    parse_version,
)

from importlib import resources

from conftest import same_record

FIXTURE_DB = str(resources.files("icsrecon.data").joinpath("fixtures").joinpath("cve_demo.json"))


def db_from(records, aliases=None) -> CveDatabase:
    return CveDatabase(records=tuple(records), aliases=aliases or {})


def record(cve_id="CVE-2020-10000", vendor="siemens", product="et200s", vmin=None, vmax=None, severity=None):
    return CveRecord(
        cve_id=cve_id, vendor=vendor, product=product, version_min=vmin, version_max=vmax, severity=severity
    )


# -- version handling -----------------------------------------------------------


def test_version_compare_basics():
    assert compare_versions("1.0", "2.0") == -1
    assert compare_versions("3.2.6", "3.2.6") == 0
    assert compare_versions("3.10", "3.9") == 1
    assert compare_versions("1.0", "1.0.0") == 0  # missing segments are zero
    assert compare_versions("1.0.1", "1.0") == 1


def test_version_suffix_lexicographic_tiebreak():
    assert compare_versions("1.0a", "1.0") == 1
    assert compare_versions("1.0a", "1.0b") == -1
    assert compare_versions("2.1rc1", "2.1rc2") == -1


def test_version_v_prefix_tolerated():
    assert compare_versions("v4.4.0", "4.4") == 0


def test_unparseable_version_raises():
    with pytest.raises(ValueError):
        parse_version("not-a-version")
    with pytest.raises(ValueError):
        parse_version("")


_REFERENCE_SEGMENT = re.compile(r"^(\d*)(.*)$", re.DOTALL)


def reference_parse_version(text: str) -> tuple[tuple[int, str], ...]:
    """``parse_version`` without its all-decimal fast path: the regex-only reference."""
    cleaned = text.strip()
    if cleaned[:1] in ("v", "V"):
        cleaned = cleaned[1:]
    if not any(ch.isdigit() for ch in cleaned):
        raise ValueError(f"unparseable version {text!r}")
    key = []
    for segment in cleaned.split("."):
        parts = _REFERENCE_SEGMENT.match(segment.strip())
        digits, suffix = parts.group(1), parts.group(2)
        key.append((int(digits) if digits else 0, suffix))
    return tuple(key)


# dotted texts near the fast path's edge: non-ASCII decimal digits ("٣", "１") that
# int() reads, a superscript ("²") that isdigit() accepts but int() does not, letters,
# padding, a newline, empty segments and a v/V prefix
_VERSION_PIECES = st.sampled_from(
    ["0", "1", "42", "007", "\u00b2", "\u0663", "\uff11", "a", "rc", "x", " ", "\t", "\n", ""]
)
DOTTED_VERSIONS = st.builds(
    lambda prefix, segments: prefix + ".".join(segments),
    st.sampled_from(["", "v", "V", " v"]),
    st.lists(st.lists(_VERSION_PIECES, max_size=3).map("".join), min_size=1, max_size=5),
)


@settings(max_examples=500)
@given(st.one_of(st.text(), DOTTED_VERSIONS))
def test_parse_version_agrees_with_regex_reference(text):
    try:
        expected = reference_parse_version(text)
    except ValueError:
        with pytest.raises(ValueError):
            parse_version(text)
    else:
        assert parse_version(text) == expected


def test_newline_inside_a_version_is_part_of_the_suffix():
    assert parse_version("1.a\nb") == ((1, ""), (0, "a\nb"))
    db = db_from([record(vmax="4.0")])
    info = StaticDeviceInfo(manufacturer="Siemens", model="ET200S", firmware_version="3.a\nb")
    assert [h.cve_id for h in match(info, db)] == ["CVE-2020-10000"]


# -- matching -------------------------------------------------------------------


def test_match_example_range():
    db = db_from([record(vmax="4.0")])
    info = StaticDeviceInfo(manufacturer="Siemens", model="ET200S", firmware_version="3.2.6")
    hits = match(info, db)
    assert len(hits) == 1
    assert hits[0].cve_id == "CVE-2020-10000"
    assert hits[0].note == vulnmatch.CONFIDENCE_NOTE


def test_empty_db_matches_nothing():
    info = StaticDeviceInfo(manufacturer="Siemens", model="ET200S")
    assert match(info, db_from([])) == []


def test_version_outside_range_excluded():
    db = db_from([record(vmin="4.0")])
    info = StaticDeviceInfo(manufacturer="Siemens", model="ET200S", firmware_version="3.2.6")
    assert match(info, db) == []
    # version_max is exclusive
    db = db_from([record(vmax="3.2.6")])
    assert match(info, db) == []


def test_alias_table_bridges_vendor_names():
    aliases = {"schneider electric": "schneider"}
    db = db_from([record(vendor="schneider", product="scadapack")], aliases)
    info = StaticDeviceInfo(manufacturer="Schneider Electric", model="SCADAPack32", firmware_version="1.0")
    assert len(match(info, db)) == 1
    # without the alias entry the vendors no longer line up
    assert match(info, db_from([record(vendor="schneider", product="scadapack")])) == []


def test_product_substring_after_normalization():
    db = db_from([record(product="6ES7 151-8AB01")])
    info = StaticDeviceInfo(manufacturer="Siemens", model="6ES7 151-8AB01-0AB0")
    assert len(match(info, db)) == 1


def test_results_sorted_by_severity_then_id():
    db = db_from(
        [
            record(cve_id="CVE-2020-30000", severity=5.0),
            record(cve_id="CVE-2019-20000", severity=9.8),
            record(cve_id="CVE-2019-10000", severity=9.8),
            record(cve_id="CVE-2021-40000", severity=None),
        ]
    )
    info = StaticDeviceInfo(manufacturer="Siemens", model="ET200S")
    assert [h.cve_id for h in match(info, db)] == [
        "CVE-2019-10000",
        "CVE-2019-20000",
        "CVE-2020-30000",
        "CVE-2021-40000",
    ]


def test_match_requires_manufacturer_or_model():
    with pytest.raises(ValueError):
        match(StaticDeviceInfo(firmware_version="1.0"), db_from([record()]))


def test_unparseable_device_version_skips_bounded_records(caplog):
    db = db_from(
        [
            record(cve_id="CVE-2020-11111", vmax="4.0"),
            record(cve_id="CVE-2020-22222"),
            record(cve_id="CVE-2020-33333", vmin="1.0"),
            record(cve_id="CVE-2020-44444", vmin="1.0", vmax="9.0"),
            record(cve_id="CVE-2020-55555", vendor="wago", vmax="4.0"),
        ]
    )
    info = StaticDeviceInfo(manufacturer="Siemens", model="ET200S", firmware_version="fw-unknown")
    with caplog.at_level(logging.WARNING, logger="icsrecon.vulnmatch"):
        hits = match(info, db)
    assert [h.cve_id for h in hits] == ["CVE-2020-22222"]  # unbounded record still applies
    warnings = [message for message in caplog.messages if "VersionUnparseable" in message]
    assert len(warnings) == 1  # one per lookup, not one per record
    assert "'fw-unknown'" in warnings[0] and "3 version-bounded" in warnings[0]


def test_lookup_examines_only_its_vendor_and_product_group(monkeypatch):
    vendors = ["siemens", "schneider", "rockwell"]
    products = ["et200s", "scadapack", "logix", ""]
    records = [
        record(cve_id=f"CVE-2020-{10000 + 100 * v + 10 * p + n}", vendor=vendor, product=product)
        for v, vendor in enumerate(vendors)
        for p, product in enumerate(products)
        for n in range(2)
    ]
    db = db_from(records, {"schneider electric": "schneider"})
    examined = []
    original = vulnmatch.record_applies

    def counting(record, info, aliases):
        examined.append(record)
        return original(record, info, aliases)

    monkeypatch.setattr(vulnmatch, "record_applies", counting)

    hits = match(StaticDeviceInfo(manufacturer="Schneider Electric", model="SCADAPack 32"), db)
    assert len(examined) == 2
    assert {(h.vendor, h.product) for h in hits} == {("schneider", "scadapack")}

    examined.clear()
    hits = match(StaticDeviceInfo(manufacturer=None, model="ET200S IM151"), db)
    assert len(examined) == 6  # every vendor's et200s group, nothing else
    assert {h.vendor for h in hits} == set(vendors)

    examined.clear()
    hits = match(StaticDeviceInfo(manufacturer="Rockwell", model=None), db)
    assert len(examined) == 8  # without a model the empty-product records apply too
    assert len(hits) == 8
    assert {h.vendor for h in hits} == {"rockwell"}

    examined.clear()
    assert match(StaticDeviceInfo(manufacturer="Omron", model="ET200S"), db) == []
    assert examined == []


# -- db loading -------------------------------------------------------------------


def test_load_fixture_db():
    db = load_db(FIXTURE_DB)
    assert len(db) == 4
    assert "schneider electric" in db.aliases


def test_fixture_db_matches_et200s_identity():
    db = load_db(FIXTURE_DB)
    info = StaticDeviceInfo(
        manufacturer="Siemens", model="6ES7 151-8AB01-0AB0", firmware_version="3.2.6"
    )
    hits = match(info, db)
    assert [h.cve_id for h in hits] == ["CVE-2019-99001"]  # the 4.0+ decoy stays out


def test_load_db_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('[{"cve_id": "CVE-2020-1"')
    with pytest.raises(FormatError):
        load_db(str(path))


def test_load_db_rejects_duplicate_ids(tmp_path):
    path = tmp_path / "dup.json"
    rows = [{"cve_id": "CVE-2020-11111", "vendor": "a", "product": "b"}] * 2
    path.write_text(json.dumps(rows))
    with pytest.raises(FormatError):
        load_db(str(path))


def test_load_db_rejects_inverted_range(tmp_path):
    path = tmp_path / "inv.json"
    path.write_text(json.dumps([{"cve_id": "CVE-2020-11111", "vendor": "a", "product": "b",
                                 "version_min": "5.0", "version_max": "1.0"}]))
    with pytest.raises(FormatError):
        load_db(str(path))


@pytest.mark.parametrize(
    "bounds",
    [{"version_max": "n/a"}, {"version_min": "n/a"}, {"version_min": "1.0", "version_max": "n/a"},
     {"version_max": 4.0},
     # falsy, yet not "no bound": only null and "" are, or the record would match every firmware
     {"version_max": 0}, {"version_min": []}, {"version_max": False}],
)
def test_load_db_rejects_unparseable_bound(tmp_path, bounds):
    path = tmp_path / "bound.json"
    path.write_text(json.dumps([{"cve_id": "CVE-2020-11111", "vendor": "a", "product": "b", **bounds}]))
    with pytest.raises(FormatError, match="CVE-2020-11111"):
        load_db(str(path))


@pytest.mark.parametrize("entry", [{"vendor": 5, "product": "b"}, {"vendor": "a", "product": 7}])
def test_load_db_rejects_non_text_vendor_or_product(tmp_path, entry):
    path = tmp_path / "types.json"
    path.write_text(json.dumps([{"cve_id": "CVE-2020-11111", **entry}]))
    with pytest.raises(FormatError):
        load_db(str(path))


@pytest.mark.parametrize(
    "fields",
    [{"severity": True}, {"severity": "9.8"}, {"severity": 10.5}, {"severity": -1}, {"summary": ["x"]},
     {"summary": None}, {"severity": True, "summary": ["x"]}, {"cve_id": "CVE-20-1"},
     {"cve_id": "CVE-2020-22222\n"}, {"cve_id": "CVE-\u0662\u0660\u0662\u0660-22222"}],
)
def test_load_db_rejects_non_numeric_severity_and_non_text_summary(tmp_path, fields):
    good = {"cve_id": "CVE-2020-11111", "vendor": "a", "product": "b", "severity": 0, "summary": "ok"}
    path = tmp_path / "fields.json"
    path.write_text(json.dumps([good, {**good, "cve_id": "CVE-2020-22222", **fields}]))
    with pytest.raises(FormatError, match="index 1"):
        load_db(str(path))


@pytest.mark.parametrize("entry", [[1], "x", None])
def test_load_db_rejects_non_object_entries(tmp_path, entry):
    good = {"cve_id": "CVE-2020-11111", "vendor": "a", "product": "b"}
    path = tmp_path / "entries.json"
    path.write_text(json.dumps([good, entry]))
    with pytest.raises(FormatError, match="bad CVE record at index 1: expected a JSON object"):
        load_db(str(path))


@pytest.mark.parametrize("value", [None, ""])
def test_load_db_reads_null_and_empty_bounds_as_absent(tmp_path, value):
    path = tmp_path / "bounds.json"
    path.write_text(json.dumps([{"cve_id": "CVE-2020-11111", "vendor": "a", "product": "b",
                                 "version_min": value, "version_max": value}]))
    db = load_db(str(path))
    hits = match(StaticDeviceInfo(manufacturer="a", model="b", firmware_version="9.9"), db)
    assert [h.cve_id for h in hits] == ["CVE-2020-11111"]


def reference_db(path: str) -> CveDatabase:
    """The records of the database at ``path``, each built field by field."""
    with open(path, encoding="utf-8") as fh:
        rows = json.load(fh)
    records = []
    for row in rows:
        records.append(
            CveRecord(
                cve_id=row["cve_id"],
                vendor=normalize_vendor(row.get("vendor", "")),
                product=row.get("product", ""),
                summary=row.get("summary", ""),
                version_min=row.get("version_min"),
                version_max=row.get("version_max"),
                severity=row.get("severity"),
            )
        )
    return CveDatabase(records=tuple(records), aliases=load_aliases(None))


def reference_index(db: CveDatabase) -> list:
    """The index folded record by record, as ordered (vendor, [(product, records)]) pairs."""
    index: dict[str, dict[str, list[CveRecord]]] = {}
    for r in db.records:
        vendor = normalize_vendor(r.vendor)
        products = index.setdefault(db.aliases.get(vendor, vendor), {})
        products.setdefault(normalize_product(r.product), []).append(r)
    return [(vendor, list(products.items())) for vendor, products in index.items()]


def test_load_db_equals_a_record_by_record_construction(tmp_path):
    rng = random.Random(0x5EED)
    texts = ["1.0", "2.0", "2.0", "3.2.6", "v4.4", "4.10rc1", "10.1"]  # repeated, also across min and max
    rows = []
    for i in range(300):
        vmin, vmax = rng.choice([None, *texts]), rng.choice([None, *texts])
        if vmin and vmax and compare_versions(vmin, vmax) > 0:
            vmin, vmax = vmax, vmin
        rows.append({"cve_id": f"CVE-2021-{10000 + i}", "vendor": rng.choice(VENDORS), "product":
                     rng.choice(PRODUCTS), "version_min": vmin, "version_max": vmax,
                     "severity": rng.choice([None, 4, 9.8]), "summary": f"entry {i}"})
    generated = tmp_path / "generated.json"
    generated.write_text(json.dumps(rows))
    for path in (FIXTURE_DB, str(generated)):
        loaded, expected = load_db(path), reference_db(path)
        assert same_record(loaded.records, expected.records)
        assert loaded.aliases == expected.aliases
        assert [(v, list(p.items())) for v, p in loaded.index.items()] == reference_index(expected)


def test_reused_bound_texts_still_checked_per_record(tmp_path):
    base = {"vendor": "a", "product": "b"}
    rows = [
        {**base, "cve_id": "CVE-2020-11111", "version_min": "1.0", "version_max": "2.0"},
        {**base, "cve_id": "CVE-2020-22222", "version_min": "2.0", "version_max": "5.0"},
        {**base, "cve_id": "CVE-2020-33333", "version_min": "5.0", "version_max": "1.0"},
    ]
    path = tmp_path / "inverted.json"
    path.write_text(json.dumps(rows))
    with pytest.raises(FormatError, match="CVE-2020-33333"):
        load_db(str(path))

    rows[2] = {**base, "cve_id": "CVE-2020-33333", "version_min": "1.0", "version_max": ["2.0"]}
    path.write_text(json.dumps(rows))
    with pytest.raises(FormatError, match="CVE-2020-33333"):
        load_db(str(path))

    rows[2] = {**base, "cve_id": "CVE-2020-33333", "version_min": "n/a"}
    rows.append({**base, "cve_id": "CVE-2020-44444", "version_max": "n/a"})
    path.write_text(json.dumps(rows))
    with pytest.raises(FormatError, match="CVE-2020-33333"):
        load_db(str(path))


def test_more_bound_texts_than_the_parse_cache_holds_are_each_checked(tmp_path):
    count = parse_version.cache_info().maxsize
    base = {"vendor": "a", "product": "b"}
    rows = [{**base, "cve_id": f"CVE-2020-{10000 + i}", "version_min": f"1.{i}", "version_max": f"2.{i}"}
            for i in range(count)]
    # both bounds seen before: "2.0" evicted from the cache by now, "1.{count - 1}" still in it
    rows.append({**base, "cve_id": "CVE-2020-99999", "version_min": "2.0", "version_max": f"1.{count - 1}"})
    path = tmp_path / "many.json"
    path.write_text(json.dumps(rows))
    with pytest.raises(FormatError, match="CVE-2020-99999: version_min"):
        load_db(str(path))
    assert parse_version.cache_info().currsize <= count

    path.write_text(json.dumps(rows[:-1]))
    db = load_db(str(path))
    for firmware, expected in (("1.5", 6), ("2.0", count - 1), ("2.0.1", count - 1), ("0.9", 0)):
        info = StaticDeviceInfo(manufacturer="a", model="b", firmware_version=firmware)
        assert len(match(info, db)) == expected, firmware


def reference_load(raw: list) -> list[CveRecord]:
    """``load_db``'s records as it built them entry by entry, each entry checked whole before the next."""
    records = []
    seen: set[str] = set()
    for position, entry in enumerate(raw):
        try:
            if not isinstance(entry, dict):
                raise TypeError(f"expected a JSON object, got {type(entry).__name__}")
            vendor = entry.get("vendor", "")
            if isinstance(vendor, str):
                entry["vendor"] = normalize_vendor(vendor)
            entry["note"] = None
            record = CveRecord.from_dict(entry)
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"bad CVE record at index {position}: {exc}") from exc
        if record.cve_id in seen:
            raise FormatError(f"duplicate CVE id {record.cve_id} at index {position}")
        low, high = record.version_min, record.version_max
        try:
            name = "version_min"
            low = low and parse_version(low)
            name = "version_max"
            high = high and parse_version(high)
        except ValueError as exc:
            raise FormatError(f"{record.cve_id}: {name}: {exc}") from exc
        if low and high and vulnmatch._compare_keys(low, high) > 0:
            raise FormatError(
                f"{record.cve_id}: version_min {record.version_min} above version_max {record.version_max}"
            )
        seen.add(record.cve_id)
        records.append(record)
    return records


def render(entries: list) -> str:
    """A JSON array of ``entries``: each a JSON text, or a dict of key -> JSON text (None leaves the key out)."""
    return "[" + ", ".join(
        entry if isinstance(entry, str)
        else "{" + ", ".join(f"{json.dumps(key)}: {value}" for key, value in entry.items() if value is not None) + "}"
        for entry in entries
    ) + "]"


def both_loads(text: str, path) -> tuple:
    """(records or error text) from ``load_db`` and from the reference, for the database ``text``."""
    path.write_text(text, encoding="utf-8")
    outcomes = []
    for load in (lambda: load_db(str(path)).records, lambda: tuple(reference_load(json.loads(text)))):
        try:
            outcomes.append(load())
        except FormatError as exc:
            outcomes.append(str(exc))
    return tuple(outcomes)


# JSON texts for each field: ones the loader accepts, and ones it refuses
ORDERED_BOUNDS = ['"1.0"', '"2.0"', '"v2.0.1"', '"3.2.6"', '"10.1"']
NO_BOUND = [None, "null", '""']
GOOD_FIELDS = {
    "vendor": ['"Siemens"', '" Schneider  Electric "', '""', None],
    "product": ['"et200s"', '"6ES7 151"', '""', None],
    "summary": ['"a summary"', '""', None],
    "severity": ["0", "-0.0", "10", "9.8", "4", "1e-5", "null", None],
    "note": ['"a note"', "5", "[1]", "{}", "null", None],  # a database's notes are not kept, so never refused
    "cpe": ['"cpe:2.3:h:siemens"', None],  # keys outside the schema are ignored
}
BAD_FIELDS = {
    "cve_id": [None, "null", "5", '"CVE-20-1"', '"CVE-2020-12345\\n"', '"CVE-\\u0662\\u0660\\u0662\\u0660-12345"',
               '" CVE-2020-12345"'],
    "vendor": ["5", "null", '["Siemens"]'],
    "product": ["7", "null"],
    "summary": ['["x"]', "null", "0"],
    "severity": ["true", "false", "NaN", "Infinity", "-Infinity", "1e400", "-1", "10.5", '"9.8"', "[]"],
    "version_min": ['"n/a"', "4.0", "0", "false", "[]"],
    "version_max": ['"n/a"', '"fw"', "4.0", "0", "true"],
}
NON_OBJECTS = ["[1]", '"x"', "null", "3"]


@st.composite
def good_entries(draw, count=st.integers(1, 6)):
    """Entries ``load_db`` accepts: distinct ids, bounds in order, repeated across min and max."""
    entries = []
    for i in range(draw(count)):
        entry = {"cve_id": f'"CVE-2021-{10000 + i}"'}
        entry.update({name: draw(st.sampled_from(texts)) for name, texts in GOOD_FIELDS.items()})
        low, high = sorted(draw(st.lists(st.integers(0, len(ORDERED_BOUNDS) - 1), min_size=2, max_size=2)))
        entry["version_min"] = draw(st.sampled_from([ORDERED_BOUNDS[low], *NO_BOUND]))
        entry["version_max"] = draw(st.sampled_from([ORDERED_BOUNDS[high], *NO_BOUND]))
        entries.append(entry)
    return entries


SINGLE_FAULTS = [
    ("none", None),
    *((name, text) for name, texts in BAD_FIELDS.items() for text in texts),
    *(("entry", text) for text in NON_OBJECTS),
    ("duplicate", None),
    *(("inverted", text) for text in ORDERED_BOUNDS[:3]),  # each below version_min 5.0
]


@pytest.mark.parametrize("fault, text", SINGLE_FAULTS)
@settings(max_examples=10, deadline=None)
@given(entries=good_entries(), data=st.data())
def test_column_check_names_a_single_fault_as_the_record_loop_did(fault, text, entries, data, tmp_path_factory):
    position = data.draw(st.integers(0, len(entries) - 1))
    if fault == "entry":
        entries[position] = text
    elif fault == "duplicate":
        entries.append({**entries[position], "cve_id": entries[position]["cve_id"]})
        entries.insert(data.draw(st.integers(0, len(entries) - 1)), entries.pop())
    elif fault == "inverted":
        entries[position].update(version_min='"5.0"', version_max=text)
    elif fault != "none":
        entries[position][fault] = text
    got, want = both_loads(render(entries), tmp_path_factory.getbasetemp() / "single_fault.json")
    assert type(got) is type(want)
    assert got == want if isinstance(want, str) else same_record(got, want)
    assert isinstance(want, str) == (fault != "none")


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_column_check_accepts_exactly_what_the_record_loop_accepted(data, tmp_path_factory):
    pools = {name: GOOD_FIELDS.get(name, []) + BAD_FIELDS.get(name, []) for name in {*GOOD_FIELDS, *BAD_FIELDS}}
    pools["cve_id"] += ['"CVE-2021-10000"', '"CVE-2021-10001"', '"CVE-2021-10002"']  # repeated, so duplicates
    pools["version_min"] += ORDERED_BOUNDS + NO_BOUND
    pools["version_max"] += ORDERED_BOUNDS + NO_BOUND
    entry = st.fixed_dictionaries({name: st.sampled_from(texts) for name, texts in sorted(pools.items())})
    entries = data.draw(st.lists(st.one_of(entry, entry, entry, st.sampled_from(NON_OBJECTS)), max_size=6))
    got, want = both_loads(render(entries), tmp_path_factory.getbasetemp() / "any_faults.json")
    assert isinstance(got, str) == isinstance(want, str), (got, want)
    if not isinstance(want, str):
        assert same_record(got, want)


def test_faults_are_named_field_then_duplicate_then_bound_then_range(tmp_path):
    # each kind of fault twice, the lower index of each after every fault of the kinds named before it
    base = {"vendor": "a", "product": "b"}
    rows = [
        {**base, "cve_id": "CVE-2020-10000", "version_min": "5.0", "version_max": "1.0"},
        {**base, "cve_id": "CVE-2020-10001", "version_min": "5.0", "version_max": "2.0"},
        {**base, "cve_id": "CVE-2020-10002", "version_max": "n/a"},
        {**base, "cve_id": "CVE-2020-10003", "version_min": "fw"},
        {**base, "cve_id": "CVE-2020-10000"},
        {**base, "cve_id": "CVE-2020-10001"},
        {**base, "cve_id": "CVE-2020-10006", "severity": True},
        {**base, "cve_id": "CVE-2020-10007", "summary": None},
    ]
    path = tmp_path / "faults.json"
    # the record loop named the first faulty record, whatever its fault
    with pytest.raises(FormatError, match="^CVE-2020-10000: version_min 5.0 above version_max 1.0$"):
        reference_load(json.loads(json.dumps(rows)))
    named = []
    for fixed in ([], [6, 7], [4, 5], [2, 3], [0, 1]):
        for position in fixed:
            rows[position] = {**base, "cve_id": f"CVE-2020-2000{position}"}
        path.write_text(json.dumps(rows))
        try:
            load_db(str(path))
        except FormatError as exc:
            named.append(str(exc))
    assert named == [
        "bad CVE record at index 6: CVE-2020-10006: severity must be a number in 0-10, got True",
        "duplicate CVE id CVE-2020-10000 at index 4",
        "CVE-2020-10002: version_max: unparseable version 'n/a'",
        "CVE-2020-10000: version_min 5.0 above version_max 1.0",
    ]


def test_unparseable_firmware_warns_on_every_lookup(caplog):
    db = db_from([record(cve_id="CVE-2020-11111", vmax="4.0"), record(cve_id="CVE-2020-22222")])
    info = StaticDeviceInfo(manufacturer="Siemens", model="ET200S", firmware_version="fw-unknown")
    with caplog.at_level(logging.WARNING, logger="icsrecon.vulnmatch"):
        for lookup in range(1, 4):
            assert [h.cve_id for h in match(info, db)] == ["CVE-2020-22222"]
            assert sum("VersionUnparseable" in message for message in caplog.messages) == lookup


def test_mixed_case_alias_table_is_folded_on_every_path(tmp_path, monkeypatch):
    table = {"Schneider  ELECTRIC": "Schneider", "TELEMECANIQUE": " schneider "}
    folded = {"schneider electric": "schneider", "telemecanique": "schneider"}
    alias_path = tmp_path / "aliases.json"
    alias_path.write_text(json.dumps(table))
    db_path = tmp_path / "db.json"
    db_path.write_text(json.dumps([{"cve_id": "CVE-2018-99003", "vendor": "Schneider", "product": "scadapack"}]))
    info = StaticDeviceInfo(manufacturer="Telemecanique", model="SCADAPack32")

    from_path = load_db(str(db_path), alias_path=str(alias_path))
    assert from_path.aliases == folded
    by_hand = CveDatabase(records=from_path.records, aliases=folded)
    assert [h.cve_id for h in match(info, from_path)] == [h.cve_id for h in match(info, by_hand)] == ["CVE-2018-99003"]

    monkeypatch.setattr(vulnmatch, "default_aliases", lambda: table)
    assert vulnmatch.load_aliases(None) == folded


# -- oracle properties --------------------------------------------------------------


# record-side spellings: case/whitespace variants and alias names of the
# same vendor, so the index must fold them exactly as the predicate does
VENDORS = ["siemens", "Siemens ", "SIEMENS  AG", "schneider", "Schneider Electric", "telemecanique",
           "rockwell", "Allen-Bradley", "wago"]
PRODUCTS = ["et200s", "ET 200S", "s7", "scadapack", "logix", "750", ""]
VERSIONS = [None, "1.0", "2.0", "3.2.6", "4.0", "4.4.0", "10.1"]


def naive_match_oracle(info: StaticDeviceInfo, db: CveDatabase) -> set[str]:
    """Independent re-statement of the predicate, brute force."""
    hits = set()
    for r in db.records:
        vendor_ok = True
        if info.manufacturer is not None:
            canon = lambda v: db.aliases.get(" ".join(v.lower().split()), " ".join(v.lower().split()))
            vendor_ok = canon(r.vendor) == canon(info.manufacturer)
        product_ok = True
        if info.model is not None:
            strip = lambda s: "".join(c for c in s.lower() if c.isalnum())
            product_ok = bool(strip(r.product)) and strip(r.product) in strip(info.model)
        version_ok = True
        if info.firmware_version is not None and (r.version_min or r.version_max):
            try:
                if r.version_min is not None and compare_versions(info.firmware_version, r.version_min) < 0:
                    version_ok = False
                if r.version_max is not None and compare_versions(info.firmware_version, r.version_max) >= 0:
                    version_ok = False
            except ValueError:
                version_ok = False
        if vendor_ok and product_ok and version_ok:
            hits.add(r.cve_id)
    return hits


def random_db(rng: random.Random) -> CveDatabase:
    records = []
    for i in range(rng.randint(0, 12)):
        vmin, vmax = rng.choice(VERSIONS), rng.choice(VERSIONS)
        if vmin and vmax and compare_versions(vmin, vmax) > 0:
            vmin, vmax = vmax, vmin
        records.append(
            CveRecord(
                cve_id=f"CVE-2020-{10000 + i}",
                vendor=rng.choice(VENDORS),
                product=rng.choice(PRODUCTS),
                version_min=vmin,
                version_max=vmax,
                severity=rng.choice([None, 2.0, 5.0, 9.8]),
            )
        )
    aliases = rng.choice([
        {},
        {"schneider electric": "schneider"},
        {"schneider electric": "schneider", "telemecanique": "schneider", "siemens ag": "siemens",
         "allen-bradley": "rockwell"},
    ])
    return db_from(records, aliases)


def random_info(rng: random.Random) -> StaticDeviceInfo:
    while True:
        manufacturer = rng.choice(["Siemens", " siemens  ag", "Schneider Electric", "TELEMECANIQUE", "rockwell",
                                   "allen-bradley", "", None])
        model = rng.choice(["ET200S", "6ES7 ET-200S", "SCADAPack32", "ControlLogix", "s7-1200", "", None])
        firmware = rng.choice(VERSIONS)
        if manufacturer or model or firmware:
            return StaticDeviceInfo(manufacturer=manufacturer, model=model, firmware_version=firmware)


def test_match_agrees_with_bruteforce_oracle():
    rng = random.Random(0xBEEF)
    checked = 0
    for _ in range(600):
        db = random_db(rng)
        info = random_info(rng)
        if not (info.manufacturer or info.model):
            continue
        got = {h.cve_id for h in match(info, db)}
        assert got == naive_match_oracle(info, db)
        checked += 1
    assert checked > 400


def test_widening_range_never_removes_matches():
    rng = random.Random(0xFEED)
    for _ in range(200):
        db = random_db(rng)
        info = random_info(rng)
        if not (info.manufacturer or info.model):
            continue
        before = {h.cve_id for h in match(info, db)}
        widened = db_from(
            [
                CveRecord(
                    cve_id=r.cve_id, vendor=r.vendor, product=r.product,
                    version_min=None, version_max=None, severity=r.severity,
                )
                for r in db.records
            ],
            db.aliases,
        )
        after = {h.cve_id for h in match(info, widened)}
        assert before <= after


def test_no_match_without_version_satisfaction():
    rng = random.Random(0xACE)
    for _ in range(200):
        db = random_db(rng)
        info = random_info(rng)
        if not (info.manufacturer or info.model) or info.firmware_version is None:
            continue
        for hit in match(info, db):
            (full,) = [r for r in db.records if r.cve_id == hit.cve_id]
            if full.version_min is not None:
                assert compare_versions(info.firmware_version, full.version_min) >= 0
            if full.version_max is not None:
                assert compare_versions(info.firmware_version, full.version_max) < 0


def test_match_is_unchanged_when_every_cache_is_filled_past_its_size():
    """More vendor spellings, product texts and version texts than each 1024-entry cache holds."""
    caches = (normalize_vendor, normalize_product, parse_version)
    size = max(cache.cache_info().maxsize for cache in caches)
    rng = random.Random(0xCACE)

    def spelling(name: str) -> str:  # one of many case and spacing variants of the same name
        return "".join(c.upper() if rng.random() < 0.5 else c for c in name).replace(" ", " " * rng.randint(1, 3))

    vendors = ["siemens ag", "siemens", "schneider electric", "rockwell automation"]
    records = [
        record(
            cve_id=f"CVE-2021-{10000 + i}", vendor=spelling(rng.choice(vendors)),
            product=spelling(f"et 200s {i % 40} cpu"), vmin=rng.choice([None, f"1.{i}"]),
            vmax=rng.choice([None, f"1.{i + rng.randrange(1, 400)}"]), severity=rng.choice([None, 5.0, 9.8]),
        )
        for i in range(3 * size // 2)
    ]
    for texts in ({r.vendor for r in records}, {r.product for r in records},
                  {v for r in records for v in (r.version_min, r.version_max) if v}):
        assert len(texts) > size
    db = db_from(records, {"siemens ag": "siemens"})
    infos = []
    for j in range(80):
        manufacturer, model = rng.choice([(spelling(rng.choice(vendors)), None), (None, f"6ES7 ET200S{j % 40} CPU"),
                                          (spelling(rng.choice(vendors)), f"ET-200S-{j % 40}-CPU")])
        firmware = rng.choice([None, f"1.{rng.randrange(2000)}", "fw-x"])
        infos.append(StaticDeviceInfo(manufacturer=manufacturer, model=model, firmware_version=firmware))

    for cache in caches:
        cache.cache_clear()
    shared = [[h.cve_id for h in match(info, db)] for info in infos]
    assert all(cache.cache_info().misses > size for cache in caches)  # each cache evicted along the way
    for info, got in zip(infos, shared):
        for cache in caches:
            cache.cache_clear()
        assert got == [h.cve_id for h in match(info, db)]
        assert set(got) == naive_match_oracle(info, db)
    assert sum(map(len, shared)) > 100
