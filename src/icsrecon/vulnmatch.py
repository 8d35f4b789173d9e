"""Offline CVE lookup against static device info.

Matching is deliberately CPE-flavoured and therefore approximate:
vendor equality after alias normalization, product substring match,
and firmware inside [version_min, version_max). Every hit carries a
confidence note telling the operator to verify manually; public CPE
data is known to be patchy and nothing here pretends otherwise.
Clauses only bind when the device-side value exists (the caller must
supply at least a manufacturer or a model).

The database is indexed once, when it is built, by canonical vendor and
then by normalized product, so a lookup only examines the records whose
vendor and product clauses can hold. A load checks the records one
field at a time (``CveRecord.columns``), parses each distinct bound text
once and compares each distinct range once. ``record_applies`` checks
each candidate on its own, and three bounded caches of 1024 texts each
keep it from redoing the work that candidates share: the vendor and
product normalizations and the parsed versions. A vendor, product,
firmware or bound text is normalized or parsed once while its cache
holds it.

The database is a local JSON file; there is no network fetch, so scans
stay air-gap friendly.
"""

from __future__ import annotations

import json
import logging
import re
from functools import lru_cache
from importlib import resources
from itertools import chain, repeat
from typing import Callable, Iterable

from .errors import FormatError
from .model import Asset, CveRecord, StaticDeviceInfo, merge_observation, read_json

logger = logging.getLogger(__name__)

CONFIDENCE_NOTE = "cpe-style match - verify manually"

_NON_ALNUM = re.compile(r"[^a-z0-9]+")


class CveDatabase:
    """CVE records plus the alias table, indexed for ``match``.

    ``index`` maps canonical vendor -> normalized product -> records; it
    is derived from ``records`` and ``aliases`` at construction.
    """

    __slots__ = ("records", "aliases", "index")

    def __init__(self, records: tuple[CveRecord, ...], aliases: dict[str, str]):
        self.records, self.aliases = records, aliases
        self.index: dict[str, dict[str, list[CveRecord]]] = {}
        groups: dict[str, dict[str, list[CveRecord]]] = {}
        products = {product: normalize_product(product) for product in {record.product for record in records}}
        for record in records:
            if record.vendor not in groups:
                groups[record.vendor] = self.index.setdefault(_canonical_vendor(record.vendor, aliases), {})
            groups[record.vendor].setdefault(products[record.product], []).append(record)

    def __len__(self) -> int:
        return len(self.records)


@lru_cache(maxsize=1024)
def normalize_vendor(text: str) -> str:
    """Case- and space-folded vendor name; the last 1024 are kept, process-wide."""
    return " ".join(text.lower().split())


@lru_cache(maxsize=1024)
def normalize_product(text: str) -> str:
    """Lower-case product name without its non-alphanumerics; the last 1024 are kept, process-wide."""
    return _NON_ALNUM.sub("", text.lower())


@lru_cache(maxsize=1)
def default_aliases() -> dict[str, str]:
    with resources.files("icsrecon.data").joinpath("vendor_aliases.json").open("r", encoding="utf-8") as fh:
        return json.load(fh)


def load_aliases(path: str | None) -> dict[str, str]:
    """The alias table at ``path`` (shipped table if None), case- and space-folded."""
    raw = default_aliases() if path is None else read_json(path, "alias table")
    if not isinstance(raw, dict) or not all(isinstance(v, str) for v in raw.values()):
        raise FormatError("alias table must map vendor alias -> canonical name")
    return {normalize_vendor(k): normalize_vendor(v) for k, v in raw.items()}


def load_db(path: str, alias_path: str | None = None) -> CveDatabase:
    """Load and validate a JSON array of CVE records.

    Every check is one pass over one field of all the records. Of several
    faults the first named is a field fault, then a duplicate id, then an
    unparseable bound text, then an inverted range, each at its lowest index.
    """
    raw = read_json(path, "CVE database")
    if not isinstance(raw, list):
        raise FormatError("CVE database must be a JSON array of records")
    ids, vendors, products, summaries, lows, highs, severities = CveRecord.columns(raw)
    if len(set(ids)) != len(ids):
        seen: set[str] = set()
        position = next(i for i, cve_id in enumerate(ids) if cve_id in seen or seen.add(cve_id))
        raise FormatError(f"duplicate CVE id {ids[position]} at index {position}")
    bounds = list(zip(lows, highs))
    keys = {}  # bound text -> its key, for this load only; null and "" are no bound
    for text in dict.fromkeys(chain.from_iterable(bounds)):  # each distinct text once, in order of first appearance
        try:
            keys[text] = text and parse_version(text)
        except ValueError as exc:
            position = next(i for i, pair in enumerate(bounds) if text in pair)
            name = "version_min" if lows[position] == text else "version_max"
            raise FormatError(f"{ids[position]}: {name}: {exc}") from exc
    for low, high in dict.fromkeys(bounds):  # each distinct range once, in order of first appearance
        if low and high and _compare_keys(keys[low], keys[high]) > 0:
            position = bounds.index((low, high))
            raise FormatError(f"{ids[position]}: version_min {low} above version_max {high}")
    normalized = {vendor: normalize_vendor(vendor) for vendor in set(vendors)}
    vendors = map(normalized.__getitem__, vendors)
    rows = zip(ids, vendors, products, summaries, lows, highs, severities, repeat(None))  # a database's notes are not kept
    records = tuple(map(tuple.__new__, repeat(CveRecord), rows))  # the columns are checked: no call per record
    return CveDatabase(records=records, aliases=load_aliases(alias_path))


_SEGMENT = re.compile(r"^(\d*)(.*)$", re.DOTALL)


@lru_cache(maxsize=1024)
def parse_version(text: str) -> tuple[tuple[int, str], ...]:
    """Dotted version -> comparable key.

    Each dot-separated segment becomes (numeric prefix, remaining
    suffix); missing segments compare as (0, ""). A version with no
    digits anywhere does not parse.

    The last 1024 keys are kept, process-wide, so the firmware and the
    bounds that each lookup compares are parsed once while the cache
    holds them; a text that does not parse is not kept and raises again
    every time.
    """
    segments = text.split(".")
    if all(map(str.isdecimal, segments)):  # plain "4.2.1": the pattern below would give the same key
        return tuple((int(segment), "") for segment in segments)
    cleaned = text.strip()
    if cleaned[:1] in ("v", "V"):
        cleaned = cleaned[1:]
    if not any(ch.isdigit() for ch in cleaned):
        raise ValueError(f"unparseable version {text!r}")
    key = []
    for segment in cleaned.split("."):
        match = _SEGMENT.match(segment.strip())
        digits, suffix = match.group(1), match.group(2)
        key.append((int(digits) if digits else 0, suffix))
    return tuple(key)


def compare_versions(a: str, b: str) -> int:
    """-1 / 0 / +1 with left-to-right segments, absent segments = 0."""
    return _compare_keys(parse_version(a), parse_version(b))


def _compare_keys(ka: tuple[tuple[int, str], ...], kb: tuple[tuple[int, str], ...]) -> int:
    if len(ka) != len(kb):
        width = max(len(ka), len(kb))
        ka += ((0, ""),) * (width - len(ka))
        kb += ((0, ""),) * (width - len(kb))
    if ka < kb:
        return -1
    if ka > kb:
        return 1
    return 0


def _canonical_vendor(name: str, aliases: dict[str, str]) -> str:
    norm = normalize_vendor(name)
    return aliases.get(norm, norm)


def record_applies(record: CveRecord, info: StaticDeviceInfo, aliases: dict[str, str]) -> bool:
    """The match predicate for one record.

    Device-side absences leave their clause unconstrained; an
    unparseable device version skips version-bounded records (``match``
    logs that once per lookup).
    """
    if info.manufacturer is not None:
        if _canonical_vendor(record.vendor, aliases) != _canonical_vendor(info.manufacturer, aliases):
            return False
    if info.model is not None:
        product = normalize_product(record.product)
        if not product or product not in normalize_product(info.model):
            return False
    if info.firmware_version is not None and (record.version_min or record.version_max):
        try:
            if record.version_min and compare_versions(info.firmware_version, record.version_min) < 0:
                return False
            if record.version_max and compare_versions(info.firmware_version, record.version_max) >= 0:
                return False
        except ValueError:
            return False
    return True


def match(info: StaticDeviceInfo, db: CveDatabase) -> list[CveRecord]:
    """All records applying to the device, highest severity first.

    Requires manufacturer or model to be present; results carry the
    manual-verification note. Only the index groups whose vendor and
    product clauses hold are passed to ``record_applies``.
    """
    if not (info.manufacturer or info.model):
        raise ValueError("matching needs a manufacturer or a model")
    if info.manufacturer is None:
        vendors = db.index.values()
    else:
        vendors = [db.index.get(_canonical_vendor(info.manufacturer, db.aliases), {})]
    model = None if info.model is None else normalize_product(info.model)
    candidates = [
        record
        for products in vendors
        for product, records in products.items()
        if model is None or (product and product in model)
        for record in records
    ]
    hits = [record for record in candidates if record_applies(record, info, db.aliases)]
    if info.firmware_version is not None:
        try:
            parse_version(info.firmware_version)
        except ValueError:
            skipped = sum(1 for record in candidates if record.version_min or record.version_max)
            if skipped:
                logger.warning(
                    "VersionUnparseable: device firmware %r; skipping %d version-bounded record(s)",
                    info.firmware_version,
                    skipped,
                )
    hits.sort(key=lambda r: (-(r.severity if r.severity is not None else -1.0), r.cve_id))
    return [r._replace(note=CONFIDENCE_NOTE) for r in hits]


def enrich(
    assets: Iterable[Asset],
    db: CveDatabase,
    on_lookup: Callable[[Asset], None] | None = None,
) -> tuple[list[Asset], int]:
    """Merge each asset's CVE matches in; returns the assets and the match count.

    Assets with neither manufacturer nor model pass through untouched;
    ``on_lookup(asset)`` runs for every other one before it is matched.
    The matches are folded in as evidence carrying the asset's own
    static info, sources and ``last_seen``, so enriching never moves
    ``last_seen``.
    """
    out: list[Asset] = []
    total = 0
    for asset in assets:
        info = asset.static_info
        if info is not None and (info.manufacturer or info.model):
            if on_lookup is not None:
                on_lookup(asset)
            matches = match(info, db)
            if matches:
                found = Asset(asset.ip, asset.last_seen, static_info=info, vulnerabilities=matches, sources=asset.sources)
                asset = merge_observation(asset, found)
                total += len(matches)
        out.append(asset)
    return out, total
