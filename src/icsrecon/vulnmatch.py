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
vendor and product clauses hold. Building it also parses each distinct
bound text once, checks every range, and keeps the parsed keys, padded
to one width: a lookup parses the device firmware once and compares it
with kept keys, so ``record_applies`` checks only the version clause.

The database is a local JSON file; there is no network fetch, so scans
stay air-gap friendly.
"""

from __future__ import annotations

import json
import logging
import re
from functools import lru_cache
from importlib import resources
from itertools import repeat
from operator import attrgetter, gt
from typing import Callable, Iterable

from .errors import FormatError
from .model import Asset, CveRecord, StaticDeviceInfo, merge_observation, read_json

logger = logging.getLogger(__name__)

CONFIDENCE_NOTE = "cpe-style match - verify manually"

_NON_ALNUM = re.compile(r"[^a-z0-9]+")
_BOTTOM, _TOP = (), ((float("inf"), ""),)  # below and above every key: an absent version_min, an absent version_max


class CveDatabase:
    """CVE records plus the alias table, indexed for ``match``.

    ``index`` maps canonical vendor -> normalized product -> records, and
    ``bounds`` each distinct bound text -> its key, padded with
    ``padding`` to the longest; both are derived at construction, which
    refuses a bound that does not parse or a range that is inverted.
    """

    __slots__ = ("records", "aliases", "index", "bounds", "padding")

    def __init__(self, records: tuple[CveRecord, ...], aliases: dict[str, str]):
        self.records, self.aliases = records, aliases
        self.bounds, self.padding = _bound_keys(records)
        self.index: dict[str, dict[str, list[CveRecord]]] = {}
        groups: dict[str, dict[str, list[CveRecord]]] = {}
        products = {product: normalize_product(product) for product in {record.product for record in records}}
        for record in records:
            if record.vendor not in groups:
                groups[record.vendor] = self.index.setdefault(_canonical_vendor(record.vendor, aliases), {})
            groups[record.vendor].setdefault(products[record.product], []).append(record)

    def __len__(self) -> int:
        return len(self.records)


def _bound_keys(records: tuple[CveRecord, ...]) -> tuple[dict[str, tuple], tuple]:
    """Each distinct bound text -> its key padded to the longest, and that padding.

    One pass parses the distinct texts, one compares every range; a
    record is named only once a pass fails: of several, the first whose
    bound does not parse, else the first whose range is inverted.
    """
    lows, highs = list(map(attrgetter("version_min"), records)), list(map(attrgetter("version_max"), records))
    keys, faults = {}, {}
    for text in {*lows, *highs}:
        if text:  # null and "" are no bound
            try:
                keys[text] = parse_version(text)
            except ValueError as exc:
                faults[text] = exc
    if faults:
        position, name, text = next((position, name, text) for position, pair in enumerate(zip(lows, highs))
                                    for name, text in zip(("version_min", "version_max"), pair) if text in faults)
        raise FormatError(f"{records[position].cve_id}: {name}: {faults[text]}") from faults[text]
    padding = ((0, ""),) * max(map(len, keys.values()), default=0)  # an absent segment, below every other
    keys = {text: key + padding[len(key):] for text, key in keys.items()}
    inverted = list(map(gt, map(keys.get, lows, repeat(_BOTTOM)), map(keys.get, highs, repeat(_TOP))))
    if True in inverted:
        record = records[inverted.index(True)]
        raise FormatError(f"{record.cve_id}: version_min {record.version_min} above version_max {record.version_max}")
    return keys, padding


def normalize_vendor(text: str) -> str:
    """Case- and space-folded vendor name."""
    return " ".join(text.lower().split())


def normalize_product(text: str) -> str:
    """Lower-case product name without its non-alphanumerics."""
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
    unparseable bound text, then an inverted range, each at its lowest
    index, then a fault of the alias table.
    """
    raw = read_json(path, "CVE database")
    if not isinstance(raw, list):
        raise FormatError("CVE database must be a JSON array of records")
    ids, vendors, products, summaries, lows, highs, severities = CveRecord.columns(raw)
    if len(set(ids)) != len(ids):
        seen: set[str] = set()
        position = next(i for i, cve_id in enumerate(ids) if cve_id in seen or seen.add(cve_id))
        raise FormatError(f"duplicate CVE id {ids[position]} at index {position}")
    normalized = {vendor: normalize_vendor(vendor) for vendor in set(vendors)}
    vendors = map(normalized.__getitem__, vendors)
    rows = zip(ids, vendors, products, summaries, lows, highs, severities, repeat(None))  # a database's notes are not kept
    records = tuple(map(tuple.__new__, repeat(CveRecord), rows))  # the columns are checked: no call per record
    try:
        aliases = load_aliases(alias_path)
    except FormatError:
        CveDatabase(records=records, aliases={})  # a fault of the records is named first
        raise
    return CveDatabase(records=records, aliases=aliases)


_SEGMENT = re.compile(r"^(\d*)(.*)$", re.DOTALL)


def parse_version(text: str) -> tuple[tuple[int, str], ...]:
    """Dotted version -> comparable key.

    Each dot-separated segment becomes (numeric prefix, remaining
    suffix); missing segments compare as (0, ""). A version with no
    digits anywhere does not parse. A database parses each bound text
    once, when it is built, and a lookup its device's firmware once.
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


def _canonical_vendor(name: str, aliases: dict[str, str]) -> str:
    norm = normalize_vendor(name)
    return aliases.get(norm, norm)


def record_applies(record: CveRecord, firmware: tuple | None, bounds: dict[str, tuple]) -> bool:
    """The version clause for one index candidate, whose vendor and product clauses hold.

    ``firmware`` is the device's key with the database's ``padding``
    appended, None when the device has none (the clause is
    unconstrained), and ``()`` when it does not parse, which skips
    version-bounded records (``match`` logs that once per lookup).
    """
    low, high = record.version_min, record.version_max
    if firmware is None or not (low or high):
        return True
    return firmware != () and (not low or bounds[low] <= firmware) and (not high or firmware < bounds[high])


def match(info: StaticDeviceInfo, db: CveDatabase) -> list[CveRecord]:
    """All records applying to the device, highest severity first.

    Requires manufacturer or model to be present; results carry the
    manual-verification note. Only the index groups whose vendor and
    product clauses hold are passed to ``record_applies``, with the
    firmware parsed once.
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
    firmware = info.firmware_version
    if firmware is not None:
        try:  # as long as every bound now, a key equal to one once padded compares above it, which no clause tells apart
            firmware = parse_version(firmware) + db.padding
        except ValueError:
            firmware = ()
            skipped = sum(1 for record in candidates if record.version_min or record.version_max)
            if skipped:
                logger.warning(
                    "VersionUnparseable: device firmware %r; skipping %d version-bounded record(s)",
                    info.firmware_version,
                    skipped,
                )
    hits = [record for record in candidates if record_applies(record, firmware, db.bounds)]
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
