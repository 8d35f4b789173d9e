"""Canonical data model for discovered assets.

One :class:`Fold` states how evidence about an address is folded.
Everything the scanner learns about a device arrives as an evidence
:class:`Asset` (usually built by :meth:`Asset.discovered`) and is folded
into the device's asset by :func:`merge_observation`, a fold seeded with
that asset, which also folds an inventory's assets into one another; the
passive analyzer folds each address's flows into a fold of its own.
Assets are immutable; merging returns a new value. An
:class:`Inventory` keys assets by IPv4 address and round-trips through
a versioned JSON document; a :class:`RunReport` is one scan or sniff
run's inventory with the counters of its kind.

Depth semantics: six independent evidence predicates (IP seen, open
ports, confirmed protocols, static device info, deployment info,
vulnerability matches). :func:`compute_depth` returns the highest
satisfied level; the levels are deliberately not a strict ladder, a
device can hold level-5 evidence without level-4 evidence.
"""

from __future__ import annotations

import ipaddress
import json
import os
import re
from datetime import datetime, timezone
from enum import IntEnum
from itertools import repeat
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Iterable, Iterator, NamedTuple

from .errors import AddressMismatch, FormatError

INVENTORY_VERSION = 1
REPORT_VERSION = 1

SOURCES = {"active", "passive"}

_CVE_ID_RE = re.compile(r"CVE-[0-9]{4}-[0-9]{4,}")  # fullmatch, ASCII digits, as the schema's pattern
_PROTOCOL_TOKEN_RE = re.compile(r"^[a-z0-9_]+$")
_OCTET = r"(?:25[0-5]|2[0-4][0-9]|1[0-9][0-9]|[1-9]?[0-9])"
_DOTTED_QUAD_RE = re.compile(rf"{_OCTET}\.{_OCTET}\.{_OCTET}\.{_OCTET}")


class DepthLevel(IntEnum):
    """How much a scan learned about one device, least to most."""

    IP_DISCOVERY = 1
    OPEN_PORTS = 2
    PROTOCOL_SERVICE = 3
    STATIC_INFO = 4
    DEPLOYMENT_INFO = 5
    VULNERABILITY = 6

    def describe(self) -> str:
        return _DEPTH_DESCRIPTIONS[self]


_DEPTH_DESCRIPTIONS = {
    DepthLevel.IP_DISCOVERY: "IP discovery",
    DepthLevel.OPEN_PORTS: "open ports identification",
    DepthLevel.PROTOCOL_SERVICE: "protocol & service identification",
    DepthLevel.STATIC_INFO: "static device info",
    DepthLevel.DEPLOYMENT_INFO: "deployment specific info",
    DepthLevel.VULNERABILITY: "vulnerability identification",
}


def normalize_protocol(token: str) -> str:
    """Validate a protocol token: nonempty, lowercase, [a-z0-9_]."""
    if not token or not _PROTOCOL_TOKEN_RE.match(token):
        raise ValueError(f"invalid protocol token {token!r}")
    return token


def _clean(text: str | None) -> str | None:
    """Normalize empty / whitespace-only strings to absent; non-text is a ValueError."""
    if text is None:
        return None
    if not isinstance(text, str):
        raise ValueError(f"expected text, got {text!r}")
    return text.strip() or None


# A checked record is the NamedTuple of its fields plus a subclass whose __new__ checks and normalizes them, then
# builds the tuple once. _make and _replace skip those checks, so the program never calls them on a checked record.
class _PortSpecFields(NamedTuple):
    port: int
    transport: str


class PortSpec(_PortSpecFields):
    """One open transport endpoint, rendered as e.g. ``502/tcp``."""

    __slots__ = ()

    def __new__(cls, port: int, transport: str = "tcp") -> "PortSpec":
        if not 1 <= port <= 65535:
            raise ValueError(f"port out of range: {port}")
        if transport not in ("tcp", "udp"):
            raise ValueError(f"unknown transport: {transport!r}")
        return tuple.__new__(cls, (port, transport))

    def __str__(self) -> str:
        return f"{self.port}/{self.transport}"

    @classmethod
    def parse(cls, text: str) -> "PortSpec":
        try:
            port, transport = text.split("/", 1)
            return cls(int(port), transport)
        except (ValueError, TypeError, AttributeError) as exc:  # AttributeError: not text
            raise ValueError(f"bad port spec {text!r}") from exc


STATIC_FIELDS = ("manufacturer", "model", "firmware_version", "hardware_version", "serial")


def clean_static(fields: dict[str, str | None]) -> dict[str, str] | None:
    """The present static-info fields of a loose dict, cleaned, in ``STATIC_FIELDS`` order.

    None when below the bar: at least one of manufacturer, model or
    firmware_version must be present.
    """
    cleaned = {name: text for name in STATIC_FIELDS if (text := _clean(fields.get(name)))}
    return cleaned if cleaned.keys() & {"manufacturer", "model", "firmware_version"} else None


class _StaticDeviceInfoFields(NamedTuple):
    manufacturer: str | None
    model: str | None
    firmware_version: str | None
    hardware_version: str | None
    serial: str | None


class StaticDeviceInfo(_StaticDeviceInfoFields):
    """Factory-set device properties; absent rather than empty.

    Below the ``clean_static`` bar the whole value must be omitted.
    """

    __slots__ = ()

    def __new__(cls, manufacturer=None, model=None, firmware_version=None, hardware_version=None, serial=None):
        fields = (manufacturer, model, firmware_version, hardware_version, serial)
        info = cls.from_fields(dict(zip(STATIC_FIELDS, fields)))
        if info is None:
            raise ValueError("static info needs manufacturer, model or firmware_version")
        return info

    @classmethod
    def from_fields(cls, fields: dict[str, str | None]) -> "StaticDeviceInfo | None":
        """Build from a loose field dict, each field cleaned once; None when below the bar."""
        cleaned = clean_static(fields)
        return None if cleaned is None else cls._of_clean(cleaned)

    @classmethod
    def _of_clean(cls, cleaned: dict[str, str | None]) -> "StaticDeviceInfo":  # fields as clean_static gives them
        return tuple.__new__(cls, map(cleaned.get, STATIC_FIELDS))

    def to_dict(self) -> dict[str, str | None]:
        return self._asdict()


def clean_deployment(entries: Iterable[tuple[str, str]]) -> dict[str, str]:
    """The nonempty entries of loose key/value pairs, each cleaned; a later duplicate wins."""
    pairs = ((_clean(key), _clean(value)) for key, value in entries)
    return {key: value for key, value in pairs if key and value}


class _DeploymentInfoFields(NamedTuple):
    entries: tuple[tuple[str, str], ...]


class DeploymentInfo(_DeploymentInfoFields):
    """Operator-set properties such as slave IDs and station names.

    Entries are held in canonical key order; later duplicates win.
    """

    __slots__ = ()

    def __new__(cls, entries: Iterable[tuple[str, str]]) -> "DeploymentInfo":
        cleaned = clean_deployment(entries)
        if not cleaned:
            raise ValueError("deployment info needs at least one nonempty entry")
        return cls._of_clean(cleaned)

    @classmethod
    def from_dict(cls, entries: dict[str, str]) -> "DeploymentInfo | None":
        """Build from a loose dict, each key and value cleaned once; None when no entry is left."""
        cleaned = clean_deployment(entries.items())
        return cls._of_clean(cleaned) if cleaned else None

    @classmethod
    def _of_clean(cls, cleaned: dict[str, str]) -> "DeploymentInfo":  # entries as clean_deployment gives them
        return tuple.__new__(cls, (tuple(sorted(cleaned.items())),))

    def as_dict(self) -> dict[str, str]:
        return dict(self.entries)


# the JSON type inventory.schema.json gives each CveRecord field, and its name in an error;
# _CVE_TYPES_IN_FIELD_ORDER, below CveRecord, puts the types in field order for from_dict's and columns' checks
_TEXT, _TEXT_OR_NULL = ((str,), "text"), ((str, type(None)), "text or null")
_CVE_FIELD_TYPES = {
    "cve_id": _TEXT, "vendor": _TEXT, "product": _TEXT, "summary": _TEXT, "version_min": _TEXT_OR_NULL,
    "version_max": _TEXT_OR_NULL, "severity": ((int, float, type(None)), "a number or null"), "note": _TEXT_OR_NULL,
}


class CveRecord(NamedTuple):
    """One vulnerability database entry (version bounds: [min, max)).

    A record read from a file is built by ``from_dict``, which checks it.
    """

    cve_id: str
    vendor: str
    product: str
    summary: str = ""
    version_min: str | None = None
    version_max: str | None = None
    severity: float | None = None
    note: str | None = None

    def to_dict(self) -> dict[str, Any]:
        return self._asdict()

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "CveRecord":
        """The record ``raw`` holds, each field of the JSON type the inventory schema gives it, severity in 0-10."""
        get = raw.get
        record = cls(
            raw["cve_id"], get("vendor", ""), get("product", ""), get("summary", ""),
            get("version_min"), get("version_max"), get("severity"), get("note"),
        )
        cve_id, severity = record.cve_id, record.severity
        if not (isinstance(cve_id, str) and _CVE_ID_RE.fullmatch(cve_id)):
            raise ValueError(f"bad CVE id {cve_id!r}")
        if not all(map(isinstance, record, _CVE_TYPES_IN_FIELD_ORDER)):
            for name, value in zip(cls._fields, record):
                types, described = _CVE_FIELD_TYPES[name]
                if not isinstance(value, types):
                    raise ValueError(f"{cve_id}: {name} must be {described}, got {value!r}")
        if severity is not None and (isinstance(severity, bool) or not 0 <= severity <= 10):
            raise ValueError(f"{cve_id}: severity must be a number in 0-10, got {severity!r}")
        return record

    @classmethod
    def columns(cls, entries: list) -> list[list]:
        """One list per field of ``entries`` but the note, in field order, each entry checked as by ``from_dict``.

        Each check is one pass over one field. Only when one fails are the
        entries walked through ``from_dict``, note ignored, to name the
        first that it refuses.
        """
        try:
            columns = [list(map(dict.get, entries, repeat(name), repeat(None if type(None) in types else "")))
                       for name, (types, _) in _CVE_FIELD_TYPES.items() if name != "note"]
            severities = list(filter(None, columns[6]))  # 0 and -0.0, the falsy numbers, are in range
            held = (all(set(map(type, column)).issubset(types)
                        for column, types in zip(columns, _CVE_TYPES_IN_FIELD_ORDER))
                    and all(map(_CVE_ID_RE.fullmatch, columns[0]))
                    and all(map(0.0.__le__, severities)) and all(map(10.0.__ge__, severities)))  # NaN fails both
        except TypeError:  # an entry that is not a JSON object
            held = False
        for position, entry in enumerate(() if held else entries):
            try:
                if not isinstance(entry, dict):
                    raise TypeError(f"expected a JSON object, got {type(entry).__name__}")
                cls.from_dict({**entry, "note": None})  # a database's notes are not kept
            except (KeyError, TypeError, ValueError) as exc:
                raise FormatError(f"bad CVE record at index {position}: {exc}") from exc
        return columns


_CVE_TYPES_IN_FIELD_ORDER = tuple(_CVE_FIELD_TYPES[name][0] for name in CveRecord._fields)


class ProvenanceEntry(NamedTuple):
    """Record of a scalar field being overwritten during a merge."""

    field: str
    prior: str
    current: str
    at: datetime
    source: str

    def to_dict(self) -> dict[str, str]:
        return {**self._asdict(), "at": format_timestamp(self.at)}

    @classmethod
    def from_dict(cls, raw: dict[str, str]) -> "ProvenanceEntry":
        for key in ("field", "prior", "current", "source"):
            if not isinstance(raw[key], str):
                raise ValueError(f"provenance {key} must be text, got {raw[key]!r}")
        return cls(raw["field"], raw["prior"], raw["current"], parse_timestamp(raw["at"]), raw["source"])


def format_timestamp(ts: datetime) -> str:
    """RFC 3339 UTC timestamp."""
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc).isoformat().replace("+00:00", "Z")


def parse_timestamp(text: str) -> datetime:
    if not isinstance(text, str):
        raise ValueError(f"not a timestamp: {text!r}")
    return datetime.fromisoformat(text.replace("Z", "+00:00"))


def _array(raw: dict[str, Any], key: str) -> list:
    """A record's JSON array field; absent is empty."""
    value = raw.get(key, [])
    if not isinstance(value, list):
        raise ValueError(f"{key} must be an array, got {value!r}")
    return value


def _object(raw: dict[str, Any], key: str) -> dict | None:
    """A record's JSON object field; absent or null is None."""
    value = raw.get(key)
    if value is not None and not isinstance(value, dict):
        raise ValueError(f"{key} must be an object, got {value!r}")
    return value


def _check_ip(ip: str) -> str:
    if not isinstance(ip, str):
        raise ValueError(f"not an IPv4 address: {ip!r}")
    if _DOTTED_QUAD_RE.fullmatch(ip):
        return ip  # already the canonical text ipaddress would give back
    try:
        return str(ipaddress.IPv4Address(ip))
    except ipaddress.AddressValueError as exc:
        raise ValueError(f"not an IPv4 address: {ip!r}") from exc


def _check_mac(mac: str | None) -> str | None:
    mac = _clean(mac)
    if mac is None:
        return None
    mac = mac.lower().replace("-", ":")
    if not re.match(r"^([0-9a-f]{2}:){5}[0-9a-f]{2}$", mac):
        raise ValueError(f"not a 48-bit hardware address: {mac!r}")
    return mac


class _AssetFields(NamedTuple):
    ip: str
    last_seen: datetime
    mac: str | None
    oui_vendor: str | None
    open_ports: frozenset[PortSpec]
    protocols: frozenset[str]
    static_info: StaticDeviceInfo | None
    deployment_info: DeploymentInfo | None
    vulnerabilities: tuple[CveRecord, ...]
    sources: frozenset[str]
    provenance: tuple[ProvenanceEntry, ...]


class Asset(_AssetFields):
    """One discovered device; immutable once constructed."""

    __slots__ = ()

    def __new__(cls, ip, last_seen, mac=None, oui_vendor=None, open_ports=frozenset(), protocols=frozenset(),
                static_info=None, deployment_info=None, vulnerabilities=(), sources=frozenset(), provenance=()):
        ip, mac, oui_vendor, open_ports = _check_ip(ip), _check_mac(mac), _clean(oui_vendor), frozenset(open_ports)
        protocols, vulnerabilities = frozenset(map(normalize_protocol, protocols)), tuple(vulnerabilities)
        sources = frozenset(sources)
        if not sources <= SOURCES:
            raise ValueError(f"unknown sources: {sources - SOURCES}")
        if vulnerabilities and static_info is None:
            raise ValueError("vulnerability evidence requires static device info")
        return tuple.__new__(cls, (ip, last_seen, mac, oui_vendor, open_ports, protocols, static_info, deployment_info,
                                   vulnerabilities, sources, provenance))

    @classmethod
    def discovered(cls, ip: str, when: datetime | None = None, source: str = "active", **extra) -> "Asset":
        when = when or datetime.now(timezone.utc)
        return cls(ip=ip, last_seen=when, sources=frozenset({source}), **extra)

    def to_dict(self) -> dict[str, Any]:
        return {
            "ip": self.ip,
            "mac": self.mac,
            "oui_vendor": self.oui_vendor,
            "open_ports": [str(p) for p in sorted(self.open_ports)],
            "protocols": sorted(self.protocols),
            "static_info": self.static_info.to_dict() if self.static_info else None,
            "deployment_info": self.deployment_info.as_dict() if self.deployment_info else None,
            "vulnerabilities": [v.to_dict() for v in self.vulnerabilities],
            "last_seen": format_timestamp(self.last_seen),
            "sources": sorted(self.sources),
            "provenance": [p.to_dict() for p in self.provenance],
        }

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "Asset":
        static = _object(raw, "static_info") or {}
        if static.keys() - STATIC_FIELDS:
            raise ValueError(f"unknown static_info fields: {sorted(static.keys() - STATIC_FIELDS)}")
        deployment = _object(raw, "deployment_info")
        return cls(
            ip=raw["ip"],
            mac=raw.get("mac"),
            oui_vendor=raw.get("oui_vendor"),
            open_ports=frozenset(PortSpec.parse(p) for p in _array(raw, "open_ports")),
            protocols=frozenset(_array(raw, "protocols")),
            static_info=StaticDeviceInfo.from_fields(static),
            deployment_info=DeploymentInfo.from_dict(deployment) if deployment else None,
            vulnerabilities=tuple(CveRecord.from_dict(v) for v in _array(raw, "vulnerabilities")),
            last_seen=parse_timestamp(raw["last_seen"]),
            sources=frozenset(_array(raw, "sources")),
            provenance=tuple(ProvenanceEntry.from_dict(p) for p in _array(raw, "provenance")),
        )


class Fold:
    """One address's evidence, folded batch by batch and frozen once into its asset.

    Sets are unioned; a present static or deployment value wins over the
    one folded before it, and a different value it displaces is logged
    with its batch's time and source. A POSIX time becomes a datetime only
    when logged or frozen. Nothing is removed, so depth never decreases.
    """

    __slots__ = ("ip", "last_seen", "mac", "oui_vendor", "sources", "ports", "protocols", "static", "deployment",
                 "provenance", "vulnerabilities")

    def __init__(self, ip: str, last_seen: datetime | float, mac: str | None, oui_vendor: str | None,
                 sources: frozenset[str], provenance: Iterable[ProvenanceEntry] = (), vulnerabilities=()):
        self.ip, self.last_seen, self.mac, self.oui_vendor, self.sources = ip, last_seen, mac, oui_vendor, sources
        self.ports, self.protocols, self.static, self.deployment = set(), set(), {}, {}
        self.provenance, self.vulnerabilities = list(provenance), vulnerabilities

    def add(self, at: datetime | float, source: str, ports: Iterable[PortSpec], protocols: Iterable[str],
            static: Iterable[tuple[str, str | None]], deployment: Iterable[tuple[str, str | None]]) -> None:
        """Fold one batch of evidence seen at ``at`` from ``source``; its static and deployment items are cleaned."""
        if at > self.last_seen:
            self.last_seen = at
        self.ports.update(ports)
        self.protocols.update(protocols)
        self._newest(self.static, static, "static_info.", at, source)
        self._newest(self.deployment, deployment, "deployment_info.", at, source)

    def _newest(self, merged: dict, new: Iterable[tuple[str, str | None]], prefix: str, at: datetime | float,
                source: str) -> None:
        """Fold ``new`` into ``merged`` key by key: a present value wins, and a different one it displaces is logged."""
        for key, value in new:
            if value is None:
                continue
            old = merged.get(key)
            if old is not None and old != value:
                if not isinstance(at, datetime):
                    at = datetime.fromtimestamp(at, tz=timezone.utc)
                self.provenance.append(ProvenanceEntry(prefix + key, old, value, at, source))
            merged[key] = value

    def freeze(self) -> Asset:
        at, static, deployment = self.last_seen, self.static, self.deployment
        return Asset(  # in field order
            self.ip, at if isinstance(at, datetime) else datetime.fromtimestamp(at, tz=timezone.utc), self.mac,
            self.oui_vendor, frozenset(self.ports), frozenset(self.protocols),
            StaticDeviceInfo._of_clean(static) if static else None,
            DeploymentInfo._of_clean(deployment) if deployment else None,
            self.vulnerabilities, self.sources, tuple(self.provenance),
        )


def merge_observation(asset: Asset, evidence: Asset) -> Asset:
    """Fold a batch of evidence about the same IP into an asset, returning a new asset.

    A :class:`Fold` seeded with ``asset`` takes the evidence, stamped with
    its ``last_seen`` and its first source, active when it names none; its
    MAC and vendor go first. Its own provenance entries follow, each not
    yet logged, then its CVEs whose ids the asset lacks.
    """
    if evidence.ip != asset.ip:
        raise AddressMismatch(f"evidence for {evidence.ip} applied to asset {asset.ip}")

    sources = evidence.sources or frozenset({"active"})
    at, source = evidence.last_seen, min(sources)
    seen_ids = {v.cve_id for v in asset.vulnerabilities}
    vulns = (*asset.vulnerabilities, *(v for v in evidence.vulnerabilities if v.cve_id not in seen_ids))
    fold = Fold(asset.ip, asset.last_seen, None, None, asset.sources | sources, asset.provenance, vulns)
    scalars = {"mac": asset.mac, "oui_vendor": asset.oui_vendor}
    fold._newest(scalars, (("mac", evidence.mac), ("oui_vendor", evidence.oui_vendor)), "", at, source)
    fold.mac, fold.oui_vendor = scalars["mac"], scalars["oui_vendor"]
    for part in (asset, evidence):  # the asset's own part displaces nothing, so the log's order is kept
        static = part.static_info.to_dict().items() if part.static_info else ()
        fold.add(part.last_seen, source, part.open_ports, part.protocols, static,
                 part.deployment_info.entries if part.deployment_info else ())
    if evidence.provenance:
        logged = set(fold.provenance)
        fold.provenance.extend(p for p in evidence.provenance if p not in logged)
    return fold.freeze()


def satisfied_levels(asset: Asset, vuln_db_consulted: bool = False) -> set[int]:
    """The set of individually satisfied levels (1 always holds)."""
    held = (
        True,
        bool(asset.open_ports),
        bool(asset.protocols),
        asset.static_info is not None,
        asset.deployment_info is not None,
        bool(asset.vulnerabilities) and vuln_db_consulted,
    )
    return {level for level, holds in enumerate(held, start=1) if holds}


def compute_depth(asset: Asset, vuln_db_consulted: bool = False) -> DepthLevel:
    """Depth achieved for one asset: its highest satisfied level."""
    return DepthLevel(max(satisfied_levels(asset, vuln_db_consulted)))


class Inventory:
    """Single-writer collection of assets keyed by IP."""

    def __init__(self, assets: Iterable[Asset] = ()):
        self._assets: dict[str, Asset] = {}
        for asset in assets:
            self.upsert(asset)

    def __len__(self) -> int:
        return len(self._assets)

    def __iter__(self) -> Iterator[Asset]:
        return iter(self.assets())

    def __contains__(self, ip: str) -> bool:
        return ip in self._assets

    def __eq__(self, other) -> bool:
        if not isinstance(other, Inventory):
            return NotImplemented
        return self._assets == other._assets

    def get(self, ip: str) -> Asset | None:
        return self._assets.get(ip)

    def assets(self) -> list[Asset]:
        """Assets in stable IP order."""
        return [self._assets[ip] for ip in sorted(self._assets, key=ipaddress.IPv4Address)]

    def upsert(self, asset: Asset) -> Asset:
        """Insert, or fold into the asset already held for its IP."""
        existing = self._assets.get(asset.ip)
        self._assets[asset.ip] = asset if existing is None else merge_observation(existing, asset)
        return self._assets[asset.ip]

    def levels_achieved(self, vuln_db_consulted: bool = False) -> list[int]:
        """Every level some asset satisfies on its own evidence, ascending."""
        return sorted(set().union(*(satisfied_levels(a, vuln_db_consulted) for a in self._assets.values())))

    def to_document(self) -> dict[str, Any]:
        return {"version": INVENTORY_VERSION, "assets": [a.to_dict() for a in self.assets()]}

    @classmethod
    def from_document(cls, doc: dict[str, Any]) -> "Inventory":
        if not isinstance(doc, dict):
            raise FormatError("inventory document must be a JSON object", offset=0)
        if doc.get("version") != INVENTORY_VERSION:
            raise FormatError(f"unsupported inventory version {doc.get('version')!r}", offset=0)
        inv = cls()
        try:
            for position, asset in enumerate(map(Asset.from_dict, _array(doc, "assets"))):
                if asset.ip in inv._assets:
                    raise FormatError(f"duplicate asset {asset.ip} at index {position}", offset=0)
                inv._assets[asset.ip] = asset
        except (AttributeError, KeyError, TypeError, ValueError) as exc:  # AttributeError: an asset not an object
            raise FormatError(f"bad asset record: {exc}", offset=0) from exc
        return inv

    def save(self, path) -> None:
        write_whole(path, json_text(self.to_document()))

    @classmethod
    def load(cls, path) -> "Inventory":
        return cls.from_document(read_json(path, "inventory"))


class RunReport:
    """One scan or sniff run: its inventory, the depths that inventory reaches, and the counters of its kind.

    The counters are the document's own top-level fields, each also an
    attribute: an active run's ``duration_seconds``, ``packets_sent``,
    ``rate_limit_pps``, ``safe_mode``, ``methods_used``,
    ``unit_id_sweep_used`` and ``vuln_db_consulted``; a passive run's
    ``nature``, ``source``, ``frames_read``, ``frames_skipped``,
    ``out_of_order_segments`` and ``classified_flows``.
    """

    vuln_db_consulted = False  # a passive run never consults one

    def __init__(
        self,
        kind: str,
        inventory: Inventory,
        anomalies: Iterable[str] = (),
        generated_at: datetime | None = None,
        **counters,
    ):
        self.kind = kind
        self.inventory = inventory
        self.anomalies = list(anomalies)
        self.generated_at = generated_at or datetime.now(timezone.utc)
        self.counters = counters
        vars(self).update(counters)

    @property
    def per_asset_depth(self) -> dict[str, int]:
        return {asset.ip: int(compute_depth(asset, self.vuln_db_consulted)) for asset in self.inventory}

    def to_document(self) -> dict[str, Any]:
        return {
            "version": REPORT_VERSION,
            "kind": self.kind,
            "generated_at": format_timestamp(self.generated_at),
            **self.counters,
            "per_asset_depth": self.per_asset_depth,
            "levels_achieved": self.inventory.levels_achieved(self.vuln_db_consulted),
            "anomalies": list(self.anomalies),
            "inventory": self.inventory.to_document(),
        }

    def save(self, inventory_path, report_path=None) -> None:
        """Write the inventory, and the report document when ``report_path`` is given."""
        self.inventory.save(inventory_path)
        if report_path:
            write_whole(report_path, json_text(self.to_document()))


def read_json(path, what: str) -> Any:
    """The JSON value in the file at ``path``; a FormatError naming ``what`` and the place when it is not JSON."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{what} is not valid JSON: {exc.msg} (line {exc.lineno})", offset=exc.pos) from exc


def json_text(document: Any) -> str:
    """The layout of every JSON document the program writes: two-space indent, sorted keys, a final newline.

    The same text as ``json.dumps(document, indent=2, sort_keys=True) + "\\n"``, whose ``indent`` runs the
    standard library's pure-Python encoder.
    """
    parts: list[str] = []
    _write_json(document, "\n", parts.append)
    parts.append("\n")
    return "".join(parts)


def _write_json(value: Any, newline: str, put: Callable[[str], None]) -> None:
    if isinstance(value, str):
        put(encode_basestring_ascii(value))
    elif isinstance(value, (list, tuple)):
        inner = newline + "  "
        lead = "[" + inner
        for item in value:
            put(lead)
            _write_json(item, inner, put)
            lead = "," + inner
        put(newline + "]" if value else "[]")
    elif isinstance(value, dict):
        inner = newline + "  "
        lead = "{" + inner
        for key in sorted(value):  # by the key's own value, then written as text, as json does
            put(lead + (encode_basestring_ascii(key) if isinstance(key, str) else _json_key(key)) + ": ")
            _write_json(value[key], inner, put)
            lead = "," + inner
        put(newline + "}" if value else "{}")
    else:
        put(_json_scalar(value))


def _json_scalar(value: Any) -> str:
    if value is None:
        return "null"
    if value is True or value is False:
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)  # an IntEnum is written as its number
    if isinstance(value, float) and value - value == 0.0:  # finite
        return float.__repr__(value)
    return json.dumps(value)  # NaN and Infinity as json writes them; anything else json refuses, as it always did


def _json_key(key: Any) -> str:
    if key is None or isinstance(key, (int, float)):  # bool is an int
        return f'"{_json_scalar(key)}"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def write_whole(path, text: str) -> None:
    """Write ``text`` over ``path`` through a file beside it, so a failed or cut-short write leaves ``path`` as it was."""
    partial = f"{os.fspath(path)}.{os.getpid()}.part"
    try:
        with open(partial, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(partial, path)
    finally:
        if os.path.exists(partial):
            os.remove(partial)
