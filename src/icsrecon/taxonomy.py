"""Machine-readable feature taxonomy of asset-scanning tools.

Three feature classes: what a tool is (specification), how it runs
(execution), and how deep its output goes (the 1..6 ladder). Profiles
validate against structural rules; a validated set renders as a
feature matrix (text, CSV, or JSON, the JSON form round-trips back to
profiles). The shipped dataset encodes 28 surveyed free-to-use tools
and is data, not code: corrections belong in the JSON file.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import MISSING, asdict, dataclass, fields
from datetime import date
from importlib import resources
from typing import Any, NamedTuple

from .errors import FormatError, ValidationRequired
from .model import Inventory

DATASET_VERSION = 1

# The feature vocabulary, stated once. One row per feature: (matrix
# class, profile section, field, allowed values, set-valued). Each
# allowed value is one matrix leaf; validation, (de)serialization and
# the matrix all read this table.
FEATURES: tuple[tuple[str, str, str, tuple[str, ...], bool], ...] = (
    ("specification", "spec", "run", ("bundled", "standalone"), False),
    ("specification", "spec", "license", ("commercial", "open_source", "shareware", "freeware"), True),
    ("specification", "spec", "scope", ("single_target", "wide_target"), True),
    ("specification", "spec", "protocol_support", ("single", "multiple"), False),
    ("execution", "exec", "method", ("passive", "active"), True),
    ("execution", "exec", "usage", ("manual", "automatic"), False),
    ("execution", "exec", "effort", ("interactive", "point_and_click"), False),
    ("execution", "exec", "nature", ("offline", "real_time"), True),
    ("execution", "exec", "enumeration", ("port_scanning", "icmp_scanning", "arp_scanning"), True),
    ("execution", "exec", "service_id", ("banner_grabbing", "fingerprinting"), True),
    ("execution", "exec", "exploitation", ("automation_protocols", "internet_protocols"), True),
)

PROTOCOL_TOKENS = (
    "enip", "profinet", "profibus", "modbus", "bacnet", "s7comm",
    "fins", "dnp3", "ff", "opcua", "snmp", "ethercat", "hart",
)


@dataclass(frozen=True)
class SpecificationFeatures:
    run: str
    license: frozenset[str] = frozenset()
    scope: frozenset[str] = frozenset()
    protocol_support: str = "single"
    protocols: frozenset[str] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "license", frozenset(self.license))
        object.__setattr__(self, "scope", frozenset(self.scope))
        object.__setattr__(self, "protocols", frozenset(self.protocols))


@dataclass(frozen=True)
class ExecutionFeatures:
    method: frozenset[str]
    usage: str
    effort: str
    nature: frozenset[str] = frozenset()
    enumeration: frozenset[str] = frozenset()
    service_id: frozenset[str] = frozenset()
    exploitation: frozenset[str] = frozenset()

    def __post_init__(self):
        for name in ("method", "nature", "enumeration", "service_id", "exploitation"):
            object.__setattr__(self, name, frozenset(getattr(self, name)))


@dataclass(frozen=True)
class ToolProfile:
    """One column of the feature matrix."""

    name: str
    version: str
    last_update: date
    spec: SpecificationFeatures
    exec: ExecutionFeatures
    output_levels: frozenset[int] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "output_levels", frozenset(self.output_levels))


class Violation(NamedTuple):
    """One failed validation rule; data, not an exception."""

    field: str
    rule: str
    detail: str = ""

    def __str__(self) -> str:
        text = f"{self.rule} on {self.field}"
        return f"{text}: {self.detail}" if self.detail else text


def validate_profile(profile: ToolProfile) -> list[Violation]:
    """Structural rules; an empty list means the profile is coherent."""
    out: list[Violation] = []
    if not profile.name.strip():
        out.append(Violation("name", "NameEmpty"))
    checks = [
        (f"{section}.{name}", getattr(getattr(profile, section), name), allowed, is_set)
        for _, section, name, allowed, is_set in FEATURES
    ]
    checks.append(("spec.protocols", profile.spec.protocols, PROTOCOL_TOKENS, True))
    for field_name, value, allowed, is_set in checks:
        if is_set:
            extra = set(value) - set(allowed)
            if extra:
                out.append(Violation(field_name, "InvalidValue", f"unknown: {sorted(extra)}"))
        elif value not in allowed:
            out.append(Violation(field_name, "InvalidValue", f"{value!r} not in {allowed}"))

    multi = len(profile.spec.protocols) > 1
    if (profile.spec.protocol_support == "multiple") != multi:
        out.append(
            Violation(
                "spec.protocol_support",
                "ScopeContradiction",
                f"{profile.spec.protocol_support} with {len(profile.spec.protocols)} protocols",
            )
        )

    if not profile.exec.method:
        out.append(Violation("exec.method", "MethodEmpty"))
    if "active" in profile.exec.method and "real_time" not in profile.exec.nature:
        out.append(Violation("exec.nature", "ActiveRequiresRealTime"))

    if not profile.output_levels <= set(range(1, 7)):
        out.append(Violation("output_levels", "InvalidValue", f"{sorted(profile.output_levels)}"))
    if 1 not in profile.output_levels:
        out.append(Violation("output_levels", "MissingLevelOne"))
    return out


# -- (de)serialization ------------------------------------------------------


def profile_to_dict(profile: ToolProfile) -> dict[str, Any]:
    def plain(value: Any) -> Any:
        if isinstance(value, dict):
            return {key: plain(item) for key, item in value.items()}
        if isinstance(value, frozenset):
            return sorted(value)
        return value.isoformat() if isinstance(value, date) else value

    return plain(asdict(profile))


def _features_from_dict(cls: type, raw: dict[str, Any]) -> Any:
    """A missing set-valued feature is empty; a missing scalar takes its default or is an error."""
    set_valued = {name for *_, name, _, is_set in FEATURES if is_set}
    present = {}
    for feature in fields(cls):
        if feature.name in raw:
            present[feature.name] = raw[feature.name]
        elif feature.name in set_valued:
            present[feature.name] = ()
        elif feature.default is MISSING:
            raise KeyError(feature.name)
    return cls(**present)


def profile_from_dict(raw: dict[str, Any]) -> ToolProfile:
    try:
        if not isinstance(raw["name"], str) or not isinstance(raw.get("version", ""), str):
            raise TypeError("name and version must be text")
        spec, execution = raw["spec"], raw["exec"]
        return ToolProfile(
            name=raw["name"],
            version=raw.get("version", ""),
            last_update=date.fromisoformat(raw["last_update"]),
            spec=_features_from_dict(SpecificationFeatures, spec),
            exec=_features_from_dict(ExecutionFeatures, execution),
            output_levels=frozenset(raw.get("output_levels", [])),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad tool profile {raw.get('name', '?')!r}: {exc}") from exc


def load_profiles(path: str | None = None) -> list[ToolProfile]:
    """Load a profile dataset; defaults to the shipped 28-tool file."""
    if path is None:
        with resources.files("icsrecon.data").joinpath("tools_dataset.json").open("r", encoding="utf-8") as fh:
            raw = json.load(fh)
    else:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise FormatError(f"dataset is not valid JSON: {exc.msg}", offset=exc.pos) from exc
    return _profiles_from_document(raw, "dataset")


def _profiles_from_document(raw: Any, what: str) -> list[ToolProfile]:
    """The profiles of an array of tool objects, or of an object holding one under ``tools``."""
    tools = raw.get("tools", []) if isinstance(raw, dict) else raw
    if not isinstance(tools, list) or not all(isinstance(entry, dict) for entry in tools):
        raise FormatError(f"{what} must be an array of tool objects, or an object holding one under tools")
    return [profile_from_dict(entry) for entry in tools]


# -- matrix rendering --------------------------------------------------------

# Leaf names are the allowed values, except protocol support's two.
_LEAF_NAMES = {"single": "single_protocol", "multiple": "multiple_protocols"}
_LEAVES = {
    _LEAF_NAMES.get(value, value): (class_name, section, name, value, is_set)
    for class_name, section, name, values, is_set in FEATURES
    for value in values
}

# Fixed row order (grouped by class) for deterministic rendering.
MATRIX_ROWS: tuple[tuple[str, str], ...] = tuple(
    (class_name, leaf) for leaf, (class_name, *_) in _LEAVES.items()
) + tuple(("output", f"level_{level}") for level in range(1, 7))


def leaf_applies(profile: ToolProfile, leaf: str) -> bool:
    if leaf.startswith("level_"):
        return int(leaf.split("_")[1]) in profile.output_levels
    _, section, name, value, is_set = _LEAVES[leaf]
    held = getattr(getattr(profile, section), name)
    return value in held if is_set else held == value


def _require_valid(profiles: list[ToolProfile]) -> None:
    for profile in profiles:
        violations = validate_profile(profile)
        if violations:
            raise ValidationRequired(
                f"profile {profile.name!r} has violations: {'; '.join(str(v) for v in violations)}"
            )


def render_matrix(profiles: list[ToolProfile], format: str = "text_table") -> str:
    """Feature matrix: rows are taxonomy leaves, columns are tools."""
    _require_valid(profiles)
    if format == "json":
        document = {"version": DATASET_VERSION, "tools": [profile_to_dict(p) for p in profiles]}
        return json.dumps(document, indent=2, sort_keys=True) + "\n"
    if format == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(["class", "feature"] + [p.name for p in profiles])
        for class_name, leaf in MATRIX_ROWS:
            writer.writerow(
                [class_name, leaf] + ["1" if leaf_applies(p, leaf) else "0" for p in profiles]
            )
        return buffer.getvalue()
    if format == "text_table":
        name_width = max([len("feature")] + [len(leaf) for _, leaf in MATRIX_ROWS])
        col_widths = [max(len(p.name), 1) for p in profiles]
        header = "feature".ljust(name_width) + "  " + "  ".join(
            p.name.rjust(w) for p, w in zip(profiles, col_widths)
        )
        lines = [header, "-" * len(header)]
        current_class = None
        for class_name, leaf in MATRIX_ROWS:
            if class_name != current_class:
                lines.append(f"[{class_name}]")
                current_class = class_name
            cells = "  ".join(
                ("x" if leaf_applies(p, leaf) else ".").rjust(w)
                for p, w in zip(profiles, col_widths)
            )
            lines.append(leaf.ljust(name_width) + "  " + cells)
        lines.append("legend: x applicable, . not applicable")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown matrix format {format!r}")


def parse_matrix_json(document: str) -> list[ToolProfile]:
    try:
        raw = json.loads(document)
    except json.JSONDecodeError as exc:
        raise FormatError(f"matrix document is not valid JSON: {exc.msg}", offset=exc.pos) from exc
    return _profiles_from_document(raw, "matrix document")


def dataset_stats(profiles: list[ToolProfile]) -> dict[str, Any]:
    """Per-leaf applicability counts plus headline ratios."""
    _require_valid(profiles)
    total = len(profiles)
    counts = {
        f"{class_name}/{leaf}": sum(1 for p in profiles if leaf_applies(p, leaf))
        for class_name, leaf in MATRIX_ROWS
    }
    def ratio(count: int) -> float:
        return count / total if total else 0.0

    return {
        "tool_count": total,
        "counts": counts,
        "fraction_manual": ratio(counts["execution/manual"]),
        "fraction_automatic": ratio(counts["execution/automatic"]),
        "fraction_active": ratio(counts["execution/active"]),
        "fraction_passive": ratio(counts["execution/passive"]),
        "fraction_reaching_level": {
            level: ratio(counts[f"output/level_{level}"]) for level in range(1, 7)
        },
    }


def _report_field(raw: dict, key: str, default, kind: type, item: type = object):
    """``raw[key]``, or ``default`` when absent; FormatError unless it is a
    ``kind`` whose items are ``item``s."""
    value = raw.get(key, default)
    if value is not default and not (isinstance(value, kind) and all(isinstance(v, item) for v in value)):
        raise FormatError(f"scan report {key} has the wrong JSON type: {value!r}")
    return value


def classify_run(report) -> ToolProfile:
    """Self-classification: this artifact's own matrix column for a run.

    Accepts an active ScanReport, a PassiveReport, or either one's
    JSON document; a document whose fields have the wrong JSON types
    raises FormatError.
    """
    document = report.to_document() if hasattr(report, "to_document") else dict(report)
    kind = _report_field(document, "kind", "active", str)
    inventory = _report_field(document, "inventory", {}, dict)
    assets = _report_field(inventory, "assets", [], list, dict)

    protocols: set[str] = set()
    for asset in assets:
        protocols |= {p for p in _report_field(asset, "protocols", [], list, str) if p in PROTOCOL_TOKENS}

    levels = _report_field(document, "levels_achieved", None, list, int)
    if levels is None:  # a report written before it recorded its levels: the one level rule, per asset
        levels = Inventory.from_document(inventory).levels_achieved(document.get("vuln_db_consulted", False))
    generated_at = _report_field(document, "generated_at", "2026-01-01T00:00:00Z", str)
    try:
        last_update = date.fromisoformat(generated_at[:10])
    except ValueError as exc:
        raise FormatError(f"scan report generated_at is not a timestamp: {generated_at!r}") from exc

    if kind == "active":
        method, nature = {"active"}, {"real_time"}
        discovery = {"icmp": "icmp_scanning", "arp": "arp_scanning"}
        methods = _report_field(document, "methods_used", [], list, str)
        enumeration = {"port_scanning"} | {discovery[m] for m in methods if m in discovery}
    else:
        method, nature, enumeration = {"passive"}, {_report_field(document, "nature", "offline", str)}, set()

    return ToolProfile(
        name="icsrecon",
        version="0.1.0",
        last_update=last_update,
        spec=SpecificationFeatures(
            run="standalone",
            license={"open_source"},
            scope={"wide_target"} if len(assets) != 1 else {"single_target"},
            protocol_support="multiple" if len(protocols) > 1 else "single",
            protocols=protocols,
        ),
        exec=ExecutionFeatures(
            method=method,
            usage="manual",
            effort="interactive",
            nature=nature,
            enumeration=enumeration,
            service_id={"fingerprinting"},
            exploitation={"automation_protocols"},
        ),
        output_levels=set(levels) | {1},
    )
