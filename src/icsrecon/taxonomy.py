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
from dataclasses import dataclass, field
from datetime import date
from importlib import resources
from typing import Any, Iterable

from .errors import FormatError, ValidationRequired

DATASET_VERSION = 1

RUN_VALUES = ("bundled", "standalone")
LICENSE_VALUES = ("commercial", "open_source", "shareware", "freeware")
SCOPE_VALUES = ("single_target", "wide_target")
PROTOCOL_SUPPORT_VALUES = ("single", "multiple")
METHOD_VALUES = ("passive", "active")
USAGE_VALUES = ("manual", "automatic")
EFFORT_VALUES = ("interactive", "point_and_click")
NATURE_VALUES = ("offline", "real_time")
ENUMERATION_VALUES = ("port_scanning", "icmp_scanning", "arp_scanning")
SERVICE_ID_VALUES = ("banner_grabbing", "fingerprinting")
EXPLOITATION_VALUES = ("automation_protocols", "internet_protocols")

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


@dataclass(frozen=True)
class Violation:
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

    def bad_values(field_name: str, values: Iterable[str], allowed: tuple[str, ...]) -> None:
        extra = set(values) - set(allowed)
        if extra:
            out.append(Violation(field_name, "InvalidValue", f"unknown: {sorted(extra)}"))

    if not profile.name.strip():
        out.append(Violation("name", "NameEmpty"))
    if profile.spec.run not in RUN_VALUES:
        out.append(Violation("spec.run", "InvalidValue", f"{profile.spec.run!r} not in {RUN_VALUES}"))
    bad_values("spec.license", profile.spec.license, LICENSE_VALUES)
    bad_values("spec.scope", profile.spec.scope, SCOPE_VALUES)
    if profile.spec.protocol_support not in PROTOCOL_SUPPORT_VALUES:
        out.append(Violation("spec.protocol_support", "InvalidValue", repr(profile.spec.protocol_support)))
    bad_values("spec.protocols", profile.spec.protocols, PROTOCOL_TOKENS)
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
    bad_values("exec.method", profile.exec.method, METHOD_VALUES)
    if profile.exec.usage not in USAGE_VALUES:
        out.append(Violation("exec.usage", "InvalidValue", repr(profile.exec.usage)))
    if profile.exec.effort not in EFFORT_VALUES:
        out.append(Violation("exec.effort", "InvalidValue", repr(profile.exec.effort)))
    bad_values("exec.nature", profile.exec.nature, NATURE_VALUES)
    bad_values("exec.enumeration", profile.exec.enumeration, ENUMERATION_VALUES)
    bad_values("exec.service_id", profile.exec.service_id, SERVICE_ID_VALUES)
    bad_values("exec.exploitation", profile.exec.exploitation, EXPLOITATION_VALUES)
    if "active" in profile.exec.method and "real_time" not in profile.exec.nature:
        out.append(Violation("exec.nature", "ActiveRequiresRealTime"))

    if not profile.output_levels <= set(range(1, 7)):
        out.append(Violation("output_levels", "InvalidValue", f"{sorted(profile.output_levels)}"))
    if 1 not in profile.output_levels:
        out.append(Violation("output_levels", "MissingLevelOne"))
    return out


# -- (de)serialization ------------------------------------------------------


def profile_to_dict(profile: ToolProfile) -> dict[str, Any]:
    return {
        "name": profile.name,
        "version": profile.version,
        "last_update": profile.last_update.isoformat(),
        "spec": {
            "run": profile.spec.run,
            "license": sorted(profile.spec.license),
            "scope": sorted(profile.spec.scope),
            "protocol_support": profile.spec.protocol_support,
            "protocols": sorted(profile.spec.protocols),
        },
        "exec": {
            "method": sorted(profile.exec.method),
            "usage": profile.exec.usage,
            "effort": profile.exec.effort,
            "nature": sorted(profile.exec.nature),
            "enumeration": sorted(profile.exec.enumeration),
            "service_id": sorted(profile.exec.service_id),
            "exploitation": sorted(profile.exec.exploitation),
        },
        "output_levels": sorted(profile.output_levels),
    }


def profile_from_dict(raw: dict[str, Any]) -> ToolProfile:
    try:
        spec = raw["spec"]
        execution = raw["exec"]
        return ToolProfile(
            name=raw["name"],
            version=raw.get("version", ""),
            last_update=date.fromisoformat(raw["last_update"]),
            spec=SpecificationFeatures(
                run=spec["run"],
                license=frozenset(spec.get("license", [])),
                scope=frozenset(spec.get("scope", [])),
                protocol_support=spec.get("protocol_support", "single"),
                protocols=frozenset(spec.get("protocols", [])),
            ),
            exec=ExecutionFeatures(
                method=frozenset(execution.get("method", [])),
                usage=execution["usage"],
                effort=execution["effort"],
                nature=frozenset(execution.get("nature", [])),
                enumeration=frozenset(execution.get("enumeration", [])),
                service_id=frozenset(execution.get("service_id", [])),
                exploitation=frozenset(execution.get("exploitation", [])),
            ),
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
    if isinstance(raw, dict):
        tools = raw.get("tools", [])
    else:
        tools = raw
    return [profile_from_dict(entry) for entry in tools]


# -- matrix rendering --------------------------------------------------------

# Fixed row order (grouped by class) for deterministic rendering.
MATRIX_ROWS: tuple[tuple[str, str], ...] = (
    ("specification", "bundled"),
    ("specification", "standalone"),
    ("specification", "commercial"),
    ("specification", "open_source"),
    ("specification", "shareware"),
    ("specification", "freeware"),
    ("specification", "single_target"),
    ("specification", "wide_target"),
    ("specification", "single_protocol"),
    ("specification", "multiple_protocols"),
    ("execution", "passive"),
    ("execution", "active"),
    ("execution", "manual"),
    ("execution", "automatic"),
    ("execution", "interactive"),
    ("execution", "point_and_click"),
    ("execution", "offline"),
    ("execution", "real_time"),
    ("execution", "port_scanning"),
    ("execution", "icmp_scanning"),
    ("execution", "arp_scanning"),
    ("execution", "banner_grabbing"),
    ("execution", "fingerprinting"),
    ("execution", "automation_protocols"),
    ("execution", "internet_protocols"),
    ("output", "level_1"),
    ("output", "level_2"),
    ("output", "level_3"),
    ("output", "level_4"),
    ("output", "level_5"),
    ("output", "level_6"),
)


def leaf_applies(profile: ToolProfile, leaf: str) -> bool:
    spec, execution = profile.spec, profile.exec
    if leaf in ("bundled", "standalone"):
        return spec.run == leaf
    if leaf in LICENSE_VALUES:
        return leaf in spec.license
    if leaf in SCOPE_VALUES:
        return leaf in spec.scope
    if leaf == "single_protocol":
        return spec.protocol_support == "single"
    if leaf == "multiple_protocols":
        return spec.protocol_support == "multiple"
    if leaf in METHOD_VALUES:
        return leaf in execution.method
    if leaf in USAGE_VALUES:
        return execution.usage == leaf
    if leaf in EFFORT_VALUES:
        return execution.effort == leaf
    if leaf in NATURE_VALUES:
        return leaf in execution.nature
    if leaf in ENUMERATION_VALUES:
        return leaf in execution.enumeration
    if leaf in SERVICE_ID_VALUES:
        return leaf in execution.service_id
    if leaf in EXPLOITATION_VALUES:
        return leaf in execution.exploitation
    if leaf.startswith("level_"):
        return int(leaf.split("_")[1]) in profile.output_levels
    raise KeyError(leaf)


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
        lines = []
        header = "feature".ljust(name_width) + "  " + "  ".join(
            p.name.rjust(w) for p, w in zip(profiles, col_widths)
        )
        lines.append(header)
        lines.append("-" * len(header))
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
    return [profile_from_dict(entry) for entry in raw.get("tools", [])]


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


def classify_run(report) -> ToolProfile:
    """Self-classification: this artifact's own matrix column for a run.

    Accepts an active ScanReport, a PassiveReport, or either one's
    JSON document.
    """
    document = report.to_document() if hasattr(report, "to_document") else dict(report)
    kind = document.get("kind", "active")
    inventory = document.get("inventory", {})
    asset_count = len(inventory.get("assets", []))

    protocols: set[str] = set()
    for asset in inventory.get("assets", []):
        protocols |= {p for p in asset.get("protocols", []) if p in PROTOCOL_TOKENS}

    levels = set(document.get("levels_achieved", []))
    if not levels:
        depths = document.get("per_asset_depth", {})
        for depth in depths.values():
            levels |= set(range(1, int(depth) + 1))
    levels.add(1)

    if kind == "active":
        method = frozenset({"active"})
        nature = frozenset({"real_time"})
        enumeration = {"port_scanning"}
        for used in document.get("methods_used", []):
            if used == "icmp":
                enumeration.add("icmp_scanning")
            elif used == "arp":
                enumeration.add("arp_scanning")
        service_id = frozenset({"fingerprinting"})
    else:
        method = frozenset({"passive"})
        nature = frozenset({document.get("nature", "offline")})
        enumeration = set()
        service_id = frozenset({"fingerprinting"})

    return ToolProfile(
        name="icsrecon",
        version="0.1.0",
        last_update=date.fromisoformat(document.get("generated_at", "2026-01-01T00:00:00Z")[:10]),
        spec=SpecificationFeatures(
            run="standalone",
            license=frozenset({"open_source"}),
            scope=frozenset({"wide_target"} if asset_count != 1 else {"single_target"}),
            protocol_support="multiple" if len(protocols) > 1 else "single",
            protocols=frozenset(protocols),
        ),
        exec=ExecutionFeatures(
            method=method,
            usage="manual",
            effort="interactive",
            nature=nature,
            enumeration=frozenset(enumeration),
            service_id=service_id,
            exploitation=frozenset({"automation_protocols"}),
        ),
        output_levels=frozenset(levels),
    )
