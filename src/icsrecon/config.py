"""Key/section config files for scans and simulated stations.

Both file kinds use the same INI dialect: a ``[scan]`` section for scan
runs, with an optional ``[network] map_file`` that sends the scan to the
simulated station its map names (with no map it scans the real network),
and ``[station]`` plus one ``[device:<name>]`` section per simulated
device for fixtures. Device identity fields are
``identity.<key> = value`` keys its codec serves.

Each section has one table, and each of its rows names a key, the record
field the key sets and the reader of its text. That table is all a loader
reads and all it accepts: a section or a key no table names is refused,
and a value its reader refuses is a ConfigError naming the file, the
section and the key. A key that is absent leaves its record's own default.

Each loader imports the module it builds for: ``load_scan_config`` the
scanner, ``load_fixtures`` the simulator, so neither loads the other.
"""

from __future__ import annotations

import configparser
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from .errors import ConfigError
from .model import _check_ip

if TYPE_CHECKING:
    from .scanner import ScanConfig
    from .simulator import SimDeviceConfig

DEFAULT_FIXTURES = "station_default.conf"


def _tokens(text: str) -> list[str]:
    return [token for token in text.replace(",", " ").split() if token]


def _boolean(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {text!r}") from None


# each file kind's sections -> key -> (the record field it sets, the reader of its text); "device:" stands for every
# [device:<name>] section, and a key ending in "." for every key under it, gathered in a dict. A reader's None (an
# empty port or TSAP list) leaves the field at its record's default, as an absent key does
_SCAN_TABLES = {
    "scan": {
        "targets": ("targets", lambda text: tuple(_tokens(text))),
        "ports": ("ports", lambda text: frozenset(int(port) for port in _tokens(text)) or None),
        "methods": ("methods", lambda text: frozenset(_tokens(text))),
        "rate_limit_pps": ("rate_limit_pps", int),
        "unit_id_sweep": ("unit_id_sweep", _boolean),
        "timeout_ms": ("timeout_ms", int),
        "vuln_db": ("vuln_db_path", str),
        "vuln_aliases": ("vuln_alias_path", str),
        "workers": ("workers", int),
        "modbus_unit": ("modbus_unit", int),
    },
    "network": {"map_file": ("map_file", str)},
}
_FIXTURE_TABLES = {
    "station": {"scanner_ip": ("scanner_ip", _check_ip)},
    "device:": {
        "protocol": ("protocol", str),
        "ip": ("ip", str),
        "listen_port": ("listen_port", int),
        "mac": ("mac", str),
        "features": ("feature_flags", lambda text: frozenset(_tokens(text))),
        "accepted_tsaps": ("accepted_tsaps", lambda text: tuple(int(tsap, 0) for tsap in _tokens(text)) or None),
        "fragile": ("fragile", _boolean),
        "max_pps": ("max_pps", int),
        "fault_on_malformed": ("fault_on_malformed", _boolean),
        "unit_id": ("unit_id", int),
        "identity.": ("identity", str),
    },
}


def _read(path: str | Path, tables: dict[str, dict]) -> dict[str, dict]:
    """Each section of the file -> the record fields its present keys set, each read through its table's row."""
    parser = configparser.ConfigParser()
    try:
        read = parser.read(str(path))
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not read:
        raise ConfigError(f"config file not found: {path}")
    sections = {}
    for name in parser.sections():
        table = tables.get("".join(name.partition(":")[:2]))
        if table is None:
            raise ConfigError(f"{path}: [{name}] is not a section this file reads")
        fields = sections[name] = {}
        for key in parser[name]:
            head = "".join(key.partition(".")[:2])  # the key itself, or "identity." for identity.<field>
            if head not in table:
                raise ConfigError(f"{path}: [{name}] {key} is not a key this section reads")
            field, reader = table[head]
            try:
                value = reader(parser[name][key])
            except (ValueError, configparser.InterpolationError) as exc:  # a "%" that names no key, such as "100%"
                raise ConfigError(f"{path}: [{name}] {key}: {exc}") from exc
            if head.endswith("."):
                fields.setdefault(field, {})[key[len(head):]] = value
            elif value is not None:
                fields[field] = value
    return sections


def load_scan_config(path: str | Path, overrides: dict | None = None) -> tuple[ScanConfig, str | None]:
    from .scanner import ScanConfig

    sections = _read(path, _SCAN_TABLES)
    if "scan" not in sections:
        raise ConfigError(f"{path}: missing [scan] section")
    fields = sections["scan"] | {key: value for key, value in (overrides or {}).items() if value is not None}
    if not fields.get("targets"):
        raise ConfigError(f"{path}: no scan targets configured")
    return ScanConfig(**fields), sections.get("network", {}).get("map_file")


class StationConfig(NamedTuple):
    scanner_ip: str
    devices: tuple[SimDeviceConfig, ...]


def load_fixtures(path: str | Path) -> StationConfig:
    from .simulator import SCANNER_IP, SimDeviceConfig

    sections = _read(path, _FIXTURE_TABLES)
    station = sections.pop("station", {})
    devices = tuple(SimDeviceConfig(name=name.partition(":")[2], **fields) for name, fields in sections.items())
    return StationConfig(scanner_ip=station.get("scanner_ip", SCANNER_IP), devices=devices)


def default_fixtures_path() -> Path:
    return Path(str(resources.files("icsrecon.data").joinpath("fixtures").joinpath(DEFAULT_FIXTURES)))
