"""Key/section config files for scans and simulated stations.

Both file kinds use the same INI dialect: a ``[scan]`` (plus optional
``[network]``) section for scan runs, and ``[station]`` plus one
``[device:<name>]`` section per simulated device for fixtures. Device
identity fields are ``identity.<field> = value`` keys. A section or a
key that its loader does not read is refused.

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


def _split(raw: str) -> list[str]:
    return [token for token in raw.replace(",", " ").split() if token]


# each section a file kind reads, and the keys its loader reads there; "device:" stands for every
# [device:<name>] section and "identity." for every identity.<field> key
_SCAN_SECTIONS = {
    "scan": {"targets", "ports", "methods", "rate_limit_pps", "safe_mode", "unit_id_sweep", "timeout_ms", "vuln_db",
             "vuln_aliases", "workers", "modbus_unit"},
    "network": {"mode", "map_file"},
}
_FIXTURE_SECTIONS = {
    "station": {"scanner_ip"},
    "device:": {"protocol", "ip", "listen_port", "mac", "features", "accepted_tsaps", "fragile", "max_pps",
                "fault_on_malformed", "unit_id", "identity."},
}


def _parser(path: str | Path, sections: dict[str, set[str]]) -> configparser.ConfigParser:
    """The file parsed; a ConfigError for a section or a key that ``sections`` does not list, so no typo is ignored."""
    parser = configparser.ConfigParser()
    try:
        read = parser.read(str(path))
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not read:
        raise ConfigError(f"config file not found: {path}")
    for name in parser.sections():
        keys = sections.get("".join(name.partition(":")[:2]))
        if keys is None:
            raise ConfigError(f"{path}: [{name}] is not a section this file reads")
        for key in parser[name]:
            if key not in keys and "".join(key.partition(".")[:2]) not in keys:
                raise ConfigError(f"{path}: [{name}] {key} is not a key this section reads")
    return parser


class NetworkSettings(NamedTuple):
    mode: str = "real"  # real | sim
    map_file: str | None = None


def load_scan_config(path: str | Path, overrides: dict | None = None) -> tuple[ScanConfig, NetworkSettings]:
    from .scanner import ScanConfig

    parser = _parser(path, _SCAN_SECTIONS)
    if not parser.has_section("scan"):
        raise ConfigError(f"{path}: missing [scan] section")
    section = parser["scan"]
    try:
        values = {  # None: the key is absent (or, for ports, empty), so ScanConfig's own default applies
            "targets": tuple(_split(section.get("targets", ""))),
            "ports": frozenset(int(p) for p in _split(section.get("ports", ""))) or None,
            "methods": frozenset(_split(section["methods"])) if "methods" in section else None,
            "rate_limit_pps": section.getint("rate_limit_pps"),
            "safe_mode": section.getboolean("safe_mode"),
            "unit_id_sweep": section.getboolean("unit_id_sweep"),
            "timeout_ms": section.getint("timeout_ms"),
            "vuln_db_path": section.get("vuln_db"),
            "vuln_alias_path": section.get("vuln_aliases"),
            "workers": section.getint("workers"),
            "modbus_unit": section.getint("modbus_unit"),
        }
        values.update({key: value for key, value in (overrides or {}).items() if value is not None})
        if not values["targets"]:
            raise ConfigError(f"{path}: no scan targets configured")
        config = ScanConfig(**{key: value for key, value in values.items() if value is not None})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    network = NetworkSettings()
    if parser.has_section("network"):
        net = parser["network"]
        mode = net.get("mode", "real").strip().lower()
        if mode not in ("real", "sim"):
            raise ConfigError(f"{path}: network mode must be real or sim, not {mode!r}")
        network = NetworkSettings(mode=mode, map_file=net.get("map_file", None))
    return config, network


class StationConfig(NamedTuple):
    scanner_ip: str
    devices: tuple[SimDeviceConfig, ...]


def _device_from_section(name: str, section: configparser.SectionProxy) -> SimDeviceConfig:
    from .simulator import SimDeviceConfig

    identity = {
        key.split(".", 1)[1]: value
        for key, value in section.items()
        if key.startswith("identity.")
    }
    tsaps = section.get("accepted_tsaps", "").strip()
    try:
        optional = {  # None: the key is absent, so SimDeviceConfig's own default applies
            "mac": section.get("mac"),
            "fragile": section.getboolean("fragile"),
            "max_pps": section.getint("max_pps"),
            "fault_on_malformed": section.getboolean("fault_on_malformed"),
            "unit_id": section.getint("unit_id"),
        }
        return SimDeviceConfig(
            name=name,
            protocol=section.get("protocol", ""),
            ip=section.get("ip", ""),
            listen_port=section.getint("listen_port"),
            identity=identity,
            feature_flags=frozenset(_split(section.get("features", ""))),
            accepted_tsaps=tuple(int(t, 0) for t in _split(tsaps)) or None,
            **{key: value for key, value in optional.items() if value is not None},
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"device {name!r}: {exc}") from exc


def load_fixtures(path: str | Path) -> StationConfig:
    from .simulator import SCANNER_IP

    parser = _parser(path, _FIXTURE_SECTIONS)
    scanner_ip = SCANNER_IP
    if parser.has_section("station"):
        scanner_ip = parser["station"].get("scanner_ip", scanner_ip)
        try:
            scanner_ip = _check_ip(scanner_ip)
        except ValueError as exc:
            raise ConfigError(f"{path}: scanner_ip: {exc}") from exc
    devices = []
    for section_name in parser.sections():
        if section_name != "station":
            devices.append(_device_from_section(section_name.split(":", 1)[1], parser[section_name]))
    return StationConfig(scanner_ip=scanner_ip, devices=tuple(devices))


def default_fixtures_path() -> Path:
    return Path(str(resources.files("icsrecon.data").joinpath("fixtures").joinpath(DEFAULT_FIXTURES)))
