"""Key/section config files for scans and simulated stations.

Both file kinds use the same INI dialect: a ``[scan]`` (plus optional
``[network]``) section for scan runs, and ``[station]`` plus one
``[device:<name>]`` section per simulated device for fixtures. Device
identity fields are ``identity.<field> = value`` keys.

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


def _parser(path: str | Path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser()
    try:
        read = parser.read(str(path))
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not read:
        raise ConfigError(f"config file not found: {path}")
    return parser


class NetworkSettings(NamedTuple):
    mode: str = "real"  # real | sim
    map_file: str | None = None


def load_scan_config(path: str | Path, overrides: dict | None = None) -> tuple[ScanConfig, NetworkSettings]:
    from .scanner import DEFAULT_PORTS, ScanConfig

    parser = _parser(path)
    if not parser.has_section("scan"):
        raise ConfigError(f"{path}: missing [scan] section")
    section = parser["scan"]
    try:
        values = {
            "targets": tuple(_split(section.get("targets", ""))),
            "ports": frozenset(int(p) for p in _split(section.get("ports", ""))) or DEFAULT_PORTS,
            "methods": frozenset(_split(section.get("methods", "icmp"))),
            "rate_limit_pps": section.getint("rate_limit_pps", 20),
            "safe_mode": section.getboolean("safe_mode", True),
            "unit_id_sweep": section.getboolean("unit_id_sweep", False),
            "timeout_ms": section.getint("timeout_ms", 800),
            "vuln_db_path": section.get("vuln_db", None),
            "vuln_alias_path": section.get("vuln_aliases", None),
            "workers": section.getint("workers", 8),
            "modbus_unit": section.getint("modbus_unit", 1),
        }
        for key, value in (overrides or {}).items():
            if value is not None:
                values[key] = value
        if not values["targets"]:
            raise ConfigError(f"{path}: no scan targets configured")
        config = ScanConfig(**values)
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
        return SimDeviceConfig(
            name=name,
            protocol=section.get("protocol", ""),
            ip=section.get("ip", ""),
            listen_port=section.getint("listen_port"),
            mac=section.get("mac", "02:00:00:00:00:01"),
            identity=identity,
            feature_flags=frozenset(_split(section.get("features", ""))),
            fragile=section.getboolean("fragile", False),
            max_pps=section.getint("max_pps", 50),
            fault_on_malformed=section.getboolean("fault_on_malformed", False),
            accepted_tsaps=tuple(int(t, 0) for t in _split(tsaps)) or None,
            unit_id=section.getint("unit_id", 1),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"device {name!r}: {exc}") from exc


def load_fixtures(path: str | Path) -> StationConfig:
    parser = _parser(path)
    scanner_ip = "192.168.90.1"
    if parser.has_section("station"):
        scanner_ip = parser["station"].get("scanner_ip", scanner_ip)
        try:
            scanner_ip = _check_ip(scanner_ip)
        except ValueError as exc:
            raise ConfigError(f"{path}: scanner_ip: {exc}") from exc
    devices = []
    for section_name in parser.sections():
        if not section_name.startswith("device:"):
            continue
        device_name = section_name.split(":", 1)[1]
        devices.append(_device_from_section(device_name, parser[section_name]))
    return StationConfig(scanner_ip=scanner_ip, devices=tuple(devices))


def default_fixtures_path() -> Path:
    return Path(str(resources.files("icsrecon.data").joinpath("fixtures").joinpath(DEFAULT_FIXTURES)))
