"""Which records are dataclasses: only those that check their fields or change.

A frozen dataclass builds its methods when its module is imported, about
1 ms each, on every start of every command. A record with no checks of its
own is a NamedTuple instead, which builds in a tenth of that.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import pkgutil

import icsrecon

# __post_init__ checks or field() defaults; LiveInterface's ClassVar and
# __iter__ would clash with tuple's; the rest are mutable
DATACLASSES = {
    "model.PortSpec", "model.StaticDeviceInfo", "model.DeploymentInfo", "model.Asset",
    "scanner.ScanConfig", "simulator.SimDeviceConfig", "vulnmatch.CveDatabase",
    "taxonomy.SpecificationFeatures", "taxonomy.ExecutionFeatures", "taxonomy.ToolProfile",
    "passive.LiveInterface",
    "simulator.Counters", "simulator._Connection",
}

NAMED_TUPLES = {
    "codecs.modbus.MbapHeader", "codecs.modbus.ModbusPdu", "codecs.modbus.DeviceIdentification",
    "codecs.modbus.SlaveId",
    "codecs.s7.CotpConnectionRequest", "codecs.s7.CotpConnectionConfirm", "codecs.s7.CotpDisconnectRequest",
    "codecs.s7.CotpData", "codecs.s7.TpktCotpEnvelope", "codecs.s7.S7SetupCommunication", "codecs.s7.SzlEntry",
    "codecs.s7.S7SzlRequest", "codecs.s7.S7SzlResponse",
    "codecs.enip.CipIdentity", "codecs.enip.EnipMessage",
    "pcapio.EthernetFrame", "pcapio.ArpMessage", "pcapio.Ipv4Packet", "pcapio.TcpSegment",
    "model.CveRecord", "model.ProvenanceEntry", "passive.PcapFile", "netbase.ConnectResult", "taxonomy.Violation",
    "config.NetworkSettings", "config.StationConfig",
}


def _package_classes() -> dict[str, type]:
    """Every class defined in an icsrecon module, by its dotted name under the package."""
    classes = {}
    for module_info in pkgutil.walk_packages(icsrecon.__path__, "icsrecon."):
        module = importlib.import_module(module_info.name)
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__:
                classes[f"{module.__name__.removeprefix('icsrecon.')}.{name}"] = cls
    return classes


def test_only_checked_or_mutable_records_are_dataclasses():
    classes = _package_classes()
    assert {"scanner.Scanner", "passive.PcapFile", "simulator.RemoteStation"} <= classes.keys()
    assert {name for name, cls in classes.items() if dataclasses.is_dataclass(cls)} == DATACLASSES


def test_plain_records_are_named_tuples():
    classes = _package_classes()
    assert {name for name, cls in classes.items() if issubclass(cls, tuple)} == NAMED_TUPLES
    for name in NAMED_TUPLES:
        assert classes[name]._fields, name  # a NamedTuple, not a bare tuple subclass
