"""One way to write a record: a NamedTuple, never a dataclass.

A plain record is a NamedTuple. A checked record is a subclass of the
NamedTuple of its fields whose ``__new__`` checks and normalizes them, then
builds the tuple once. A frozen dataclass would build its methods when its
module is imported, about 1 ms each on every start of every command, and the
``dataclasses`` module itself pulls in ``inspect``; so no class in the
package is one.

Every function, class and method in the package has a caller in the
program or in its benchmark; code that only tests reach is not kept.
"""

from __future__ import annotations

import ast
import collections
import dataclasses
import importlib
import inspect
import pathlib
import pkgutil

import icsrecon

CHECKED_RECORDS = {
    "model.PortSpec", "model.StaticDeviceInfo", "model.DeploymentInfo", "model.Asset",
    "scanner.ScanConfig", "simulator.SimDeviceConfig",
}

NAMED_TUPLES = {
    "codecs.modbus.MbapHeader", "codecs.modbus.ModbusPdu", "codecs.modbus.DeviceIdentification",
    "codecs.modbus.SlaveId",
    "codecs.s7.CotpConnectionRequest", "codecs.s7.CotpConnectionConfirm", "codecs.s7.CotpDisconnectRequest",
    "codecs.s7.CotpData", "codecs.s7.TpktCotpEnvelope", "codecs.s7.S7SetupCommunication", "codecs.s7.SzlEntry",
    "codecs.s7.S7SzlRequest", "codecs.s7.S7SzlResponse", "codecs.s7.SzlList",
    "codecs.enip.CipIdentity", "codecs.enip.EnipMessage",
    "pcapio.EthernetFrame", "pcapio.ArpMessage", "pcapio.Ipv4Packet", "pcapio.TcpSegment",
    "model.CveRecord", "model.ProvenanceEntry", "passive.PcapFile", "netbase.ConnectResult", "taxonomy.Violation",
    "taxonomy.SpecificationFeatures", "taxonomy.ExecutionFeatures", "taxonomy.ToolProfile",
    "config.NetworkSettings", "config.StationConfig", "simulator.Counters",
    "model._PortSpecFields", "model._StaticDeviceInfoFields", "model._DeploymentInfoFields", "model._AssetFields",
    "scanner._ScanConfigFields", "simulator._SimDeviceConfigFields",
    *CHECKED_RECORDS,
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


def test_no_class_is_a_dataclass():
    classes = _package_classes()
    assert {"scanner.Scanner", "passive.PcapFile", "simulator.RemoteStation", "passive._Flow"} <= classes.keys()
    assert [name for name, cls in classes.items() if dataclasses.is_dataclass(cls)] == []


def test_plain_records_are_named_tuples():
    classes = _package_classes()
    assert {name for name, cls in classes.items() if issubclass(cls, tuple)} == NAMED_TUPLES
    for name in NAMED_TUPLES:
        assert classes[name]._fields, name  # a NamedTuple, not a bare tuple subclass


def test_checked_records_check_in_new_and_add_no_fields():
    classes = _package_classes()
    for name in CHECKED_RECORDS:
        cls = classes[name]
        (fields,) = cls.__bases__
        assert f"{cls.__module__.removeprefix('icsrecon.')}.{fields.__name__}" in NAMED_TUPLES, name
        assert "__new__" in vars(cls) and vars(cls)["__slots__"] == (), name  # no __dict__, no fields of its own


ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_every_function_class_and_method_is_loaded_by_name_in_src_or_bench():
    """A top-level function or class, or a method but a dunder, that ``src/`` and ``bench/`` never load is dead."""
    definitions, loads = [], collections.defaultdict(list)  # (path, first line, last line, name); name -> (path, line)
    for path in sorted((ROOT / "src" / "icsrecon").rglob("*.py")) + sorted((ROOT / "bench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                loads[node.id if isinstance(node, ast.Name) else node.attr].append((path, node.lineno))
        if path.parent.name == "bench":
            continue
        for node in tree.body:
            members = [m for m in node.body if isinstance(m, ast.FunctionDef)] if isinstance(node, ast.ClassDef) else []
            for defined in [node, *members]:
                named = isinstance(defined, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                if named and not (defined.name.startswith("__") and defined.name.endswith("__")):
                    definitions.append((path, defined.lineno, defined.end_lineno, defined.name))
    assert len(definitions) > 300 and loads  # the walk found the package
    unused = [
        f"{path.relative_to(ROOT)}:{first} {name}"
        for path, first, last, name in definitions
        if not any(where != path or not first <= line <= last for where, line in loads[name])
    ]
    assert unused == []
