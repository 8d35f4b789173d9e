"""Shared generators and fixtures for the test suite."""

from __future__ import annotations

import contextlib
import random
from datetime import datetime, timezone

import pytest
from hypothesis import strategies as st

from icsrecon.model import (
    Asset,
    CveRecord,
    DeploymentInfo,
    PortSpec,
    StaticDeviceInfo,
)

WORDS = ["alpha", "beta", "gamma", "delta", "unit", "line", "press", "pump", "plc", "rtu"]
VENDORS = ["Siemens", "Schneider Electric", "Rockwell Automation", "Westermo", "ABB"]
PROTOCOLS = ["modbus", "s7comm", "enip", "dnp3", "profinet", "bacnet", "opcua", "snmp"]


def ts(seconds: float = 0.0) -> datetime:
    return datetime.fromtimestamp(1_700_000_000 + seconds, tz=timezone.utc)


def asset_holding(ports: bool, protocols: bool, static: bool, deployment: bool, vulns: bool) -> Asset:
    """An asset holding exactly the evidence each flag names; Asset refuses vulns without static info."""
    return Asset.discovered(
        "192.168.90.10",
        ts(),
        open_ports=frozenset({PortSpec(102)}) if ports else frozenset(),
        protocols=frozenset({"s7comm"}) if protocols else frozenset(),
        static_info=StaticDeviceInfo(manufacturer="Siemens") if static else None,
        deployment_info=DeploymentInfo.from_dict({"system_name": "x"}) if deployment else None,
        vulnerabilities=(CveRecord("CVE-2020-12345", "siemens", "et200s"),) if vulns else (),
    )


def same_record(got, want) -> bool:
    """Equal values of the same types, down through nested tuples.

    Records are NamedTuples, and those compare as plain tuples: a
    ``CotpConnectionRequest(1, 2)`` equals a ``CotpConnectionConfirm(1, 2)``.
    A decode test must also see the type it expects.
    """
    if type(got) is not type(want):
        return False
    if isinstance(got, tuple):
        return len(got) == len(want) and all(map(same_record, got, want))
    return got == want


def drive(enumeration, answer) -> tuple[list[bytes], list[bytes]]:
    """Each request a codec's ``enumeration`` yields, sent back ``answer(request)`` in memory: requests, replies."""
    requests, replies = [], []
    with contextlib.suppress(StopIteration):
        requests.append(next(enumeration))
        while True:
            replies.append(answer(requests[-1]))
            requests.append(enumeration.send(replies[-1]))
    return requests, replies


def one_byte_changed(frames: list[bytes]):
    """Valid frames with one byte overwritten, so decoding gets past the header."""
    return st.sampled_from(frames).flatmap(
        lambda wire: st.builds(
            lambda at, value: wire[:at] + bytes([value]) + wire[at + 1 :],
            st.integers(0, len(wire) - 1),
            st.integers(0, 255),
        )
    )


def random_static_info(rng: random.Random) -> StaticDeviceInfo | None:
    if rng.random() < 0.4:
        return None
    return StaticDeviceInfo(
        manufacturer=rng.choice(VENDORS),
        model=rng.choice(["ET200S", "S7-1200", "SCADAPack32", None]),
        firmware_version=rng.choice(["1.0", "3.2.6", "20.11", None]),
        hardware_version=rng.choice(["1.0", None]),
        serial=rng.choice(["SN-%04d" % rng.randrange(10000), None]),
    )


def random_deployment(rng: random.Random) -> DeploymentInfo | None:
    if rng.random() < 0.5:
        return None
    entries = {}
    for key in rng.sample(["system_name", "module_name", "plant_id", "unit_id", "modbus_slave_id"], rng.randint(1, 3)):
        entries[key] = rng.choice(WORDS) + str(rng.randrange(100))
    return DeploymentInfo.from_dict(entries)


def random_ports(rng: random.Random) -> frozenset[PortSpec]:
    count = rng.randint(0, 4)
    return frozenset(
        PortSpec(rng.choice([102, 502, 44818, 80, 20000]), rng.choice(["tcp", "udp"]))
        for _ in range(count)
    )


def random_cves(rng: random.Random, allow: bool) -> tuple[CveRecord, ...]:
    if not allow or rng.random() < 0.7:
        return ()
    return tuple(
        CveRecord(
            cve_id=f"CVE-20{rng.randrange(10, 26)}-{rng.randrange(1000, 99999):05d}",
            vendor=rng.choice(VENDORS).lower(),
            product=rng.choice(WORDS),
            summary="generated record",
            severity=round(rng.uniform(0, 10), 1),
        )
        for _ in range(rng.randint(1, 3))
    )


def random_asset(rng: random.Random, ip: str | None = None) -> Asset:
    static = random_static_info(rng)
    return Asset(
        ip=ip or f"10.{rng.randrange(256)}.{rng.randrange(256)}.{rng.randrange(1, 255)}",
        mac=("%02x:%02x:%02x:%02x:%02x:%02x" % tuple(rng.randrange(256) for _ in range(6)))
        if rng.random() < 0.5
        else None,
        oui_vendor=rng.choice(VENDORS) if rng.random() < 0.3 else None,
        open_ports=random_ports(rng),
        protocols=frozenset(rng.sample(PROTOCOLS, rng.randint(0, 3))),
        static_info=static,
        deployment_info=random_deployment(rng),
        vulnerabilities=random_cves(rng, allow=static is not None),
        last_seen=ts(rng.randrange(10**6)),
        sources=frozenset(rng.sample(["active", "passive"], rng.randint(1, 2))),
    )


def random_observation(rng: random.Random, ip: str) -> Asset:
    """One random batch of evidence about ``ip``, as an asset from one source."""
    static = random_static_info(rng)
    return Asset.discovered(
        ip,
        ts(rng.randrange(10**6)),
        rng.choice(["active", "passive"]),
        mac=None,
        oui_vendor=rng.choice(VENDORS) if rng.random() < 0.2 else None,
        open_ports=random_ports(rng),
        protocols=frozenset(rng.sample(PROTOCOLS, rng.randint(0, 2))),
        static_info=static,
        deployment_info=random_deployment(rng),
        vulnerabilities=random_cves(rng, allow=static is not None),
    )


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)
