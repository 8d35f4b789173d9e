"""Seeded input generators for the benchmark workloads.

Every generator takes a ``random.Random`` and a work directory, writes
the files the measured program reads, and returns what the correctness
gates need (the expected per-asset depth map or the inputs of the CVE
oracle). The same seed gives byte-identical files; ``digest`` is
recorded next to the results so that a change to an input, for example
through ``TrafficRecorder``, is visible.

Captures are synthesized with the program's own ``TrafficRecorder`` on a
deterministic clock, the same way the simulator records its mirror port.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import os
import random
from datetime import datetime, timezone

from icsrecon.codecs import enip, modbus, s7
from icsrecon.model import Asset, Inventory, StaticDeviceInfo
from icsrecon.pcapio import PcapWriter, TrafficRecorder

STATION_IPS = ("192.168.90.10", "192.168.90.11", "192.168.90.12", "192.168.90.13", "192.168.90.14")
STATION_DEPTHS = {"192.168.90.10": 5, "192.168.90.11": 5, "192.168.90.12": 3, "192.168.90.13": 5, "192.168.90.14": 4}

# Sizes keep one measured operation near one second on a 2-vCPU VM, so a
# run holds a dozen or more operations (see NOTES.md, "Noise").
FLOWS = 4_000               # 6 frames each: handshake, request, reply, FIN
FLOW_SERVERS = 1_000
SESSIONS = 40               # long-lived polling sessions
SESSION_POLLS = 300         # 2 frames per poll: 24k frames in all
SESSION_REGISTERS = (110, 125)  # 300 replies of >= 229 bytes overrun 64 KiB
CLIENTS = 8
ENRICH_ASSETS = 80
CVE_RECORDS = 10_000

T0 = 1_700_000_000.0
SEEN = datetime.fromtimestamp(T0, tz=timezone.utc)


def digest(path: str) -> str:
    sha = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            sha.update(block)
    return sha.hexdigest()[:16]


def _recorder(rng: random.Random) -> tuple[TrafficRecorder, PcapWriter, io.BytesIO]:
    buffer = io.BytesIO()
    writer = PcapWriter(buffer)
    clock = itertools.count(T0 + rng.randrange(10**6), 0.0002)
    return TrafficRecorder(writer, clock=lambda: next(clock)), writer, buffer


def _save(buffer: io.BytesIO, path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(buffer.getvalue())


def _words(rng: random.Random, count: int) -> str:
    return "-".join(rng.choice(("LINE", "PUMP", "MIX", "PRESS", "OVEN", "CELL", "TANK")) for _ in range(count))


# -- active_station -------------------------------------------------------


def active_targets(rng: random.Random, workdir: str) -> dict:
    """The five station addresses plus two dead ones, in seeded order."""
    dead = rng.sample([f"192.168.90.{host}" for host in range(20, 250)], 2)
    targets = list(STATION_IPS) + dead
    rng.shuffle(targets)
    path = os.path.join(workdir, "targets.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"targets": targets, "dead": dead}, fh)
    return {"files": {"targets": path}, "items": targets, "dead": dead, "depths": dict(STATION_DEPTHS)}


# -- passive_flows ----------------------------------------------------------


def _flow_server(rng: random.Random, ip: str, protocol: str) -> dict:
    if protocol == "modbus":
        return {
            "ip": ip, "port": 502, "protocol": protocol, "unit": rng.randrange(1, 248),
            "objects": {
                modbus.OBJ_VENDOR_NAME: rng.choice(("Schneider Electric", "WAGO", "Phoenix Contact", "ABB")),
                modbus.OBJ_PRODUCT_CODE: f"RTU-{rng.randrange(100, 999)}",
                modbus.OBJ_REVISION: f"{rng.randrange(1, 9)}.{rng.randrange(10)}",
            },
            "slave_id": rng.randrange(1, 256),
        }
    if protocol == "s7comm":
        return {
            "ip": ip, "port": 102, "protocol": protocol,
            "identity": {
                "module_order_number": f"6ES7 {rng.randrange(100, 999)}-{rng.randrange(1000, 9999)}-0AB0",
                "hardware_version": f"{rng.randrange(1, 6)}.{rng.randrange(10)}",
                "firmware_version": f"{rng.randrange(1, 5)}.{rng.randrange(10)}.{rng.randrange(10)}",
                "system_name": _words(rng, 2), "module_name": f"CPU {rng.randrange(1000, 9999)}",
                "plant_id": _words(rng, 1), "copyright": "Original Siemens Equipment",
                "serial": f"S C-{rng.randrange(16**8):08X}",
            },
        }
    return {
        "ip": ip, "port": 44818, "protocol": protocol,
        "identity": enip.CipIdentity(
            vendor_id=rng.choice((1, 40, 47, 243)), device_type=14, product_code=rng.randrange(1, 200),
            revision=(rng.randrange(1, 33), rng.randrange(20)), status=0x0060,
            serial=rng.randrange(1 << 32), product_name=f"Controller {rng.randrange(100, 999)}", state=3,
        ),
    }


def _identity_exchange(rng: random.Random, server: dict, tid: int) -> tuple[bytes, bytes, int]:
    """One identity request/reply pair and the depth the reply proves."""
    if server["protocol"] == "modbus":
        unit = server["unit"]
        if rng.random() < 0.3:
            request = modbus.build_report_slave_id_request(unit, transaction_id=tid)
            reply = modbus.build_report_slave_id_response(tid, unit, server["slave_id"], additional=b"RTU")
            return request, reply, 5
        request = modbus.build_device_id_request(unit, transaction_id=tid)
        reply = modbus.build_device_id_response(tid, unit, server["objects"])
        return request, reply, 4
    if server["protocol"] == "s7comm":
        szl_id = s7.SZL_COMPONENT_ID if rng.random() < 0.4 else s7.SZL_MODULE_ID
        entries = (s7.component_id_entries if szl_id == s7.SZL_COMPONENT_ID else s7.module_id_entries)(server["identity"])
        request = s7.build_szl_read(szl_id, pdu_ref=tid)
        reply = s7.build_szl_response_frame(
            s7.S7SzlResponse(szl_id=szl_id, szl_index=0, entries=entries, pdu_ref=tid)
        )
        return request, reply, 5 if szl_id == s7.SZL_COMPONENT_ID else 4
    reply = enip.build_list_identity_response(server["identity"], ip=server["ip"], port=44818)
    return enip.build_list_identity(), reply, 4


def passive_flows(rng: random.Random, workdir: str) -> dict:
    """Short flows, each one identity exchange; FLOWS * 6 frames."""
    s7_share = rng.uniform(0.08, 0.12)
    enip_share = rng.uniform(0.04, 0.06)
    servers = []
    for index in range(FLOW_SERVERS):
        ip = f"10.20.{index // 250}.{index % 250 + 1}"
        draw = rng.random()
        protocol = "s7comm" if draw < s7_share else "enip" if draw < s7_share + enip_share else "modbus"
        servers.append(_flow_server(rng, ip, protocol))
    clients = [f"10.10.0.{host}" for host in range(10, 10 + CLIENTS)]
    recorder, writer, buffer = _recorder(rng)
    depths = {ip: 1 for ip in clients}
    samples: dict[str, list[bytes]] = {"modbus": [], "s7comm": [], "enip": []}
    for tid in range(1, FLOWS + 1):
        server = rng.choice(servers)
        client = (rng.choice(clients), 40_000 + tid)
        request, reply, depth = _identity_exchange(rng, server, tid)
        flow = recorder.tcp_flow(client, (server["ip"], server["port"]))
        flow.handshake()
        flow.client_payload(request)
        flow.server_payload(reply)
        flow.close()
        depths[server["ip"]] = max(depths.get(server["ip"], 0), depth)
        if len(samples[server["protocol"]]) < 500:
            samples[server["protocol"]].append(reply)
    writer.close()
    path = os.path.join(workdir, "flows.pcap")
    _save(buffer, path)
    return {"files": {"capture": path}, "depths": depths, "frames": FLOWS * 6, "samples": samples}


# -- passive_sessions ------------------------------------------------------


def passive_sessions(rng: random.Random, workdir: str) -> dict:
    """A few dozen long register-polling sessions, polled round-robin.

    Each server stream (SESSION_POLLS replies of SESSION_REGISTERS
    registers) overruns the analyzer's 64 KiB reassembly cap. Some sessions open with one
    identity exchange, so depths 3, 4 and 5 all occur.
    """
    clients = [f"10.30.0.{host}" for host in range(10, 10 + CLIENTS // 2)]
    recorder, writer, buffer = _recorder(rng)
    depths = {ip: 1 for ip in clients}
    sessions = []
    for index in range(SESSIONS):
        server = _flow_server(rng, f"10.40.0.{index + 1}", "modbus")
        flow = recorder.tcp_flow((rng.choice(clients), 30_000 + index), (server["ip"], 502))
        flow.handshake()
        depth = 3
        if rng.random() < 0.5:
            request, reply, depth = _identity_exchange(rng, server, 0)
            flow.client_payload(request)
            flow.server_payload(reply)
        depths[server["ip"]] = depth
        sessions.append((flow, server["unit"], rng.randint(*SESSION_REGISTERS)))
    samples: dict[str, list[bytes]] = {"modbus": [], "s7comm": [], "enip": []}
    for tid in range(1, SESSION_POLLS + 1):
        for flow, unit, count in sessions:
            flow.client_payload(modbus.build_read_holding_request(unit, 0, count, transaction_id=tid))
            reply = modbus.frame(tid, unit, modbus.FC_READ_HOLDING, bytes([2 * count]) + rng.randbytes(2 * count))
            flow.server_payload(reply)
            if len(samples["modbus"]) < 500:
                samples["modbus"].append(reply)
    for flow, _unit, _count in sessions:
        flow.close()
    writer.close()
    path = os.path.join(workdir, "sessions.pcap")
    _save(buffer, path)
    frames = SESSIONS * (3 + 2 * SESSION_POLLS + 1) + 2 * sum(1 for d in depths.values() if d > 3)
    return {"files": {"capture": path}, "depths": depths, "frames": frames, "samples": samples}


# -- enrich_inventory ------------------------------------------------------

# canonical vendor -> spellings seen in the field; the first five have
# entries in the shipped alias table, the rest match only verbatim
VENDORS = {
    "siemens": ("Siemens AG", "SIEMENS  AG", "siemens", "Siemens Energy & Automation"),
    "schneider": ("Schneider Electric", "Telemecanique", "schneider automation", "schneider"),
    "rockwell": ("Rockwell Automation", "Allen-Bradley", "allen bradley", "Rockwell Automation/Allen-Bradley"),
    "wago": ("WAGO Kontakttechnik", "wago"),
    "phoenix contact": ("Phoenix Contact GmbH", "phoenix contact"),
    "abb": ("ABB",),
    "omron": ("Omron",),
    "mitsubishi": ("Mitsubishi",),
    "honeywell": ("Honeywell",),
    "yokogawa": ("Yokogawa",),
}
PRODUCT_FAMILIES = 60


def _version(rng: random.Random) -> str:
    return f"{rng.randrange(1, 6)}.{rng.randrange(10)}.{rng.randrange(10)}"


def enrich_inventory(rng: random.Random, workdir: str) -> dict:
    """ENRICH_ASSETS assets with static info and a 10^4-record CVE DB.

    Versions are plain dotted numbers so that the benchmark's own oracle
    can compare them without reusing the program's version parser.
    """
    canon = sorted(VENDORS)
    families = {v: [f"{v[:3].upper()}-{n:02d}{rng.choice('ABCDEFGH')}" for n in range(PRODUCT_FAMILIES)] for v in canon}
    assets = []
    for index in range(ENRICH_ASSETS):
        vendor = rng.choice(canon)
        family = rng.choice(families[vendor])
        manufacturer = rng.choice(VENDORS[vendor]) if rng.random() < 0.95 else None
        info = StaticDeviceInfo(
            manufacturer=manufacturer,
            model=f"{family} {rng.choice(('CPU', 'IO', 'COMM'))} {rng.randrange(10, 99)}",
            firmware_version=_version(rng),
        )
        assets.append(Asset.discovered(f"10.50.{index // 250}.{index % 250 + 1}", SEEN, source="passive", static_info=info))
    inventory_path = os.path.join(workdir, "inventory.json")
    Inventory(assets).save(inventory_path)

    records = []
    for number in range(CVE_RECORDS):
        vendor = rng.choice(canon)
        low = _version(rng) if rng.random() < 0.6 else None
        high = _version(rng) if rng.random() < 0.8 else None
        if low and high and tuple(map(int, low.split("."))) > tuple(map(int, high.split("."))):
            low, high = high, low
        records.append({
            "cve_id": f"CVE-{2010 + number % 15}-{10000 + number}",
            "vendor": rng.choice(VENDORS[vendor]),
            "product": rng.choice(families[vendor]),
            "version_min": low,
            "version_max": high,
            "severity": round(rng.uniform(1.0, 10.0), 1),
            "summary": "generated record",
        })
    db_path = os.path.join(workdir, "cve_db.json")
    with open(db_path, "w", encoding="utf-8") as fh:
        json.dump(records, fh)
    return {"files": {"inventory": inventory_path, "db": db_path}, "records": records,
            "items": {a.ip: a.static_info.to_dict() for a in assets}}


GENERATORS = {
    "active_station": active_targets,
    "passive_flows": passive_flows,
    "passive_sessions": passive_sessions,
    "enrich_inventory": enrich_inventory,
}
