"""The measured process: set-up plus the workload's operation, nothing else.

Run by ``run.py`` as ``python3 bench/child.py <request.json> <result.json>``
with ``src`` and ``bench`` on ``PYTHONPATH``. The input generator never
runs here, so the peak RSS this process reports belongs to set-up and
the measured operation.

Modes:
  ops    set up, then run untraced operations: scans back to back until
         the deadline for the active workload, one operation otherwise
  trace  set up, install the span wrappers, then run a traced operation;
         the active workload alternates untraced and traced scans and
         finally times the station's stop

Set-up and every operation are timed together with the reference loop
(``reference_s``), so that run.py can report them at reference speed.
"""

from __future__ import annotations

import json
import os
import re
import resource
import statistics
import struct
import sys
import time

perf = time.perf_counter

_REFERENCE_BUFFER = bytes(range(256)) * 64
_NON_ALNUM = re.compile(r"[^a-z0-9]+")


def reference_s() -> float:
    """Median of three runs of a fixed pure-Python loop that uses no
    program code: struct unpacking, slices, f-strings, string folding, a
    regex and dict inserts, the operations the measured paths are made
    of. Its time tracks how fast the machine runs at the moment."""
    samples = []
    for _ in range(3):
        started = perf()
        table = {}
        for i in range(3_000):
            a, b, c = struct.unpack_from(">HHI", _REFERENCE_BUFFER, (i * 7) % 16_000)
            text = f"Vendor {a} Model-{b}.{c % 97}"
            key = _NON_ALNUM.sub("", " ".join(text.lower().split()))
            table[f"{key}.{i}"] = (a, b, c, _REFERENCE_BUFFER[i % 1000 : i % 1000 + 20])
        samples.append(perf() - started)
    return statistics.median(samples)


def timed(op):
    """Run ``op()``; return its result, its wall and CPU seconds, and the
    reference loop's time around it (mean of the medians before and after)."""
    before = reference_s()
    cpu, started = time.process_time(), perf()
    result = op()
    wall, cpu = perf() - started, time.process_time() - cpu
    return result, {"wall_s": wall, "cpu_s": cpu, "ref_s": (before + reference_s()) / 2}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- set-up -------------------------------------------------------------------


def setup_active() -> dict:
    from icsrecon.config import default_fixtures_path, load_fixtures
    from icsrecon.ouidb import load_enip_vendors, load_oui_table
    from icsrecon.scanner import Scanner  # noqa: F401  (import cost is set-up)
    from icsrecon.simulator import SimNetwork, StationHandle  # noqa: F401

    load_oui_table()
    load_enip_vendors()
    fixtures = load_fixtures(default_fixtures_path())
    started = perf()
    station = StationHandle(list(fixtures.devices), scanner_ip=fixtures.scanner_ip).start()
    return {"station": station, "start_s": perf() - started}


def setup_passive() -> dict:
    from icsrecon.ouidb import load_enip_vendors, load_oui_table
    from icsrecon.passive import PcapFile, analyze_capture  # noqa: F401

    load_oui_table()
    load_enip_vendors()
    return {}


def setup_enrich() -> dict:
    from icsrecon import cli  # noqa: F401
    from icsrecon.vulnmatch import default_aliases

    default_aliases()
    return {}


SETUP = {
    "active_station": setup_active,
    "passive_flows": setup_passive,
    "passive_sessions": setup_passive,
    "enrich_inventory": setup_enrich,
}


# -- active_station -------------------------------------------------------------


def _sliding_peak(times: list[float], window: float = 1.0) -> int:
    """Most events inside any window of ``window`` seconds."""
    peak, low = 0, 0
    for high, now in enumerate(times):
        while times[low] < now - window:
            low += 1
        peak = max(peak, high - low + 1)
    return peak


def _scan(request: dict, context: dict, tracer=None) -> dict:
    from icsrecon.scanner import ScanConfig, Scanner
    from icsrecon.simulator import SimNetwork, SimState

    station = context["station"]
    config = ScanConfig(
        targets=tuple(context["targets"]),
        methods=frozenset({"arp", "icmp"}),
        rate_limit_pps=50,
        safe_mode=True,
        workers=request["workers"],
    )
    network = SimNetwork(station)
    fragile = station.device("et200s_like")
    fragile_times: list[float] = []
    if tracer is not None:
        from tracing import TracedNetwork

        network = TracedNetwork(network, tracer)
        received = fragile.note_received

        def note_received(now=None):
            fragile_times.append(time.time() if now is None else now)
            return received(now)

        fragile.note_received = note_received
    before = {d.config.name: d.get_counters() for d in station.devices}
    scanner = Scanner(config, network=network)
    if tracer is not None:
        from tracing import instrument_scanner

        instrument_scanner(scanner, tracer)
        tracer.begin()
    try:
        report, times = timed(scanner.run)
    finally:
        if tracer is not None:
            tracer.enabled = False
            del fragile.note_received
    after = {d.config.name: d.get_counters() for d in station.devices}
    delta = {
        field: sum(getattr(after[n], field) - getattr(before[n], field) for n in after)
        for field in ("packets_received", "packets_sent", "malformed_seen")
    }
    op = {
        **times,
        "tokens": report.packets_sent,
        "depths": report.per_asset_depth,
        "anomalies": len(report.anomalies),
        "fragile_state": "running" if fragile.get_state() is SimState.RUNNING else "fault",
        "device_packets": delta["packets_received"],
        "requests": delta["packets_sent"],
        "malformed_seen": delta["malformed_seen"],
    }
    if tracer is not None:
        op.update(tracer.scan_summary())
        op["fragile_peak_pps"] = _sliding_peak(sorted(fragile_times))
    return op


def run_active(request: dict, context: dict, tracer) -> dict:
    with open(request["files"]["targets"], "r", encoding="utf-8") as fh:
        context["targets"] = json.load(fh)["targets"]
    deadline = perf() + request["seconds"]
    ops: list[dict] = []
    while not ops or perf() < deadline or (tracer is not None and len(ops) < 2):
        traced = tracer is not None and len(ops) % 2 == 1
        ops.append(_scan(request, context, tracer if traced else None))
    out = {"ops": ops}
    if tracer is not None:
        out["stop"] = _timed_stop(context["station"])
    return out


def _timed_stop(station) -> dict:
    """Time StationHandle.stop() and, inside it, each server's shutdown()."""
    import socketserver

    shutdowns: list[float] = []
    original = socketserver.BaseServer.shutdown

    def shutdown(server):
        started = perf()
        original(server)
        shutdowns.append(perf() - started)

    socketserver.BaseServer.shutdown = shutdown
    try:
        started = perf()
        station.stop()
        total = perf() - started
    finally:
        socketserver.BaseServer.shutdown = original
    return {"stop_s": total, "device_stop_s": shutdowns}


# -- passive ------------------------------------------------------------------------


def run_passive(request: dict, context: dict, tracer) -> dict:
    from icsrecon import passive

    if tracer is not None:
        tracer.begin()
    report, times = timed(lambda: passive.analyze_capture(passive.PcapFile(request["files"]["capture"])))
    op = {
        **times,
        "frames_read": report.frames_read,
        "frames_skipped": report.frames_skipped,
        "out_of_order": report.out_of_order_segments,
        "classified_flows": report.classified_flows,
        "depths": report.per_asset_depth,
    }
    if tracer is not None:
        tracer.enabled = False
        op.update(tracer.summary(), flows=len(tracer.flow_keys))
    return {"ops": [op]}


# -- enrich_inventory ------------------------------------------------------------------


def run_enrich(request: dict, context: dict, tracer) -> dict:
    import contextlib
    import io

    from icsrecon import cli

    files = request["files"]
    argv = ["vulnmatch", "--inventory", files["inventory"], "--db", files["db"], "--out", request["out_path"]]
    if tracer is not None:
        tracer.begin()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code, times = timed(lambda: cli.main(argv))
    op = {**times, "exit_code": code}
    if tracer is not None:
        tracer.enabled = False
        op.update(tracer.summary())
    return {"ops": [op]}


RUN = {
    "active_station": run_active,
    "passive_flows": run_passive,
    "passive_sessions": run_passive,
    "enrich_inventory": run_enrich,
}


def main() -> int:
    with open(sys.argv[1], "r", encoding="utf-8") as fh:
        request = json.load(fh)
    workload, mode = request["workload"], request["mode"]
    context, times = timed(SETUP[workload])
    result = {"setup": times, "start_s": context.get("start_s", 0.0)}
    tracer = None
    if mode == "trace":
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer, workload)
    result.update(RUN[workload](request, context, tracer))
    if tracer is not None:
        tracer.write(request["spans_path"], tracer.spans())
    result["peak_rss_mb"] = _peak_rss_mb()
    with open(sys.argv[2], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    # the simulated station's servers are daemon threads; exiting ends them
    os._exit(0)


if __name__ == "__main__":
    sys.exit(main())
