"""icsrecon benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 bench/run.py --workload all --seed <n> --seconds <s>

Run from the root of a checkout; the program is imported from ``src/``.
The input generator runs in this process; set-up and the measured
operation run in child processes (``child.py``) that do nothing else.

Workloads (NOTES.md says why each was chosen):
  active_station    closed loop: one scanner (workers = CPU count) scans the
                    simulated five-device station plus two dead addresses
                    back to back at the 50 pps safe-mode cap, over loopback
  passive_flows     offline analysis of 20k short identity flows (120k frames)
  passive_sessions  offline analysis of 40 long polling sessions (120k frames)
  enrich_inventory  ``icsrecon vulnmatch`` over 300 assets and 10^4 CVE records

With ``--trace 0`` the last line carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run. The lines before it
give every figure by name and unit, the input digests and any failed
correctness gate. A failed gate makes the exit status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join("src", "icsrecon")
WORKDIR = ".bench_work"
ACTIVE_CHUNK_S = 4.0  # scans per measured process, so set-up is sampled several times
CHILD_TIMEOUT = 150
PHASES = ("discovery", "port_scan", "probe", "enumeration")

ITEMS = {"active_station": "targets", "passive_flows": "frames", "passive_sessions": "frames",
         "enrich_inventory": "assets"}

REFERENCE_S = 0.012  # reference-loop time that defines "reference speed"
END_TO_END = {
    "setup_s": "s",
    "op_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = dict([
    ("packets_per_scan", "count"), ("packets_per_level", "count"), ("device_packets", "count"),
    ("scan_wall_s", "s"), ("frames_per_s", "1/s"), ("assets_per_s", "1/s"), ("error_rate", "ratio"),
    *((f"scanner.tokens.{phase}", "count") for phase in PHASES),
    *((f"scanner.phase_s.{phase}", "s") for phase in PHASES),
    ("scanner.connections", "count"), ("scanner.useful_connection_ratio", "ratio"),
    ("scanner.anomalies", "count"), ("scanner.self_s", "s"),
    ("ratelimit.wait_s", "s"), ("ratelimit.acquire_us", "us"), ("ratelimit.acquires", "count"),
    ("netbase.connect_us", "us"), ("netbase.connects", "count"), ("netbase.pings", "count"),
    ("netbase.arps", "count"),
    ("simulator.start_s", "s"), ("simulator.stop_s", "s"), ("simulator.device_stop_s.max", "s"),
    ("simulator.requests", "count"), ("simulator.malformed_seen", "count"),
    ("simulator.fragile_peak_pps", "1/s"),
    ("codecs.modbus.decode_us", "us"), ("codecs.s7.decode_us", "us"), ("codecs.enip.decode_us", "us"),
    ("codecs.modbus.extract_us_per_kb", "us/KiB"), ("codecs.s7.extract_us_per_kb", "us/KiB"),
    ("codecs.enip.extract_us_per_kb", "us/KiB"), ("codecs.self_s", "s"),
    ("pcapio.read_us_per_frame", "us"), ("pcapio.parse_us_per_frame.smallest", "us"),
    ("pcapio.parse_us_per_frame.largest", "us"), ("pcapio.self_s", "s"),
    ("passive.flows", "count"), ("passive.classify_us_per_flow", "us"), ("passive.classified_ratio", "ratio"),
    ("passive.out_of_order", "count"), ("passive.frames_skipped", "count"), ("passive.self_s", "s"),
    ("model.apply_us", "us"), ("model.merge_us", "us"), ("model.applies", "count"),
    ("model.load_s", "s"), ("model.save_s", "s"), ("model.self_s", "s"),
    ("vulnmatch.load_db_s", "s"), ("vulnmatch.match_us_per_asset", "us"),
    ("vulnmatch.records_examined_per_asset", "count"), ("vulnmatch.hit_ratio", "ratio"),
    ("vulnmatch.match_us.db10", "us"), ("vulnmatch.match_us.db1k", "us"), ("vulnmatch.match_us.db10k", "us"),
    ("vulnmatch.self_s", "s"),
    ("trace.overhead", "ratio"), ("trace.spans", "count"),
])


# -- measured processes ------------------------------------------------------------


def child(workload: str, mode: str, gen: dict, workdir: str, **extra) -> dict:
    """Run one measured process and return what it reported."""
    request_path = os.path.join(workdir, "request.json")
    result_path = os.path.join(workdir, "result.json")
    request = {"workload": workload, "mode": mode, "files": gen["files"],
               "out_path": os.path.join(workdir, "enriched.json"),
               "spans_path": os.path.join(workdir, "spans.tsv.gz"), **extra}
    with open(request_path, "w", encoding="utf-8") as fh:
        json.dump(request, fh)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in ("src", HERE, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), request_path, result_path],
        env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} {mode} process failed ({proc.returncode}):\n{proc.stderr[-3000:]}")
    with open(result_path, "r", encoding="utf-8") as fh:
        result = json.load(fh)
    for op in result.get("ops", ()):
        op["traced"] = "by_name" in op
        if workload == "enrich_inventory":
            op["matches"] = _matches(request["out_path"])
    return result


def _matches(path: str) -> dict[str, list[str]]:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return {a["ip"]: sorted(v["cve_id"] for v in a["vulnerabilities"]) for a in doc["assets"]}


def measure(workload: str, gen: dict, workdir: str, seconds: float, trace: bool) -> list[dict]:
    """Measured processes back to back for ``seconds``.

    The active workload runs its scans in processes of ACTIVE_CHUNK_S
    each (one process when traced, which also times station stop); the
    others run one operation per process, alternating untraced and
    traced ones when traced.
    """
    deadline = time.perf_counter() + seconds
    workers = len(os.sched_getaffinity(0))
    if workload == "active_station" and trace:
        return [child(workload, "trace", gen, workdir, seconds=seconds, workers=workers)]
    results: list[dict] = []
    while not results or time.perf_counter() < deadline or (trace and len(results) < 2):
        if workload == "active_station":
            chunk = min(ACTIVE_CHUNK_S, deadline - time.perf_counter())
            results.append(child(workload, "ops", gen, workdir, seconds=chunk, workers=workers))
        else:
            results.append(child(workload, "trace" if trace and len(results) % 2 else "ops", gen, workdir))
    return results


# -- correctness gates -------------------------------------------------------------


def gate_scan(op: dict, gen: dict) -> list[str]:
    problems = []
    if op["depths"] != gen["depths"]:
        problems.append(f"depth map {op['depths']}")
    for dead in gen["dead"]:
        if dead in op["depths"]:
            problems.append(f"dead address {dead} reported")
    if op["fragile_state"] != "running":
        problems.append("et200s_like left its RUNNING state")
    if op["malformed_seen"]:
        problems.append(f"devices saw {op['malformed_seen']} malformed frames")
    return problems


def gate_passive(op: dict, gen: dict) -> list[str]:
    if op["depths"] == gen["depths"]:
        return []
    wrong = {ip: (op["depths"].get(ip), want) for ip, want in gen["depths"].items() if op["depths"].get(ip) != want}
    extra = sorted(set(op["depths"]) - set(gen["depths"]))
    return [f"{len(wrong)} wrong depths (got, want), e.g. {dict(list(wrong.items())[:3])}; extra assets {extra[:3]}"]


def gate_enrich(op: dict, gen: dict) -> list[str]:
    if op["exit_code"] != 0:
        return [f"vulnmatch exited {op['exit_code']}"]
    expected, got = gen["oracle"], op["matches"]
    wrong = sorted(ip for ip in set(expected) | set(got) if set(got.get(ip, ())) != expected.get(ip, set()))
    return [f"{len(wrong)} assets disagree with the oracle, e.g. {wrong[:3]}"] if wrong else []


GATES = {"active_station": gate_scan, "passive_flows": gate_passive, "passive_sessions": gate_passive,
         "enrich_inventory": gate_enrich}


# -- metrics ---------------------------------------------------------------------------


def at_reference_speed(times: dict) -> float:
    """Wall time with its CPU part rescaled to a machine on which the
    reference loop takes REFERENCE_S (NOTES.md, "Noise"). Waiting, such
    as rate-limit sleeps, is not rescaled."""
    cpu = min(times["cpu_s"], times["wall_s"])
    return times["wall_s"] - cpu + cpu * REFERENCE_S / times["ref_s"]


def end_to_end(workload: str, results: list[dict], ops: list[dict], gen: dict) -> tuple[dict, dict]:
    """The end-to-end metrics, and the workload's raw and named figures for the log."""
    op_s = statistics.median(at_reference_speed(op) for op in ops)
    items = ops[0]["frames_read"] if workload.startswith("passive") else len(gen["items"])
    metrics = {
        "setup_s": statistics.median(at_reference_speed(r["setup"]) for r in results),
        "op_s": op_s,
        "items_per_s": items / op_s,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }
    walls = [op["wall_s"] for op in ops]
    named = {
        "operations": (len(ops), "count"),
        "measured_processes": (len(results), "count"),
        "reference_loop_s": (statistics.median(op["ref_s"] for op in ops), "s"),
        "raw_setup_s": (statistics.median(r["setup"]["wall_s"] for r in results), "s"),
        "raw_op_wall_s": (statistics.median(walls), "s"),
        "raw_op_wall_max_s": (max(walls), "s"),
    }
    if workload == "active_station":
        tokens = statistics.median(op["tokens"] for op in ops)
        named.update({
            "scan_wall_s": (statistics.median(walls), "s"),
            "packets_per_scan": (tokens, "count"),
            "packets_per_level": (tokens / sum(gen["depths"].values()), "count"),
            "device_packets": (statistics.median(op["device_packets"] for op in ops), "count"),
        })
    else:
        named[ITEMS[workload] + "_per_s"] = (items / statistics.median(walls), "1/s")
    return metrics, named


def _calls(op: dict, name: str) -> float:
    return op["by_name"].get(name, {}).get("calls", 0)


def _total(op: dict, name: str) -> float:
    return op["by_name"].get(name, {}).get("total_s", 0.0)


def _mean_us(op: dict, name: str) -> float:
    calls = _calls(op, name)
    return _total(op, name) / calls * 1e6 if calls else 0.0


def layer_metrics(workload: str, op: dict, gen: dict) -> dict:
    """Per-layer figures of one traced operation."""
    m = {
        "model.apply_us": _mean_us(op, "model.Inventory.apply"),
        "model.merge_us": _mean_us(op, "model.merge_observation"),
        "model.applies": _calls(op, "model.Inventory.apply"),
        "model.load_s": _total(op, "model.Inventory.load"),
        "model.save_s": _total(op, "model.Inventory.save"),
    }
    for layer in ("scanner", "codecs", "pcapio", "passive", "model", "vulnmatch"):
        m[f"{layer}.self_s"] = op["layers"].get(layer, 0.0)
    if workload == "active_station":
        opened = op["connections_opened"]
        m.update({
            "packets_per_scan": op["tokens"],
            "packets_per_level": op["tokens"] / sum(gen["depths"].values()),
            "device_packets": op["device_packets"],
            "scanner.connections": _calls(op, "netbase.connect"),
            "scanner.useful_connection_ratio": op["connections_useful"] / opened if opened else 0.0,
            "scanner.anomalies": op["anomalies"],
            "ratelimit.wait_s": _total(op, "ratelimit.acquire"),
            "ratelimit.acquires": _calls(op, "ratelimit.acquire"),
            "netbase.connect_us": _mean_us(op, "netbase.connect"),
            "netbase.connects": _calls(op, "netbase.connect"),
            "netbase.pings": _calls(op, "netbase.ping"),
            "netbase.arps": _calls(op, "netbase.arp"),
            "simulator.requests": op["requests"],
            "simulator.malformed_seen": op["malformed_seen"],
            "simulator.fragile_peak_pps": op["fragile_peak_pps"],
        })
        for phase in PHASES:
            m[f"scanner.tokens.{phase}"] = op["token_phases"].get(phase, 0)
            m[f"scanner.phase_s.{phase}"] = op["phase_s"].get(phase, 0.0)
    elif workload.startswith("passive"):
        flows = op["flows"]
        m.update({
            "passive.flows": flows,
            "passive.classify_us_per_flow": _total(op, "passive.classify_flow") / flows * 1e6 if flows else 0.0,
            "passive.classified_ratio": op["classified_flows"] / flows if flows else 0.0,
            "passive.out_of_order": op["out_of_order"],
            "passive.frames_skipped": op["frames_skipped"],
        })
    else:
        matched = _calls(op, "vulnmatch.match")
        examined = op["counts"].get("vulnmatch.record_applies", 0)
        m.update({
            "vulnmatch.load_db_s": _total(op, "vulnmatch.load_db"),
            "vulnmatch.match_us_per_asset": _mean_us(op, "vulnmatch.match"),
            "vulnmatch.records_examined_per_asset": examined / matched if matched else 0.0,
            "vulnmatch.hit_ratio": op["counts"].get("vulnmatch.record_applies.true", 0) / examined if examined else 0.0,
        })
    return m


def per_layer(workload: str, results: list[dict], ops: list[dict], gen: dict, micro: dict) -> dict:
    """Medians over the traced operations plus run-level figures; 0 where a layer does not run.

    scan_wall_s, frames_per_s and assets_per_s come from the run's
    untraced operations, at reference speed like the end-to-end metrics.
    """
    traced = [op for op in ops if op["traced"]]
    untraced = [op for op in ops if not op["traced"]]
    per_op = [layer_metrics(workload, op, gen) for op in traced]
    m = dict.fromkeys(PER_LAYER, 0.0)
    for name in per_op[0]:
        m[name] = statistics.median(values[name] for values in per_op)
    m.update({k: v for k, v in micro.items() if k in m})
    base = statistics.median(at_reference_speed(op) for op in untraced)
    m["trace.overhead"] = statistics.median(at_reference_speed(op) for op in traced) / base - 1.0
    m["trace.spans"] = sum(op["spans"] for op in traced)
    if workload == "active_station":
        m["scan_wall_s"] = base
        m["simulator.start_s"] = results[0]["start_s"]
        m["simulator.stop_s"] = results[0]["stop"]["stop_s"]
        m["simulator.device_stop_s.max"] = max(results[0]["stop"]["device_stop_s"], default=0.0)
    elif workload.startswith("passive"):
        m["frames_per_s"] = untraced[0]["frames_read"] / base
    else:
        m["assets_per_s"] = len(gen["items"]) / base
    return m


def run_micro(workload: str, gen: dict, workdir: str) -> dict:
    import micro

    if workload == "active_station":
        return {"ratelimit.acquire_us": micro.acquire_us()}
    if workload.startswith("passive"):
        return {**micro.codecs(gen["samples"]), **micro.pcapio(gen["files"]["capture"])}
    return micro.vulnmatch_sweep(gen["records"], gen["items"], workdir)


# -- main ---------------------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    import inputs
    import oracle

    workdir = os.path.join(WORKDIR, f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        gen = inputs.GENERATORS[workload](random.Random(f"{workload}:{seed}"), workdir)
        digests = {name: inputs.digest(path) for name, path in gen["files"].items()}
        if workload == "enrich_inventory":
            gen["oracle"] = oracle.expected_matches(gen["items"], gen["records"])
        results = measure(workload, gen, workdir, seconds, trace)
        micro = run_micro(workload, gen, workdir) if trace else {}
        spans = os.path.join(workdir, "spans.tsv.gz")
        if os.path.exists(spans):
            os.makedirs(os.path.join(WORKDIR, "spans"), exist_ok=True)
            shutil.move(spans, os.path.join(WORKDIR, "spans", f"{workload}-seed{seed}.tsv.gz"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = [op for r in results for op in r["ops"]]
    found = [GATES[workload](op, gen) for op in ops]
    failed = sum(1 for problems in found if problems)
    e2e, named = end_to_end(workload, results, [op for op in ops if not op["traced"]], gen)
    if trace:
        metrics, units = per_layer(workload, results, ops, gen, micro), PER_LAYER
        metrics["error_rate"] = failed / len(ops)
    else:
        metrics, units = e2e, END_TO_END

    print(json.dumps({"workload": workload, "seed": seed, "input_digests": digests}))
    if not trace:
        for name, (value, unit) in named.items():
            print(f"{workload} {name} = {value:.6g} {unit}")
        print(f"{workload} error_rate = {failed / len(ops):.6g} ratio ({failed} of {len(ops)} operations failed)")
    for name, value in metrics.items():
        print(f"{workload} {name} = {value:.6g} {units[name]}")
    if trace and workload == "active_station":
        stops = ", ".join(f"{t:.3f}" for t in results[0]["stop"]["device_stop_s"])
        print(f"{workload} simulator.device_stop_s = [{stops}] s (one shutdown() per device server, in stop order)")
    for problem in [p for problems in found for p in problems][:20]:
        print(f"GATE FAILED: {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*ITEMS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(SRC):
        print(f"error: {SRC} not found; run from the root of an icsrecon checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        codes = [subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                                 "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode
                 for name in ITEMS]
        return max(codes)
    sys.path[:0] = ["src", HERE]
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
