"""Layer microbenchmarks run alongside the traced workloads.

Each returns microseconds per operation, the median of a few timed
repetitions, on inputs taken from the workload that was generated for
the same seed.
"""

from __future__ import annotations

import json
import os
import statistics
import time

from icsrecon import vulnmatch
from icsrecon.codecs import enip, modbus, s7
from icsrecon.model import StaticDeviceInfo
from icsrecon.pcapio import CaptureReader, parse_ethernet, parse_ipv4, parse_tcp
from icsrecon.ratelimit import TokenBucket

REPEATS = 5


def _per_call_us(fn, items, repeats: int = REPEATS) -> float:
    """Median over repeats of the time per item of ``fn`` over ``items``."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for item in items:
            fn(item)
        times.append((time.perf_counter() - start) / len(items))
    return statistics.median(times) * 1e6


def acquire_us(calls: int = 20_000) -> float:
    """TokenBucket.acquire when the rate never binds."""
    bucket = TokenBucket(1e12, burst=1e12)
    return _per_call_us(lambda _i: bucket.acquire(), range(calls))


def _s7_decode(frame: bytes):
    return s7.decode_s7(s7.decode_envelope(frame).cotp.payload)


DECODERS = {"modbus": modbus.decode_modbus, "s7": _s7_decode, "enip": enip.decode_header}
EXTRACTORS = {"modbus": modbus.extract_frames, "s7": s7.extract_tpkt_frames, "enip": enip.extract_frames}
SAMPLE_KEYS = {"modbus": "modbus", "s7": "s7comm", "enip": "enip"}
STREAM_BYTES = 16 * 1024


def codecs(samples: dict[str, list[bytes]]) -> dict[str, float]:
    """Full-frame decode per frame, and stream framing per KiB, per protocol."""
    out = {}
    for short, key in SAMPLE_KEYS.items():
        frames = samples.get(key) or []
        decode = extract = 0.0
        if frames:
            decode = _per_call_us(DECODERS[short], frames)
            stream = bytearray()
            for frame in frames:
                if len(stream) + len(frame) > STREAM_BYTES:
                    break
                stream += frame
            stream = bytes(stream)
            extract = _per_call_us(EXTRACTORS[short], [stream] * 20) / (len(stream) / 1024)
        out[f"codecs.{short}.decode_us"] = decode
        out[f"codecs.{short}.extract_us_per_kb"] = extract
    return out


def _parse_chain(frame: bytes):
    return parse_tcp(parse_ipv4(parse_ethernet(frame).payload).payload)


def pcapio(capture: str) -> dict[str, float]:
    """Record reading per frame, and Ethernet/IPv4/TCP parsing at both size extremes."""
    start = time.perf_counter()
    tcp_frames = []
    count = 0
    for _when, frame in CaptureReader(capture):
        count += 1
        if len(frame) >= 54 and frame[12:14] == b"\x08\x00" and frame[23] == 6:
            tcp_frames.append(frame)
    read = (time.perf_counter() - start) / max(count, 1) * 1e6
    smallest = min(tcp_frames, key=len)
    largest = max(tcp_frames, key=len)
    return {
        "pcapio.read_us_per_frame": read,
        "pcapio.parse_us_per_frame.smallest": _per_call_us(_parse_chain, [smallest] * 5000),
        "pcapio.parse_us_per_frame.largest": _per_call_us(_parse_chain, [largest] * 5000),
    }


SWEEP = {"db10": (10, 80), "db1k": (1_000, 80), "db10k": (10_000, 30)}  # records, assets timed


def vulnmatch_sweep(records: list[dict], assets: dict[str, dict], workdir: str) -> dict[str, float]:
    """vulnmatch.match per asset against the first 10, 10^3 and 10^4 records."""
    infos = [StaticDeviceInfo(**fields) for fields in assets.values() if fields["manufacturer"] or fields["model"]]
    out = {}
    for label, (size, asset_count) in SWEEP.items():
        path = os.path.join(workdir, f"cve_{label}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(records[:size], fh)
        db = vulnmatch.load_db(path)
        out[f"vulnmatch.match_us.{label}"] = _per_call_us(lambda info: vulnmatch.match(info, db), infos[:asset_count], 3)
    return out
