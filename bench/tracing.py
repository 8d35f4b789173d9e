"""In-memory span recorder and the wrappers that feed it.

Spans are recorded from the benchmark's side of each layer boundary,
around calls into public names of the program: module attributes,
class attributes, one instance's methods, or a ``Network`` decorator.
Nothing under ``src/`` is edited; the wrappers are installed in the
measured process only. A wrapped name that the program no longer has,
or no longer calls, reports a zero count instead of failing.

Each span holds a name, start, end, parent span and a trace id shared by
everything one scan, capture analysis or enrichment run caused. Spans go
to per-thread column arrays and are written out once, at the end.
"""

from __future__ import annotations

import gzip
import itertools
import sys
import threading
import time
from array import array
from collections import Counter, defaultdict

from icsrecon.netbase import Network

perf = time.perf_counter


class _Buffer:
    __slots__ = ("ids", "names", "parents", "traces", "starts", "ends", "stack", "phase", "opened", "last_ip")

    def __init__(self):
        self.ids, self.parents = array("q"), array("q")
        self.names, self.traces = array("i"), array("i")
        self.starts, self.ends = array("d"), array("d")
        self.stack: list[int] = []
        self.phase: str | None = None
        self.opened = 0
        self.last_ip = None


class Tracer:
    """Spans and counters of one measured process; off until begin()."""

    def __init__(self):
        self.enabled = False
        self.trace_id = 0
        # discover_hosts fans out to pool threads: its phase and span stand
        # in for theirs while it runs
        self.scan_phase: str | None = None
        self.scan_parent = -1
        self._tallies: dict[str, list[int]] = {}
        self.tokens: Counter[str] = Counter()
        self.useful_connections = 0
        self.opened_connections = 0
        self.flow_keys: set = set()
        self._names: dict[str, int] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()

    # -- recording ------------------------------------------------------------

    def buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
        return buf

    def name_id(self, name: str) -> int:
        with self._lock:
            return self._names.setdefault(name, len(self._names))

    def wrap(self, fn, name: str, after=None):
        """``fn`` recorded as a span; ``after(buf, args, result)`` may count."""
        nid = self.name_id(name)
        ids = self._ids

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            buf = self.buffer()
            sid = next(ids)
            stack = buf.stack
            parent = stack[-1] if stack else self.scan_parent
            stack.append(sid)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                buf.ids.append(sid)
                buf.names.append(nid)
                buf.parents.append(parent)
                buf.traces.append(self.trace_id)
                buf.starts.append(start)
                buf.ends.append(end)
            if after is not None:
                after(buf, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counter(self, fn, name: str):
        """A hot leaf inside one layer: count calls and truthy results, no span."""
        tally = self._tallies.setdefault(name, [0, 0])

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.enabled:
                tally[0] += 1
                if result:
                    tally[1] += 1
            return result

        counted.__wrapped__ = fn
        return counted

    # -- installing -----------------------------------------------------------

    def wrap_attr(self, owner, attr: str, name: str, after=None) -> None:
        """Wrap a module function wherever an icsrecon module bound it."""
        original = getattr(owner, attr, None)
        if original is None:
            return
        wrapped = self.wrap(original, name, after)
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("icsrecon") and getattr(module, attr, None) is original:
                setattr(module, attr, wrapped)
        setattr(owner, attr, wrapped)

    def wrap_method(self, cls, attr: str, name: str) -> None:
        raw = cls.__dict__.get(attr)
        if raw is None:
            return
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(self.wrap(raw.__func__, name)))
        else:
            setattr(cls, attr, self.wrap(raw, name))

    # -- per operation --------------------------------------------------------

    def begin(self) -> None:
        """Start recording one operation under a fresh trace id."""
        self.trace_id += 1
        for tally in self._tallies.values():
            tally[:] = [0, 0]
        self.tokens.clear()
        self.flow_keys.clear()
        self.useful_connections = self.opened_connections = 0
        self.enabled = True

    def summary(self) -> dict:
        """Span totals, layer self times and counters of the current trace id."""
        spans = [span for span in self.spans() if span[3] == self.trace_id]
        by_name = summarize(spans)
        counts = {}
        for name, (calls, truthy) in self._tallies.items():
            counts[name], counts[name + ".true"] = calls, truthy
        return {"by_name": by_name, "layers": layer_self(by_name), "spans": len(spans), "counts": counts}

    def scan_summary(self) -> dict:
        """summary() plus tokens per phase, connections and phase wall times."""
        bounds: dict[str, list[float]] = {}
        for _sid, name, _parent, trace, start, end in self.spans():
            phase = PHASE_METHODS.get(name.removeprefix("scanner."))
            if trace == self.trace_id and phase is not None:
                low, high = bounds.get(phase, (start, end))
                bounds[phase] = [min(low, start), max(high, end)]
        return {
            **self.summary(),
            "token_phases": dict(self.tokens),
            "connections_opened": self.opened_connections,
            "connections_useful": self.useful_connections,
            "phase_s": {phase: high - low for phase, (low, high) in bounds.items()},
        }

    # -- output ---------------------------------------------------------------

    def spans(self) -> list[tuple[int, str, int, int, float, float]]:
        names = {nid: name for name, nid in self._names.items()}
        out = []
        for buf in self._buffers:
            for row in zip(buf.ids, buf.names, buf.parents, buf.traces, buf.starts, buf.ends):
                out.append((row[0], names[row[1]], row[2], row[3], row[4], row[5]))
        return out

    def write(self, path: str, spans) -> None:
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as fh:
            fh.write("id\tname\tparent\ttrace\tstart\tend\n")
            fh.writelines(f"{s[0]}\t{s[1]}\t{s[2]}\t{s[3]}\t{s[4]:.9f}\t{s[5]:.9f}\n" for s in spans)


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds and self seconds.

    A span's self time is its duration minus the part of it that its
    children cover; children on several pool threads may overlap, so
    their intervals are merged first.
    """
    children: defaultdict[int, list[tuple[float, float]]] = defaultdict(list)
    for _sid, _name, parent, _trace, start, end in spans:
        if parent >= 0:
            children[parent].append((start, end))
    covered: dict[int, float] = {}
    for parent, intervals in children.items():
        intervals.sort()
        total, low, high = 0.0, intervals[0][0], intervals[0][1]
        for start, end in intervals[1:]:
            if start > high:
                total += high - low
                low = start
            high = max(high, end)
        covered[parent] = total + high - low
    by_name: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for sid, name, _parent, _trace, start, end in spans:
        entry = by_name[name]
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - covered.get(sid, 0.0)
    return dict(by_name)


def layer_self(by_name: dict[str, dict[str, float]]) -> dict[str, float]:
    layers: defaultdict[str, float] = defaultdict(float)
    for name, entry in by_name.items():
        layers[name.split(".", 1)[0]] += entry["self_s"]
    return dict(layers)


# -- active scan -------------------------------------------------------------


class TracedNetwork(Network):
    """Network decorator: spans and counts around every probe."""

    def __init__(self, inner: Network, tracer: Tracer):
        self.inner = inner
        self.source_ip = getattr(inner, "source_ip", "0.0.0.0")
        self._ping = tracer.wrap(inner.ping, "netbase.ping")
        self._arp = tracer.wrap(inner.arp, "netbase.arp")
        self._connect = tracer.wrap(inner.connect, "netbase.connect", after=self._opened)

    @staticmethod
    def _opened(buf, _args, result) -> None:
        if result.status == "open":
            buf.opened += 1

    def require(self, method: str) -> None:
        self.inner.require(method)

    def ping(self, ip: str, timeout: float) -> bool:
        return self._ping(ip, timeout)

    def arp(self, ip: str, timeout: float) -> str | None:
        return self._arp(ip, timeout)

    def connect(self, ip: str, port: int, timeout: float):
        return self._connect(ip, port, timeout)


PHASE_METHODS = {
    "discover_hosts": "discovery",
    "scan_ports": "port_scan",
    "probe_protocol": "probe",
    "enumerate_modbus": "enumeration",
    "enumerate_s7": "enumeration",
    "enumerate_enip": "enumeration",
}


def _evidence(asset) -> tuple:
    return (asset.open_ports, asset.protocols, asset.static_info, asset.deployment_info)


def instrument_scanner(scanner, tracer: Tracer) -> None:
    """Instance-level wraps of one Scanner's phase methods and limiter.

    Each rate-limit token is attributed to the phase of the calling
    thread. Connections are counted per phase-method call; a call's
    connections were useful when the call added evidence to the asset.
    """
    for attr, phase in PHASE_METHODS.items():
        method = getattr(scanner, attr, None)
        if method is not None:
            setattr(scanner, attr, tracer.wrap(_phased(tracer, method, phase, attr == "discover_hosts"), f"scanner.{attr}"))

    def count_token(buf, _args, _result) -> None:
        tracer.tokens[buf.phase or tracer.scan_phase or "other"] += 1

    limiter = getattr(scanner, "limiter", None)
    if limiter is not None:
        limiter.acquire = tracer.wrap(limiter.acquire, "ratelimit.acquire", after=count_token)


def _phased(tracer: Tracer, method, phase: str, scan_wide: bool):
    def call(*args, **kwargs):
        buf = tracer.buffer()
        previous, opened_before = buf.phase, buf.opened
        buf.phase, buf.opened = phase, 0
        if scan_wide and buf.stack:
            tracer.scan_phase, tracer.scan_parent = phase, buf.stack[-1]
        try:
            result = method(*args, **kwargs)
        finally:
            opened, buf.phase, buf.opened = buf.opened, previous, opened_before
            if scan_wide:
                tracer.scan_phase, tracer.scan_parent = None, -1
        if tracer.enabled and opened:
            tracer.opened_connections += opened
            if not scan_wide and _evidence(result) != _evidence(args[0]):
                tracer.useful_connections += opened
        return result

    return call


def install_model(tracer: Tracer) -> None:
    from icsrecon import model

    tracer.wrap_method(model.Inventory, "apply", "model.Inventory.apply")
    tracer.wrap_method(model.Inventory, "load", "model.Inventory.load")
    tracer.wrap_method(model.Inventory, "save", "model.Inventory.save")
    tracer.wrap_attr(model, "merge_observation", "model.merge_observation")


def install_codecs(tracer: Tracer) -> None:
    from icsrecon.codecs import enip, modbus, s7

    for module in (modbus, s7, enip):
        short = module.__name__.rsplit(".", 1)[1]
        for attr in sorted(vars(module)):
            if attr.startswith(("decode_", "extract_", "parse_")) and callable(getattr(module, attr)):
                tracer.wrap_attr(module, attr, f"codecs.{short}.{attr}")


# -- passive analysis ---------------------------------------------------------


def install_passive(tracer: Tracer) -> None:
    from icsrecon import passive, pcapio

    def remember_ip(buf, _args, result) -> None:
        buf.last_ip = result

    def count_flow(buf, _args, result) -> None:
        packet = buf.last_ip
        if result is not None and packet is not None:
            a, b = (packet.src_ip, result.src_port), (packet.dst_ip, result.dst_port)
            tracer.flow_keys.add((a, b) if a < b else (b, a))

    tracer.wrap_attr(pcapio, "parse_ethernet", "pcapio.parse_ethernet")
    tracer.wrap_attr(pcapio, "parse_arp", "pcapio.parse_arp")
    tracer.wrap_attr(pcapio, "parse_ipv4", "pcapio.parse_ipv4", after=remember_ip)
    tracer.wrap_attr(pcapio, "parse_tcp", "pcapio.parse_tcp", after=count_flow)
    tracer.wrap_attr(passive, "classify_flow", "passive.classify_flow")
    tracer.wrap_attr(passive, "analyze_capture", "passive.analyze_capture")
    reader = getattr(passive, "CaptureReader", None)
    if reader is not None:
        passive.CaptureReader = _traced_reader(reader, tracer)


def _traced_reader(base, tracer: Tracer):
    next_record = tracer.wrap(next, "pcapio.read")

    class TracedCaptureReader(base):
        def __iter__(self):
            records = super().__iter__()
            while True:
                try:
                    record = next_record(records)
                except StopIteration:
                    return
                yield record

    return TracedCaptureReader


# -- enrichment -----------------------------------------------------------------


def install_vulnmatch(tracer: Tracer) -> None:
    from icsrecon import vulnmatch

    tracer.wrap_attr(vulnmatch, "load_db", "vulnmatch.load_db")
    tracer.wrap_attr(vulnmatch, "match", "vulnmatch.match")
    original = getattr(vulnmatch, "record_applies", None)
    if original is not None:
        vulnmatch.record_applies = tracer.counter(original, "vulnmatch.record_applies")


def install(tracer: Tracer, workload: str) -> None:
    """Module- and class-level wraps for one workload's measured process."""
    install_model(tracer)
    if workload == "enrich_inventory":
        install_vulnmatch(tracer)
        return
    install_codecs(tracer)
    if workload.startswith("passive"):
        install_passive(tracer)
