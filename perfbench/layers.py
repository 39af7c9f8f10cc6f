"""Per-layer tracing for the benchmark's traced run, and its breakdown.

:func:`install` wraps the public entry point of each layer of the
request path in a timing span, and a few of them in counters.  A
function is replaced at *every* site that holds it: a ``from x import f``
binds ``f`` into the importing module, so ``repro.core.node.plan_query``
is wrapped as well as ``repro.core.planner.plan_query``.  Spans stay in
memory on the shared monotonic clock (``perf_counter_ns`` is
``CLOCK_MONOTONIC`` on Linux, the same in every process) and
:func:`dump` writes them out when the process ends.  Node processes of a
ServeCluster start through :func:`traced_node_entry`, which installs the
same wrappers and then calls ``repro.serve.server.serve_node_entry``.

:func:`breakdown` turns the spans into mean self-milliseconds per
request.  Each instant of a request's server-side envelope goes to the
most recently started span active at that instant among the request's
own spans (its handler thread) and, while the request holds the
backend, the spans of the backend's threads and node processes.  That
is a span's duration minus its children's for nested spans, and it
charges every instant once, so the layer times plus ``unattributed``
(envelope time no span covers) plus ``http.wire`` (client latency
outside the envelope) add up to the mean client latency exactly.
"""

from __future__ import annotations

import bisect
import heapq
import importlib
import inspect
import os
import pickle
import sys
import threading
import time
import zlib
from collections import defaultdict
from typing import Any, Callable

_now = time.perf_counter_ns
_tid = threading.get_ident

#: Counter buckets are 2**20 ns (~1 ms) wide.
BUCKET_SHIFT = 20
TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"

#: (layer, start_ns, end_ns, thread id, tag).  ``tag`` is the CRC-32 of
#: the request body for ``StashHttpServer.handle`` spans, else None.
_spans: list[tuple] = []
_counts: defaultdict = defaultdict(int)
_state: dict[str, Any] = {}

HANDLE = "http.handler"
EVALUATE = "serve.evaluate"

#: Span layers in request-path order (also the per-layer metric stems).
SPAN_LAYERS = (
    "http.handler",
    "serve.evaluate",
    "serve.rpc_evaluate",
    "serve.quiesce",
    "transport.codec",
    "sim.engine",
    "query.footprint",
    "core.ring",
    "geo.cover",
    "core.plan",
    "core.freshness",
    "core.rollup",
    "core.populate",
    "core.evict",
    "storage.scan",
    "data.merge",
)
COUNTERS = (
    "transport.bytes",
    "transport.frames",
    "sim.events",
    "dht.owner_lookups",
    "core.cells_evicted",
    "storage.blocks_read",
)

#: Modules imported before patching so that every from-import site of a
#: wrapped function already exists when the sites are replaced.
_PRELOAD = (
    "repro",
    "repro.serve.http",
    "repro.serve.driver",
    "repro.serve.cluster",
    "repro.serve.server",
    "repro.core.cluster",
    "repro.core.node",
    "repro.storage.node",
    "repro.transport.asyncio_net",
    "repro.transport.framing",
)


def _count(name: str, n: int) -> None:
    _counts[(name, _now() >> BUCKET_SHIFT)] += n


def _span(layer: str, fn: Callable, counter=None) -> Callable:
    def wrapper(*args, **kwargs):
        start = _now()
        try:
            result = fn(*args, **kwargs)
        finally:
            _spans.append((layer, start, _now(), _tid(), None))
        if counter is not None:
            counter(args, result)
        return result

    return wrapper


def _handle_span(fn: Callable) -> Callable:
    """``StashHttpServer.handle(self, method, path, body)``, body-tagged."""

    def wrapper(self, method, path, body):
        start = _now()
        try:
            return fn(self, method, path, body)
        finally:
            _spans.append((HANDLE, start, _now(), _tid(), zlib.crc32(body)))

    return wrapper


def _async_span(layer: str, fn: Callable, only_kind: str | None = None) -> Callable:
    async def wrapper(*args, **kwargs):
        kind = kwargs["kind"] if "kind" in kwargs else args[2]
        if only_kind is not None and kind != only_kind:
            return await fn(*args, **kwargs)
        start = _now()
        try:
            return await fn(*args, **kwargs)
        finally:
            _spans.append((layer, start, _now(), _tid(), None))

    return wrapper


def _generator_span(layer: str, fn: Callable) -> Callable:
    """Times each resumption of a simulation-process generator."""

    def wrapper(*args, **kwargs):
        gen = fn(*args, **kwargs)
        value, error = None, None
        while True:
            start = _now()
            try:
                item = gen.send(value) if error is None else gen.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                _spans.append((layer, start, _now(), _tid(), None))
            try:
                value, error = (yield item), None
            except BaseException as exc:  # forwarded into the wrapped generator
                value, error = None, exc

    return wrapper


def _counter(name: str, fn: Callable, amount=None) -> Callable:
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        _count(name, 1 if amount is None else amount(args, result))
        return result

    return wrapper


def _count_as(name: str, amount: Callable) -> Callable:
    return lambda args, result: _count(name, amount(args, result))


def _encoded(args, result) -> None:
    _count("transport.frames", 1)
    _count("transport.bytes", len(result))


#: (owner, attribute, wrapper factory).  ``owner`` is ``module`` or
#: ``module:Class``; a class attribute is replaced on the class, a
#: module function at every module that holds it.
TARGETS: tuple = (
    ("repro.serve.http:StashHttpServer", "handle", _handle_span),
    ("repro.serve.http", "canonical_json", lambda f: _span(HANDLE, f)),
    ("repro.serve.http:SimBackend", "evaluate", lambda f: _span(EVALUATE, f)),
    ("repro.serve.http:SocketBackend", "evaluate", lambda f: _span(EVALUATE, f)),
    ("repro.serve.driver", "_rpc",
     lambda f: _async_span("serve.rpc_evaluate", f, only_kind="evaluate")),
    ("repro.serve.driver", "_quiesce", lambda f: _async_span("serve.quiesce", f)),
    ("repro.transport.codec", "encode",
     lambda f: _span("transport.codec", f, counter=_encoded)),
    ("repro.transport.codec", "decode", lambda f: _span("transport.codec", f)),
    ("repro.sim.engine:Simulator", "run", lambda f: _span("sim.engine", f)),
    ("repro.sim.engine:Simulator", "_schedule", lambda f: _counter("sim.events", f)),
    ("repro.transport.asyncio_net:AsyncioEngine", "_schedule",
     lambda f: _counter("sim.events", f)),
    ("repro.query.model:AggregationQuery", "footprint",
     lambda f: _span("query.footprint", f)),
    ("repro.core.freshness", "query_ring", lambda f: _span("core.ring", f)),
    ("repro.geo.cover", "covering_cells", lambda f: _span("geo.cover", f)),
    ("repro.dht.partitioner:Partitioner", "node_for",
     lambda f: _counter("dht.owner_lookups", f)),
    ("repro.core.planner", "plan_query", lambda f: _span("core.plan", f)),
    ("repro.core.freshness:FreshnessTracker", "touch_cells",
     lambda f: _span("core.freshness", f)),
    ("repro.core.freshness:FreshnessTracker", "disperse_to_neighborhood",
     lambda f: _span("core.freshness", f)),
    ("repro.core.aggregation", "try_rollup", lambda f: _span("core.rollup", f)),
    ("repro.core.node:StashNode", "_handle_populate",
     lambda f: _generator_span("core.populate", f)),
    ("repro.core.eviction:EvictionPolicy", "enforce",
     lambda f: _span("core.evict", f,
                     counter=_count_as("core.cells_evicted", lambda a, r: len(r)))),
    ("repro.storage.backend", "scan_blocks",
     lambda f: _span("storage.scan", f,
                     counter=_count_as("storage.blocks_read", lambda a, r: len(a[0])))),
    ("repro.data.statistics:SummaryVector", "merge_all", lambda f: _span("data.merge", f)),
    ("repro.data.statistics:SummaryFrame", "merge_all", lambda f: _span("data.merge", f)),
)


def _replace_everywhere(original: Callable, wrapped: Callable) -> list[str]:
    """Rebind ``original`` to ``wrapped`` in every loaded repro module."""
    sites = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)
                sites.append(f"{name}.{attr}")
    return sites


def install(trace_dir: str) -> list[str]:
    """Wrap every target in this process; returns the patched sites."""
    if "sites" in _state:
        return _state["sites"]
    for name in _PRELOAD:
        importlib.import_module(name)
    sites: list[str] = []
    for owner, attr, factory in TARGETS:
        module_name, _, class_name = owner.partition(":")
        module = importlib.import_module(module_name)
        if class_name:
            cls = getattr(module, class_name)
            raw = inspect.getattr_static(cls, attr)
            if isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(factory(raw.__func__)))
            else:
                setattr(cls, attr, factory(raw))
            sites.append(f"{owner}.{attr}")
        else:
            original = getattr(module, attr)
            sites.extend(_replace_everywhere(original, factory(original)))
    import repro.serve.cluster

    repro.serve.cluster.serve_node_entry = traced_node_entry
    sites.append("repro.serve.cluster.serve_node_entry")
    os.makedirs(trace_dir, exist_ok=True)
    os.environ[TRACE_DIR_ENV] = trace_dir
    _state.update(sites=sites, dir=trace_dir)
    return sites


def dump() -> str:
    """Write this process's spans and counters; returns the file path."""
    path = os.path.join(_state["dir"], f"spans-{os.getpid()}.pkl")
    with open(path, "wb") as fh:
        pickle.dump(
            {"pid": os.getpid(), "spans": list(_spans), "counts": dict(_counts)}, fh
        )
    return path


def traced_node_entry(spec: Any, conn: Any) -> None:
    """Spawn target for a traced node process (must stay importable)."""
    install(os.environ[TRACE_DIR_ENV])
    from repro.serve.server import serve_node_entry

    try:
        serve_node_entry(spec, conn)
    finally:
        dump()


def load(trace_dir: str) -> list[dict]:
    """Every span file a traced run wrote (files this benchmark wrote)."""
    dumps = []
    for name in sorted(os.listdir(trace_dir)):
        if name.startswith("spans-") and name.endswith(".pkl"):
            with open(os.path.join(trace_dir, name), "rb") as fh:
                dumps.append(pickle.load(fh))
    return dumps


# ---------------------------------------------------------------------------
# breakdown


def _attribute(
    items: list[tuple[int, int, int, str]], lo: int, hi: int, into: dict
) -> None:
    """Charge [lo, hi) to the latest-started active item, else unattributed.

    ``items`` are ``(clipped_start, clipped_end, priority, layer)``.
    """
    items.sort()
    bounds = sorted({lo, hi, *(s for s, _, _, _ in items), *(e for _, e, _, _ in items)})
    heap: list[tuple[int, int, str]] = []
    k = 0
    for left, right in zip(bounds, bounds[1:]):
        while k < len(items) and items[k][0] <= left:
            start, end, priority, layer = items[k]
            heapq.heappush(heap, (-priority, end, layer))
            k += 1
        while heap and heap[0][1] <= left:
            heapq.heappop(heap)
        layer = heap[0][2] if heap else "unattributed"
        into[layer] += right - left


def breakdown(requests: list[dict], dumps: list[dict], facade_pid: int) -> dict:
    """Mean self-ms per request by layer, plus counts per request.

    ``requests`` carry ``due``, ``sent``, ``done`` (ns) and ``crc`` (the
    body's CRC-32).  Returns ``{"ms": {layer: ms}, "counts": {name: n},
    "requests": n, "client_mean_ms": ms}``; ``ms`` includes
    ``http.wire`` and ``unattributed``.
    """
    facade = next(d for d in dumps if d["pid"] == facade_pid)
    own: dict[int, list[tuple]] = defaultdict(list)
    handles: dict[int, list[tuple]] = defaultdict(list)
    for span in facade["spans"]:
        own[span[3]].append(span)
        if span[4] is not None:
            handles[span[4]].append(span)
    handler_tids = {s[3] for spans in handles.values() for s in spans}
    backend = sorted(
        [s for s in facade["spans"] if s[3] not in handler_tids]
        + [s for d in dumps if d["pid"] != facade_pid for s in d["spans"]],
        key=lambda s: s[1],
    )
    backend_starts = [s[1] for s in backend]
    longest = max((s[2] - s[1] for s in backend), default=0)
    evaluate_ends = sorted(s[2] for s in facade["spans"] if s[0] == EVALUATE)
    for spans in own.values():
        spans.sort(key=lambda s: s[1])
    own_starts = {tid: [s[1] for s in spans] for tid, spans in own.items()}

    totals: dict[str, int] = defaultdict(int)
    latency_ns = 0
    for req in requests:
        handle = next(
            (
                s
                for s in handles.get(req["crc"], ())
                if s[1] >= req["sent"] and s[2] <= req["done"]
            ),
            None,
        )
        if handle is None:
            raise RuntimeError(f"no handler span for the request sent at {req['sent']}")
        tid = handle[3]
        spans, starts = own[tid], own_starts[tid]
        first = bisect.bisect_left(starts, handle[1])
        stop = bisect.bisect_left(starts, handle[2])
        inner = spans[first:stop]
        # The response's canonical_json runs right after handle returns.
        reply = next(
            (
                s
                for s in spans[stop : stop + 4]
                if s[0] == HANDLE and s[4] is None and s[2] <= req["done"]
            ),
            None,
        )
        lo = handle[1]
        hi = reply[2] if reply is not None else handle[2]
        items = [(s[1], s[2], s[1], s[0]) for s in inner]
        if reply is not None:
            items.append((reply[1], reply[2], reply[1], reply[0]))
        evaluate = next((s for s in inner if s[0] == EVALUATE), None)
        if evaluate is not None:
            # The backend serializes evaluation: this request holds it from
            # the end of the previous evaluate (or its own start) onward.
            idx = bisect.bisect_left(evaluate_ends, evaluate[2])
            previous = evaluate_ends[idx - 1] if idx > 0 else evaluate[1]
            w_lo, w_hi = max(evaluate[1], previous), evaluate[2]
            j = bisect.bisect_left(backend_starts, w_lo - longest)
            while j < len(backend) and backend[j][1] < w_hi:
                span = backend[j]
                j += 1
                if span[2] > w_lo:
                    items.append(
                        (max(span[1], w_lo), min(span[2], w_hi), span[1], span[0])
                    )
        _attribute(items, lo, hi, totals)
        latency = req["done"] - req["due"]
        latency_ns += latency
        totals["http.wire"] += latency - (hi - lo)
    window = (
        min(r["due"] for r in requests) >> BUCKET_SHIFT,
        max(r["done"] for r in requests) >> BUCKET_SHIFT,
    )
    counts: dict[str, int] = defaultdict(int)
    for d in dumps:
        for (name, bucket), n in d["counts"].items():
            if window[0] <= bucket <= window[1]:
                counts[name] += n
    n = len(requests)
    return {
        "requests": n,
        "client_mean_ms": latency_ns / n / 1e6,
        "ms": {layer: ns / n / 1e6 for layer, ns in totals.items()},
        "counts": {name: counts.get(name, 0) / n for name in COUNTERS},
    }
