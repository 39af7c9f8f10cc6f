"""Wall-clock benchmark of the HTTP request path (see perfbench/README.md).

    python3 perfbench/run.py --workload explore-hot --seed 1 --seconds 25 --trace 0

Launches ``perfbench/server.py`` (the HTTP facade over the workload's
backend) as a separate process, drives it over loopback HTTP with
request bodies generated from the seed, checks every answer, and prints
each metric by name with its unit.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer metrics of a
traced run with ``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SERVER = os.path.join(HERE, "server.py")

#: Server launches per untraced run; ``setup_s`` is their median.
SETUP_LAUNCHES = 3
#: Share of ``--seconds`` spent in the open loop; the rest saturates,
#: long enough for a steady ``throughput_qps``.
OPEN_SHARE = 0.6
#: /search requests checked against the brute-force oracle per run.
ORACLE_SAMPLE = 4
#: Seconds a launch may take to answer /healthz, and to shut down.
LAUNCH_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 60.0

#: The gated metrics of the result line (see README.md for why the
#: open-loop latency percentiles and error_rate are printed only).
END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_qps": "1/s",
    "peak_rss_mb": "MB",
}


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


#: Client connections: nproc, and never more than the 2 the offered
#: rates were calibrated with.
CONNECTIONS = max(1, min(2, _nproc()))


# ---------------------------------------------------------------------------
# the served process


def _children(pid: int) -> list[int]:
    out: list[int] = []
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return out
    for tid in tids:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                out.extend(int(p) for p in fh.read().split())
        except OSError:
            continue
    return out


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


class Served:
    """One launch of the served program; ``setup_s`` is launch -> /healthz."""

    def __init__(self, workload: str, tiny: bool, trace_dir: str | None = None):
        command = [sys.executable, SERVER, "--workload", workload]
        if tiny:
            command.append("--tiny")
        if trace_dir:
            command += ["--trace-dir", trace_dir]
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT
        )
        self.descendants: set[int] = set()
        try:
            line = self._ready_line(started + LAUNCH_TIMEOUT_S)
            _, host, port = line.split()
            self.address = (host, int(port))
            self.get("/healthz")
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def _ready_line(self, deadline: float) -> str:
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            if not selector.select(max(0.0, deadline - time.perf_counter())):
                raise RuntimeError("server did not report READY in time")
        line = self.proc.stdout.readline().decode()
        if not line.startswith("READY "):
            raise RuntimeError(f"server failed to start (exit {self.proc.poll()})")
        return line

    def serving_pids(self) -> list[int]:
        """The facade process and its node processes (not helper daemons)."""
        pids, frontier = [self.proc.pid], [self.proc.pid]
        while frontier:
            kids = _children(frontier.pop())
            frontier.extend(kids)
            pids.extend(kids)
        self.descendants.update(pids[1:])
        keep = []
        for pid in pids:
            try:
                with open(f"/proc/{pid}/cmdline", "rb") as fh:
                    if b"resource_tracker" in fh.read():
                        continue
            except OSError:
                continue
            keep.append(pid)
        return keep

    def peak_rss_mb(self) -> float:
        total_kb = 0
        for pid in self.serving_pids():
            try:
                with open(f"/proc/{pid}/status") as fh:
                    for line in fh:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
            except OSError:
                continue
        return total_kb / 1024.0

    def get(self, path: str) -> dict:
        from client import Connection

        connection = Connection(self.address)
        try:
            status, _, data = connection.request("GET", path)
        finally:
            connection.close()
        if status != 200:
            raise RuntimeError(f"GET {path} answered {status}")
        return json.loads(data)

    def stop(self) -> None:
        """Close stdin (graceful stop); kill on timeout; wait for every process."""
        self.serving_pids()
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            for pid in [self.proc.pid, *self.descendants]:
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
            self.proc.wait()
        finally:
            self.proc.stdout.close()
        deadline = time.monotonic() + STOP_TIMEOUT_S
        for pid in self.descendants:
            while _alive(pid):
                if time.monotonic() > deadline:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        break
                time.sleep(0.05)


# ---------------------------------------------------------------------------
# phases and checks


def _percentile(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def _lateness_ms(timed: list) -> list[float]:
    """How late the generator sent requests a connection was free for."""
    return [(r.dispatched - r.due) / 1e6 for r in timed if r.on_time] or [0.0]


def _search_pages(served: Served, body: bytes) -> tuple[list, list[str]]:
    """Fetch every /search page of one query; (responses, pages)."""
    from client import Connection, Response

    query = json.loads(body)
    responses, pages = [], []
    connection = Connection(served.address)
    try:
        token = None
        while True:
            request = dict(query, limit=1000, next_token=token)
            now = time.perf_counter_ns()
            response = Response("search", "/search", json.dumps(request).encode(), now, now)
            connection.send(response)
            responses.append(response)
            if not response.ok:
                return responses, []
            page = json.loads(response.data)
            pages.append(page)
            token = page["next_token"]
            if token is None:
                return responses, pages
    finally:
        connection.close()


def check_answers(workload, responses: list, searches: list) -> list[str]:
    """Every failure among ``responses`` plus the oracle sample.

    ``searches`` holds ``(query_body, search_responses, pages)``.
    """
    from check import Twin, oracle_divergences
    from repro.data.generator import SyntheticNAMGenerator
    from repro.oracle import BruteForceOracle

    failures = []
    batch = SyntheticNAMGenerator(workload.dataset()).generate()
    twin = Twin(batch, workload.config())
    for response in sorted(responses, key=lambda r: r.done):
        if not response.ok:
            failures.append(
                f"{response.phase} {response.path}: "
                f"{response.error or f'HTTP {response.status}'}"
            )
            continue
        if response.path == "/aggregate":
            problem = twin.check(response.body, response.data)
            if problem is not None:
                failures.append(f"{response.phase} twin mismatch: {problem}")
    oracle = BruteForceOracle(batch)
    for body, search_responses, pages in searches:
        failures.extend(
            f"search HTTP {r.status} {r.error or ''}" for r in search_responses if not r.ok
        )
        divergences = oracle_divergences(body, pages, oracle) if pages else []
        if divergences:
            failures.append(f"oracle: {'; '.join(divergences[:3])}")
    return failures


@dataclass
class Phases:
    """One served program's warm-up, saturation and open-loop responses."""

    warm: list
    saturated: list
    saturation_s: float
    timed: list
    #: Facade response-cache counters just before and after the open loop.
    cache_before: dict
    cache_after: dict

    @property
    def responses(self) -> list:
        return self.warm + self.saturated + self.timed


def drive(served: Served, plan, saturation_s: float) -> Phases:
    """Warm-up, then saturation (which finishes warming), then the open loop."""
    import client

    warm, _ = client.closed_loop(served.address, plan.warmup, CONNECTIONS, phase="warmup")
    saturated, elapsed = client.closed_loop(
        served.address, plan.saturation, CONNECTIONS, seconds=saturation_s,
        phase="saturation",
    )
    before = served.get("/stats")["cache"]
    timed = client.open_loop(served.address, plan.open_loop, plan.offsets, CONNECTIONS)
    after = served.get("/stats")["cache"]
    return Phases(warm, saturated, elapsed, timed, before, after)


def _plan(workload, seed: int, seconds: float):
    """The request plan for ``seconds`` of saturation plus open loop."""
    from workloads import make_plan

    saturation_s = seconds * (1 - OPEN_SHARE)
    plan = make_plan(
        workload, seed, seconds * OPEN_SHARE, saturation_cap=int(100 * saturation_s) + 20
    )
    return plan, saturation_s


def run_untraced(workload, seed: int, seconds: float, tiny: bool) -> tuple[dict, list, int]:
    plan, saturation_s = _plan(workload, seed, seconds)
    setups = []
    for _ in range(SETUP_LAUNCHES - 1):
        served = Served(workload.name, tiny)
        setups.append(served.setup_s)
        served.stop()
    served = Served(workload.name, tiny)
    setups.append(served.setup_s)
    try:
        phases = drive(served, plan, saturation_s)
        sample = random.Random(seed).sample(plan.open_loop, min(ORACLE_SAMPLE, len(plan.open_loop)))
        searches = [(body, *_search_pages(served, body)) for body in sample]
        peak_rss = served.peak_rss_mb()
    finally:
        served.stop()
    attempted = len(phases.responses) + sum(len(s[1]) for s in searches)
    failures = check_answers(workload, phases.responses, searches)
    latencies = [r.latency_ms for r in phases.timed]
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_qps": sum(r.ok for r in phases.saturated) / phases.saturation_s,
        "peak_rss_mb": peak_rss,
    }
    late = _lateness_ms(phases.timed)
    print(f"setups_s {[round(s, 3) for s in setups]}")
    print(
        f"saturation: {len(phases.saturated)} requests in {phases.saturation_s:.2f} s "
        f"closed loop over {CONNECTIONS} connections"
    )
    print(
        f"open loop: {len(latencies)} requests at {workload.offered_qps} req/s "
        f"({int(len(latencies) * 0.05)} beyond p95, {int(len(latencies) * 0.01)} "
        f"beyond p99); generator late p99 {_percentile(late, 99):.3f} ms"
    )
    for name, value in metrics.items():
        print(f"{name:<16} {value:12.4f} {END_TO_END_UNITS[name]}")
    for q in (50, 95, 99):
        print(f"{f'p{q}_ms':<16} {_percentile(latencies, q):12.4f} ms (not gated)")
    print(
        f"{'error_rate':<16} {len(failures) / attempted:12.4f} ratio "
        f"({len(failures)} failed / {attempted} attempted)"
    )
    return (
        {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
        failures,
        attempted,
    )


def _layer_metric(layer: str) -> str:
    special = {
        "http.handler": "http.handler_self_ms",
        "sim.engine": "sim.engine_self_ms",
    }
    return special.get(layer, f"{layer}_ms")


def run_traced(workload, seed: int, seconds: float, tiny: bool) -> tuple[dict, list, int]:
    """Untraced then traced server on the same requests; per-layer breakdown."""
    import layers

    plan, saturation_s = _plan(workload, seed, seconds / 2)
    scratch = os.path.join(ROOT, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    trace_dir = tempfile.mkdtemp(prefix="trace-", dir=scratch)
    runs = {}
    try:
        for traced in (False, True):
            served = Served(workload.name, tiny, trace_dir if traced else None)
            try:
                runs[traced] = drive(served, plan, saturation_s)
            finally:
                served.stop()
        dumps = layers.load(trace_dir)
    finally:
        shutil.rmtree(trace_dir, ignore_errors=True)
        if not os.listdir(scratch):
            os.rmdir(scratch)
    responses = runs[False].responses + runs[True].responses
    timed = runs[True].timed
    p50 = {t: _percentile([r.latency_ms for r in runs[t].timed], 50) for t in runs}
    failures = check_answers(workload, responses, [])
    ok = [r for r in timed if r.ok]
    result = layers.breakdown(
        [{"due": r.due, "sent": r.sent, "done": r.done, "crc": r.crc} for r in ok],
        dumps,
        facade_pid=served.proc.pid,
    )
    before, after = runs[True].cache_before, runs[True].cache_after
    hits = after["hits"] - before["hits"]
    lookups = hits + after["misses"] - before["misses"]
    provenance = [json.loads(r.data)["provenance"] for r in ok if r.cache == "miss"]
    cells = sum(
        p["cells_from_cache"] + p["cells_from_rollup"] + p["cells_from_disk"]
        for p in provenance
    )
    metrics: dict[str, tuple[float, str]] = {}
    for layer in ("http.wire", *layers.SPAN_LAYERS, "unattributed"):
        metrics[_layer_metric(layer)] = (result["ms"].get(layer, 0.0), "ms")
    metrics["transport.bytes_per_request"] = (result["counts"]["transport.bytes"], "bytes")
    for name in layers.COUNTERS[1:]:
        metrics[f"{name}_per_request"] = (result["counts"][name], "count")
    metrics["http.response_cache_hit_ratio"] = (hits / max(1, lookups), "ratio")
    metrics["core.cell_hit_ratio"] = (
        sum(p["cells_from_cache"] for p in provenance) / max(1, cells),
        "ratio",
    )
    metrics["bench.generator_late_ms"] = (_percentile(_lateness_ms(timed), 99), "ms")
    metrics["bench.client_mean_ms"] = (result["client_mean_ms"], "ms")
    metrics["bench.untraced_p50_ms"] = (p50[False], "ms")
    metrics["bench.traced_p50_ms"] = (p50[True], "ms")
    metrics["bench.trace_overhead_ratio"] = (p50[True] / p50[False], "ratio")

    attributed = sum(v for k, (v, u) in metrics.items() if u == "ms" and not k.startswith("bench."))
    print(
        f"traced {result['requests']} open-loop requests; layer self times + "
        f"wire + unattributed = {attributed:.4f} ms vs mean client latency "
        f"{result['client_mean_ms']:.4f} ms"
    )
    for name, (value, unit) in metrics.items():
        print(f"{name:<36} {value:12.4f} {unit}")
    attempted = len(responses)
    return (
        {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        failures,
        attempted,
    )


def environment() -> dict:
    import numpy

    from repro.transport.codec import codec_name

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "codec": codec_name(),
        "nproc": _nproc(),
        "connections": CONNECTIONS,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="small dataset (the benchmark's own tests)"
    )
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # The client's threads hand the interpreter lock to each other often,
    # so a request due while another thread runs Python is sent promptly.
    sys.setswitchinterval(0.0005)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    workload = workloads.get(args.workload, tiny=args.tiny)
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}")
    print(f"env {json.dumps(environment(), sort_keys=True)}")
    runner = run_traced if args.trace else run_untraced
    metrics, failures, attempted = runner(workload, args.seed, args.seconds, args.tiny)
    for failure in failures[:20]:
        print(f"FAIL {failure}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
