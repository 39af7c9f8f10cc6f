"""The benchmark's own tests: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import layers  # noqa: E402
from check import Twin, mismatch, oracle_divergences  # noqa: E402
from workloads import WORKLOADS, get, make_plan  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)


def _run(workload: str, trace: int) -> tuple[str, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "2", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return proc.stdout, json.loads(lines[-1])


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    stdout, result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], float)
    if not trace:
        for printed in ("error_rate", "p50_ms", "p95_ms", "p99_ms"):
            assert printed in stdout


def test_plan_is_a_function_of_the_seed():
    workload = get("explore-hot", tiny=True)
    first, again = make_plan(workload, 5, 2.0, 10), make_plan(workload, 5, 2.0, 10)
    other = make_plan(workload, 6, 2.0, 10)
    assert first.open_loop == again.open_loop and first.warmup == again.warmup
    assert first.open_loop != other.open_loop
    assert not set(first.warmup) & set(first.open_loop + first.saturation)


@pytest.fixture(scope="module")
def twin_and_oracle():
    from repro.data.generator import SyntheticNAMGenerator
    from repro.oracle import BruteForceOracle

    workload = get("explore-hot", tiny=True)
    batch = SyntheticNAMGenerator(workload.dataset()).generate()
    plan = make_plan(workload, 1, 2.0, 0)
    return Twin(batch, workload.config()), BruteForceOracle(batch), plan.open_loop


def _non_empty(twin, bodies):
    return next(b for b in bodies if twin.expected(b)["cell_count"] >= 2)


def test_twin_check_rejects_a_perturbed_answer(twin_and_oracle):
    twin, _, bodies = twin_and_oracle
    body = _non_empty(twin, bodies)
    answer = json.loads(json.dumps(twin.expected(body)))
    assert twin.check(body, json.dumps(answer).encode()) is None
    attr = next(a for a, s in answer["summary"].items() if s["count"])
    answer["summary"][attr]["mean"] *= 1 + 1e-6
    assert twin.check(body, json.dumps(answer).encode()) is not None
    assert twin.check(body, b"not json") is not None
    for field, value in (("cell_count", answer["cell_count"] + 1), ("completeness", 0.5)):
        changed = dict(twin.expected(body), **{field: value})
        assert mismatch(changed, twin.expected(body)) is not None


def test_oracle_check_rejects_a_perturbed_cell(twin_and_oracle):
    from repro.serve.http import cell_entries, parse_query

    twin, oracle, bodies = twin_and_oracle
    body = _non_empty(twin, bodies)
    cells = oracle.answer(parse_query(json.loads(body)))
    entries = json.loads(json.dumps(cell_entries(cells)))
    page = {"cells": entries, "completeness": 1.0}
    assert oracle_divergences(body, [page], oracle) == []
    attr = next(a for a, s in entries[0]["summary"].items() if s["count"])
    entries[0]["summary"][attr]["mean"] *= 1 + 1e-6
    assert oracle_divergences(body, [page], oracle)
    entries[0]["summary"][attr]["count"] += 1  # inconsistent counts: malformed
    assert oracle_divergences(body, [page], oracle)
    assert oracle_divergences(body, [{"cells": entries[1:], "completeness": 1.0}], oracle)


def test_breakdown_sums_to_client_latency():
    ms = 1_000_000
    # Request A: handle [10, 30) ms with evaluate [12, 28) on thread 1 and a
    # backend span [14, 20) in a node process; reply JSON [30, 31).
    facade = [
        ("http.handler", 10 * ms, 30 * ms, 1, 7),
        ("serve.evaluate", 12 * ms, 28 * ms, 1, None),
        ("http.handler", 30 * ms, 31 * ms, 1, None),
    ]
    node = [("storage.scan", 14 * ms, 20 * ms, 9, None), ("core.plan", 40 * ms, 41 * ms, 9, None)]
    dumps = [
        {"pid": 100, "spans": facade, "counts": {("storage.blocks_read", (15 * ms) >> 20): 3}},
        {"pid": 200, "spans": node, "counts": {}},
    ]
    result = layers.breakdown([{"due": 0, "sent": 5 * ms, "done": 35 * ms, "crc": 7}], dumps, 100)
    assert result["ms"]["storage.scan"] == pytest.approx(6.0)
    assert result["ms"]["serve.evaluate"] == pytest.approx(10.0)
    assert result["ms"]["http.handler"] == pytest.approx(5.0)
    assert result["ms"]["http.wire"] == pytest.approx(14.0)
    assert "core.plan" not in result["ms"]  # outside the request's backend window
    assert sum(result["ms"].values()) == pytest.approx(result["client_mean_ms"])
    assert result["counts"]["storage.blocks_read"] == 3


def test_install_wraps_every_import_site(tmp_path):
    code = (
        "import sys; sys.path[:0] = [{here!r}, {src!r}]\n"
        "import layers\n"
        "sites = layers.install({out!r})\n"
        "import repro.core.node, repro.core.planner\n"
        "assert repro.core.node.plan_query is repro.core.planner.plan_query\n"
        "assert 'repro.core.node.plan_query' in sites, sites\n"
        "assert 'repro.query.model.covering_cells' in sites, sites\n"
    ).format(here=HERE, src=os.path.join(ROOT, "src"), out=str(tmp_path))
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
