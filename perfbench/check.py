"""Correctness checks on the served answers.

* **Twin**: every ``/aggregate`` answer's ``summary``, ``cell_count``
  and ``completeness`` must match an in-process serial
  :class:`~repro.core.cluster.StashCluster` twin evaluating the same
  query.  ``provenance`` is left out because it depends on cache order,
  and so do the last bits of a rolled-up float, so means and standard
  deviations compare to a relative 1e-9 (counts and extrema exactly).
* **Oracle**: a seeded sample of queries is fetched cell by cell through
  ``/search`` and compared with :class:`~repro.oracle.BruteForceOracle`
  by :func:`repro.oracle.conformance.compare_result`.
"""

from __future__ import annotations

import json
import math
from typing import Any

from repro.core.keys import CellKey
from repro.data.statistics import AttributeSummary, SummaryVector
from repro.errors import ReproError
from repro.query.model import QueryResult
from repro.serve.http import aggregate_body, parse_query

ANSWER_FIELDS = ("summary", "cell_count", "completeness")
REL_TOL = 1e-9
_EXACT = ("count", "min", "max")


def answer_fields(body: dict) -> dict:
    return {name: body.get(name) for name in ANSWER_FIELDS}


def mismatch(got: dict, expected: dict) -> str | None:
    """Why two answers differ, or None when they match."""
    for name in ("cell_count", "completeness"):
        if got[name] != expected[name]:
            return f"{name} {got[name]!r} != twin {expected[name]!r}"
    ours, theirs = got["summary"], expected["summary"]
    if not isinstance(ours, dict) or set(ours) != set(theirs):
        return "summary attributes differ from the twin"
    for attr, stats in theirs.items():
        if set(ours[attr]) != set(stats):
            return f"summary[{attr}] fields differ from the twin"
        for key, value in stats.items():
            mine = ours[attr][key]
            same = (
                mine == value
                if key in _EXACT
                else math.isclose(mine, value, rel_tol=REL_TOL, abs_tol=REL_TOL)
            )
            if not same:
                return f"summary[{attr}][{key}] {mine!r} != twin {value!r}"
    return None


class Twin:
    """Serial in-process evaluation of the same queries, memoized by body."""

    def __init__(self, batch, config):
        from repro.core.cluster import StashCluster
        from repro.serve.http import SimBackend

        self.backend = SimBackend(StashCluster(batch, config))
        self._answers: dict[bytes, dict] = {}

    def expected(self, body: bytes) -> dict:
        answer = self._answers.get(body)
        if answer is None:
            query = parse_query(json.loads(body))
            answer = answer_fields(aggregate_body(query, self.backend.evaluate(query)))
            self._answers[body] = answer
        return answer

    def check(self, body: bytes, data: bytes) -> str | None:
        expected = self.expected(body)
        try:
            return mismatch(answer_fields(json.loads(data)), expected)
        except (ValueError, AttributeError, TypeError) as exc:
            return f"malformed answer: {exc!r}"


def summary_from_json(entry: dict[str, dict[str, float]]) -> SummaryVector:
    """Rebuild a SummaryVector from ``to_json_dict`` output (count/min/max/mean/std)."""
    summaries = {}
    for name, s in entry.items():
        count = s["count"]
        if count == 0:
            summaries[name] = AttributeSummary.empty()
            continue
        mean, std = s["mean"], s["std"]
        summaries[name] = AttributeSummary(
            count=count,
            total=mean * count,
            total_sq=(std * std + mean * mean) * count,
            minimum=s["min"],
            maximum=s["max"],
        )
    return SummaryVector(summaries)


def oracle_divergences(body: bytes, pages: list[dict], oracle: Any) -> list[str]:
    """compare_result over the cells of a paginated ``/search`` answer."""
    from repro.oracle.conformance import compare_result

    query = parse_query(json.loads(body))
    try:
        cells = {
            CellKey.parse(entry["cell"]): summary_from_json(entry["summary"])
            for page in pages
            for entry in page["cells"]
        }
        result = QueryResult(
            query=query, cells=cells, completeness=pages[-1]["completeness"]
        )
    except (ReproError, KeyError, TypeError, ValueError) as exc:
        return [f"malformed answer: {exc!r}"]
    return [
        f"{kind}: {detail}" for kind, detail in compare_result(result, oracle.answer(query))
    ]
