"""The benchmark's named workloads and the inputs they generate.

Each workload fixes the serving side (backend, node count, dataset size,
per-node cache capacity) and the user population (hotspot count and
skew of a :class:`~repro.workload.scale.ScaleWorkloadSpec`).  The open-loop
offered rate is about a quarter of the closed-loop capacity measured
when the benchmark was written (see README.md for why not half).

Requests are drawn from one seeded :class:`SessionTable` per run:

* the **open-loop** requests are the middle stretch of
  :func:`open_loop_arrivals` — mid-stream the merged arrivals are
  stationary (the stream ramps up and down at its ends) — with their
  times rescaled so the stretch runs at exactly the offered rate;
* the **saturation** requests are the stretch of the stream just before
  it (the saturation phase runs first, so it also finishes warming the
  cache the open loop then measures);
* the **warm-up** requests come from users who never appear in either
  timed phase (the separate warm-up population).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from repro.config import ClusterConfig, EvictionConfig, StashConfig
from repro.data.generator import DatasetSpec
from repro.workload.scale import ScaleWorkloadSpec, SessionTable, open_loop_arrivals
from repro.workload.trace import query_to_dict

#: Gesture steps per synthesized user session.
SESSION_LENGTH = 8
#: Dataset seed shared by every workload.
DATASET_SEED = 42
#: Seed of the session table: hotspot placement and every user's
#: session.  Fixed, so a workload keeps its geography; ``--seed`` draws
#: the arrival times, and with them which users the timed stretch holds.
LAYOUT_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``"sim"`` (SimBackend over a simulated cluster) or ``"socket"``
    #: (SocketBackend over a ServeCluster of node processes).
    backend: str
    records: int
    nodes: int
    #: Per-node cell cache capacity (``EvictionConfig.max_cells``).
    max_cells: int
    hotspots: int
    zipf_s: float
    #: Open-loop offered rate, requests per second.
    offered_qps: float
    #: Requests sent closed-loop before timing starts.
    warmup_requests: int

    def dataset(self) -> DatasetSpec:
        return DatasetSpec(
            num_records=self.records,
            start_day=(2013, 2, 1),
            num_days=2,
            seed=DATASET_SEED,
        )

    def config(self) -> StashConfig:
        return StashConfig(
            cluster=ClusterConfig(num_nodes=self.nodes),
            eviction=EvictionConfig(max_cells=self.max_cells),
        )

    def tiny(self) -> "Workload":
        """A seconds-long variant for the benchmark's own smoke tests."""
        return replace(
            self,
            records=min(self.records, 8_000),
            max_cells=min(self.max_cells, 200),
            warmup_requests=8,
        )


WORKLOADS = {
    w.name: w
    for w in (
        # Cache hits dominate: the http, plan/cover, planner/freshness and
        # sim-engine layers do the work, the scan kernel little.
        Workload(
            name="explore-hot",
            backend="sim",
            records=60_000,
            nodes=4,
            max_cells=200_000,
            hotspots=16,
            zipf_s=1.2,
            offered_qps=11.0,
            warmup_requests=80,
        ),
        # Cache writes beside reads: populate, eviction, roll-up and
        # scan_blocks run on most requests.
        Workload(
            name="scan-churn",
            backend="sim",
            records=200_000,
            nodes=4,
            max_cells=400,
            hotspots=64,
            zipf_s=0.8,
            offered_qps=10.0,
            warmup_requests=80,
        ),
        # Explore-hot's gestures over 2 node processes: the only workload
        # running the codec, framing, asyncio links and the quiesce barrier.
        Workload(
            name="explore-socket",
            backend="socket",
            records=60_000,
            nodes=2,
            max_cells=200_000,
            hotspots=16,
            zipf_s=1.2,
            offered_qps=6.0,
            warmup_requests=80,
        ),
    )
}


def get(name: str, tiny: bool = False) -> Workload:
    workload = WORKLOADS[name]
    return workload.tiny() if tiny else workload


@dataclass
class Plan:
    """One run's requests, as request bodies plus open-loop offsets."""

    warmup: list[bytes]
    open_loop: list[bytes]
    #: Seconds after the open-loop start each open-loop request is due.
    offsets: np.ndarray
    saturation: list[bytes]


def body_of(query) -> bytes:
    return json.dumps(query_to_dict(query), separators=(",", ":")).encode()


def make_plan(
    workload: Workload, seed: int, open_seconds: float, saturation_cap: int
) -> Plan:
    """Deterministic request plan for one run (same seed, same bodies)."""
    n_open = max(1, int(round(workload.offered_qps * open_seconds)))
    # Enough users that the timed stretch is a few percent of the stream
    # (stationary) and the warm-up population is disjoint from it.
    users = max(
        600, 6 * (n_open + saturation_cap + workload.warmup_requests) // SESSION_LENGTH
    )
    spec = ScaleWorkloadSpec(
        num_users=users,
        session_length=SESSION_LENGTH,
        num_hotspots=workload.hotspots,
        zipf_s=workload.zipf_s,
        seed=LAYOUT_SEED,
    )
    table = SessionTable.synthesize(spec)
    stream = open_loop_arrivals(table, workload.offered_qps, seed=seed)
    first = (len(stream) - n_open) // 2
    timed = slice(first - saturation_cap, first + n_open)
    times = stream.times[first : first + n_open]
    span = float(times[-1] - times[0]) if n_open > 1 else 1.0
    offsets = (times - times[0]) * ((n_open / workload.offered_qps) / span)

    def bodies(index_range) -> list[bytes]:
        return [
            body_of(table.query(int(stream.users[i]), int(stream.steps[i])))
            for i in index_range
        ]

    timed_users = set(stream.users[timed].tolist())
    warm_indices = [
        i for i in range(timed.start) if int(stream.users[i]) not in timed_users
    ][: workload.warmup_requests]
    return Plan(
        warmup=bodies(warm_indices),
        open_loop=bodies(range(first, first + n_open)),
        offsets=offsets,
        saturation=bodies(range(timed.start, first)),
    )
