"""The serve quiesce barrier: counter-based termination detection.

``_quiesce`` may return only when every node is idle *and* every wire
``msg`` frame that was sent has been received.  The second half is what
makes it safe without a grace period: a one-way ``populate`` frame still
in TCP flight between two nodes leaves both ends looking idle.
"""

import asyncio

from repro.config import ClusterConfig, ServeConfig, StashConfig
from repro.core.cluster import StashCluster
from repro.data.generator import DatasetSpec, SyntheticNAMGenerator
from repro.geo.bbox import BoundingBox
from repro.geo.resolution import Resolution
from repro.geo.temporal import TemporalResolution, TimeKey
from repro.query.model import AggregationQuery
from repro.serve.driver import _quiesce, _rpc
from repro.system import CLIENT_ID

from tests.serve._cluster import start_client, start_nodes

SPEC = DatasetSpec(num_records=3_000, start_day=(2013, 2, 1), num_days=1, seed=5)
CONFIG = StashConfig(
    cluster=ClusterConfig(num_nodes=2), serve=ServeConfig(time_scale=0.02)
)
NODE_IDS = ("node-0", "node-1")
QUERY = AggregationQuery(
    bbox=BoundingBox(30.0, 45.0, -110.0, -90.0),
    time_range=TimeKey.of(2013, 2, 1).epoch_range(),
    resolution=Resolution(3, TemporalResolution.DAY),
)


class _HeldOutbox(asyncio.Queue):
    """A link outbox whose writer blocks until ``gate`` opens."""

    def __init__(self, gate: asyncio.Event):
        super().__init__()
        self.gate = gate

    async def get(self):
        await self.gate.wait()
        return await super().get()


async def _with_cluster(body):
    transports, nodes, addresses = await start_nodes(NODE_IDS, SPEC, CONFIG)
    client = await start_client(addresses, CONFIG)
    try:
        return await body(client, transports, nodes)
    finally:
        await client.aclose()
        for transport in transports.values():
            await transport.aclose()


def test_barrier_waits_for_a_frame_in_flight():
    """A held node->node ``populate`` frame keeps the barrier closed.

    Mutation check: deleting ``sent != received`` from ``_quiesce``'s
    clean-wave test makes this test fail, because both nodes are idle
    and the counter totals are stable while the frame is held.
    """

    async def body(client, transports, nodes):
        await _quiesce(client, NODE_IDS, timeout=30)
        sender = transports["node-0"].network
        gate = asyncio.Event()
        link = sender._link_for("node-1")
        link.outbox = _HeldOutbox(gate)
        before = nodes["node-1"].counters.get("handled:populate")
        sender.send("node-0", "node-1", "populate", {"cells": {}}, size=0)

        barrier = asyncio.ensure_future(_quiesce(client, NODE_IDS, timeout=30))
        await asyncio.sleep(0.3)
        held = barrier.done()
        landed_early = nodes["node-1"].counters.get("handled:populate") - before
        gate.set()
        await asyncio.wait_for(barrier, timeout=10)
        landed = nodes["node-1"].counters.get("handled:populate") - before
        return held, landed_early, landed

    held, landed_early, landed = asyncio.run(_with_cluster(body))
    assert landed_early == 0, "the held frame reached node-1 early"
    assert not held, "_quiesce returned while a populate frame was in flight"
    assert landed == 1, "_quiesce returned before the frame was handled"


def test_stats_counters_balance_on_an_idle_cluster():
    async def body(client, transports, nodes):
        payload = {"query": QUERY, "ctx": None}
        reply = await _rpc(client, "node-0", "evaluate", payload, 512, 30)
        await _quiesce(client, NODE_IDS, timeout=30)
        stats = await asyncio.gather(
            *(_rpc(client, node_id, "stats", {}, 16, 30) for node_id in NODE_IDS)
        )
        return reply, stats, client.network

    reply, stats, client = asyncio.run(_with_cluster(body))
    assert reply["cells"]
    for node_id, snapshot in zip(NODE_IDS, stats):
        assert snapshot["node"] == node_id
        assert snapshot["pending"] == snapshot["service_queue"] == 0
        assert snapshot["inflight"] == 0
        assert snapshot["received"] > 0
    # The query fanned out node->node, so nodes sent frames of their own.
    assert sum(s["sent"] for s in stats) > 0
    assert client.msg_frames_sent + sum(s["sent"] for s in stats) == (
        client.msg_frames_received + sum(s["received"] for s in stats)
    )


def test_sim_fabric_reports_zero_wire_frames():
    cluster = StashCluster(SyntheticNAMGenerator(SPEC).generate(), CONFIG)
    cluster.run_query(QUERY)
    cluster.drain()
    stats = cluster.sim.run(
        until=cluster.network.request(CLIENT_ID, "node-0", "stats", {}, size=16)
    )
    assert stats["sent"] == stats["received"] == 0
