"""In-process socket cluster shared by the serve test suites.

Every node runs in the test process on its own
:class:`~repro.transport.asyncio_net.AsyncioTransport`, wired through
127.0.0.1: the full wire path (framing, codec, controller) without
multiprocessing overhead.
"""

from repro.serve.server import NodeSpec, build_node
from repro.system import CLIENT_ID
from repro.transport.asyncio_net import AsyncioTransport


async def start_nodes(node_ids, spec, config):
    """Start and peer every node; returns (transports, nodes, addresses)."""
    transports, nodes, addresses = {}, {}, {}
    for index, node_id in enumerate(node_ids):
        transport = AsyncioTransport(node_id, time_scale=config.serve.time_scale)
        addresses[node_id] = await transport.start()
        nodes[node_id] = build_node(
            NodeSpec(
                node_index=index, node_ids=node_ids, dataset=spec, config=config
            ),
            transport,
        )
        nodes[node_id].start()
        transports[node_id] = transport
    for transport in transports.values():
        transport.network.set_peers(addresses)
    return transports, nodes, addresses


async def start_client(addresses, config):
    """The driver-side transport that dials the nodes."""
    client = AsyncioTransport(CLIENT_ID, time_scale=config.serve.time_scale)
    await client.start()
    client.network.register(CLIENT_ID)
    client.network.set_peers(addresses)
    return client
