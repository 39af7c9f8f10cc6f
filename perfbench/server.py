"""The served program for one benchmark run: the HTTP facade over a backend.

Builds the workload's backend (a simulated cluster, or a ServeCluster of
node processes behind a SocketBackend), binds
:class:`~repro.serve.http.StashHttpServer` on an OS-assigned loopback
port, prints ``READY <host> <port>`` and serves until its standard input
closes.  With ``--trace-dir`` it first installs the layer wrappers of
:mod:`layers` (in the node processes too) and writes its spans there on
exit.

    python3 perfbench/server.py --workload explore-hot [--tiny] [--trace-dir DIR]
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--trace-dir", default=None)
    args = parser.parse_args()

    import layers
    import workloads

    if args.trace_dir:
        layers.install(args.trace_dir)

    from repro.core.cluster import StashCluster
    from repro.data.generator import SyntheticNAMGenerator
    from repro.serve.cluster import ServeCluster
    from repro.serve.http import SimBackend, SocketBackend, StashHttpServer

    workload = workloads.get(args.workload, tiny=args.tiny)
    config = workload.config()
    launcher = None
    backend = None
    server = None
    try:
        if workload.backend == "socket":
            launcher = ServeCluster(workload.dataset(), config)
            addresses = launcher.start()
            launcher.broadcast_peers(addresses)
            backend = SocketBackend(launcher.node_ids, addresses, config)
        else:
            batch = SyntheticNAMGenerator(workload.dataset()).generate()
            backend = SimBackend(StashCluster(batch, config))
        server = StashHttpServer(backend, config).start()
        host, port = server.address
        print(f"READY {host} {port}", flush=True)
        sys.stdin.read()  # serve until the benchmark closes our stdin
    finally:
        if server is not None:
            server.stop()
        if backend is not None:
            backend.close()
        if launcher is not None:
            launcher.stop()
        if args.trace_dir:
            layers.dump()
    return 0


if __name__ == "__main__":
    sys.exit(main())
