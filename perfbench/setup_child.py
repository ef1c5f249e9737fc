"""One set-up measurement: a fresh interpreter builds a workload's cluster.

    python setup_child.py <workload> <storage-dir>

Prints ``ready`` once the cluster can ingest (and, on a serving
workload, once its HTTP server has answered ``/healthz`` with 200),
then tears everything down and exits.  ``phases.setup_task`` times it
from spawn to that line.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import http.client  # noqa: E402

from repro.cluster import ClusterReader, ClusterSimulation  # noqa: E402
from repro.cluster.httpd import ClusterHTTPServer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(name: str, storage_dir: str) -> None:
    workload = WORKLOADS[name]
    with ClusterSimulation(workload.cluster_config(storage_dir)) as sim:
        if workload.main != "serve":
            print("ready", flush=True)
            return
        with ClusterHTTPServer(ClusterReader.from_simulation(sim)) as server:
            conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
            try:
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                response.read()
            finally:
                conn.close()
            if response.status != 200:
                raise SystemExit(f"/healthz answered {response.status}")
            print("ready", flush=True)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
