#!/usr/bin/env python3
"""Query the sizing service: sync, async, events, listing, cache replay.

Self-contained: starts a :class:`repro.service.SizingService` on a
free port in this process (the same engine ``python -m repro serve``
runs), then walks the whole v1 API through the stdlib client session —
discovery, a synchronous sizing request, a repeated request served
from the content-addressed cache, an async job followed through its
server-sent events stream, the paginated job listing, and an inline
``.bench`` netlist that never touched disk on the client side.

Run:  python examples/query_service.py
      (tiny circuits only — a few seconds end to end)
"""

import tempfile
import threading

from repro.service import ServiceClient, SizingService, make_server

INLINE_BENCH = """\
# a 2-gate netlist posted as text, no file needed
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(y)
n1 = NAND(a, b)
y = NAND(n1, c)
"""


def main() -> None:
    scratch = tempfile.mkdtemp(prefix="repro-service-demo-")
    service = SizingService(jobs=1, cache=f"{scratch}/cache",
                            run_dir=f"{scratch}/run")
    server = make_server(service, quiet=True)  # port=0: pick a free port
    host, port = server.server_address[:2]
    threading.Thread(target=server.serve_forever, daemon=True).start()

    with ServiceClient(f"http://{host}:{port}", client_id="demo") as client:
        print(f"service up at http://{host}:{port}")
        health = client.healthz()
        print(f"health: {health['status']} ({health['workers']} worker)")
        suite = client.circuits()["circuits"]
        backends = [b["name"] for b in client.backends()["backends"]]
        print(f"discovery: {len(suite)} suite circuits, backends {backends}")

        reply = client.size(circuit="c17", delay_spec=0.6)
        result = reply["payload"]["result"]
        print(f"sync: {reply['status']} area {result['area']:.2f} "
              f"in {reply['wall_seconds']:.2f}s (cached: {reply['cached']})")

        again = client.size(circuit="c17", delay_spec=0.6)
        assert again["cached"] and again["payload"] == reply["payload"]
        print(f"repeat: cache hit, byte-identical payload "
              f"(key {reply['key'][:12]}…)")

        ticket = client.submit(circuit="c17", delay_spec=0.8)
        seen = [event["status"] for event in client.events(ticket["id"])]
        done = client.job(ticket["id"])
        print(f"async: job {ticket['id']} events {seen} -> {done['status']} "
              f"area {done['summary']['area']:.2f}")

        inline = client.size(bench=INLINE_BENCH, delay_spec=0.7)
        print(f"inline bench: {inline['status']} "
              f"area {inline['summary']['area']:.2f}")

        page = client.jobs(status="ok", limit=2)
        listed = [job["id"] for job in page["jobs"]]
        print(f"listing: first ok page {listed}, "
              f"cursor {page['next_after']}, counts {page['counts']}")

        stats = client.stats()
        print(f"stats: jobs {stats['jobs']}, "
              f"cache hits {stats['cache_hits']}, "
              f"executed {stats['executed']}")

    server.shutdown()
    server.server_close()
    service.close()
    print("service stopped")


if __name__ == "__main__":
    main()
