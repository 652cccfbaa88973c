"""Serve demo: the HTTP/JSON service layer, end to end, in one process.

Boots the :mod:`repro.server` WSGI app on an OS-assigned port (on a
daemon thread), then plays a full client against it over one persistent
``http.client`` connection:

1. create a second named cluster over the wire (``POST /clusters``),
2. run single operations and a concurrent batch, watching the handle
   statuses and HTTP codes of the error taxonomy,
3. crash a host, repair it, and read the congestion aggregates the
   dashboard polls from ``/dashboard/stats``,
4. finish with a small seeded hammer run — twice — to show the
   byte-identity property the CI serve-gate enforces.

Run with:  python examples/serve_demo.py
(after ``pip install -e .``, or with ``PYTHONPATH=src`` from the repo root)
"""

import json

from repro.server import JsonClient, create_app, run_hammer, serve_background
from repro.workloads import uniform_keys

ITEMS = 96
SEED = 7


def main():
    app = create_app(
        initial=[
            {
                "name": "default",
                "structure": "skipweb1d",
                "generate": {"kind": "uniform", "count": ITEMS},
                "seed": SEED,
            }
        ]
    )
    server, _thread = serve_background(app, "127.0.0.1", 0)
    url = f"http://127.0.0.1:{server.server_address[1]}"
    print(f"serving on {url} (dashboard at {url}/)")
    client = JsonClient(url)

    try:
        # -- a second cluster over the wire ----------------------------- #
        code, body = client.request(
            "POST",
            "/clusters",
            {
                "name": "names",
                "structure": "skiptrie",
                "items": ["ada", "alan", "edsger", "grace", "tony"],
                "seed": 1,
            },
        )
        print(
            f"\nPOST /clusters -> {code}: cluster {body['name']!r} "
            f"({body['structure']}, {body['items_loaded']} items)"
        )

        # -- single operations and the error taxonomy ------------------- #
        keys = uniform_keys(ITEMS, seed=SEED)
        code, body = client.request("POST", "/ops/get", {"payload": keys[5]})
        print(
            f"GET known key      -> HTTP {code}, status {body['status']!r}, "
            f"{body['messages']} messages over {body['rounds']} rounds"
        )
        code, body = client.request(
            "POST", "/ops/range", {"cluster": "names", "payload": {"prefix": "a"}}
        )
        print(f"prefix range       -> HTTP {code}, status {body['status']!r}")
        code, body = client.request("POST", "/ops/delete", {"payload": -1.0})
        print(
            f"delete missing key -> HTTP {code}, status {body['status']!r}, "
            f"typed error {body['error']!r}"
        )

        # -- one concurrent batch --------------------------------------- #
        operations = [{"kind": "get", "payload": key} for key in keys[:10]]
        operations.append({"kind": "range", "payload": [keys[0], keys[0] + 5e4]})
        code, body = client.request("POST", "/batch", {"operations": operations})
        summary = body["summary"]
        print(
            f"\nPOST /batch ({len(operations)} ops) -> "
            f"{summary['completed']} ok in {summary['rounds']} rounds, "
            f"{summary['messages']} messages"
        )

        # -- churn lifecycle + dashboard aggregates --------------------- #
        code, event = client.request("POST", "/churn/crash", {})
        print(
            f"\ncrash host {event['host']} -> {event['repair_messages']} "
            f"repair messages, {event['pointers_rewired']} pointers rewired"
        )
        code, stats = client.request("GET", "/dashboard/stats?cluster=default")
        print(f"(all of the above over {client.opened} connection)")
        row = stats["clusters"][0]
        print(
            "dashboard stats    ->",
            json.dumps(
                {
                    "ops": row["ops"]["total"],
                    "by_status": row["ops"]["by_status"],
                    "congestion": row["congestion"],
                    "repair": row["repair"],
                },
                indent=2,
            ),
        )

        # -- the determinism gate, in miniature ------------------------- #
        print("\nhammer x2 (3 sessions x 8 ops, seed 5):")
        reports = [
            run_hammer(
                url, cluster="default", sessions=3, ops=8, seed=5, items=ITEMS, key_seed=SEED
            )
            for _ in range(2)
        ]
        for index, report in enumerate(reports):
            print(
                f"  run {index + 1}: {report.requests} requests, "
                f"{report.requests_per_sec:.0f} req/s, "
                f"digest {report.digest[:16]}"
            )
        identical = reports[0].deterministic_report() == reports[1].deterministic_report()
        print(f"  deterministic reports identical: {identical}")
        if not identical:
            raise SystemExit("hammer runs diverged — determinism bug")
    finally:
        client.close()
        server.shutdown()
        server.server_close()
        app.manager.close()
    print("\nserver stopped cleanly")


if __name__ == "__main__":
    main()
