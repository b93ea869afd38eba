"""The benchmark's database server process.

Started by a workload process with::

    python3 perfbench/serve.py --profile umbra [--wal-path PATH]

It serves a fresh engine on an ephemeral loopback port, prints
``READY <port>`` and then obeys one command per line on stdin:

``trace <path>``  install the layer wrappers; at shutdown the spans are
                  written to *path* (traced runs only: untraced runs never
                  import the tracing code);
``untrace``       remove them again (``trace`` may follow once more);
``speed``         time the calibration kernel here and print ``SPEED <s>``;
``shutdown``      stop the server and print ``DONE <json>`` with the
                  measured shutdown time, peak RSS, threads still alive
                  and the plan-cache counters, then exit.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time

from measure import kernel_s, median, peak_rss_mb
from repro.sqldb.engine import Database
from repro.sqldb.server import DatabaseServer


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--profile", required=True, choices=("postgres", "umbra"))
    parser.add_argument("--wal-path", default=None)
    args = parser.parse_args()

    database = Database(args.profile, wal_path=args.wal_path, wal_sync="commit")
    server = DatabaseServer(database).start()
    print(f"READY {server.port}", flush=True)

    tracer = trace_path = traced_from = None
    # plan-cache counters over the traced windows (the whole run otherwise)
    traced_cache = {"hits": 0, "misses": 0}
    for line in sys.stdin:
        command, _, argument = line.strip().partition(" ")
        if command == "trace":
            from layers import install
            from tracer import Tracer

            if tracer is None:
                tracer, trace_path = Tracer(), argument
            install(tracer, client=False, engine=True, server=True)
            traced_from = dict(database.plan_cache.stats)
            print("TRACING", flush=True)
        elif command == "untrace":
            tracer.uninstall()
            for key in traced_cache:
                traced_cache[key] += database.plan_cache.stats[key] - traced_from[key]
            print("UNTRACED", flush=True)
        elif command == "speed":
            print(f"SPEED {median([kernel_s() for _ in range(3)])}", flush=True)
        elif command == "shutdown":
            break
        else:
            raise SystemExit(f"serve.py: unknown command {command!r}")

    started = time.perf_counter()
    server.shutdown()
    shutdown_s = time.perf_counter() - started
    alive = [
        t.name for t in threading.enumerate() if t is not threading.main_thread()
    ]
    stats = traced_cache if tracer is not None else database.plan_cache.stats
    database.close()
    report = {
        "shutdown_s": shutdown_s,
        "peak_rss_mb": peak_rss_mb(),
        "threads_after_shutdown": len(alive),
        "plan_cache_hits": stats["hits"],
        "plan_cache_misses": stats["misses"],
    }
    if tracer is not None:
        tracer.dump(trace_path)
    print("DONE " + json.dumps(report), flush=True)


if __name__ == "__main__":
    main()
