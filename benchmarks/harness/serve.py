"""Server launcher for the wire workloads.

``python -m repro.server`` hard-codes a 512-page buffer and its own port;
this launcher opens the data set with the workload's buffer, binds a free
port, prints ``ready <port>`` and serves until its stdin closes.  It then
shuts down, checkpoints, and prints one JSON line with what only this
process can know: its peak memory and the log it wrote.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys

WORKERS = 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("database")
    parser.add_argument("--buffer-pages", type=int, required=True)
    args = parser.parse_args(argv)

    from repro.database import Database
    from repro.server import AsyncDatabaseServer

    db = Database(args.database, buffer_capacity=args.buffer_pages)
    server = AsyncDatabaseServer(db, port=0, workers=WORKERS)
    server.serve_background()
    print(f"ready {server.address[1]}", flush=True)
    try:
        sys.stdin.read()  # the harness closes our stdin to stop us
    finally:
        server.shutdown()
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        wal = db.wal.stats()
        db.close()
    print(json.dumps({"peak_rss_kb": peak_kb, "wal": wal}), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
