"""Standalone entry points::

    python -m repro.service --port 7411                # paper DB
    python -m repro.service --port 7411 --empty        # fresh session
    python -m repro.service --port 7411 --backend d/   # durable (WAL)
    python -m repro.service --connect HOST:PORT        # remote REPL
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def main(argv: Optional[List[str]] = None) -> None:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Serve a deductive session over JSON-lines/HTTP.")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7411)
    parser.add_argument("--connect", metavar="HOST:PORT",
                        help="connect a remote REPL instead of serving")
    parser.add_argument("--empty", action="store_true",
                        help="serve a fresh, schema-less session")
    parser.add_argument("--session", metavar="PATH",
                        help="serve a saved session file")
    parser.add_argument("--backend", metavar="PATH",
                        help="durable WAL-backed storage directory "
                             "(recovered when it holds state)")
    parser.add_argument("--max-concurrency", type=int, default=8)
    parser.add_argument("--cache-bytes", type=int, default=0)
    parser.add_argument("--data-dir", metavar="DIR",
                        help="directory for session save/restore ops")
    parser.add_argument("--trace", action="store_true",
                        help="install the tracer (per-request trace ids)")
    args = parser.parse_args(argv)

    if args.connect:
        from repro.service.client import client_repl
        host, _, port = args.connect.rpartition(":")
        client_repl(host or "127.0.0.1", int(port))
        return

    from repro.service.config import ServiceConfig
    from repro.service.server import QueryService

    config = ServiceConfig(
        host=args.host, port=args.port,
        max_concurrency=args.max_concurrency,
        cache_bytes=args.cache_bytes,
        backend_path=args.backend, data_dir=args.data_dir,
        trace=args.trace)

    # A backend that already holds state recovers its own session
    # inside QueryService (engine=None); the flags below only seed a
    # fresh serve.
    engine = None
    if args.session:
        from repro.storage import load_session
        engine = load_session(args.session)
    elif not args.empty and args.backend is None:
        from repro.rules.engine import RuleEngine
        from repro.university import build_paper_database, build_sdb
        data = build_paper_database()
        engine = RuleEngine(data.db)
        engine.universe.register(build_sdb(data))

    service = QueryService(engine, config)
    host, port = service.start()
    print(f"serving on {host}:{port} "
          f"(max_concurrency={config.max_concurrency})")
    try:
        service._thread.join()
    except KeyboardInterrupt:
        print("\nstopping")
        service.stop()


if __name__ == "__main__":  # pragma: no cover
    main(sys.argv[1:])
