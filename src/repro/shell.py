"""An interactive shell for the deductive object-oriented database.

Run::

    python -m repro.shell                  # the paper's University DB
    python -m repro.shell --empty          # a fresh, schema-less session
    python -m repro.shell --session f.json # reopen a saved session
    python -m repro.shell --backend d/     # durable: recover d/, or seed
                                           # it and journal every update
    python -m repro.shell --connect H:P    # remote REPL to a service

Anything starting with ``context`` runs as an OQL query; anything
starting with ``if`` is added as a deductive rule.  Meta-commands start
with a backslash::

    \\help                 this text
    \\schema               render the S-diagram
    \\class NAME           one class: attributes, associations, hierarchy
    \\subdbs               materialized derived subdatabases
    \\subdb NAME           describe one subdatabase (derives on demand)
    \\rules                the rule base
    \\explain QUERY        the backward-chaining plan for a query
    \\metrics              instrumentation of the last query
    \\budget [SPEC]        show or set the query budget; SPEC is
                          space-separated limits (deadline_ms=100
                          max_rows=10000 max_loop_levels=8), or "off"
    \\trace [ARG]          query tracing; ARG is "on", "off", "show"
                          (pretty tree of the last trace), or
                          "save PATH" (Chrome trace JSON); bare
                          \\trace reports the current state
    \\cache [ARG]          cross-query result cache; ARG is "on",
                          "off", "stats" (entries, bytes, hit/miss
                          counters), or "clear"; bare \\cache reports
                          the current state
    \\index [ARG]          secondary value indexes over base-class
                          attributes; ARG is "add CLS ATTR" (declare —
                          equality and range conditions on that
                          attribute then probe the index instead of
                          scanning), "drop CLS ATTR", or "stats"
                          (per-index row/distinct/type counts); bare
                          \\index lists declarations
    \\why TARGET l1 l2 ..  justify a derived pattern (OID labels)
    \\stats                engine statistics
    \\save PATH            persist the session as JSON
    \\wal [ARG]            durable WAL-backed storage; ARG is
                          "open PATH" (attach a backend and journal
                          every update from now on),
                          "sync" (force the fsync barrier),
                          "compact" (drop history before the newest
                          checkpoint), or bare \\wal for status
    \\checkpoint           snapshot the session into the backend
                          (watermarks the WAL replay prefix)
    \\restore SEQ          rewind the session to WAL offset SEQ
                          (point-in-time restore; bare \\restore
                          recovers the newest durable state)
    \\serve [ARG]          serve this session over a socket; ARG is
                          "start [HOST:]PORT [limit=N]" (JSON-lines +
                          HTTP on a background thread; limit caps
                          concurrent requests), "stop", or bare
                          \\serve for status.  Connect with
                          ``python -m repro.shell --connect HOST:PORT``
    \\subscribe QUERY      watch a query live: prints the initial
                          result, then +/- row deltas after every
                          relevant update (unrelated-class writes
                          never wake it); bare \\subscribe lists the
                          active subscriptions
    \\unsubscribe ID       cancel a live subscription
    \\quit                 leave

A trailing backslash continues the statement on the next line.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, List, Optional, TextIO

from repro import obs
from repro.errors import ReproError
from repro.model.dictionary import Dictionary
from repro.rules.engine import RuleEngine


class Shell:
    """The command interpreter, decoupled from stdin for testability."""

    PROMPT = "dood> "
    CONTINUATION = "....> "

    def __init__(self, engine: RuleEngine, out: Optional[TextIO] = None):
        self.engine = engine
        self.out = out or sys.stdout
        self._buffer: List[str] = []
        self._last_metrics = None
        self._budget = None
        self._commands = {
            "help": self._cmd_help,
            "schema": self._cmd_schema,
            "class": self._cmd_class,
            "subdbs": self._cmd_subdbs,
            "subdb": self._cmd_subdb,
            "rules": self._cmd_rules,
            "explain": self._cmd_explain,
            "metrics": self._cmd_metrics,
            "budget": self._cmd_budget,
            "trace": self._cmd_trace,
            "cache": self._cmd_cache,
            "index": self._cmd_index,
            "why": self._cmd_why,
            "stats": self._cmd_stats,
            "save": self._cmd_save,
            "wal": self._cmd_wal,
            "checkpoint": self._cmd_checkpoint,
            "restore": self._cmd_restore,
            "serve": self._cmd_serve,
            "subscribe": self._cmd_subscribe,
            "unsubscribe": self._cmd_unsubscribe,
            "quit": self._cmd_quit,
            "exit": self._cmd_quit,
        }
        self._service = None
        self._sub_manager = None

    # ------------------------------------------------------------------

    def _print(self, text: str = "") -> None:
        print(text, file=self.out)

    def handle(self, line: str) -> bool:
        """Process one input line; returns False when the session ends."""
        if line.rstrip().endswith("\\"):
            self._buffer.append(line.rstrip()[:-1])
            return True
        if self._buffer:
            self._buffer.append(line)
            line = " ".join(self._buffer)
            self._buffer = []
        stripped = line.strip()
        if not stripped:
            return True
        try:
            if stripped.startswith("\\"):
                alive = self._meta(stripped[1:])
                if alive:
                    self._drain_subscriptions()
                return alive
            lowered = stripped.lower()
            if lowered.startswith("if"):
                rule = self.engine.add_rule(stripped)
                self._print(f"rule added: derives {rule.target!r}")
            elif lowered.startswith("context"):
                from repro.oql.budget import BudgetExceeded
                try:
                    result = self.engine.query(stripped,
                                               budget=self._budget)
                except BudgetExceeded as exc:
                    # Keep the partial metrics inspectable (\metrics
                    # shows the verdict and how far the query got).
                    self._last_metrics = exc.metrics
                    if exc.trace_id is not None:
                        self._print(f"partial trace {exc.trace_id} "
                                    f"recorded — \\trace show")
                    raise
                self._last_metrics = result.metrics
                self._print(result.render())
            else:
                self._print("unrecognized input — queries start with "
                            "'context', rules with 'if', commands with "
                            "'\\' (try \\help)")
        except ReproError as exc:
            self._print(f"error: {exc}")
        self._drain_subscriptions()
        return True

    @property
    def pending(self) -> bool:
        """True while a continued (backslash) statement is buffered."""
        return bool(self._buffer)

    # ------------------------------------------------------------------
    # Meta-commands
    # ------------------------------------------------------------------

    def _meta(self, text: str) -> bool:
        name, _, argument = text.partition(" ")
        command = self._commands.get(name.lower())
        if command is None:
            self._print(f"unknown command \\{name} (try \\help)")
            return True
        return command(argument.strip())

    def _cmd_help(self, _: str) -> bool:
        self._print(__doc__.strip())
        return True

    def _cmd_schema(self, _: str) -> bool:
        self._print(Dictionary(self.engine.db.schema).render_sdiagram())
        return True

    def _cmd_class(self, name: str) -> bool:
        if not name:
            self._print("usage: \\class NAME")
            return True
        info = Dictionary(self.engine.db.schema).class_info(name)
        self._print(f"class {info['name']}  "
                    f"({len(self.engine.db.extent(name))} instances)")
        if info["superclasses"]:
            self._print(f"  superclasses: "
                        f"{', '.join(info['superclasses'])}")
        if info["subclasses"]:
            self._print(f"  subclasses: {', '.join(info['subclasses'])}")
        for attr, domain in info["attributes"].items():
            self._print(f"  attribute {attr}: {domain}")
        for assoc in info["associations"]:
            self._print(f"  {assoc}")
        return True

    def _cmd_subdbs(self, _: str) -> bool:
        names = self.engine.universe.subdb_names
        if not names:
            self._print("(no materialized subdatabases)")
        for name in names:
            subdb = self.engine.universe.get_subdb(name)
            self._print(f"{name}: classes "
                        f"{', '.join(subdb.slot_names)} — "
                        f"{len(subdb)} patterns")
        return True

    def _cmd_subdb(self, name: str) -> bool:
        if not name:
            self._print("usage: \\subdb NAME")
            return True
        self._print(self.engine.universe.get_subdb(name).describe())
        return True

    def _cmd_rules(self, _: str) -> bool:
        if not self.engine.rules:
            self._print("(no rules)")
        for rule in self.engine.rules:
            label = f"[{rule.label}] " if rule.label else ""
            self._print(f"{label}{rule}")
            self._print("")
        for name in self.engine.target_names:
            self._print(f"{name} reads "
                        f"{self.engine.footprint(name).describe()}")
        return True

    def _cmd_explain(self, query: str) -> bool:
        if not query:
            self._print("usage: \\explain context ...")
            return True
        self._print(self.engine.explain(query).render())
        return True

    def _cmd_metrics(self, _: str) -> bool:
        if self._last_metrics is None:
            self._print("(no query has run yet)")
            return True
        for key, value in self._last_metrics.snapshot().items():
            self._print(f"{key}: {value}")
        described = self._last_metrics.describe_plans()
        if described:
            self._print(described)
        return True

    def _cmd_budget(self, spec: str) -> bool:
        from repro.oql.budget import QueryBudget
        if not spec:
            self._print(repr(self._budget) if self._budget is not None
                        else "(no budget set)")
            return True
        if spec.lower() in ("off", "none"):
            self._budget = None
            self._print("budget cleared")
            return True
        limits = {}
        for part in spec.split():
            key, eq, value = part.partition("=")
            if not eq or key not in ("deadline_ms", "max_rows",
                                     "max_loop_levels"):
                self._print("usage: \\budget [deadline_ms=N] [max_rows=N] "
                            "[max_loop_levels=N] | off")
                return True
            try:
                limits[key] = float(value) if key == "deadline_ms" \
                    else int(value)
            except ValueError:
                self._print(f"invalid number in {part!r}")
                return True
        self._budget = QueryBudget(**limits)
        self._print(f"budget set: {self._budget!r}")
        return True

    def _cmd_trace(self, argument: str) -> bool:
        word, _, rest = argument.partition(" ")
        word = word.lower()
        if not word:
            if obs.TRACER is None:
                self._print("tracing is off")
            else:
                count = len(obs.TRACER.recorder)
                self._print(f"tracing is on — {count} trace(s) recorded")
            return True
        if word == "on":
            if obs.TRACER is None:
                obs.install()
                self._print("tracing on")
            else:
                self._print("tracing already on")
            return True
        if word == "off":
            if obs.TRACER is None:
                self._print("tracing already off")
            else:
                obs.uninstall()
                self._print("tracing off")
            return True
        if word == "show":
            root = obs.last_trace()
            if root is None:
                self._print("(no trace recorded — \\trace on, then "
                            "run a query)")
            else:
                self._print(obs.render_tree(root))
            return True
        if word == "save":
            path = rest.strip()
            if not path:
                self._print("usage: \\trace save PATH")
                return True
            if obs.TRACER is None or not len(obs.TRACER.recorder):
                self._print("(no traces to save)")
                return True
            saved = obs.save_chrome_trace(path, obs.TRACER.recorder
                                          .traces())
            self._print(f"chrome trace saved to {saved} "
                        f"(open via chrome://tracing)")
            return True
        self._print("usage: \\trace [on|off|show|save PATH]")
        return True

    def _caches(self):
        """The engine's result caches: the query processor's, plus the
        derivation evaluator's when distinct (they are toggled
        together so queries and backward chaining agree)."""
        caches = [self.engine.processor.evaluator.result_cache]
        derivation = self.engine.evaluator.result_cache
        if derivation is not caches[0]:
            caches.append(derivation)
        return caches

    def _cmd_cache(self, argument: str) -> bool:
        word = argument.strip().lower()
        caches = self._caches()
        query_cache = caches[0]
        if not word:
            if query_cache.enabled:
                self._print(f"cache is on — {len(query_cache)} "
                            f"entries, {query_cache.bytes_used} bytes "
                            f"of {query_cache.max_bytes}")
            else:
                self._print("cache is off")
            return True
        if word == "on":
            if query_cache.enabled:
                self._print("cache already on")
            else:
                for cache in caches:
                    cache.enabled = True
                self._print(f"cache on ({query_cache.max_bytes} bytes)")
            return True
        if word == "off":
            if not query_cache.enabled:
                self._print("cache already off")
            else:
                for cache in caches:
                    cache.enabled = False
                    cache.clear()
                self._print("cache off")
            return True
        if word == "stats":
            for key, value in query_cache.stats().items():
                self._print(f"{key}: {value}")
            if len(caches) > 1:
                self._print("derivation cache:")
                for key, value in caches[1].stats().items():
                    self._print(f"  {key}: {value}")
            return True
        if word == "clear":
            for cache in caches:
                cache.clear()
            self._print("cache cleared")
            return True
        self._print("usage: \\cache [on|off|stats|clear]")
        return True

    def _cmd_index(self, argument: str) -> bool:
        word, _, rest = argument.partition(" ")
        word = word.lower()
        universe = self.engine.universe
        if not word:
            declared = sorted(universe.compact.attrs.declared)
            if not declared:
                self._print("no value indexes declared — "
                            "\\index add CLS ATTR")
            for cls, attr in declared:
                built = universe.compact.attrs._indexes.get((cls, attr))
                state = f"built ({len(built.values)} rows)" \
                    if built is not None else "declared (builds on probe)"
                self._print(f"  {cls}.{attr}: {state}")
            return True
        if word in ("add", "drop"):
            parts = rest.split()
            if len(parts) != 2:
                self._print(f"usage: \\index {word} CLS ATTR")
                return True
            cls, attr = parts
            if word == "add":
                created = universe.declare_index(cls, attr)
                self._print(f"index on {cls}.{attr} "
                            + ("declared (builds on first probe)"
                               if created else "already declared"))
            else:
                dropped = universe.drop_index(cls, attr)
                self._print(f"index on {cls}.{attr} "
                            + ("dropped" if dropped else "not declared"))
            return True
        if word == "stats":
            stats = universe.index_stats()
            if not stats["indexes"]:
                self._print("(no value indexes declared)")
            for entry in stats["indexes"]:
                if not entry["built"]:
                    self._print(f"{entry['cls']}.{entry['attr']}: "
                                f"declared, not built yet")
                    continue
                others = ", ".join(f"{t}={c}" for t, c
                                   in entry["other_types"].items())
                self._print(
                    f"{entry['cls']}.{entry['attr']}: "
                    f"{entry['rows']} rows, "
                    f"distinct={entry['distinct']}, "
                    f"numeric={entry['numeric']}, "
                    f"none={entry['none']}"
                    + (f", other: {others}" if others else ""))
            self._print("store: " + ", ".join(
                f"{name}={count}" for name, count
                in stats["store"].items()))
            return True
        self._print("usage: \\index [add CLS ATTR | drop CLS ATTR | "
                    "stats]")
        return True

    def _cmd_why(self, argument: str) -> bool:
        parts = argument.split()
        if len(parts) < 2:
            self._print("usage: \\why TARGET label [label ...] "
                        "(use - for Null)")
            return True
        target = parts[0]
        pattern = tuple(None if p == "-" else p for p in parts[1:])
        self._print(self.engine.why(target, pattern).render())
        return True

    def _cmd_stats(self, _: str) -> bool:
        for key, value in self.engine.stats.snapshot().items():
            self._print(f"{key}: {value}")
        db_stats = self.engine.db.stats()
        self._print(f"objects: {db_stats['objects']}, "
                    f"links: {db_stats['links']}")
        return True

    def _cmd_save(self, path: str) -> bool:
        if not path:
            self._print("usage: \\save PATH")
            return True
        from repro.storage import save_session
        saved = save_session(self.engine, path)
        self._print(f"session saved to {saved}")
        return True

    # ------------------------------------------------------------------
    # Durable storage (WAL + JSON checkpoints)
    # ------------------------------------------------------------------

    @property
    def backend(self):
        """The attached storage backend, if any."""
        return getattr(self.engine, "storage_backend", None)

    def _cmd_wal(self, argument: str) -> bool:
        word, _, rest = argument.partition(" ")
        word = word.lower()
        if not word:
            if self.backend is None:
                self._print("no storage backend attached — "
                            "\\wal open PATH")
                return True
            for key, value in self.backend.status().items():
                self._print(f"{key}: {value}")
            return True
        if word == "open":
            parts = rest.split()
            if len(parts) != 1:
                self._print("usage: \\wal open PATH")
                return True
            if self.backend is not None:
                self._print("a backend is already attached "
                            f"({self.backend.root})")
                return True
            from repro.storage import open_backend
            path = parts[0]
            backend = open_backend(path)
            if backend.has_state():
                backend.close()
                self._print(f"storage at {path} already holds a "
                            f"session — reopen the shell with "
                            f"--backend {path} to recover it")
                return True
            report = backend.wal.report
            backend.attach(self.engine)
            self._print(f"{backend.kind} backend attached at "
                        f"{backend.root} (wal seq "
                        f"{backend.wal.last_seq}); every update is now "
                        f"journaled")
            if report.truncated_bytes:
                self._print(f"note: {report.truncated_bytes} torn "
                            f"trailing bytes were discarded on open")
            return True
        if word == "sync":
            if self.backend is None:
                self._print("no storage backend attached")
                return True
            self.backend.wal.sync()
            self._print(f"wal synced at seq {self.backend.wal.last_seq}")
            return True
        if word == "compact":
            if self.backend is None:
                self._print("no storage backend attached")
                return True
            info = self.backend.compact()
            self._print(f"compacted to checkpoint {info['checkpoint']}: "
                        f"{info['dropped_checkpoints']} old "
                        f"checkpoint(s) dropped, {info['wal_records']} "
                        f"wal record(s) kept")
            return True
        self._print("usage: \\wal [open PATH | sync | compact]")
        return True

    def _cmd_checkpoint(self, _: str) -> bool:
        if self.backend is None:
            self._print("no storage backend attached — "
                        "\\wal open PATH")
            return True
        seq = self.backend.checkpoint()
        self._print(f"checkpoint written at wal seq {seq}")
        return True

    def _cmd_restore(self, argument: str) -> bool:
        if self.backend is None:
            self._print("no storage backend attached — "
                        "\\wal open PATH")
            return True
        seq = None
        if argument:
            try:
                seq = int(argument)
            except ValueError:
                self._print("usage: \\restore [SEQ]")
                return True
        self._drop_subscriptions("engine restored")
        backend = self.backend
        restored = backend.restore_to(seq)
        backend.detach()
        backend.attach(restored)
        backend.checkpoint()  # the restored state becomes durable head
        self.engine = restored
        self._last_metrics = None
        stats = restored.db.stats()
        self._print(f"session restored to wal seq "
                    f"{seq if seq is not None else backend.wal.last_seq}"
                    f" — {stats['objects']} objects, "
                    f"{stats['links']} links, "
                    f"{len(restored.rules)} rule(s)")
        return True

    # ------------------------------------------------------------------
    # Serving (the asyncio query service)
    # ------------------------------------------------------------------

    def _cmd_serve(self, argument: str) -> bool:
        word, _, rest = argument.partition(" ")
        word = word.lower()
        if not word or word == "status":
            if self._service is None:
                self._print("not serving — \\serve start [HOST:]PORT")
            else:
                host, port = self._service.address
                counters = self._service.counters
                self._print(
                    f"serving on {host}:{port} — "
                    f"{counters['requests_total']} request(s), "
                    f"{counters['shed_total']} shed, "
                    f"{len(self._service._sessions)} live session(s)")
            return True
        if word == "start":
            if self._service is not None:
                host, port = self._service.address
                self._print(f"already serving on {host}:{port}")
                return True
            host, port, limit = "127.0.0.1", 7411, 8
            for part in rest.split():
                if part.startswith("limit="):
                    try:
                        limit = int(part[len("limit="):])
                    except ValueError:
                        self._print("usage: \\serve start [HOST:]PORT "
                                    "[limit=N]")
                        return True
                else:
                    addr, _, port_text = part.rpartition(":")
                    try:
                        port = int(port_text)
                    except ValueError:
                        self._print("usage: \\serve start [HOST:]PORT "
                                    "[limit=N]")
                        return True
                    if addr:
                        host = addr
            from repro.service import QueryService, ServiceConfig
            try:
                service = QueryService(
                    self.engine,
                    ServiceConfig(host=host, port=port,
                                  max_concurrency=limit))
                bound_host, bound_port = service.start()
            except (OSError, RuntimeError, ValueError) as exc:
                self._print(f"error: {exc}")
                return True
            self._service = service
            self._print(f"serving on {bound_host}:{bound_port} "
                        f"(max {limit} concurrent requests) — connect "
                        f"with python -m repro.shell --connect "
                        f"{bound_host}:{bound_port}")
            return True
        if word == "stop":
            if self._service is None:
                self._print("not serving")
                return True
            self._service.stop()
            self._service = None
            self._print("service stopped")
            return True
        self._print("usage: \\serve [start [HOST:]PORT [limit=N] | "
                    "stop | status]")
        return True

    # ------------------------------------------------------------------
    # Live subscriptions
    # ------------------------------------------------------------------

    def _cmd_subscribe(self, argument: str) -> bool:
        if not argument:
            if self._sub_manager is None \
                    or not self._sub_manager.subscriptions():
                self._print("no active subscriptions — "
                            "\\subscribe context ...")
                return True
            for sub in self._sub_manager.subscriptions():
                mode = "incremental" if sub.incremental else "scratch"
                self._print(f"  sub {sub.id} [{mode}] on "
                            f"{{{sub.footprint.describe()}}} "
                            f"— {len(sub.rows)} row(s), seq {sub.seq}: "
                            f"{sub.text}")
            return True
        if self._sub_manager is None:
            from repro.oql.subscribe import SubscriptionManager
            self._sub_manager = SubscriptionManager(self.engine)
        sub = self._sub_manager.subscribe(argument)
        initial = sub.poll()
        mode = "incremental" if sub.incremental else "scratch"
        self._print(f"subscribed as sub {sub.id} [{mode}] watching "
                    f"{{{sub.footprint.describe()}}} "
                    f"— {len(sub.rows)} initial row(s)")
        for frame in initial:
            if frame.kind != "snapshot":
                self._print(self._render_delta(sub.id, frame))
        return True

    def _cmd_unsubscribe(self, argument: str) -> bool:
        if not argument:
            self._print("usage: \\unsubscribe ID")
            return True
        try:
            sub_id = int(argument)
        except ValueError:
            self._print("usage: \\unsubscribe ID")
            return True
        if self._sub_manager is None \
                or not self._sub_manager.unsubscribe(sub_id):
            self._print(f"no subscription {sub_id}")
            return True
        self._print(f"unsubscribed sub {sub_id}")
        return True

    def _drain_subscriptions(self) -> None:
        """Print any deltas produced since the last handled line."""
        if self._sub_manager is None:
            return
        for sub in self._sub_manager.subscriptions():
            for frame in sub.poll():
                self._print(self._render_delta(sub.id, frame))

    @staticmethod
    def _render_delta(sub_id: int, frame) -> str:
        head = (f"[sub {sub_id} seq {frame.seq}] {frame.kind} "
                f"+{len(frame.added)} -{len(frame.removed)} "
                f"(version {frame.version})")
        if frame.error is not None:
            head += f" — {frame.error}"
        return head

    def _drop_subscriptions(self, reason: str) -> None:
        if self._sub_manager is None:
            return
        count = self._sub_manager.active_count
        self._sub_manager.close()
        self._sub_manager = None
        if count:
            self._print(f"dropped {count} subscription(s) ({reason})")

    def _cmd_quit(self, _: str) -> bool:
        self._drop_subscriptions("session ending")
        if self._service is not None:
            self._service.stop()
            self._service = None
        if self.backend is not None:
            self.backend.close()
        self._print("bye")
        return False


def parse_args(args: List[str]) -> argparse.Namespace:
    """Parse the command line; a flag missing its value (or an unknown
    flag) exits with a usage error that names it."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.shell",
        description="Interactive deductive object-oriented database "
                    "shell (the paper's University DB by default).")
    parser.add_argument("--empty", action="store_true",
                        help="start a fresh, schema-less session")
    parser.add_argument("--session", metavar="PATH",
                        help="reopen a session saved with \\save")
    parser.add_argument("--backend", metavar="PATH",
                        help="durable WAL-backed storage directory "
                             "(recovered when it holds state)")
    parser.add_argument("--connect", metavar="HOST:PORT",
                        help="connect a remote REPL to a running query "
                             "service instead")
    return parser.parse_args(args)


def build_engine(args: List[str]) -> RuleEngine:
    """Interpret the command-line arguments into an engine.

    ``--backend PATH`` opens a durable WAL-backed store at PATH: an
    existing store is *recovered* (latest checkpoint + WAL replay); a
    fresh one is seeded with the session the other flags select, and
    every subsequent update is journaled.
    """
    options = parse_args(args)
    backend = None
    if options.backend is not None:
        from repro.storage import open_backend
        backend = open_backend(options.backend)
        if backend.has_state():
            engine = backend.recover()
            backend.attach(engine)
            return engine
    if options.session is not None:
        from repro.storage import load_session
        engine = load_session(options.session)
    elif options.empty:
        from repro.model.database import Database
        from repro.model.schema import Schema
        engine = RuleEngine(Database(Schema("session")))
    else:
        from repro.university import build_paper_database, build_sdb
        data = build_paper_database()
        engine = RuleEngine(data.db)
        engine.universe.register(build_sdb(data))
    if backend is not None:
        backend.attach(engine)
    return engine


def repl(engine: RuleEngine) -> None:  # pragma: no cover - interactive
    shell = Shell(engine)
    print("Deductive OO database shell — \\help for commands.")
    while True:
        prompt = Shell.CONTINUATION if shell.pending else Shell.PROMPT
        try:
            line = input(prompt)
        except (EOFError, KeyboardInterrupt):
            print()
            break
        if not shell.handle(line):
            break


def main(argv: Optional[List[str]] = None) -> None:  # pragma: no cover
    args = argv if argv is not None else sys.argv[1:]
    target = parse_args(args).connect
    if target is not None:
        # Client mode: a remote REPL against a running query service.
        from repro.service.client import client_repl
        host, _, port = target.rpartition(":")
        client_repl(host or "127.0.0.1", int(port))
        return
    repl(build_engine(args))


if __name__ == "__main__":  # pragma: no cover
    main()
