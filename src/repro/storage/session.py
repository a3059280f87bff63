"""Whole-session persistence: a rule engine with its schema, data,
rules, control modes, and (optionally) materialized derived results.

``save_session(engine, path)`` writes one JSON document;
``load_session(path)`` returns a fully wired
:class:`~repro.rules.engine.RuleEngine` — rules re-registered with their
labels and modes, materialized subdatabases restored so pre-evaluated
results are warm immediately.
"""

from __future__ import annotations

import json
from itertools import islice
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Union

from repro.storage.atomic import atomic_write_text

from repro.errors import DataError
from repro.rules.control import (
    EvaluationMode,
    ResultOrientedController,
    RuleChainingMode,
    RuleOrientedController,
)
from repro.rules.engine import RuleEngine
from repro.storage.serialize import (
    FORMAT_VERSION,
    database_from_dict,
    database_to_dict,
    schema_from_dict,
    schema_to_dict,
    subdatabase_from_dict,
    subdatabase_to_dict,
)


def _controller_kind(engine: RuleEngine) -> str:
    controller = engine.controller
    if isinstance(controller, RuleOrientedController):
        return "rule"
    # "incremental" spells the result-oriented controller whose default
    # mode is PRE_EVALUATED, so rules added after a reload keep it.
    if controller.default_mode is EvaluationMode.PRE_EVALUATED:
        return "incremental"
    return "result"


def rule_mode(engine: RuleEngine, rule) -> Optional[str]:
    """The serialized control-mode value of ``rule`` under the engine's
    active controller (also used by the WAL's rule records)."""
    controller = engine.controller
    if isinstance(controller, RuleOrientedController):
        mode = controller._rule_modes.get(rule)
        return mode.value if mode else None
    mode = controller._modes.get(rule.target)
    return mode.value if mode else None


_rule_mode = rule_mode


def session_to_dict(engine: RuleEngine,
                    include_materialized: bool = True) -> Dict[str, Any]:
    """Serialize a whole deductive session."""
    doc: Dict[str, Any] = {
        "format_version": FORMAT_VERSION,
        "controller": _controller_kind(engine),
        "schema": schema_to_dict(engine.db.schema),
        "database": database_to_dict(engine.db),
        "rules": [
            {"text": rule.text or str(rule), "label": rule.label,
             "mode": _rule_mode(engine, rule)}
            for rule in engine.rules],
    }
    if include_materialized:
        doc["materialized"] = [
            subdatabase_to_dict(engine.universe.get_subdb(name))
            for name in engine.universe.subdb_names]
    return doc


def session_from_dict(doc: Dict[str, Any]) -> RuleEngine:
    """Rebuild a session (inverse of :func:`session_to_dict`)."""
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise DataError(
            f"unsupported session format version {version!r} "
            f"(this build reads {FORMAT_VERSION})")
    schema = schema_from_dict(doc["schema"])
    db = database_from_dict(doc["database"], schema)
    controller = doc.get("controller", "result")
    engine = RuleEngine(db, controller=controller)
    mode_enum = (RuleChainingMode if controller == "rule"
                 else EvaluationMode)
    for entry in doc.get("rules", ()):
        mode = mode_enum(entry["mode"]) if entry.get("mode") else None
        engine.add_rule(entry["text"], label=entry.get("label"),
                        mode=mode)
    for sub_doc in doc.get("materialized", ()):
        engine.universe.register(subdatabase_from_dict(sub_doc, db))
    return engine


#: The one on-disk layout of a session document, shared by
#: :func:`save_session` and the checkpoint store.  A session document
#: is a tree, so the cycle check (a tenth of the encoding time) is off.
_ENCODER = json.JSONEncoder(indent=1, sort_keys=True,
                            check_circular=False)


def encode_session(doc: Dict[str, Any]) -> Iterator[str]:
    """The text of ``doc`` as a stream of chunks, byte-identical once
    joined to ``json.dumps(doc, indent=1, sort_keys=True)``."""
    chunks = _ENCODER.iterencode(doc)
    # iterencode yields a string of a few bytes per token, a million of
    # them for a 20k-object session; the writer gets runs of them.  A
    # run is held token by token until joined, so it stays short: what
    # streaming costs beyond the document must not grow with the run.
    return iter(lambda: "".join(islice(chunks, 1024)), "")


def save_session(engine: RuleEngine, path: Union[str, Path],
                 include_materialized: bool = True) -> Path:
    """Write the session document to ``path`` (JSON), atomically.

    The document is streamed to a temporary file in the same directory,
    fsync'd, and renamed over the destination — a crash mid-write can
    never destroy the previous copy.
    """
    path = Path(path)
    doc = session_to_dict(engine, include_materialized)
    atomic_write_text(path, encode_session(doc))
    return path


def load_session(path: Union[str, Path]) -> RuleEngine:
    """Read a session document written by :func:`save_session`."""
    doc = json.loads(Path(path).read_text())
    return session_from_dict(doc)
