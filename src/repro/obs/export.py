"""Trace exporters: Chrome ``chrome://tracing`` JSON and a text tree.

Chrome's trace-event format (the "catapult" JSON array) is the lingua
franca for flame views: each span becomes one complete event
(``"ph": "X"``) with microsecond timestamps relative to the tracer
epoch, the recording thread as ``tid``, and attributes/counters merged
into ``args``.  Load the saved file in ``chrome://tracing`` or
https://ui.perfetto.dev to browse per-request and per-join-step
timings visually.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Union

__all__ = ["to_chrome_events", "chrome_trace", "save_chrome_trace",
           "render_tree"]


def to_chrome_events(roots: Iterable) -> List[Dict[str, Any]]:
    """Flatten trace trees into Chrome complete events."""
    events: List[Dict[str, Any]] = []
    for root in roots:
        for span in root.walk():
            args: Dict[str, Any] = {"trace_id": span.trace_id,
                                    "span_id": span.span_id,
                                    "status": span.status}
            args.update(span.attrs)
            args.update(span.counters)
            if span.cpu_ms is not None:
                args["cpu_ms"] = round(span.cpu_ms, 3)
            events.append({
                "name": span.name,
                "ph": "X",
                "pid": 1,
                "tid": span.thread_id,
                "ts": round(span.start_us, 1),
                "dur": round((span.wall_ms or 0.0) * 1000.0, 1),
                "cat": "repro",
                "args": args,
            })
    return events


def chrome_trace(roots: Iterable) -> Dict[str, Any]:
    """The full document ``chrome://tracing`` expects."""
    return {"traceEvents": to_chrome_events(roots),
            "displayTimeUnit": "ms"}


def save_chrome_trace(path: Union[str, Path], roots: Iterable) -> Path:
    """Write traces as Chrome JSON; returns the resolved path."""
    target = Path(path)
    target.write_text(json.dumps(chrome_trace(roots), sort_keys=True,
                                 indent=1))
    return target


def _format_span(span) -> str:
    parts = [span.name]
    if span.wall_ms is not None:
        parts.append(f"{span.wall_ms:.2f}ms")
    if span.cpu_ms is not None:
        parts.append(f"cpu={span.cpu_ms:.2f}ms")
    if span.status not in ("ok", "open"):
        parts.append(f"status={span.status}")
    for key in sorted(span.attrs):
        parts.append(f"{key}={span.attrs[key]}")
    for key in sorted(span.counters):
        value = span.counters[key]
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        parts.append(f"{key}={value}")
    return " ".join(parts)


def render_tree(root) -> str:
    """Pretty one-trace tree for the shell's ``\\trace show``."""
    lines = [f"trace {root.trace_id}"]

    def emit(span, prefix: str, is_last: bool) -> None:
        branch = "└─ " if is_last else "├─ "
        lines.append(prefix + branch + _format_span(span))
        child_prefix = prefix + ("   " if is_last else "│  ")
        # Render children in start order regardless of the (possibly
        # racy) order children on other threads attached themselves.
        children = sorted(span.children, key=lambda s: s.start_us)
        for index, child in enumerate(children):
            emit(child, child_prefix, index == len(children) - 1)

    lines[0] = f"trace {root.trace_id}: {_format_span(root)}"
    children = sorted(root.children, key=lambda s: s.start_us)
    for index, child in enumerate(children):
        emit(child, "", index == len(children) - 1)
    return "\n".join(lines)
