"""Vectorized columnar join kernels over flat int64 buffers.

These kernels keep a plan's rows **columnar** (one numpy int64 vector
per slot) while it runs, so a ``*`` hop is a handful of bulk
operations — offsets gather, prefix-sum index expansion, boolean-mask
semi-join filter, ``np.repeat`` column replication — with zero
per-row Python.  A chain's columns leave the last hop as they are and
become the result (:meth:`~repro.subdb.subdatabase.Subdatabase.from_columns`),
and a loop level extends its frontier's columns with the same hop;
only brace groups, which subsume row-wise, turn them into tuples
(:func:`columns_to_rows`).  The CSR and value indexes keep
``array("q")`` buffers, which numpy reads in place through
``frombuffer``.

Budget enforcement is duck-typed: anything with ``CHECK_EVERY``,
``check_time()`` and ``charge_rows(n)`` works (in practice a
:class:`~repro.oql.budget.QueryBudget`).
"""

from __future__ import annotations

from array import array
from typing import List, Optional, Tuple

import numpy as np


class StepSpec:
    """One join hop reduced to flat buffers.

    ``offsets``/``neighbors`` are the CSR ``array("q")``\\ s;
    ``tgt_filter`` is the slot's filtered extent as a *sorted*
    ``array("q")`` — ``None`` when the filter kept the whole extent.
    Its boolean mask is built lazily on first use and cached.
    """

    __slots__ = ("op", "forward", "offsets", "neighbors", "tgt_size",
                 "tgt_filter", "_np_mask")

    def __init__(self, op: str, forward: bool, offsets, neighbors,
                 tgt_size: int, tgt_filter: Optional[array] = None):
        self.op = op
        self.forward = forward
        self.offsets = offsets
        self.neighbors = neighbors
        self.tgt_size = tgt_size
        self.tgt_filter = tgt_filter
        self._np_mask = None

    def np_mask(self):
        mask = self._np_mask
        if mask is None and self.tgt_filter is not None:
            mask = np.zeros(self.tgt_size, dtype=bool)
            if len(self.tgt_filter):
                mask[np.frombuffer(self.tgt_filter, dtype=np.int64)] = True
            self._np_mask = mask
        return mask


# ----------------------------------------------------------------------
# Column representation
# ----------------------------------------------------------------------

def anchor_column(ids):
    """The plan's anchor ids as one column (a range or a sorted
    list)."""
    if isinstance(ids, range):
        return np.arange(ids.start, ids.stop, dtype=np.int64)
    return np.fromiter(ids, dtype=np.int64, count=len(ids))


def columns_to_rows(cols) -> List[Tuple[int, ...]]:
    """Columns as row tuples of plain Python ints — for the brace-group
    path, which subsumes row-wise."""
    if not cols or not len(cols[0]):
        return []
    return list(zip(*[col.tolist() for col in cols]))


def rows_to_columns(rows, width: int) -> List[np.ndarray]:
    """Row tuples (``None`` for Null) back to one int64 column per slot,
    −1 for Null — how the rows a brace group kept become a result."""
    if not rows:
        return [np.empty(0, dtype=np.int64) for _ in range(width)]
    return [np.array([-1 if v is None else v for v in col], dtype=np.int64)
            for col in zip(*rows)]


def distinct_count(ids) -> int:
    """The number of distinct values in an int64 column: one sort and
    an adjacent-difference count, O(n log n) in the column's length
    alone (``np.unique`` costs several times more on small frontiers,
    and a ``bincount`` would allocate per table size)."""
    n = len(ids)
    if n < 2:
        return n
    ordered = np.sort(ids)
    return int(np.count_nonzero(ordered[1:] != ordered[:-1])) + 1


# ----------------------------------------------------------------------
# One join hop
# ----------------------------------------------------------------------

def execute_step(cols, spec: StepSpec, budget=None, row_filter=None):
    """Extend the row columns across one hop.

    Returns ``(new_cols, distinct_frontier)``; the new target column is
    appended (``forward``) or prepended.  Neighbor order within a row
    follows the CSR arrays (ascending), so output order is identical
    to the set-based executor's.  ``row_filter(row_ids, tgt)`` (``*``
    hops only) returns which candidate rows to keep — input row index
    and new target id — and runs before the rows are charged.
    """
    if budget is not None:
        budget.check_time()
    if spec.op == "*":
        return _step_star(cols, spec, budget, row_filter)
    return _step_bang(cols, spec, budget)


def _step_star(cols, spec, budget, row_filter):
    """The association operator: each row's CSR run of neighbors."""
    ends = cols[-1] if spec.forward else cols[0]
    return (_gather(cols, spec.forward, np.frombuffer(spec.offsets,
                                                      dtype=np.int64),
                    np.frombuffer(spec.neighbors, dtype=np.int64), ends,
                    spec.np_mask(), budget, row_filter),
            distinct_count(ends))


def _step_bang(cols, spec, budget):
    """The non-association operator: per distinct endpoint, the sorted
    complement of its neighbor set within the (filtered) target extent
    — computed once per endpoint as one run of a complement CSR, which
    every row ending there gathers like a ``*`` hop.  A budgeted hop
    checks the clock each time another ``budget.CHECK_EVERY``
    complement entries are built (they are work, not output rows, so
    they are not charged)."""
    off = spec.offsets
    nbr = np.frombuffer(spec.neighbors, dtype=np.int64)
    ends = cols[-1] if spec.forward else cols[0]
    domain = (np.frombuffer(spec.tgt_filter, dtype=np.int64)
              if spec.tgt_filter is not None
              else np.arange(spec.tgt_size, dtype=np.int64))
    endpoints, local = np.unique(ends, return_inverse=True)
    runs = []
    built = 0
    for e in endpoints.tolist():
        linked = nbr[off[e]:off[e + 1]]
        runs.append(domain[~np.isin(domain, linked, assume_unique=True)]
                    if len(linked) else domain)
        if budget is not None:
            built += len(runs[-1])
            if built >= budget.CHECK_EVERY:
                built = 0
                budget.check_time()
    sizes = np.fromiter(map(len, runs), dtype=np.int64, count=len(runs))
    offsets = np.zeros(len(runs) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    neighbors = np.concatenate(runs) if runs \
        else np.empty(0, dtype=np.int64)
    return (_gather(cols, spec.forward, offsets, neighbors,
                    local, None, budget, None),
            len(endpoints))


def _gather(cols, forward, off, nbr, ends, mask, budget, row_filter):
    """Extend the rows across one hop: row ``r`` gains every neighbor
    of its CSR run ``nbr[off[ends[r]]:off[ends[r] + 1]]`` that passes
    ``mask`` and ``row_filter``.  A budgeted hop gathers its output in
    slices of ``budget.CHECK_EVERY`` rows, charging each slice and
    checking the clock between slices, so a hop that would explode
    trips within one slice of its limit instead of after the whole
    gather."""
    starts = off[ends]
    cnt = off[ends + 1] - starts
    csum = np.cumsum(cnt)
    total = int(csum[-1]) if len(csum) else 0
    # Output position k of row r gathers neighbor
    # starts[r] + (k - first output position of r) = base[r] + k.
    base = starts - (csum - cnt)
    width = budget.CHECK_EVERY if budget is not None else max(total, 1)
    row_parts, tgt_parts = [], []
    for lo in range(0, total, width):
        if lo:
            budget.check_time()
        hi = min(lo + width, total)
        if hi - lo == total:
            r0, r1, run = 0, len(ends), cnt
        else:
            # The rows r0..r1-1 output positions lo..hi-1 fall in,
            # their runs clipped to the slice.
            r0 = int(np.searchsorted(csum, lo, side="right"))
            r1 = int(np.searchsorted(csum, hi - 1, side="right")) + 1
            run = (np.minimum(csum[r0:r1], hi)
                   - np.maximum(csum[r0:r1] - cnt[r0:r1], lo))
        row_ids = np.repeat(np.arange(r0, r1, dtype=np.int64), run)
        tgt = nbr[np.arange(lo, hi, dtype=np.int64)
                  + np.repeat(base[r0:r1], run)]
        if mask is not None:
            keep = mask[tgt]
            tgt = tgt[keep]
            row_ids = row_ids[keep]
        if row_filter is not None:
            keep = row_filter(row_ids, tgt)
            tgt = tgt[keep]
            row_ids = row_ids[keep]
        if budget is not None:
            budget.charge_rows(int(tgt.size))
        row_parts.append(row_ids)
        tgt_parts.append(tgt)
    if not tgt_parts:
        empty = np.empty(0, dtype=np.int64)
        return [empty for _ in range(len(cols) + 1)]
    row_ids, tgt = _joined(row_parts), _joined(tgt_parts)
    new_cols = [col[row_ids] for col in cols]
    if forward:
        new_cols.append(tgt)
    else:
        new_cols.insert(0, tgt)
    return new_cols


def _joined(parts):
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


# ----------------------------------------------------------------------
# Sorted-id intersection (value-index probe composition)
# ----------------------------------------------------------------------
#
# Value-index probes (:mod:`repro.subdb.attrindex`) answer one predicate
# as an ascending, duplicate-free dense-id array; conjunctions compose
# probes with this kernel before the result feeds the same
# ``tgt_filter``/anchor machinery the CSR join steps read.

def _as_np(ids):
    if isinstance(ids, (array, memoryview)):
        return np.frombuffer(ids, dtype=np.int64)
    return np.asarray(ids, dtype=np.int64)


def sorted_intersect(a, b) -> array:
    """Intersection of two ascending duplicate-free int64 id arrays."""
    if not len(a) or not len(b):
        return array("q")
    out = np.intersect1d(_as_np(a), _as_np(b), assume_unique=True)
    result = array("q")
    result.frombytes(out.astype(np.int64, copy=False).tobytes())
    return result
