"""Vectorized columnar join kernels over flat int64 buffers.

The compact executor's inner loops used to materialize every joined row
as a Python tuple — one interpreter-level append *per output row*.
These kernels keep a plan's rows **columnar** (one int64 vector per
slot) while it runs, so a join hop becomes a handful of bulk
operations: per input row, one C-level slice copy of its CSR neighbor
run plus one replication of the existing columns by the neighbor
counts.  Rows only become tuples once, after the last hop.

Two interchangeable implementations sit behind a feature probe:

* a **numpy** path (when importable): the whole hop is fancy-indexed —
  offsets gather, prefix-sum index expansion, boolean-mask semi-join
  filter, ``np.repeat`` column replication — with zero per-row Python;
* a **pure-``array``/``memoryview``** fallback with one Python-level
  iteration per *input* row (not per output row) and C-level
  ``frombytes`` neighbor copies.  numpy is not a declared dependency,
  so this is the only path on an install without it; tests pin it by
  setting ``kernels._np = None``.

Both read the same :class:`StepSpec` buffers and produce identical
rows in identical order.

Budget enforcement is duck-typed: anything with ``CHECK_EVERY``,
``check_time()`` and ``charge_rows(n)`` works (in practice a
:class:`~repro.oql.budget.QueryBudget`).
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Sequence, Tuple

try:
    import numpy as _np
except ImportError:  # pragma: no cover - environment-dependent
    _np = None


def numpy_active() -> bool:
    """Whether the numpy fast path is in use (tests monkeypatch
    ``kernels._np = None`` to pin the fallback)."""
    return _np is not None


class StepSpec:
    """One join hop reduced to flat buffers.

    ``offsets``/``neighbors`` are the CSR ``array("q")``\\ s;
    ``tgt_filter`` is the slot's filtered extent as a *sorted*
    ``array("q")`` — ``None`` when the filter kept the whole extent.
    Derived probe structures (masks, numpy views) are built lazily on
    first use and cached.
    """

    __slots__ = ("op", "forward", "offsets", "neighbors", "tgt_size",
                 "tgt_filter", "_probe", "_np_mask", "_nbr_bytes")

    def __init__(self, op: str, forward: bool, offsets, neighbors,
                 tgt_size: int, tgt_filter: Optional[array] = None):
        self.op = op
        self.forward = forward
        self.offsets = offsets
        self.neighbors = neighbors
        self.tgt_size = tgt_size
        self.tgt_filter = tgt_filter
        self._probe = None
        self._np_mask = None
        self._nbr_bytes = None

    # -- lazy probe structures -----------------------------------------

    def nbr_bytes(self) -> memoryview:
        view = self._nbr_bytes
        if view is None:
            view = self._nbr_bytes = memoryview(self.neighbors).cast("B")
        return view

    def probe(self):
        """Fallback membership probe for the semi-join filter: a
        bytearray mask when the filter is a dense fraction of the
        target table (one C-level index per neighbor), else a
        frozenset."""
        probe = self._probe
        if probe is None:
            ids = self.tgt_filter
            if ids is None:
                return None
            if self.tgt_size >= 64 and 4 * len(ids) >= self.tgt_size:
                mask = bytearray(self.tgt_size)
                for v in ids:
                    mask[v] = 1
                probe = ("mask", mask)
            else:
                probe = ("set", frozenset(ids))
            self._probe = probe
        return probe

    def np_mask(self):
        mask = self._np_mask
        if mask is None and self.tgt_filter is not None:
            mask = _np.zeros(self.tgt_size, dtype=bool)
            if len(self.tgt_filter):
                mask[_np.frombuffer(self.tgt_filter, dtype=_np.int64)] = \
                    True
            self._np_mask = mask
        return mask


# ----------------------------------------------------------------------
# Column representation
# ----------------------------------------------------------------------

def anchor_column(ids):
    """The plan's anchor ids as one column (a range or a sorted
    list)."""
    if _np is not None:
        if isinstance(ids, range):
            return _np.arange(ids.start, ids.stop, dtype=_np.int64)
        return _np.fromiter(ids, dtype=_np.int64, count=len(ids))
    return array("q", ids)


def columns_to_rows(cols) -> List[Tuple[int, ...]]:
    """Materialize columns as the row tuples the rest of the engine
    consumes (plain Python ints, identical across representations)."""
    if not cols or not len(cols[0]):
        return []
    return list(zip(*[col.tolist() for col in cols]))


# ----------------------------------------------------------------------
# One join hop
# ----------------------------------------------------------------------

def execute_step(cols, spec: StepSpec, budget=None):
    """Extend the row columns across one hop.

    Returns ``(new_cols, distinct_frontier)``; the new target column is
    appended (``forward``) or prepended.  Neighbor order within a row
    follows the CSR arrays (ascending), so output order is identical
    across the numpy path, the fallback path, and the historical
    tuple-at-a-time executor.
    """
    if budget is not None:
        budget.check_time()
    if spec.op == "*":
        if _np is not None:
            return _step_star_numpy(cols, spec, budget)
        return _step_star_arrays(cols, spec, budget)
    return _step_bang(cols, spec, budget)


def _step_star_numpy(cols, spec, budget):
    off = _np.frombuffer(spec.offsets, dtype=_np.int64)
    nbr = _np.frombuffer(spec.neighbors, dtype=_np.int64)
    ends = cols[-1] if spec.forward else cols[0]
    starts = off[ends]
    cnt = off[ends + 1] - starts
    frontier = int(_np.unique(ends).size)
    total = int(cnt.sum())
    if total == 0:
        empty = _np.empty(0, dtype=_np.int64)
        out = [empty for _ in range(len(cols) + 1)]
        return out, frontier
    # Expand the per-row CSR runs into one flat gather index:
    # idx[k] = starts[row of k] + (k - exclusive_prefix_sum[row of k]).
    csum = _np.cumsum(cnt)
    row_ids = _np.repeat(_np.arange(len(ends), dtype=_np.int64), cnt)
    idx = (_np.arange(total, dtype=_np.int64)
           - _np.repeat(csum - cnt, cnt)
           + _np.repeat(starts, cnt))
    tgt = nbr[idx]
    mask = spec.np_mask()
    if mask is not None:
        keep = mask[tgt]
        tgt = tgt[keep]
        row_ids = row_ids[keep]
    if budget is not None:
        budget.charge_rows(int(tgt.size))
    new_cols = [col[row_ids] for col in cols]
    if spec.forward:
        new_cols.append(tgt)
    else:
        new_cols.insert(0, tgt)
    return new_cols, frontier


def _step_star_arrays(cols, spec, budget):
    off = spec.offsets
    nbr_b = spec.nbr_bytes()
    nbr_q = memoryview(spec.neighbors)
    ends = cols[-1] if spec.forward else cols[0]
    probe = spec.probe()
    out = array("q")
    counts: List[int] = []
    add_count = counts.append
    if probe is None:
        frombytes = out.frombytes
        for e in ends:
            s = off[e]
            t = off[e + 1]
            frombytes(nbr_b[8 * s:8 * t])
            add_count(t - s)
    else:
        kind, member = probe
        extend = out.extend
        if kind == "mask":
            for e in ends:
                vals = [v for v in nbr_q[off[e]:off[e + 1]] if member[v]]
                extend(vals)
                add_count(len(vals))
        else:
            for e in ends:
                vals = [v for v in nbr_q[off[e]:off[e + 1]]
                        if v in member]
                extend(vals)
                add_count(len(vals))
    frontier = len(set(ends))
    if budget is not None:
        budget.charge_rows(len(out))
        budget.check_time()
    new_cols = [_replicate(col, counts, len(out)) for col in cols]
    if spec.forward:
        new_cols.append(out)
    else:
        new_cols.insert(0, out)
    return new_cols, frontier


def _step_bang(cols, spec, budget):
    """The non-association operator: per distinct endpoint, the sorted
    complement of its neighbor set within the (filtered) target extent
    — computed once per endpoint, shared by every row ending there."""
    off = spec.offsets
    nbr_q = spec.neighbors
    ends = cols[-1] if spec.forward else cols[0]
    domain = (spec.tgt_filter if spec.tgt_filter is not None
              else range(spec.tgt_size))
    cand: Dict[int, bytes] = {}
    sizes: Dict[int, int] = {}
    for e in set(int(v) for v in ends):
        nbrs = set(nbr_q[off[e]:off[e + 1]])
        comp = array("q", [v for v in domain if v not in nbrs]) \
            if nbrs else array("q", domain)
        cand[e] = comp.tobytes()
        sizes[e] = len(comp)
    frontier = len(cand)
    counts = [sizes[int(e)] for e in ends]
    total = sum(counts)
    if budget is not None:
        budget.charge_rows(total)
        budget.check_time()
    out = array("q")
    frombytes = out.frombytes
    for e in ends:
        frombytes(cand[int(e)])
    if _np is not None:
        cnt = _np.fromiter(counts, dtype=_np.int64, count=len(counts))
        row_ids = _np.repeat(_np.arange(len(ends), dtype=_np.int64), cnt)
        new_cols = [col[row_ids] for col in cols]
        tgt = _np.frombuffer(out.tobytes(), dtype=_np.int64) \
            if len(out) else _np.empty(0, dtype=_np.int64)
        if spec.forward:
            new_cols.append(tgt)
        else:
            new_cols.insert(0, tgt)
        return new_cols, frontier
    new_cols = [_replicate(col, counts, total) for col in cols]
    if spec.forward:
        new_cols.append(out)
    else:
        new_cols.insert(0, out)
    return new_cols, frontier


def _replicate(col, counts: Sequence[int], total: int) -> array:
    """Repeat ``col[i]`` ``counts[i]`` times (fallback-path column
    replication; one Python iteration per *input* row)."""
    out = array("q")
    extend = out.extend
    append = out.append
    for v, c in zip(col, counts):
        if c == 1:
            append(v)
        elif c:
            extend([v] * c)
    return out


# ----------------------------------------------------------------------
# Sorted-id set algebra (value-index probe composition)
# ----------------------------------------------------------------------
#
# Value-index probes (:mod:`repro.subdb.attrindex`) answer one predicate
# as an ascending, duplicate-free dense-id array; conjunctions and
# complements compose probes with these kernels before the result feeds
# the same ``tgt_filter``/anchor machinery the CSR join steps read.
# Results are byte-identical between the numpy path and the fallback.

def _as_np(ids):
    if isinstance(ids, array) or isinstance(ids, memoryview):
        return _np.frombuffer(ids, dtype=_np.int64)
    return _np.asarray(ids, dtype=_np.int64)


def _np_to_array(out) -> array:
    result = array("q")
    result.frombytes(_np.ascontiguousarray(out, dtype=_np.int64).tobytes())
    return result


def sorted_intersect(a, b) -> array:
    """Intersection of two ascending duplicate-free int64 id arrays."""
    if not len(a) or not len(b):
        return array("q")
    if _np is not None:
        return _np_to_array(_np.intersect1d(_as_np(a), _as_np(b),
                                            assume_unique=True))
    out = array("q")
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        va, vb = a[i], b[j]
        if va == vb:
            out.append(va)
            i += 1
            j += 1
        elif va < vb:
            i += 1
        else:
            j += 1
    return out


def sorted_union(a, b) -> array:
    """Union of two ascending duplicate-free int64 id arrays."""
    if not len(a):
        return array("q", b)
    if not len(b):
        return array("q", a)
    if _np is not None:
        return _np_to_array(_np.union1d(_as_np(a), _as_np(b)))
    out = array("q")
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        va, vb = a[i], b[j]
        if va == vb:
            out.append(va)
            i += 1
            j += 1
        elif va < vb:
            out.append(va)
            i += 1
        else:
            out.append(vb)
            j += 1
    if i < na:
        out.extend(a[i:])
    if j < nb:
        out.extend(b[j:])
    return out


def sorted_complement(size: int, a) -> array:
    """Ascending complement of ``a`` within ``range(size)``."""
    if not len(a):
        return array("q", range(size))
    if _np is not None:
        mask = _np.ones(size, dtype=bool)
        mask[_as_np(a)] = False
        return _np_to_array(_np.flatnonzero(mask))
    out = array("q")
    prev = 0
    for v in a:
        out.extend(range(prev, v))
        prev = v + 1
    out.extend(range(prev, size))
    return out

