"""Sizing kernels: level-blocked SMP + array TILOS scoring.

The two sizing phases whose natural form is a per-vertex Python loop —
the W-phase relaxation (a Gauss-Seidel sweep with a CSR row dot
product per vertex per sweep) and the TILOS sensitivity scan (a
per-candidate closure over the critical path) — run here as
precomputed array kernels.  They are the only engines in the package;
the per-vertex loops survive as test oracles (``reference_smp`` and
``reference_tilos`` in ``tests/conftest.py``), and the tests hold the
kernels to them: the W-phase to the same sweep count and clamped set
with sizes within 1e-10, TILOS to an identical bump sequence.

**Level-blocked SMP.**  One relaxation sweep updates each vertex ``i``
to ``clip(g^{-1}(headroom_i / load_i(x)))`` where ``load_i`` reads the
sizes of the vertices in row ``i`` of the coupling matrix ``A``.  The
per-vertex sweep visits vertices in ``sweep_order`` (reverse
topological order); :func:`build_smp_plan` buckets that order into
*levels* such that the blocked sweep reads exactly the values the
per-vertex sweep reads:

* if the per-vertex sweep reads an **updated** value (``a_ij != 0``
  and ``j`` earlier in ``sweep_order``), then ``level(i) > level(j)``
  — the dependency is relaxed in an earlier level;
* if it reads a **stale** value (``a_ij != 0`` and ``j`` later in
  ``sweep_order``), then ``level(i) <= level(j)`` — the dependency has
  not been touched yet when ``i``'s level runs.

Both constraint families point from earlier to later sweep positions,
so ``level(i) = position(i)`` always satisfies them: the system is
feasible and the longest-path assignment computed by
:func:`build_smp_plan` is its componentwise-minimal solution.  Within a
level no vertex reads another (an intra-level read would be either an
updated read, forcing different levels, or a stale read whose reverse
coupling would), so a whole level relaxes as one sliced CSR matvec and
the blocked sweep follows the per-vertex recurrence — same fixed
point, clamped set and sweep count — for gate-mode DAGs and
transistor-mode coupled blocks alike.  Only the summation order of
each row's dot product differs, so the sizes agree to float
reassociation noise (ulps), not bitwise.

**Array-based TILOS.**  :func:`get_tilos_plan` caches per DAG (the
structure never changes across calls, and campaigns and warm-started
sweeps call ``tilos_size`` many times per DAG): the transpose
adjacency in CSR form (who reads a resized vertex) and the coupling
coefficients as a sorted edge-key array for vectorized ``a[pred, v]``
lookups along a critical path.  With the plan, a whole critical path
scores in a handful of numpy expressions (:meth:`TilosPlan.score_path`)
and the post-bump delay refresh over the disturbed vertices is one
gathered segment sum (:meth:`TilosPlan.refresh_delays`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from repro.delay.model import VertexDelayModel
from repro.errors import SizingError
from repro.sizing.smp import SmpResult, find_clamped, smp_headroom

__all__ = [
    "SmpPlan",
    "TilosPlan",
    "build_smp_plan",
    "build_tilos_plan",
    "get_smp_plan",
    "get_tilos_plan",
    "solve_smp_blocked",
]


def _gathered_loads(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    b: np.ndarray,
    rows: np.ndarray,
    x: np.ndarray,
) -> np.ndarray:
    """``A[rows] @ x + b[rows]`` without materializing a submatrix.

    One gather of the rows' CSR segments plus a ``bincount`` segment
    sum; empty rows contribute only their constant load.
    """
    counts = indptr[rows + 1] - indptr[rows]
    total = int(counts.sum())
    if total == 0:
        return b[rows].astype(float)
    offsets = np.zeros(rows.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    seq = np.arange(total, dtype=np.int64) + np.repeat(
        indptr[rows] - offsets, counts
    )
    values = data[seq] * x[indices[seq]]
    loads = np.bincount(
        np.repeat(np.arange(rows.size), counts),
        weights=values,
        minlength=rows.size,
    )
    return loads + b[rows]


# -- level-blocked SMP -------------------------------------------------


@dataclass(frozen=True)
class SmpPlan:
    """Precomputed level schedule for the blocked W-phase relaxation.

    ``blocks`` holds one ``(rows, matrix)`` pair per non-empty level:
    the vertex ids relaxed by that level (no-load vertices, whose delay
    no size moves, are dropped at build time) and the matching row
    slice of the coupling matrix, so one sweep is ``len(blocks)``
    sliced matvecs instead of ``n`` Python iterations.
    """

    n: int
    #: Per-vertex level of the blocked schedule (diagnostic/testing).
    level: np.ndarray
    #: ``(rows, A[rows])`` per level, in level order.
    blocks: list[tuple[np.ndarray, sparse.csr_matrix]]

    @property
    def n_levels(self) -> int:
        """Number of relaxation levels (the blocked sweep's length)."""
        return len(self.blocks)


def build_smp_plan(
    model: VertexDelayModel, sweep_order: np.ndarray
) -> SmpPlan:
    """Bucket ``sweep_order`` into levels the blocked sweep can batch.

    Levels are the longest-path solution of the read-order constraints
    described in the module docstring, computed in one pass over
    ``sweep_order`` (each vertex consults the already-levelled subset
    of its coupling row and column).  Cost is ``O(|V| + |E|)`` with
    small numpy constants; :func:`get_smp_plan` caches the result per
    DAG so campaigns pay it once.
    """
    n = model.n
    order = np.asarray(sweep_order, dtype=np.int64)
    if order.shape != (n,):
        raise SizingError(
            f"sweep order covers {order.size} vertices, model has {n}"
        )
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n, dtype=np.int64)
    a = model.a_matrix
    a_t = a.T.tocsr()
    indptr, indices = a.indptr, a.indices
    t_indptr, t_indices = a_t.indptr, a_t.indices

    level = np.zeros(n, dtype=np.int64)
    for v in order.tolist():
        best = 0
        deps = indices[indptr[v]:indptr[v + 1]]
        if deps.size:
            early = deps[rank[deps] < rank[v]]
            if early.size:
                best = int(level[early].max()) + 1
        readers = t_indices[t_indptr[v]:t_indptr[v + 1]]
        if readers.size:
            early = readers[rank[readers] < rank[v]]
            if early.size:
                best = max(best, int(level[early].max()))
        level[v] = best

    no_load = (model.b == 0) & (np.diff(indptr) == 0)
    relaxed = order[~no_load[order]]
    blocks: list[tuple[np.ndarray, sparse.csr_matrix]] = []
    if relaxed.size:
        stable = np.argsort(level[relaxed], kind="stable")
        by_level = relaxed[stable]
        bounds = np.flatnonzero(np.diff(level[by_level])) + 1
        for rows in np.split(by_level, bounds):
            blocks.append((rows, a[rows]))
    return SmpPlan(n=n, level=level, blocks=blocks)


def get_smp_plan(dag) -> SmpPlan:
    """The cached :class:`SmpPlan` of ``dag`` (built on first use).

    The plan depends only on the DAG's coupling structure and its
    canonical sweep order (reverse topological order), both immutable,
    so one plan serves every W-phase solve on the DAG.
    """
    plan = dag.kernel_cache.get("smp_plan")
    if plan is None:
        plan = build_smp_plan(dag.model, dag.topo_order[::-1])
        dag.kernel_cache["smp_plan"] = plan
    return plan


def solve_smp_blocked(
    model: VertexDelayModel,
    budgets: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    plan: SmpPlan,
    max_sweeps: int = 200,
    tol: float = 1e-10,
) -> SmpResult:
    """Level-blocked Gauss-Seidel relaxation from ``lower`` upward.

    Runs the per-vertex Gauss-Seidel recurrence but relaxes whole
    levels per step — a sliced CSR matvec for the loads, one array
    ``g_inverse`` and clip for the update (see the module docstring
    for the read-order argument).  Stops at the first sweep whose
    largest move is at most ``tol`` times the largest upper bound.
    """
    budgets = np.asarray(budgets, dtype=float)
    headroom, _no_load = smp_headroom(model, budgets)
    law = model.law
    b = model.b

    x = lower.astype(float).copy()
    scale = float(np.max(np.abs(upper))) or 1.0
    threshold = tol * scale
    for sweep in range(1, max_sweeps + 1):
        largest_move = 0.0
        for rows, matrix in plan.blocks:
            loads = matrix @ x
            loads += b[rows]
            live = loads > 0.0
            if not live.all():
                if not live.any():
                    continue
                rows = rows[live]
                loads = loads[live]
            required = law.g_inverse_array(headroom[rows] / loads)
            value = np.minimum(
                np.maximum(required, lower[rows]), upper[rows]
            )
            moves = value - x[rows]
            grew = moves > 0.0
            if grew.any():
                move = float(moves.max())
                if move > largest_move:
                    largest_move = move
                x[rows[grew]] = value[grew]
        if largest_move <= threshold:
            clamped = find_clamped(model, budgets, x, upper, tol)
            return SmpResult(x=x, clamped=clamped, sweeps=sweep)
    raise SizingError(
        f"SMP relaxation did not converge in {max_sweeps} sweeps"
    )


# -- array-based TILOS sensitivities -----------------------------------


@dataclass(frozen=True)
class TilosPlan:
    """Cached TILOS coupling structure for one DAG.

    The transpose adjacency (who must have its delay refreshed when a
    vertex is resized) and the coupling coefficients as a sorted
    edge-key array for vectorized point lookups.
    """

    n: int
    #: Transpose CSR adjacency: readers of vertex ``v`` live at
    #: ``t_indices[t_indptr[v]:t_indptr[v + 1]]``.
    t_indptr: np.ndarray
    t_indices: np.ndarray
    #: Coupling entries keyed by ``row * n + col``, sorted for
    #: :meth:`coupling_at` binary searches.
    edge_keys: np.ndarray
    edge_values: np.ndarray

    def dependents(self, vertex: int) -> np.ndarray:
        """Vertices whose delay reads ``vertex``'s size (``a_uv != 0``)."""
        return self.t_indices[
            self.t_indptr[vertex]:self.t_indptr[vertex + 1]
        ]

    def coupling_at(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """``a[rows, cols]`` for paired index arrays (0 where absent)."""
        if self.edge_keys.size == 0 or rows.size == 0:
            return np.zeros(rows.size, dtype=float)
        query = rows.astype(np.int64) * self.n + cols
        pos = np.searchsorted(self.edge_keys, query)
        pos = np.minimum(pos, self.edge_keys.size - 1)
        hit = self.edge_keys[pos] == query
        return np.where(hit, self.edge_values[pos], 0.0)

    def score_path(
        self,
        dag,
        x: np.ndarray,
        path: list[int],
        bump: float,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Sensitivities of bumping each eligible critical-path vertex.

        One gathered load computation for the whole path, one coupling
        lookup for the consecutive (predecessor, vertex) pairs, one
        array of sensitivities.  Returns ``(sensitivities, vertices)``
        sorted by descending sensitivity, ties broken toward the
        larger vertex id — the order a per-candidate loop that sorts
        ``(sensitivity, vertex)`` tuples descending would pick.
        """
        model = dag.model
        law = model.law
        verts = np.asarray(path, dtype=np.int64)
        xp = x[verts]
        cap = dag.upper[verts]
        new_size = np.minimum(xp * bump, cap)
        dx = new_size - xp
        eligible = (xp < cap * (1 - 1e-12)) & (dx > 0)
        if not eligible.any():
            return np.empty(0), np.empty(0, dtype=np.int64)
        a = model.a_matrix
        loads = _gathered_loads(
            a.indptr, a.indices, a.data, model.b, verts, x
        )
        delta = (law.g_array(new_size) - law.g_array(xp)) * loads
        if verts.size > 1:
            coupling = self.coupling_at(verts[:-1], verts[1:])
            delta[1:] = delta[1:] + law.g_array(xp[:-1]) * coupling * dx[1:]
        verts = verts[eligible]
        sensitivity = -delta[eligible] / (
            dag.area_weight[verts] * dx[eligible]
        )
        order = np.lexsort((verts, sensitivity))[::-1]
        return sensitivity[order], verts[order]

    def refresh_delays(
        self,
        model: VertexDelayModel,
        changed: np.ndarray,
        x: np.ndarray,
        delays: np.ndarray,
    ) -> None:
        """Recompute ``delays[changed]`` in place after a resize."""
        a = model.a_matrix
        loads = _gathered_loads(
            a.indptr, a.indices, a.data, model.b, changed, x
        )
        delays[changed] = (
            model.intrinsic[changed] + model.law.g_array(x[changed]) * loads
        )


def build_tilos_plan(dag) -> TilosPlan:
    """Extract the TILOS coupling structure from a DAG's delay model."""
    model = dag.model
    n = model.n
    transpose = model.a_matrix.T.tocsr()
    coo = model.a_matrix.tocoo()
    keys = coo.row.astype(np.int64) * n + coo.col
    order = np.argsort(keys)
    return TilosPlan(
        n=n,
        t_indptr=transpose.indptr,
        t_indices=transpose.indices,
        edge_keys=keys[order],
        edge_values=coo.data[order].astype(float),
    )


def get_tilos_plan(dag) -> TilosPlan:
    """The cached :class:`TilosPlan` of ``dag`` (built on first use).

    Campaigns and warm-started sweeps pay the ``O(|E|)`` extraction
    once per DAG instead of once per ``tilos_size`` call.
    """
    plan = dag.kernel_cache.get("tilos_plan")
    if plan is None:
        plan = build_tilos_plan(dag)
        dag.kernel_cache["tilos_plan"] = plan
    return plan
