"""Incremental AT/RT maintenance under sparse delay updates.

TILOS changes one size per pass and the MINFLOTRANSIT W/D alternation
perturbs only the vertices the W-phase resized; a full forward/backward
STA per step is O(|E|) even though each step disturbs a small cone.
This engine keeps *both* arrival times and required times valid under
per-vertex delay changes, re-propagating only through the affected cone
in level order and stopping where values stop moving.

Two representation choices make this exact and cheap:

* **Horizon-free required times.**  ``RT(i; H)`` is linear in the
  horizon: ``RT(i; H) = H - L(i)`` where ``L(i)`` — the longest delay
  of any path from ``i`` to a primary output, *including* ``delay(i)``
  — does not depend on ``H`` at all.  The engine maintains ``L``
  backward-incrementally, so required times and slacks are available
  for *any* horizon (the paper's ``H = CP`` or a delay target) without
  re-propagation when only the horizon changes.  Backward propagation
  is *lazy*: updates only mark their seeds, and the wave runs on the
  first RT/slack query after a batch of updates — a caller that only
  tracks arrival times (TILOS) never pays for required times at all,
  while the W/D loop's one query per iteration flushes exactly once.

* **CSR level waves, with a scalar small-cone path.**  Fanin/fanout
  adjacency lives in flat CSR arrays; a dirty frontier is processed one
  level at a time, and each level's recomputation is a single gather +
  ``np.maximum.reduceat`` segment max — no per-edge Python.  Within a
  level no vertex feeds another (levels strictly increase along edges),
  so a level is one vectorized step.  Tiny updates (a TILOS bump
  perturbs a handful of vertices) would drown in per-level numpy call
  overhead, so seeds below :data:`SCALAR_SEED_LIMIT` take a level-keyed
  heap walk over the same recurrences instead; both paths compute the
  same exact maxima, only the traversal differs.

Arrival times are *bitwise* identical to :class:`GraphTimer` (both
reduce the same max-plus recurrences; ``max`` is exact in floats).
Required times agree up to float re-association noise (``H - L`` sums
in a different order than the from-scratch backward pass); the test
suite asserts equality at 1e-9 relative tolerance on randomized update
sequences.

Every :meth:`IncrementalTimer.update_delays` call returns an
:class:`UpdateStats` with the cone size actually touched; cumulative
totals feed TILOS's ``timing_stats`` (the ``tilos.seed`` span's cone
attributes) and each W/D iteration's ``cone_fraction``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.dag.circuit_dag import SizingDag
from repro.errors import TimingError
from repro.timing.sta import TimingReport, trace_critical_path

__all__ = [
    "IncrementalArrivalTimes",
    "IncrementalTimer",
    "SCALAR_SEED_LIMIT",
    "UpdateStats",
]

_NEG_INF = float("-inf")

#: Updates seeding at most this many vertices run the scalar heap walk;
#: larger seeds take the vectorized level waves.  The crossover is
#: flat over a wide range (the scalar path wins whenever per-level
#: frontiers are a handful of vertices).
SCALAR_SEED_LIMIT = 32


@dataclass(frozen=True)
class UpdateStats:
    """Work done by one :meth:`IncrementalTimer.update_delays` call.

    Backward (required-time) work is lazy, so the ``rt_*`` fields of
    the stats returned by ``update_delays`` are always zero; the flush
    triggered by the first RT/slack query reports its cone through the
    engine's cumulative counters (``total_repropagated`` et al.).
    """

    #: Vertices whose arrival time was recomputed (forward cone).
    at_repropagated: int
    #: Subset of those whose arrival time actually moved.
    at_changed: int
    #: Vertices whose downstream path length was recomputed (backward cone).
    rt_repropagated: int
    #: Subset of those whose downstream path length actually moved.
    rt_changed: int
    #: DAG size, for normalization.
    n_vertices: int

    @property
    def repropagated(self) -> int:
        return self.at_repropagated + self.rt_repropagated

    @property
    def cone_fraction(self) -> float:
        """Touched work relative to one full forward+backward pass.

        A from-scratch :meth:`GraphTimer.analyze` visits every vertex
        once forward and once backward, so the full-pass equivalent is
        ``2 * n``; values well below 1.0 are the incremental win.
        """
        if self.n_vertices == 0:
            return 0.0
        return self.repropagated / (2.0 * self.n_vertices)


class IncrementalTimer:
    """Arrival and required times maintained under delay changes.

    ``at[v]`` is the arrival time at ``v`` (excluding ``delay(v)``);
    ``downstream[v]`` is ``L(v)`` above, so ``RT(v; H) = H - L(v)`` and
    ``slack(v; H) = RT(v; H) - AT(v)``.
    """

    def __init__(self, dag: SizingDag, delay: np.ndarray):
        self.dag = dag
        self.delay = np.array(delay, dtype=float)
        if self.delay.shape != (dag.n,):
            raise TimingError(
                f"delay shape {self.delay.shape} != ({dag.n},)"
            )
        n = dag.n
        self._po = np.array(dag.po_vertices, dtype=np.int64)
        self._po_base = np.full(n, _NEG_INF)
        self._po_base[self._po] = 0.0
        self._level = dag.level

        # CSR fanin (edges grouped by destination) and fanout (grouped
        # by source).  ``dag.edges`` is sorted by (src, dst) already.
        order = np.argsort(dag.edge_dst, kind="stable")
        self._fin_src = dag.edge_src[order]
        self._fin_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(dag.edge_dst, minlength=n),
                  out=self._fin_ptr[1:])
        self._fout_dst = dag.edge_dst
        self._fout_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(dag.edge_src, minlength=n),
                  out=self._fout_ptr[1:])

        # Vertices bucketed by level, for the wave sweeps.
        by_level = np.argsort(self._level, kind="stable").astype(np.int64)
        boundaries = np.searchsorted(
            self._level[by_level], np.arange(dag.n_levels + 1)
        )
        self._members = [
            by_level[boundaries[k]:boundaries[k + 1]]
            for k in range(dag.n_levels)
        ]

        self.at = np.zeros(n)
        self.downstream = np.full(n, _NEG_INF)
        self._dirty = np.zeros(n, dtype=bool)
        self._rt_stale = np.zeros(n, dtype=bool)
        self._rt_pending = 0
        #: False until the first RT/slack query computes ``downstream``;
        #: AT-only callers (TILOS) never trigger it.
        self._rt_ready = False

        # Cumulative telemetry across update_delays calls and lazy
        # required-time flushes.
        self.total_updates = 0
        self.total_repropagated = 0
        self.total_changed = 0

        self._full_recompute_at()

    # -- vectorized recomputation kernels ----------------------------------

    def _gather(
        self, ptr: np.ndarray, sel: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flat adjacency indices for ``sel`` plus segment offsets.

        Returns ``(idx, offsets, nonempty)``: ``idx`` indexes the CSR
        data array for every neighbour of every non-empty-adjacency
        member of ``sel``; ``offsets`` are the reduceat segment starts;
        ``nonempty`` masks ``sel`` rows that have neighbours at all.
        """
        starts = ptr[sel]
        counts = ptr[sel + 1] - starts
        nonempty = counts > 0
        counts = counts[nonempty]
        offsets = np.zeros(len(counts), dtype=np.int64)
        np.cumsum(counts[:-1], out=offsets[1:])
        total = int(counts.sum())
        idx = (
            np.repeat(starts[nonempty] - offsets, counts)
            + np.arange(total, dtype=np.int64)
        )
        return idx, offsets, nonempty

    def _recompute_at(self, sel: np.ndarray) -> np.ndarray:
        """AT of ``sel`` from scratch: segment max over fanin arcs."""
        new_at = np.zeros(sel.size)
        idx, offsets, nonempty = self._gather(self._fin_ptr, sel)
        if idx.size:
            src = self._fin_src[idx]
            new_at[nonempty] = np.maximum.reduceat(
                self.at[src] + self.delay[src], offsets
            )
        return new_at

    def _recompute_downstream(self, sel: np.ndarray) -> np.ndarray:
        """L of ``sel`` from scratch: segment max over fanout arcs."""
        best = self._po_base[sel].copy()
        idx, offsets, nonempty = self._gather(self._fout_ptr, sel)
        if idx.size:
            best[nonempty] = np.maximum(
                best[nonempty],
                np.maximum.reduceat(
                    self.downstream[self._fout_dst[idx]], offsets
                ),
            )
        return self.delay[sel] + best

    def _full_recompute_at(self) -> None:
        for lvl in range(self.dag.n_levels):
            members = self._members[lvl]
            self.at[members] = self._recompute_at(members)

    def _full_recompute_downstream(self) -> None:
        for lvl in range(self.dag.n_levels - 1, -1, -1):
            members = self._members[lvl]
            self.downstream[members] = self._recompute_downstream(members)

    # -- queries -----------------------------------------------------------

    @property
    def critical_path_delay(self) -> float:
        finish = self.at[self._po] + self.delay[self._po]
        return float(finish.max())

    @property
    def critical_vertex(self) -> int:
        finish = self.at[self._po] + self.delay[self._po]
        return int(self._po[int(np.argmax(finish))])

    def critical_path(self) -> list[int]:
        """One critical path, traced back through tight fanins."""
        return trace_critical_path(
            self.dag, self.at, self.delay,
            self.critical_vertex, self.critical_path_delay,
        )

    def required_times(self, horizon: float | None = None) -> np.ndarray:
        """``RT(v; H) = H - L(v)`` for any horizon (default: CP)."""
        self._flush_required()
        if horizon is None:
            horizon = self.critical_path_delay
        # -inf downstream (no path to a PO) maps to +inf required time,
        # matching the from-scratch backward pass.
        return horizon - self.downstream

    def _flush_required(self) -> None:
        """Run the deferred backward wave over all pending seeds."""
        if not self._rt_ready:
            # First RT/slack query ever: compute downstream lengths
            # from scratch (not counted as incremental work — it is
            # the baseline state, like the constructor's forward pass).
            self._full_recompute_downstream()
            self._rt_ready = True
            self._rt_stale[np.flatnonzero(self._rt_stale)] = False
            self._rt_pending = 0
            return
        if self._rt_pending == 0:
            return
        seeds = np.flatnonzero(self._rt_stale)
        self._rt_stale[seeds] = False
        self._rt_pending = 0
        if seeds.size <= SCALAR_SEED_LIMIT:
            re, ch = self._scalar_wave(seeds.tolist(), forward=False)
        else:
            re, ch = self._wave(seeds, forward=False)
        self.total_repropagated += re
        self.total_changed += ch

    def slack(self, horizon: float | None = None) -> np.ndarray:
        return self.required_times(horizon) - self.at

    def report(self, horizon: float | None = None) -> TimingReport:
        """A :class:`TimingReport` snapshot of the maintained state.

        Equivalent to ``GraphTimer(dag).analyze(delay, horizon)`` (up
        to float re-association in RT) at the cost of one array copy
        per field instead of a propagation pass.  The arrays are
        copies, matching ``analyze``'s contract that a report stays
        internally consistent after further ``update_delays`` calls.
        """
        cp = self.critical_path_delay
        if horizon is None:
            horizon = cp
        return TimingReport(
            dag=self.dag,
            delay=self.delay.copy(),
            at=self.at.copy(),
            rt=self.required_times(horizon),
            horizon=float(horizon),
            critical_path_delay=cp,
            critical_vertex=self.critical_vertex,
        )

    # -- updates -----------------------------------------------------------

    def update_delays(
        self, changed, delay: np.ndarray
    ) -> UpdateStats:
        """Adopt new delays; re-propagate through the affected cones.

        ``changed`` must list every vertex whose delay differs from the
        engine's current state (extra entries are harmless).  Returns
        the work actually done, for telemetry.
        """
        delay = np.asarray(delay, dtype=float)
        if delay.shape != (self.dag.n,):
            raise TimingError(
                f"delay shape {delay.shape} != ({self.dag.n},)"
            )
        self.delay = delay
        seeds = np.unique(np.asarray(changed, dtype=np.int64))

        # A changed delay at u perturbs the ATs of u's fanouts ...
        if seeds.size <= SCALAR_SEED_LIMIT:
            fwd = sorted(
                {w for u in seeds.tolist() for w in self.dag.fanout[u]}
            )
            at_re, at_ch = self._scalar_wave(fwd, forward=True)
        else:
            idx, _offsets, _nonempty = self._gather(self._fout_ptr, seeds)
            at_re, at_ch = self._wave(
                np.unique(self._fout_dst[idx]) if idx.size else seeds[:0],
                forward=True,
            )
        # ... and u's own downstream length L(u) (it includes delay(u)).
        # That backward wave is deferred to the first RT/slack query, so
        # callers that only track arrival times never pay for it.
        fresh = seeds[~self._rt_stale[seeds]]
        self._rt_stale[fresh] = True
        self._rt_pending += int(fresh.size)

        stats = UpdateStats(
            at_repropagated=at_re,
            at_changed=at_ch,
            rt_repropagated=0,
            rt_changed=0,
            n_vertices=self.dag.n,
        )
        self.total_updates += 1
        self.total_repropagated += at_re
        self.total_changed += at_ch
        return stats

    def _scalar_wave(
        self, seeds: list[int], forward: bool
    ) -> tuple[int, int]:
        """Heap-ordered scalar sweep for small cones.

        Identical recurrences (and bitwise-identical results) to
        :meth:`_wave`, but walks the cone one vertex at a time with a
        level-keyed heap — far cheaper than per-level numpy dispatch
        when the frontier is a handful of vertices.
        """
        if not seeds:
            return 0, 0
        dirty = self._dirty
        level = self._level
        sign = 1 if forward else -1
        heap: list[tuple[int, int]] = []
        for v in seeds:
            dirty[v] = True
            heap.append((sign * int(level[v]), int(v)))
        heapq.heapify(heap)
        at = self.at
        down = self.downstream
        delay = self.delay
        fanin = self.dag.fanin
        fanout = self.dag.fanout
        po_base = self._po_base
        recomputed = 0
        moved = 0
        while heap:
            _, v = heapq.heappop(heap)
            dirty[v] = False
            recomputed += 1
            if forward:
                new = 0.0
                for u in fanin[v]:
                    arrive = at[u] + delay[u]
                    if arrive > new:
                        new = arrive
                if new == at[v]:
                    continue
                at[v] = new
                moved += 1
                for w in fanout[v]:
                    if not dirty[w]:
                        dirty[w] = True
                        heapq.heappush(heap, (int(level[w]), w))
            else:
                best = po_base[v]
                for w in fanout[v]:
                    if down[w] > best:
                        best = down[w]
                new = delay[v] + best
                if new == down[v]:
                    continue
                down[v] = new
                moved += 1
                for u in fanin[v]:
                    if not dirty[u]:
                        dirty[u] = True
                        heapq.heappush(heap, (-int(level[u]), u))
        return recomputed, moved

    def _wave(self, seeds: np.ndarray, forward: bool) -> tuple[int, int]:
        """Level-ordered dirty-frontier sweep; returns (recomputed, moved).

        Forward waves recompute AT ascending by level and dirty the
        fanouts of moved vertices; backward waves recompute L descending
        and dirty the fanins.  Dirtied vertices always lie strictly
        beyond the current level, so one monotone pass suffices.
        """
        if seeds.size == 0:
            return 0, 0
        dirty = self._dirty
        dirty[seeds] = True
        pending = int(seeds.size)
        recomputed = 0
        moved_count = 0
        values = self.at if forward else self.downstream
        levels = (
            range(int(self._level[seeds].min()), self.dag.n_levels)
            if forward
            else range(int(self._level[seeds].max()), -1, -1)
        )
        for lvl in levels:
            if pending == 0:
                break
            members = self._members[lvl]
            sel = members[dirty[members]]
            if sel.size == 0:
                continue
            dirty[sel] = False
            pending -= int(sel.size)
            recomputed += int(sel.size)
            new_values = (
                self._recompute_at(sel)
                if forward
                else self._recompute_downstream(sel)
            )
            moved = sel[new_values != values[sel]]
            values[sel] = new_values
            if moved.size == 0:
                continue
            moved_count += int(moved.size)
            if forward:
                idx, _o, _n = self._gather(self._fout_ptr, moved)
                targets = self._fout_dst[idx]
            else:
                idx, _o, _n = self._gather(self._fin_ptr, moved)
                targets = self._fin_src[idx]
            if targets.size:
                fresh = np.unique(targets[~dirty[targets]])
                dirty[fresh] = True
                pending += int(fresh.size)
        return recomputed, moved_count


#: Backward-compatible name for the engine (it originally maintained
#: arrival times only; it now also keeps required times).
IncrementalArrivalTimes = IncrementalTimer
