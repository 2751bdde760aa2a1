"""The circuit DAG of paper section 2.2, for gate and transistor sizing.

A :class:`SizingDag` ties together:

* one vertex per size variable (a gate in gate-sizing mode, a transistor
  in transistor-sizing mode),
* structural edges (wires between gates; stack adjacency inside gates),
* a :class:`~repro.delay.model.VertexDelayModel` holding the simple
  monotonic delay decomposition,
* per-vertex size bounds and area weights,
* topological bookkeeping (order, levels, blocks) used by timing
  analysis, the D-phase triangular solves and the W-phase relaxation.

Builders live in :mod:`repro.dag.gate_mode` and
:mod:`repro.dag.transistor_mode`; use
:func:`repro.dag.build_sizing_dag` as the public entry point.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.delay.model import VertexDelayModel
from repro.errors import TimingError

__all__ = ["DagVertex", "SizingDag"]


@dataclass(frozen=True)
class DagVertex:
    """One vertex of the circuit DAG.

    ``kind`` is ``"gate"`` in gate mode, ``"nmos"``/``"pmos"`` in
    transistor mode.  ``block`` groups vertices whose delay coefficients
    may couple cyclically (the blocks of the paper's block upper
    triangular matrix); in gate mode every vertex is its own block.
    """

    index: int
    label: str
    gate: str
    kind: str
    block: int


class SizingDag:
    """Circuit DAG plus delay model and optimization metadata."""

    def __init__(
        self,
        name: str,
        mode: str,
        vertices: list[DagVertex],
        edges: list[tuple[int, int]],
        model: VertexDelayModel,
        po_vertices: list[int],
        lower: np.ndarray,
        upper: np.ndarray,
        area_weight: np.ndarray,
    ):
        self.name = name
        self.mode = mode
        self.vertices = vertices
        self.n = len(vertices)
        if model.n != self.n:
            raise TimingError(
                f"delay model covers {model.n} vertices, DAG has {self.n}"
            )
        self.model = model
        self.lower = np.asarray(lower, dtype=float)
        self.upper = np.asarray(upper, dtype=float)
        self.area_weight = np.asarray(area_weight, dtype=float)

        # Deduplicate structural edges while remembering multiplicity.
        multiplicity: dict[tuple[int, int], int] = {}
        for u, v in edges:
            if u == v:
                raise TimingError(f"self loop on vertex {u}")
            multiplicity[(u, v)] = multiplicity.get((u, v), 0) + 1
        self.edges = sorted(multiplicity)
        self.edge_multiplicity = np.array(
            [multiplicity[e] for e in self.edges], dtype=np.int64
        )
        self.edge_src = np.array([u for u, _ in self.edges], dtype=np.int64)
        self.edge_dst = np.array([v for _, v in self.edges], dtype=np.int64)

        self.fanin: list[list[int]] = [[] for _ in range(self.n)]
        self.fanout: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            self.fanout[u].append(v)
            self.fanin[v].append(u)

        self.sources = [i for i in range(self.n) if not self.fanin[i]]
        self.sinks = [i for i in range(self.n) if not self.fanout[i]]
        self.po_vertices = sorted(set(po_vertices))
        if not self.po_vertices and self.n:
            raise TimingError(f"DAG {name!r} has no primary-output vertices")

        self.topo_order = self._topological_order()
        self.level = self._levels()
        self.n_levels = int(self.level.max()) + 1 if self.n else 0
        self.blocks = self._block_order()
        # Per-DAG cache of derived sizing-kernel structures (the SMP
        # level plan, the TILOS coupling plan): the topology and delay
        # coefficients are immutable, so consumers build once and reuse
        # (see repro.sizing.kernels.get_smp_plan / get_tilos_plan).
        self.kernel_cache: dict[str, object] = {}

    # -- construction helpers ------------------------------------------------

    def _topological_order(self) -> np.ndarray:
        indegree = np.zeros(self.n, dtype=np.int64)
        for _, v in self.edges:
            indegree[v] += 1
        ready = deque(i for i in range(self.n) if indegree[i] == 0)
        order: list[int] = []
        while ready:
            u = ready.popleft()
            order.append(u)
            for v in self.fanout[u]:
                indegree[v] -= 1
                if indegree[v] == 0:
                    ready.append(v)
        if len(order) != self.n:
            raise TimingError(f"DAG {self.name!r} contains a cycle")
        return np.array(order, dtype=np.int64)

    def _levels(self) -> np.ndarray:
        level = np.zeros(self.n, dtype=np.int64)
        for u in self.topo_order:
            for v in self.fanout[u]:
                level[v] = max(level[v], level[u] + 1)
        return level

    def _block_order(self) -> list[list[int]]:
        """Vertex blocks in topological block order.

        The block id of a vertex groups delay-coupled vertices (one gate's
        transistors).  Block order follows the minimum topological
        position of any member, which respects the block upper triangular
        structure asserted in section 2.3.
        """
        position = np.empty(self.n, dtype=np.int64)
        position[self.topo_order] = np.arange(self.n)
        members: dict[int, list[int]] = {}
        first: dict[int, int] = {}
        for vertex in self.vertices:
            members.setdefault(vertex.block, []).append(vertex.index)
            pos = int(position[vertex.index])
            first[vertex.block] = min(first.get(vertex.block, pos), pos)
        ordered_blocks = sorted(members, key=lambda blk: first[blk])
        return [sorted(members[blk]) for blk in ordered_blocks]

    # -- queries ----------------------------------------------------------------

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def delays(self, x: np.ndarray) -> np.ndarray:
        return self.model.delays(x)

    def area(self, x: np.ndarray) -> float:
        """Objective value: weighted sum of sizes (paper eq. (1))."""
        return float(self.area_weight @ x)

    def min_sizes(self) -> np.ndarray:
        return self.lower.copy()

    def clip(self, x: np.ndarray) -> np.ndarray:
        return np.clip(x, self.lower, self.upper)

    def labels(self) -> list[str]:
        return [vertex.label for vertex in self.vertices]

    def __repr__(self) -> str:
        return (
            f"SizingDag({self.name!r}, mode={self.mode!r}, n={self.n}, "
            f"edges={self.n_edges}, levels={self.n_levels})"
        )
