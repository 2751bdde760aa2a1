"""D-phase: optimal delay-budget redistribution (paper section 2.3.1).

Given the current sizes (fixed), the D-phase finds per-vertex delay
changes ``ΔD`` that (a) keep every path within the horizon — enforced
through FSDU non-negativity on a delay-balanced configuration — and
(b) maximize the first-order predicted area reduction

    sum_i C_i * ΔD_i ,   C_i = x_i * [ (D - A)^{-T} w ]_i  > 0

(the Taylor-expansion coefficients of equation (7), generalized to a
weighted area objective ``w``).  The optimization is a difference-
constraint LP over displacement potentials ``r`` whose dual is a
min-cost network flow; :func:`repro.flow.duality.solve_difference_lp`
solves it.

Costs and supplies are integerized by decimal scaling exactly as the
paper prescribes, with FSDU costs rounded *down* so the integerized
LP's feasible set is contained in the true one (a solution can never
overdraw slack because of rounding).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.balancing.fsdu import FsduConfiguration
from repro.dag.circuit_dag import SizingDag
from repro.dag.transform import transform_dag
from repro.errors import SizingError
from repro.flow.duality import (
    DifferenceConstraintLP,
    integerize_values,
    solve_difference_lp,
)

__all__ = ["DPhaseResult", "area_sensitivities", "build_dphase_lp", "d_phase"]


@dataclass
class DPhaseResult:
    """Outcome of one D-phase solve."""

    delta_d: np.ndarray
    r_vertex: np.ndarray
    r_dummy: np.ndarray
    sensitivities: np.ndarray
    #: Predicted first-order area decrease, sum_i C_i * ΔD_i (>= 0).
    predicted_gain: float
    backend: str


def area_sensitivities(dag: SizingDag, x: np.ndarray) -> np.ndarray:
    """The paper's C coefficients: ``C = x ∘ (D - A)^{-T} w``.

    ``D`` is the diagonal of *loading* delays (total minus intrinsic) at
    sizes ``x``; ``w`` is the area weight vector.  Solved by forward
    substitution over the DAG's blocks — exploiting the (block) upper
    triangular structure the paper establishes in section 2.3.
    """
    model = dag.model
    load_delay = model.load_delays(x)
    tiny = 1e-12 * max(float(load_delay.max(initial=0.0)), 1.0)
    if np.any(load_delay <= tiny):
        vertex = int(np.argmin(load_delay))
        raise SizingError(
            f"vertex {vertex} ({dag.vertices[vertex].label}) has no load "
            "delay; dangling vertices must be removed before sizing"
        )

    transpose = model.a_matrix.T.tocsr()
    indptr, indices, data = (
        transpose.indptr,
        transpose.indices,
        transpose.data,
    )
    w = dag.area_weight
    y = np.zeros(dag.n)
    for block in dag.blocks:
        if len(block) == 1:
            i = block[0]
            start, end = indptr[i], indptr[i + 1]
            acc = float(data[start:end] @ y[indices[start:end]])
            y[i] = (w[i] + acc) / load_delay[i]
            continue
        block_pos = {i: k for k, i in enumerate(block)}
        size = len(block)
        matrix = np.zeros((size, size))
        rhs = np.zeros(size)
        for k, i in enumerate(block):
            matrix[k, k] = load_delay[i]
            rhs[k] = w[i]
            start, end = indptr[i], indptr[i + 1]
            for j, a_ji in zip(indices[start:end], data[start:end]):
                if j in block_pos:
                    matrix[k, block_pos[j]] -= a_ji
                else:
                    rhs[k] += a_ji * y[j]
        solution = np.linalg.solve(matrix, rhs)
        for k, i in enumerate(block):
            y[i] = solution[k]
    if np.any(y <= 0):
        vertex = int(np.argmin(y))
        raise SizingError(
            f"non-positive area sensitivity at vertex {vertex}; the "
            "(D - A) system is not an M-matrix here (model bug?)"
        )
    return x * y


def build_dphase_lp(
    dag: SizingDag,
    config: FsduConfiguration,
    sensitivities: np.ndarray,
    min_dd: np.ndarray,
    max_dd: np.ndarray,
    cost_scale: float,
    weight_scale: float,
) -> DifferenceConstraintLP:
    """Assemble the (integerized) difference-constraint LP of eq. (10)."""
    transformed = transform_dag(dag)
    n = dag.n
    weights = np.zeros(transformed.n_nodes)
    scaled_c = integerize_values(sensitivities * weight_scale)
    weights[:n] = -scaled_c
    weights[n : 2 * n] = scaled_c

    lp = DifferenceConstraintLP(
        n_nodes=transformed.n_nodes,
        weights=weights,
        pinned=transformed.pinned,
    )
    edge_lookup = {edge: k for k, edge in enumerate(dag.edges)}
    po_lookup = {leaf: k for k, leaf in enumerate(dag.po_vertices)}
    for arc in transformed.arcs:
        if arc.kind == "delay":
            i = arc.src
            fsdu = config.delay_fsdu[i]
            # r(i) - r(Dmy(i)) <= fsdu - MIN_ΔD(i)
            lp.add(i, arc.dst, integerize_values(
                (fsdu - min_dd[i]) * cost_scale, mode="floor"))
            # r(Dmy(i)) - r(i) <= MAX_ΔD(i) - fsdu
            lp.add(arc.dst, i, integerize_values(
                (max_dd[i] - fsdu) * cost_scale, mode="floor"))
        elif arc.kind == "wire":
            assert arc.origin is not None
            fsdu = config.wire_fsdu[edge_lookup[arc.origin]]
            lp.add(arc.src, arc.dst, integerize_values(
                fsdu * cost_scale, mode="floor"))
        else:  # po
            leaf = arc.src - n
            fsdu = config.po_fsdu[po_lookup[leaf]]
            lp.add(arc.src, arc.dst, integerize_values(
                fsdu * cost_scale, mode="floor"))
    return lp


def d_phase(
    dag: SizingDag,
    x: np.ndarray,
    config: FsduConfiguration,
    min_dd: np.ndarray,
    max_dd: np.ndarray,
    backend: str = "auto",
) -> DPhaseResult:
    """Run one D-phase: redistribute delay budgets at fixed sizes."""
    if np.any(max_dd < min_dd):
        raise SizingError("MAX_ΔD must dominate MIN_ΔD componentwise")
    sensitivities = area_sensitivities(dag, x)

    # Decimal integerization (paper: "multiplying every constant term by
    # some power of 10 and rounding").
    span = max(float(np.max(max_dd)), float(config.horizon), 1e-30)
    cost_scale = 10.0 ** (6 - int(np.floor(np.log10(span))))
    weight_scale = 10.0 ** (
        6 - int(np.floor(np.log10(max(float(sensitivities.max()), 1e-30))))
    )

    lp = build_dphase_lp(
        dag, config, sensitivities, min_dd, max_dd, cost_scale, weight_scale
    )
    solution = solve_difference_lp(lp, backend=backend)

    n = dag.n
    r_vertex = solution.r[:n] / cost_scale
    r_dummy = solution.r[n : 2 * n] / cost_scale
    delta_d = config.delay_fsdu + r_dummy - r_vertex
    # The floor() integerization keeps ΔD within the trust region up to
    # one cost-scale quantum; clip the residual quantization noise.
    delta_d = np.clip(delta_d, min_dd, max_dd)
    predicted = float(sensitivities @ delta_d)
    return DPhaseResult(
        delta_d=delta_d,
        r_vertex=r_vertex,
        r_dummy=r_dummy,
        sensitivities=sensitivities,
        predicted_gain=predicted,
        backend=solution.backend,
    )
