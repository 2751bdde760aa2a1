"""Exact structural identity of a sizing instance.

:func:`dag_digest` hashes everything the TILOS greedy loop reads, so two
DAGs with equal digests run bit-identical trajectories.  It gates
trajectory replay in :func:`repro.sizing.tilos.tilos_size` and keys the
per-instance trajectory records of :mod:`repro.runner.trajectory`.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np

from repro.dag.circuit_dag import SizingDag

__all__ = ["dag_digest"]


def dag_digest(dag: SizingDag) -> str:
    """Exact structural identity of a sizing instance (hex sha256).

    Covers everything the TILOS greedy loop reads: topology (edges and
    their multiplicity), the delay model's coefficient arrays, the
    size bounds and area weights, and the delay law's configuration.
    Two DAGs with equal digests run bit-identical greedy trajectories,
    which is what licenses warm-start replay.
    """
    model = dag.model
    h = hashlib.sha256()
    h.update(f"dag/1|{dag.mode}|{dag.n}|".encode())
    law = model.law
    law_fields: object
    if dataclasses.is_dataclass(law):
        law_fields = sorted(dataclasses.asdict(law).items())
    else:
        law_fields = ()
    h.update(f"{type(law).__name__}|{law_fields}|".encode())
    arrays = (
        dag.edge_src,
        dag.edge_dst,
        dag.edge_multiplicity,
        model.a_matrix.data,
        model.a_matrix.indices,
        model.a_matrix.indptr,
        model.b,
        model.intrinsic,
        dag.lower,
        dag.upper,
        dag.area_weight,
    )
    for arr in arrays:
        contiguous = np.ascontiguousarray(arr)
        h.update(str(contiguous.dtype).encode())
        h.update(contiguous.tobytes())
    return h.hexdigest()
