"""Vertex delay model: the matrix form of paper equations (4)-(6).

Every DAG vertex ``i`` has

    delay(i) = intrinsic_i + g(x_i) * (sum_j a_ij x_j + b_i)

The coefficients are stored as a ``scipy.sparse`` CSR matrix so the full
delay vector evaluates in one sparse mat-vec — the hot operation of
TILOS, the D-phase coefficient computation and the W-phase.

For the Elmore law ``g(x) = 1/x`` the *loading* part of the delay is
exactly the paper's ``(D - A) X = B`` system:

    (delay(i) - intrinsic_i) * x_i  -  sum_j a_ij x_j  =  b_i
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from repro.delay.monotonic import ElmoreSizeLaw, SizeLaw, check_decomposition
from repro.errors import DelayModelError

__all__ = ["VertexDelayModel"]


@dataclass
class VertexDelayModel:
    """Delay coefficients for all vertices of a sizing DAG."""

    n: int
    #: CSR matrix of coupling coefficients a_ij (n x n, zero diagonal).
    a_matrix: sparse.csr_matrix
    #: Constant load term b_i per vertex (wire + primary-output caps).
    b: np.ndarray
    #: Size-independent delay per vertex (self loading, macro stages).
    intrinsic: np.ndarray
    #: The self-size law g (Elmore by default).
    law: SizeLaw = field(default_factory=ElmoreSizeLaw)

    @classmethod
    def from_rows(
        cls,
        rows: list[list[tuple[int, float]]],
        b: np.ndarray,
        intrinsic: np.ndarray,
        law: SizeLaw | None = None,
    ) -> "VertexDelayModel":
        """Build and validate from per-vertex coefficient lists."""
        n = len(rows)
        b = np.asarray(b, dtype=float)
        intrinsic = np.asarray(intrinsic, dtype=float)
        check_decomposition(rows, b, intrinsic, n)
        data: list[float] = []
        indices: list[int] = []
        indptr = [0]
        for row in rows:
            merged: dict[int, float] = {}
            for j, coefficient in row:
                merged[j] = merged.get(j, 0.0) + coefficient
            for j in sorted(merged):
                indices.append(j)
                data.append(merged[j])
            indptr.append(len(indices))
        a_matrix = sparse.csr_matrix(
            (np.array(data), np.array(indices, dtype=np.int64),
             np.array(indptr, dtype=np.int64)),
            shape=(n, n),
        )
        return cls(
            n=n,
            a_matrix=a_matrix,
            b=b,
            intrinsic=intrinsic,
            law=law or ElmoreSizeLaw(),
        )

    # -- evaluation -------------------------------------------------------

    def load(self, x: np.ndarray) -> np.ndarray:
        """The load term ``sum_j a_ij x_j + b_i`` for every vertex."""
        return self.a_matrix @ x + self.b

    def delays(self, x: np.ndarray) -> np.ndarray:
        """Vertex delays at sizes ``x``."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise DelayModelError(
                f"size vector shape {x.shape} != ({self.n},)"
            )
        if np.any(x <= 0):
            raise DelayModelError("sizes must be strictly positive")
        return self.intrinsic + self.law.g_array(x) * self.load(x)

    def load_delays(self, x: np.ndarray) -> np.ndarray:
        """The variable part of the delay (total minus intrinsic)."""
        return self.delays(x) - self.intrinsic

    # -- structure ----------------------------------------------------------

    def dependencies(self, i: int) -> list[tuple[int, float]]:
        """The (j, a_ij) pairs of vertex ``i`` (the paper's set S)."""
        start, end = self.a_matrix.indptr[i], self.a_matrix.indptr[i + 1]
        return list(
            zip(
                self.a_matrix.indices[start:end].tolist(),
                self.a_matrix.data[start:end].tolist(),
            )
        )

    def with_law(self, law: SizeLaw) -> "VertexDelayModel":
        """Same coefficients under a different size law."""
        return VertexDelayModel(
            n=self.n,
            a_matrix=self.a_matrix,
            b=self.b,
            intrinsic=self.intrinsic,
            law=law,
        )
