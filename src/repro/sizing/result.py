"""Result records for the sizing optimizers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["IterationRecord", "SizingResult"]


@dataclass(frozen=True)
class IterationRecord:
    """One D/W iteration of MINFLOTRANSIT.

    The telemetry fields trace where the iteration spent its work: the
    timing cone the incremental engine actually re-propagated (against
    a full-STA equivalent of 1.0) and the W-phase relaxation sweeps.
    """

    iteration: int
    area: float
    critical_path_delay: float
    predicted_gain: float
    alpha: float
    accepted: bool
    backend: str
    #: Vertices re-propagated by incremental timing this iteration.
    repropagated_vertices: int = 0
    #: ``repropagated / full-pass equivalent``; 1.0 means no savings.
    cone_fraction: float = 1.0
    #: SMP relaxation sweeps the W-phase took this iteration.
    w_sweeps: int = 0


@dataclass
class SizingResult:
    """Final outcome of a sizing run."""

    name: str
    mode: str
    x: np.ndarray
    area: float
    critical_path_delay: float
    target: float
    converged: bool
    runtime_seconds: float
    initial_area: float
    iterations: list[IterationRecord] = field(default_factory=list)

    @property
    def n_iterations(self) -> int:
        """Number of W/D iterations recorded."""
        return len(self.iterations)

    @property
    def w_sweeps_total(self) -> int:
        """Total SMP sweeps across all recorded W-phases."""
        return sum(rec.w_sweeps for rec in self.iterations)

    @property
    def area_saving_vs_initial(self) -> float:
        """Fractional area saved relative to the initial solution."""
        if self.initial_area <= 0:
            return 0.0
        return 1.0 - self.area / self.initial_area

    @property
    def meets_target(self) -> bool:
        """True when the final delay satisfies the target (tolerant)."""
        return self.critical_path_delay <= self.target * (1 + 1e-9)

    def summary(self) -> str:
        """One-line human-readable digest (the CLI's result line)."""
        return (
            f"{self.name} [{self.mode}]: area {self.area:.2f} "
            f"(initial {self.initial_area:.2f}, "
            f"saved {100 * self.area_saving_vs_initial:.2f}%), "
            f"delay {self.critical_path_delay:.2f} / target {self.target:.2f}, "
            f"{self.n_iterations} iterations, "
            f"{'converged' if self.converged else 'iteration limit'}"
        )
