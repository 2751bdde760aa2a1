"""Technology parameters for delay and area modelling.

The paper takes its 0.13 µm parameters from an SRC technology report [16]
that is not publicly archived.  This module substitutes representative
0.13 µm values (resistance of a unit-width device, gate/diffusion
capacitance per unit width, local wire capacitance).  Every experiment in
the paper is reported as a *ratio* against the minimum-sized circuit, so
results are insensitive to the absolute scale of these constants; what
matters is their relative magnitude (documented per field).

Units are internally consistent:

* size          — unit transistor widths (dimensionless multiples of Wmin)
* resistance    — kilo-ohms (kΩ)
* capacitance   — femtofarads (fF)
* time          — picoseconds (ps); kΩ·fF = ps
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import TechnologyError

__all__ = ["Technology", "default_technology", "scaled_technology"]


@dataclass(frozen=True)
class Technology:
    """Electrical and geometric constants of the target process.

    The defaults approximate a 0.13 µm bulk CMOS process.  The symbols in
    parentheses match the constants of the paper's equation (2)/(3):
    ``A`` (unit NMOS resistance), ``B`` (unit drain cap), ``C`` (unit
    source cap), ``B_p`` (unit PMOS drain cap), ``D``/``E`` (wire caps)
    and ``C_L`` (primary-output load).
    """

    name: str = "generic-0.13um"

    #: On-resistance of a unit-width NMOS device (paper's ``A``), kΩ.
    r_nmos: float = 8.5
    #: On-resistance of a unit-width PMOS device; ~2.2x NMOS for equal
    #: width because of the hole/electron mobility ratio.
    r_pmos: float = 18.7

    #: Gate capacitance per unit width, fF (loads the driving gate).
    c_gate_n: float = 0.90
    c_gate_p: float = 0.90

    #: Drain diffusion capacitance per unit width (paper's ``B``/``B_p``),
    #: fF.  Kept well below the gate capacitance so that the sized
    #: stage-delay floor sits near 0.3x of the minimum-sized stage delay;
    #: that headroom is what makes the paper's 0.4*Dmin targets reachable.
    c_drain_n: float = 0.32
    c_drain_p: float = 0.32
    #: Source diffusion capacitance per unit width (paper's ``C``), fF.
    c_source_n: float = 0.26
    c_source_p: float = 0.26

    #: Capacitance of a local interconnect wire per fanout branch
    #: (paper's ``D``/``E`` constants), fF.
    c_wire: float = 3.2
    #: Fixed capacitance of an internal stack node (transistor mode), fF.
    c_internal: float = 0.3
    #: Default load on every primary output (paper's ``C_L``), fF.
    c_load: float = 25.0

    #: Size bounds of the optimization, in unit widths (paper's
    #: ``minsize``/``maxsize`` in problem statement (1)).
    min_size: float = 1.0
    max_size: float = 128.0

    #: Wire-sizing extension (paper section 2.1).  A net sized ``s``
    #: has resistance ``r_wire / s`` and its area-scaling capacitance
    #: grows with ``s``; the fringe fraction of ``c_wire`` does not
    #: scale.  Wire widths have their own bounds.
    r_wire: float = 1.5
    wire_fringe_fraction: float = 0.4
    wire_min_size: float = 1.0
    wire_max_size: float = 16.0

    def __post_init__(self) -> None:
        positive = {
            "r_nmos": self.r_nmos,
            "r_pmos": self.r_pmos,
            "c_gate_n": self.c_gate_n,
            "c_gate_p": self.c_gate_p,
            "min_size": self.min_size,
            "max_size": self.max_size,
        }
        for attr, value in positive.items():
            if value <= 0.0:
                raise TechnologyError(f"{attr} must be positive, got {value!r}")
        non_negative = {
            "c_drain_n": self.c_drain_n,
            "c_drain_p": self.c_drain_p,
            "c_source_n": self.c_source_n,
            "c_source_p": self.c_source_p,
            "c_wire": self.c_wire,
            "c_internal": self.c_internal,
            "c_load": self.c_load,
        }
        for attr, value in non_negative.items():
            if value < 0.0:
                raise TechnologyError(f"{attr} must be non-negative, got {value!r}")
        if self.max_size < self.min_size:
            raise TechnologyError(
                f"max_size ({self.max_size}) must be >= min_size ({self.min_size})"
            )
        if self.r_wire <= 0:
            raise TechnologyError(f"r_wire must be positive, got {self.r_wire}")
        if not 0.0 <= self.wire_fringe_fraction <= 1.0:
            raise TechnologyError(
                "wire_fringe_fraction must lie in [0, 1], got "
                f"{self.wire_fringe_fraction}"
            )
        if self.wire_max_size < self.wire_min_size:
            raise TechnologyError("wire size bounds inverted")

    # -- convenience ----------------------------------------------------

    @property
    def beta_ratio(self) -> float:
        """PMOS/NMOS resistance ratio (used to balance rise/fall delay)."""
        return self.r_pmos / self.r_nmos

    def with_bounds(self, min_size: float, max_size: float) -> "Technology":
        """Return a copy with different size bounds."""
        return replace(self, min_size=min_size, max_size=max_size)


def default_technology() -> Technology:
    """The technology used by all experiments unless overridden."""
    return Technology()


def scaled_technology(scale: float, name: str | None = None) -> Technology:
    """Return a technology with all capacitances scaled by ``scale``.

    Useful for sensitivity studies: scaling every capacitance by a common
    factor scales every delay by the same factor and must leave all sizing
    decisions unchanged (tested property).
    """
    if scale <= 0.0:
        raise TechnologyError(f"scale must be positive, got {scale!r}")
    base = Technology()
    return Technology(
        name=name or f"{base.name}-cap-x{scale:g}",
        r_nmos=base.r_nmos,
        r_pmos=base.r_pmos,
        c_gate_n=base.c_gate_n * scale,
        c_gate_p=base.c_gate_p * scale,
        c_drain_n=base.c_drain_n * scale,
        c_drain_p=base.c_drain_p * scale,
        c_source_n=base.c_source_n * scale,
        c_source_p=base.c_source_p * scale,
        c_wire=base.c_wire * scale,
        c_internal=base.c_internal * scale,
        c_load=base.c_load * scale,
        min_size=base.min_size,
        max_size=base.max_size,
    )
