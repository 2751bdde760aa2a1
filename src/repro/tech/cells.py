"""Standard-cell library.

Two classes of cells exist:

* **Primitive cells** (INV, NANDk, NORk, AOI/OAI) carry explicit
  series-parallel transistor networks; they support both gate sizing and
  true transistor sizing.
* **Macro cells** (BUF, ANDk, ORk, XOR2, XNOR2) are compositions of
  primitives.  They support gate sizing directly through equivalent-
  inverter parameters derived from their composition, and transistor
  sizing after :func:`repro.circuit.mapping.map_to_primitives` expands
  them.

For gate sizing the paper models each gate as an equivalent inverter;
:meth:`CellLibrary.equivalent_inverter` derives those parameters
(drive resistance, per-pin input capacitance, parasitic output
capacitance, area) from the transistor networks and a
:class:`~repro.tech.parameters.Technology`.

All devices within a cell have relative width 1 at unit size, exactly as
in the paper's formulation where a single parameter scales the gate: the
stacking penalty then appears as ``stack_depth * r_unit`` in the drive
resistance, matching the Elmore expression (3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from repro.errors import TechnologyError
from repro.tech.networks import SPNetwork, dual, leaf, parallel, series
from repro.tech.parameters import Technology

__all__ = [
    "Cell",
    "CellLibrary",
    "EquivalentInverter",
    "default_library",
    "PRIMITIVE_FUNCTIONS",
]


# ---------------------------------------------------------------------------
# logic functions
# ---------------------------------------------------------------------------

def _and(*v: bool) -> bool:
    return all(v)


def _or(*v: bool) -> bool:
    return any(v)


def _nand(*v: bool) -> bool:
    return not all(v)


def _nor(*v: bool) -> bool:
    return not any(v)


def _xor(*v: bool) -> bool:
    return sum(map(bool, v)) % 2 == 1


def _xnor(*v: bool) -> bool:
    return sum(map(bool, v)) % 2 == 0


def _not(a: bool) -> bool:
    return not a


def _buf(a: bool) -> bool:
    return bool(a)


def _aoi21(a: bool, b: bool, c: bool) -> bool:
    return not ((a and b) or c)


def _aoi22(a: bool, b: bool, c: bool, d: bool) -> bool:
    return not ((a and b) or (c and d))


def _oai21(a: bool, b: bool, c: bool) -> bool:
    return not ((a or b) and c)


def _oai22(a: bool, b: bool, c: bool, d: bool) -> bool:
    return not ((a or b) and (c or d))


PRIMITIVE_FUNCTIONS: Mapping[str, Callable[..., bool]] = {
    "AND": _and,
    "OR": _or,
    "NAND": _nand,
    "NOR": _nor,
    "XOR": _xor,
    "XNOR": _xnor,
    "NOT": _not,
    "BUF": _buf,
    "AOI21": _aoi21,
    "AOI22": _aoi22,
    "OAI21": _oai21,
    "OAI22": _oai22,
}


# ---------------------------------------------------------------------------
# cell model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EquivalentInverter:
    """Gate-sizing view of a cell at unit size.

    ``delay = intrinsic + (r_eq / x) * (sum of external load caps)``
    where loads scale with the sizes of the driven gates.
    """

    #: Worst-case drive resistance at unit size, kΩ (max of rise/fall).
    r_eq: float
    r_rise: float
    r_fall: float
    #: Input capacitance presented by each pin at unit size, fF.
    cin: float
    #: Parasitic capacitance at the output node at unit size, fF.
    c_par: float
    #: Size-independent delay, ps (self loading + the gate-load part of
    #: internal macro stages, which scales with the cell itself).
    intrinsic: float
    #: Extra constant load-delay numerator, ps*size: internal macro wire
    #: load that does NOT scale with the cell, so it contributes
    #: ``internal_load_delay / x`` to the delay (folds into ``b``).
    internal_load_delay: float
    #: Device area at unit size (sum of relative widths = device count).
    area: float


@dataclass(frozen=True)
class Cell:
    """One library cell.

    ``pulldown`` is ``None`` for macro cells; ``stages`` then describes
    the internal primitive composition used for delay derivation and
    technology mapping.
    """

    name: str
    function: str
    inputs: tuple[str, ...]
    pulldown: SPNetwork | None = None
    pullup: SPNetwork | None = None
    #: Macro composition: (driver primitive, number of driven primitive
    #: pins, fanout branches) for every *internal* stage, input to output.
    stages: tuple[tuple[str, int, int], ...] = ()
    #: Primitive whose pin loading an external input of a macro sees, and
    #: how many copies of that pin it drives.
    pin_load: tuple[str, int] = ("", 1)
    #: Primitive that drives a macro's output.
    driver: str = ""

    @property
    def n_inputs(self) -> int:
        return len(self.inputs)

    @property
    def is_primitive(self) -> bool:
        return self.pulldown is not None

    @property
    def device_count(self) -> int:
        if self.is_primitive:
            assert self.pulldown is not None and self.pullup is not None
            return self.pulldown.device_count + self.pullup.device_count
        # Macro device count is recorded by the library at build time.
        raise TechnologyError(
            f"macro cell {self.name} has no direct device count; "
            "ask the CellLibrary"
        )

    def evaluate(self, *values: bool) -> bool:
        """Evaluate the cell's boolean function."""
        if len(values) != self.n_inputs:
            raise TechnologyError(
                f"{self.name} expects {self.n_inputs} inputs, "
                f"got {len(values)}"
            )
        return PRIMITIVE_FUNCTIONS[self.function](*values)


def _primitive(name: str, function: str, pulldown: SPNetwork) -> Cell:
    pins = tuple(dict.fromkeys(pulldown.pins()))
    return Cell(
        name=name,
        function=function,
        inputs=pins,
        pulldown=pulldown,
        pullup=dual(pulldown),
    )


def _nand_cell(k: int) -> Cell:
    pins = [f"in{i}" for i in range(k)]
    # Stack order: in0 at the output side, in{k-1} at the ground side.
    return _primitive(f"NAND{k}", "NAND", series(*(leaf(p) for p in pins)))


def _nor_cell(k: int) -> Cell:
    pins = [f"in{i}" for i in range(k)]
    return _primitive(f"NOR{k}", "NOR", parallel(*(leaf(p) for p in pins)))


def _macro(
    name: str,
    function: str,
    n_inputs: int,
    pin_load: tuple[str, int],
    stages: tuple[tuple[str, int, int], ...],
    driver: str,
) -> Cell:
    return Cell(
        name=name,
        function=function,
        inputs=tuple(f"in{i}" for i in range(n_inputs)),
        stages=stages,
        pin_load=pin_load,
        driver=driver,
    )


# ---------------------------------------------------------------------------
# library
# ---------------------------------------------------------------------------

class CellLibrary:
    """An immutable collection of cells plus derived electrical views."""

    def __init__(self, cells: list[Cell], macro_devices: Mapping[str, int]):
        self._cells = {cell.name: cell for cell in cells}
        if len(self._cells) != len(cells):
            raise TechnologyError("duplicate cell names in library")
        self._macro_devices = dict(macro_devices)
        for cell in cells:
            if not cell.is_primitive and cell.name not in self._macro_devices:
                raise TechnologyError(
                    f"macro cell {cell.name} missing a device count"
                )
        self._eq_cache: dict[tuple[str, int], EquivalentInverter] = {}

    # -- lookup ----------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._cells

    def __iter__(self):
        return iter(self._cells.values())

    def __len__(self) -> int:
        return len(self._cells)

    @property
    def names(self) -> list[str]:
        return sorted(self._cells)

    def cell(self, name: str) -> Cell:
        try:
            return self._cells[name]
        except KeyError:
            raise TechnologyError(f"unknown cell {name!r}") from None

    def device_count(self, name: str) -> int:
        cell = self.cell(name)
        if cell.is_primitive:
            return cell.device_count
        return self._macro_devices[name]

    def cell_for_function(self, function: str, n_inputs: int) -> Cell:
        """The library cell implementing ``function`` at a given arity."""
        direct = {
            ("NOT", 1): "INV",
            ("BUF", 1): "BUF",
            ("XOR", 2): "XOR2",
            ("XNOR", 2): "XNOR2",
        }
        name = direct.get((function, n_inputs))
        if name is None:
            name = f"{function}{n_inputs}"
        if name not in self._cells:
            raise TechnologyError(
                f"no cell implements {function} with {n_inputs} inputs"
            )
        return self._cells[name]

    # -- equivalent-inverter derivation -----------------------------------

    def equivalent_inverter(
        self, name: str, tech: Technology
    ) -> EquivalentInverter:
        """Gate-sizing parameters of ``name`` under ``tech``.

        Derived once per (cell, technology) pair and cached.
        """
        key = (name, id(tech))
        cached = self._eq_cache.get(key)
        if cached is not None:
            return cached
        cell = self.cell(name)
        if cell.is_primitive:
            result = self._primitive_eq(cell, tech)
        else:
            result = self._macro_eq(cell, tech)
        self._eq_cache[key] = result
        return result

    def _primitive_eq(self, cell: Cell, tech: Technology) -> EquivalentInverter:
        assert cell.pulldown is not None and cell.pullup is not None
        r_fall = tech.r_nmos * cell.pulldown.max_stack_depth
        r_rise = tech.r_pmos * cell.pullup.max_stack_depth
        r_eq = max(r_fall, r_rise)
        # Every pin gates exactly one NMOS and one PMOS device per
        # occurrence in the networks.
        occurrences = max(
            cell.pulldown.pins().count(pin) for pin in cell.inputs
        )
        cin = occurrences * (tech.c_gate_n + tech.c_gate_p)
        # Output node parasitic: drains of devices adjacent to the output
        # in each network (first series child / all parallel branches).
        c_par = (
            _output_devices(cell.pulldown) * tech.c_drain_n
            + _output_devices(cell.pullup) * tech.c_drain_p
        )
        intrinsic = r_eq * c_par
        area = float(cell.device_count)
        return EquivalentInverter(
            r_eq=r_eq,
            r_rise=r_rise,
            r_fall=r_fall,
            cin=cin,
            c_par=c_par,
            intrinsic=intrinsic,
            internal_load_delay=0.0,
            area=area,
        )

    def _macro_eq(self, cell: Cell, tech: Technology) -> EquivalentInverter:
        load_cell, load_copies = cell.pin_load
        cin = load_copies * self.equivalent_inverter(load_cell, tech).cin
        # Internal stage delay splits in two: the gate-load part scales
        # with the cell (driver and driven gates grow together — a size-
        # independent contribution), while the internal wire load does
        # not scale, so its delay falls as 1/x (internal_load_delay).
        internal = 0.0
        internal_wire = 0.0
        for driver_name, n_pins, n_branches in cell.stages:
            drv = self.equivalent_inverter(driver_name, tech)
            # Loads inside a macro are pins of same-family primitives, so
            # using the driver's own cin for them is exact for BUF and a
            # tight approximation for XOR-style macros.
            internal += drv.intrinsic + drv.r_eq * n_pins * drv.cin
            internal_wire += drv.r_eq * n_branches * tech.c_wire
        out = self.equivalent_inverter(cell.driver, tech)
        return EquivalentInverter(
            r_eq=out.r_eq,
            r_rise=out.r_rise,
            r_fall=out.r_fall,
            cin=cin,
            c_par=out.c_par,
            intrinsic=internal + out.intrinsic,
            internal_load_delay=internal_wire,
            area=float(self._macro_devices[cell.name]),
        )


def _output_devices(network: SPNetwork) -> int:
    """Number of devices whose drain touches the network's output node."""
    if network.kind == "leaf":
        return 1
    if network.kind == "series":
        return _output_devices(network.children[0])
    return sum(_output_devices(child) for child in network.children)


def default_library() -> CellLibrary:
    """The cell library used by every generator and experiment."""
    inv = _primitive("INV", "NOT", leaf("in0"))
    aoi21 = _primitive(
        "AOI21",
        "AOI21",
        parallel(series(leaf("in0"), leaf("in1")), leaf("in2")),
    )
    aoi22 = _primitive(
        "AOI22",
        "AOI22",
        parallel(
            series(leaf("in0"), leaf("in1")), series(leaf("in2"), leaf("in3"))
        ),
    )
    oai21 = _primitive(
        "OAI21",
        "OAI21",
        series(parallel(leaf("in0"), leaf("in1")), leaf("in2")),
    )
    oai22 = _primitive(
        "OAI22",
        "OAI22",
        series(
            parallel(leaf("in0"), leaf("in1")), parallel(leaf("in2"), leaf("in3"))
        ),
    )

    cells = [inv, aoi21, aoi22, oai21, oai22]
    cells += [_nand_cell(k) for k in (2, 3, 4)]
    cells += [_nor_cell(k) for k in (2, 3, 4)]

    macro_devices: dict[str, int] = {}

    def add_macro(cell: Cell, devices: int) -> None:
        cells.append(cell)
        macro_devices[cell.name] = devices

    add_macro(
        _macro("BUF", "BUF", 1, ("INV", 1), (("INV", 1, 1),), "INV"), 4
    )
    for k in (2, 3, 4):
        add_macro(
            _macro(
                f"AND{k}", "AND", k,
                (f"NAND{k}", 1), ((f"NAND{k}", 1, 1),), "INV",
            ),
            2 * k + 2,
        )
        add_macro(
            _macro(
                f"OR{k}", "OR", k,
                (f"NOR{k}", 1), ((f"NOR{k}", 1, 1),), "INV",
            ),
            2 * k + 2,
        )
    # 4-NAND XOR: in0 -> {N1, N2}; N1 -> {N2, N3}; N2, N3 -> N4 (driver).
    add_macro(
        _macro(
            "XOR2", "XOR", 2,
            ("NAND2", 2),
            (("NAND2", 2, 2), ("NAND2", 1, 1)),
            "NAND2",
        ),
        16,
    )
    # XNOR as XOR + output inverter.
    add_macro(
        _macro(
            "XNOR2", "XNOR", 2,
            ("NAND2", 2),
            (("NAND2", 2, 2), ("NAND2", 1, 1), ("NAND2", 1, 1)),
            "INV",
        ),
        18,
    )
    return CellLibrary(cells, macro_devices)


# A single shared default library instance (cells are immutable).
_DEFAULT: CellLibrary | None = None


def shared_default_library() -> CellLibrary:
    """Return a process-wide shared default library (cheap accessor)."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = default_library()
    return _DEFAULT
