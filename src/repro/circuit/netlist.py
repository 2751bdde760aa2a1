"""Netlist data model: nets, gates and circuits.

A :class:`Circuit` is a gate-level combinational netlist.  Gates
instantiate library cells; nets connect one driver (a gate output or a
primary input) to any number of loads (gate input pins or primary
outputs).  The model is deliberately simple — combinational, single
driver per net — because that is the problem class of the paper.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from repro.errors import NetlistError
from repro.tech.cells import CellLibrary, shared_default_library

__all__ = ["Gate", "Circuit"]


@dataclass
class Gate:
    """One cell instance.

    ``inputs`` are net names in cell-pin order; ``output`` is the net the
    gate drives.
    """

    name: str
    cell: str
    inputs: tuple[str, ...]
    output: str

    @property
    def n_inputs(self) -> int:
        return len(self.inputs)


class Circuit:
    """A combinational gate-level netlist.

    Construction is incremental (:meth:`add_input`, :meth:`add_gate`,
    :meth:`mark_output`), after which :meth:`freeze` checks structural
    sanity and computes the topological order.  Most library entry points
    call :meth:`freeze` on your behalf.
    """

    def __init__(self, name: str, library: CellLibrary | None = None):
        self.name = name
        self.library = library or shared_default_library()
        self._inputs: list[str] = []
        self._outputs: list[str] = []
        self._gates: dict[str, Gate] = {}
        self._driver: dict[str, Gate] = {}  # net -> driving gate
        self._loads: dict[str, list[tuple[Gate, int]]] = {}  # net -> pins
        self._order: list[Gate] | None = None

    # -- construction ------------------------------------------------------

    def add_input(self, net: str) -> str:
        """Declare ``net`` as a primary input."""
        self._mutable()
        if net in self._driver or net in self._inputs:
            raise NetlistError(f"net {net!r} already driven")
        self._inputs.append(net)
        self._loads.setdefault(net, [])
        return net

    def add_gate(
        self, name: str, cell: str, inputs: Iterable[str], output: str
    ) -> Gate:
        """Instantiate library cell ``cell``; returns the new gate."""
        self._mutable()
        if name in self._gates:
            raise NetlistError(f"duplicate gate name {name!r}")
        cell_def = self.library.cell(cell)  # raises on unknown cell
        pins = tuple(inputs)
        if len(pins) != cell_def.n_inputs:
            raise NetlistError(
                f"gate {name!r}: cell {cell} has {cell_def.n_inputs} inputs, "
                f"got {len(pins)}"
            )
        if output in self._driver or output in self._inputs:
            raise NetlistError(f"net {output!r} already driven")
        gate = Gate(name=name, cell=cell, inputs=pins, output=output)
        self._gates[name] = gate
        self._driver[output] = gate
        self._loads.setdefault(output, [])
        for position, net in enumerate(pins):
            self._loads.setdefault(net, []).append((gate, position))
        return gate

    def mark_output(self, net: str) -> None:
        """Declare ``net`` as a primary output."""
        self._mutable()
        if net in self._outputs:
            raise NetlistError(f"net {net!r} already a primary output")
        self._outputs.append(net)

    def _mutable(self) -> None:
        if self._order is not None:
            raise NetlistError(f"circuit {self.name!r} is frozen")

    # -- freezing / validation ----------------------------------------------

    def freeze(self) -> "Circuit":
        """Validate structure and compute the topological gate order."""
        if self._order is not None:
            return self
        undriven = [
            net
            for net in self._loads
            if net not in self._driver and net not in self._inputs
        ]
        for gate in self._gates.values():
            for net in gate.inputs:
                if net not in self._driver and net not in self._inputs:
                    undriven.append(net)
        if undriven:
            raise NetlistError(
                f"circuit {self.name!r}: undriven nets "
                f"{sorted(set(undriven))[:8]}"
            )
        for net in self._outputs:
            if net not in self._driver and net not in self._inputs:
                raise NetlistError(
                    f"circuit {self.name!r}: primary output {net!r} undriven"
                )
        self._order = self._topological_order()
        return self

    def _topological_order(self) -> list[Gate]:
        """Kahn's algorithm over gates; raises on combinational cycles."""
        indegree: dict[str, int] = {}
        for gate in self._gates.values():
            indegree[gate.name] = sum(
                1 for net in gate.inputs if net in self._driver
            )
        ready = deque(
            gate
            for gate in self._gates.values()
            if indegree[gate.name] == 0
        )
        order: list[Gate] = []
        while ready:
            gate = ready.popleft()
            order.append(gate)
            for load_gate, _pin in self._loads.get(gate.output, []):
                indegree[load_gate.name] -= 1
                if indegree[load_gate.name] == 0:
                    ready.append(load_gate)
        if len(order) != len(self._gates):
            cyclic = sorted(
                name for name, deg in indegree.items() if deg > 0
            )
            raise NetlistError(
                f"circuit {self.name!r}: combinational cycle through "
                f"{cyclic[:8]}"
            )
        return order

    # -- queries -------------------------------------------------------------

    @property
    def inputs(self) -> tuple[str, ...]:
        return tuple(self._inputs)

    @property
    def outputs(self) -> tuple[str, ...]:
        return tuple(self._outputs)

    @property
    def gates(self) -> tuple[Gate, ...]:
        return tuple(self._gates.values())

    @property
    def n_gates(self) -> int:
        return len(self._gates)

    @property
    def nets(self) -> list[str]:
        return list(self._loads)

    def gate(self, name: str) -> Gate:
        try:
            return self._gates[name]
        except KeyError:
            raise NetlistError(f"unknown gate {name!r}") from None

    def driver_of(self, net: str) -> Gate | None:
        """Gate driving ``net``; ``None`` for primary inputs."""
        return self._driver.get(net)

    def loads_of(self, net: str) -> list[tuple[Gate, int]]:
        """(gate, pin position) pairs loading ``net``."""
        return list(self._loads.get(net, []))

    def fanout_count(self, net: str) -> int:
        extra = 1 if net in self._outputs else 0
        return len(self._loads.get(net, [])) + extra

    def topological_gates(self) -> list[Gate]:
        """Gates in topological (input to output) order."""
        if self._order is None:
            raise NetlistError(
                f"circuit {self.name!r}: freeze() before ordering queries"
            )
        return list(self._order)

    def device_count(self) -> int:
        """Total transistors across all gates."""
        return sum(
            self.library.device_count(gate.cell) for gate in self._gates.values()
        )

    # -- simulation ------------------------------------------------------------

    def evaluate(self, input_values: Mapping[str, bool]) -> dict[str, bool]:
        """Evaluate all net values for the given primary-input assignment.

        Used by generator and mapping equivalence tests.
        """
        self.freeze()
        values: dict[str, bool] = {}
        for net in self._inputs:
            if net not in input_values:
                raise NetlistError(f"missing value for primary input {net!r}")
            values[net] = bool(input_values[net])
        for gate in self.topological_gates():
            cell = self.library.cell(gate.cell)
            values[gate.output] = cell.evaluate(
                *(values[net] for net in gate.inputs)
            )
        return values

    def __repr__(self) -> str:
        return (
            f"Circuit({self.name!r}, gates={len(self._gates)}, "
            f"inputs={len(self._inputs)}, outputs={len(self._outputs)})"
        )

    def __iter__(self) -> Iterator[Gate]:
        return iter(self._gates.values())
