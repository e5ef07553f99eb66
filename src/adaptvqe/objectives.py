"""Objective adapters connecting the optimizer to cost functions.

The optimizer only needs three operations: evaluate the function, evaluate
function and gradient together, and evaluate a subset of gradient
components.  Every call is charged to the adapter's ledger at hardware
rates (1 unit per energy, 2 per distinct gradient component, so a repeated
index is measured once), independent of how the values are actually
obtained.
"""

from __future__ import annotations

from typing import Callable, Protocol, Sequence

import numpy as np

from .cost import CostLedger
from .paulis import PauliSum
from .simulator import AnsatzState, energy_and_gradient, expectation, gradient_components, prepare

__all__ = ["Objective", "AnsatzObjective", "FunctionObjective"]


class Objective(Protocol):
    """What the optimizer requires of a cost function."""

    ledger: CostLedger

    def value(self, x: np.ndarray) -> float: ...

    def value_and_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]: ...

    def grad_components(self, x: np.ndarray, indices: Sequence[int]) -> np.ndarray: ...


class AnsatzObjective:
    """Energy of a fixed-structure ansatz as a function of its parameters."""

    def __init__(self, hamiltonian: PauliSum, ansatz: AnsatzState,
                 ledger: CostLedger | None = None):
        self.hamiltonian = hamiltonian
        self.ansatz = ansatz
        self.ledger = ledger if ledger is not None else CostLedger()

    @property
    def n_parameters(self) -> int:
        return self.ansatz.n_parameters

    def value(self, x: np.ndarray) -> float:
        self.ledger.charge_energy(1)
        return expectation(prepare(self.ansatz.with_parameters(x)), self.hamiltonian)

    def value_and_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        return energy_and_gradient(
            self.ansatz.with_parameters(x), self.hamiltonian, self.ledger
        )

    def grad_components(self, x: np.ndarray, indices: Sequence[int]) -> np.ndarray:
        return gradient_components(
            self.ansatz.with_parameters(x), self.hamiltonian, list(indices), self.ledger
        )


class FunctionObjective:
    """Wrap plain ``f`` and ``grad`` callables (used by tests and examples)."""

    def __init__(self, f: Callable[[np.ndarray], float],
                 grad: Callable[[np.ndarray], np.ndarray],
                 ledger: CostLedger | None = None):
        self._f = f
        self._grad = grad
        self.ledger = ledger if ledger is not None else CostLedger()

    def value(self, x: np.ndarray) -> float:
        self.ledger.charge_energy(1)
        return float(self._f(np.asarray(x, dtype=float)))

    def value_and_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        x = np.asarray(x, dtype=float)
        self.ledger.charge_energy(1)
        self.ledger.charge_gradient(x.size)
        return float(self._f(x)), np.asarray(self._grad(x), dtype=float)

    def grad_components(self, x: np.ndarray, indices: Sequence[int]) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        self.ledger.charge_gradient(len(set(indices)))
        return np.asarray(self._grad(x), dtype=float)[list(indices)]
