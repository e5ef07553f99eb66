"""Objective adapters connecting the optimizer to cost functions.

The :class:`Objective` protocol has four methods: the function alone and a
subset of gradient components, which the recycled start asks for; the
function and gradient together, which the canonical start asks for; and
``evaluate``, the function now and the full gradient on demand, which each
line-search trial uses.  The adapters only compute; the minimizers charge
the queries they make (see :mod:`adaptvqe.cost`).

An :class:`AnsatzObjective` compiles its ansatz once per optimization and
moves it with :meth:`~adaptvqe.simulator.AnsatzState.with_parameters` (see
"What a trial recomputes" in :mod:`adaptvqe.simulator`).  Built with the
growth loop's carried :class:`~adaptvqe.simulator.GradientHandle`, it
answers its start from it: at the ansatz's own parameters, ``value`` is the
carried energy and the last parameter's partial derivative is
:meth:`~adaptvqe.simulator.GradientHandle.derivative`, bit for bit what a
fresh sweep gives there.  Every other query is computed.
"""

from __future__ import annotations

from typing import Callable, Protocol, Sequence

import numpy as np

from .paulis import PauliSum
from .simulator import (
    AnsatzState,
    GradientHandle,
    energy_and_gradient,
    energy_then_gradient,
    expectation,
    gradient_components,
    prepare,
)

__all__ = ["Objective", "AnsatzObjective", "FunctionObjective"]


class Objective(Protocol):
    """What the optimizer requires of a cost function."""

    def value(self, x: np.ndarray) -> float: ...

    def value_and_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]: ...

    def grad_components(self, x: np.ndarray, indices: Sequence[int]) -> np.ndarray: ...

    def evaluate(self, x: np.ndarray) -> tuple[float, Callable[[], np.ndarray]]: ...


class AnsatzObjective:
    """Energy of a fixed-structure ansatz as a function of its parameters.

    ``carried``, when given, is the evaluation of the state at the ansatz's
    own parameters (``ansatz.parameters``); ``value`` there, and
    ``grad_components`` there for the last parameter alone, read it.
    """

    def __init__(self, hamiltonian: PauliSum, ansatz: AnsatzState,
                 carried: GradientHandle | None = None):
        self.hamiltonian = hamiltonian
        self.ansatz = ansatz
        self.carried = carried
        self._start = ansatz.parameters

    def _at_carried(self, x: np.ndarray) -> bool:
        """True when the carried state is the state at ``x``."""
        return self.carried is not None and np.array_equal(x, self._start)

    def value(self, x: np.ndarray) -> float:
        if self._at_carried(x):
            return self.carried.energy
        return expectation(prepare(self.ansatz.with_parameters(x)), self.hamiltonian)

    def value_and_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        return energy_and_gradient(self.ansatz.with_parameters(x), self.hamiltonian)

    def grad_components(self, x: np.ndarray, indices: Sequence[int]) -> np.ndarray:
        last = self.ansatz.n_parameters - 1
        if list(indices) == [last] and self._at_carried(x):
            return np.array([self.carried.derivative(self.ansatz.generators[last])])
        return gradient_components(
            self.ansatz.with_parameters(x), self.hamiltonian, list(indices))

    def evaluate(self, x: np.ndarray) -> tuple[float, Callable[[], np.ndarray]]:
        """The energy now, the gradient when the returned handle is first
        called (see :func:`energy_then_gradient`)."""
        return energy_then_gradient(self.ansatz.with_parameters(x), self.hamiltonian)


class FunctionObjective:
    """Wrap plain ``f`` and ``grad`` callables (used by tests and the
    acceptance suite)."""

    def __init__(self, f: Callable[[np.ndarray], float],
                 grad: Callable[[np.ndarray], np.ndarray]):
        self._f = f
        self._grad = grad

    def value(self, x: np.ndarray) -> float:
        return float(self._f(np.asarray(x, dtype=float)))

    def value_and_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        x = np.asarray(x, dtype=float)
        return float(self._f(x)), np.asarray(self._grad(x), dtype=float)

    def grad_components(self, x: np.ndarray, indices: Sequence[int]) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.asarray(self._grad(x), dtype=float)[list(indices)]

    def evaluate(self, x: np.ndarray) -> tuple[float, Callable[[], np.ndarray]]:
        """``f`` and ``grad`` computed at once, so a non-finite gradient
        raises ``ValueError`` here even if the caller never reads it."""
        f, g = self.value_and_grad(x)
        if not (np.isfinite(f) and np.all(np.isfinite(g))):
            raise ValueError("non-finite objective or gradient")
        return f, lambda: g
