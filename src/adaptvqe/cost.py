"""Measurement-cost accounting in naive-energy-evaluation units.

The counters follow the hardware cost model rather than what the simulator
actually does internally: one unit per energy evaluation, two units per
gradient component (parameter-shift style), and a flat rate of
``8 * n_qubits`` per ADAPT iteration for the pool-gradient sweep (the
qubit-excitation pool's cost model).

Each hardware query is charged by the one function that decides to make
it, once the query returns, so a query that raises is not charged:
``driver.run_adapt`` charges the initial energy and each pool sweep, the
two minimizers their start, ``optimizer.wolfe_line_search`` each trial
(one energy and a full gradient, whether or not the gradient is read), and
the diagnostics every exact Hessian they report to a shadow ledger.  A
Hessian of n parameters is charged as its 2n shifted gradients of n
components (:meth:`CostLedger.charge_hessian`), whether
``diagnostics.exact_ansatz_hessian`` computed it or the distance series and
the convergence report reused it as the block of one already computed: the
shadow ledger prices the hardware, not the simulator.  The ledger is a
parameter of the minimizers and the line search, and ``run_adapt`` passes
its own.  The simulator and the objective adapters only compute and hold no
ledger.  A charge is a whole number of queries
(:func:`~adaptvqe.paulis.checked_cap`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .paulis import checked_cap

__all__ = ["CostLedger", "default_pool_sweep_units"]


def default_pool_sweep_units(n_qubits: int) -> int:
    """Per-iteration pool-gradient cost under the 8N model."""
    return 8 * n_qubits


@dataclass
class CostLedger:
    """Monotone counters for function evaluations and pool-gradient sweeps;
    :meth:`charge_energy` and :meth:`charge_gradient` return the evaluations
    they add."""

    function_evaluations: int = 0
    pool_gradient_units: int = 0
    breakdown: list[dict] = field(default_factory=list)

    def charge_energy(self) -> int:
        """One energy evaluation costs one unit."""
        self.function_evaluations += 1
        return 1

    def charge_gradient(self, n_components: int) -> int:
        """A gradient of ``n`` components costs ``2n`` energy evaluations."""
        units = 2 * checked_cap("n_components", n_components)
        self.function_evaluations += units
        return units

    def charge_hessian(self, n_parameters: int) -> int:
        """An exact Hessian of ``n`` parameters is ``2n`` shifted gradients
        of ``n`` components, ``4n²`` energy evaluations."""
        n = checked_cap("n_parameters", n_parameters)
        return self.charge_gradient(2 * n * n)

    def charge_pool_sweep(self, units: int) -> None:
        self.pool_gradient_units += checked_cap("units", units)

    def record_iteration(self, label: str, **counters) -> None:
        """Append a per-iteration snapshot to the breakdown list."""
        self.breakdown.append({"label": label, **counters})

    @property
    def total_units(self) -> int:
        return self.function_evaluations + self.pool_gradient_units

    def snapshot(self) -> dict:
        return {
            "function_evaluations": self.function_evaluations,
            "pool_gradient_units": self.pool_gradient_units,
        }
