"""Measurement-cost accounting in naive-energy-evaluation units.

The counters follow the hardware cost model rather than what the simulator
actually does internally: one unit per energy evaluation, two units per
gradient component (parameter-shift style), and a flat rate of
``8 * n_qubits`` per ADAPT iteration for the pool-gradient sweep (the
qubit-excitation pool's cost model).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["CostLedger", "default_pool_sweep_units"]


def default_pool_sweep_units(n_qubits: int) -> int:
    """Per-iteration pool-gradient cost under the 8N model."""
    return 8 * n_qubits


@dataclass
class CostLedger:
    """Monotone counters for function evaluations and pool-gradient sweeps."""

    function_evaluations: int = 0
    pool_gradient_units: int = 0
    breakdown: list[dict] = field(default_factory=list)

    def charge_energy(self, count: int = 1) -> None:
        if count < 0:
            raise ValueError("cannot charge a negative cost")
        self.function_evaluations += count

    def charge_gradient(self, n_components: int) -> None:
        """A gradient of ``n`` components costs ``2n`` energy evaluations."""
        if n_components < 0:
            raise ValueError("cannot charge a negative cost")
        self.function_evaluations += 2 * n_components

    def charge_pool_sweep(self, units: int) -> None:
        if units < 0:
            raise ValueError("cannot charge a negative cost")
        self.pool_gradient_units += units

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
