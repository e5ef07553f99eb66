"""Analysis instruments for optimizer runs: exact Hessians, Frobenius
distances between approximate and exact inverse Hessians, per-iteration step
sizes, convergence-rate ratios and the Dennis-More superlinear marker.

Exact Hessians are built from central differences of the analytic gradient
with the fixed step ``FD_STEP``; the 2n shifted gradients of one Hessian are
evaluated as one stacked statevector sweep, bit for bit equal to 2n separate
evaluations.  The distance series computes each exact Hessian once: the
recycled run starts iteration n + 1 at (x*_n, 0), and a generator at angle 0
leaves its state unchanged bit for bit, so the evolution Hessian of
iteration n (at x*_n) is the leading n x n block of the start Hessian of
iteration n + 1, byte for byte, and is taken as that slice.  The shadow
ledger models the hardware, not the simulator: every exact Hessian the
instruments report, computed or reused, is charged to the shadow ledger they
are given as 2n shifted gradients of n components
(:meth:`~adaptvqe.cost.CostLedger.charge_hessian`), so they never pollute a
run's measurement-cost accounting and are never left uncounted.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .cost import CostLedger
from .driver import AdaptResult
from .optimizer import OptimizerResult
from .paulis import PauliSum
from .pools import OperatorPool
from .simulator import AnsatzState, gradient_components

__all__ = [
    "FD_STEP",
    "ConvergenceReport",
    "HessianDistanceRecord",
    "frobenius_distance",
    "exact_hessian",
    "exact_ansatz_hessian",
    "convergence_report",
    "hessian_distance_series",
]

logger = logging.getLogger(__name__)

FD_STEP = 1e-5


def frobenius_distance(a: np.ndarray, b: np.ndarray) -> float:
    """sqrt(Tr[(A-B)(A-B)^dagger]), the element-wise root-sum-square."""
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b), ord="fro"))


def exact_hessian(grad_fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> np.ndarray:
    """Central differences of an analytic gradient, symmetrized.

    Column i is (grad(x + h e_i) - grad(x - h e_i)) / 2h with h = ``FD_STEP``.
    ``grad_fn`` maps a stack of parameter vectors, one per row, to the stack
    of their gradients; it is called once, on all 2n shifted points, with
    x + h e_i and x - h e_i in adjacent rows (a stacked sweep recomputes a
    row alone where its angle differs from the rest, and the two rows of a
    pair differ at the same element).
    """
    x0 = np.asarray(x, dtype=float)
    n = x0.size
    shifts = FD_STEP * np.eye(n)
    points = np.empty((2 * n, n), dtype=float)
    points[0::2] = x0 + shifts
    points[1::2] = x0 - shifts
    grads = np.asarray(grad_fn(points))
    out = ((grads[0::2] - grads[1::2]) / (2.0 * FD_STEP)).T
    return 0.5 * (out + out.T)


def exact_ansatz_hessian(ansatz: AnsatzState, hamiltonian: PauliSum, x: np.ndarray,
                         shadow_ledger: CostLedger) -> np.ndarray:
    """Exact energy Hessian of an ansatz's generators at parameter vector
    ``x``; the 2n shifted gradients are one stacked
    :func:`gradient_components` call, charged to ``shadow_ledger``."""
    indices = list(range(ansatz.n_parameters))
    hessian = exact_hessian(
        lambda points: gradient_components(ansatz, hamiltonian, indices, points=points), x)
    shadow_ledger.charge_hessian(len(indices))
    return hessian


@dataclass
class ConvergenceReport:
    """Per-iteration convergence-rate quantities for one optimization.

    The solution proxy is the run's own final iterate, which biases the last
    ratios; assertions built on this report should drop the final two points.
    """

    error_ratios: np.ndarray
    step_sizes: np.ndarray
    superlinear_markers: np.ndarray
    insufficient: bool


def convergence_report(
    opt_result: OptimizerResult,
    hessian_at_xstar: np.ndarray,
) -> ConvergenceReport:
    """Convergence-rate series from a state-recorded optimizer result.

    Requires the optimizer to have been run with ``record_state=True``.
    ``hessian_at_xstar`` feeds the superlinear marker
    ``|(B_k - exact)(p_k)| / |p_k|`` with ``B_k`` the approximate Hessian
    implied by the optimizer's inverse.
    """
    snapshots = opt_result.snapshots
    if snapshots is None:
        raise ValueError("optimizer result carries no state snapshots")
    x_star = opt_result.x_star
    iterates = [snap.x for snap in snapshots] + [x_star]
    if len(iterates) < 3:
        return ConvergenceReport(np.empty(0), np.empty(0), np.empty(0), True)

    errors = [float(np.linalg.norm(xk - x_star)) for xk in iterates]
    ratios = np.array([
        errors[k + 1] / errors[k] if errors[k] > 0 else np.nan
        for k in range(len(errors) - 1)
    ])
    alphas = np.array([rec.alpha for rec in opt_result.trace], dtype=float)

    markers = np.full(len(snapshots), np.nan)
    for i, snap in enumerate(snapshots):
        p = snap.direction
        norm_p = np.linalg.norm(p)
        if norm_p == 0:
            continue
        bk_p = np.linalg.solve(snap.h, p)
        markers[i] = float(np.linalg.norm(bk_p - hessian_at_xstar @ p) / norm_p)

    return ConvergenceReport(ratios, alphas, markers, False)


@dataclass
class HessianDistanceRecord:
    """Initial-inverse-Hessian distances for one ansatz-growth iteration, and
    the exact Hessian at the recycled run's optimum that the evolution
    distance used."""

    n: int
    canonical_distance: float | None
    recycled_distance: float | None
    evolution_distance: float | None
    excluded: bool
    reason: str = ""
    evolution_hessian: np.ndarray | None = field(default=None, compare=False, repr=False)


def hessian_distance_series(
    canonical: AdaptResult,
    recycled: AdaptResult,
    hamiltonian: PauliSum,
    pool: OperatorPool,
    reference: str,
    shadow_ledger: CostLedger,
    with_evolution: bool = True,
    heatmap_iterations: tuple[int, ...] = (),
) -> tuple[list[HessianDistanceRecord], dict[int, dict[str, np.ndarray]]]:
    """Distances between initial approximate and exact inverse Hessians.

    For every growth iteration the exact Hessian is evaluated and inverted
    once, at the recycled run's optimization start point, and shared by both
    mode comparisons; this keeps the last row/column of the two element-wise
    difference matrices identical by construction, since neither mode starts
    with information about the new parameter.  Iterations where the two runs
    selected different operators, or where the exact Hessian is singular,
    are flagged and excluded.  The evolution distance compares the start
    with the exact Hessian at the recycled run's optimum: the leading block
    of the next start Hessian when the next iteration is included and starts
    at exactly (x*_n, 0), else computed in full.  Heatmap matrices (|exact
    inverse - initial approximate| per mode) are returned for the requested
    iterations.
    """
    records: list[HessianDistanceRecord] = []
    heatmaps: dict[int, dict[str, np.ndarray]] = {}
    iterations = recycled.iterations[:len(canonical.iterations)]
    ansatze, exact_starts = [], []
    ansatz = AnsatzState(reference)
    for can_it, rec_it in zip(canonical.iterations, iterations):
        ansatz = ansatz.grown(pool.operators[rec_it.selected_index], 0.0)
        ansatze.append(ansatz)
        exact_starts.append(
            None if can_it.selected_index != rec_it.selected_index
            else exact_ansatz_hessian(ansatz, hamiltonian, rec_it.x_start, shadow_ledger))
    for i, (rec_it, exact) in enumerate(zip(iterations, exact_starts)):
        n = i + 1
        if exact is None:
            records.append(HessianDistanceRecord(
                n, None, None, None, True, "operator selection diverged"))
            continue
        try:
            inverse = np.linalg.inv(exact)
        except np.linalg.LinAlgError:
            records.append(HessianDistanceRecord(
                n, None, None, None, True, "singular exact Hessian"))
            logger.warning("iteration %d excluded: singular exact Hessian", n)
            continue
        starts = {"canonical": np.eye(n), "recycling": rec_it.h_start}
        evolution = exact_final = None
        if with_evolution:
            following = exact_starts[n] if n < len(exact_starts) else None
            if (following is not None
                    and np.array_equal(iterations[n].x_start[:n], rec_it.x_star)
                    and iterations[n].x_start[n] == 0.0):
                exact_final = following[:n, :n]
                shadow_ledger.charge_hessian(n)
            else:
                exact_final = exact_ansatz_hessian(
                    ansatze[i], hamiltonian, rec_it.x_star, shadow_ledger)
            try:
                evolution = frobenius_distance(inverse, np.linalg.inv(exact_final))
            except np.linalg.LinAlgError:
                evolution = None
        records.append(HessianDistanceRecord(
            n, frobenius_distance(inverse, starts["canonical"]),
            frobenius_distance(inverse, starts["recycling"]), evolution, False,
            evolution_hessian=exact_final))
        if n in heatmap_iterations:
            heatmaps[n] = {mode: np.abs(inverse - h) for mode, h in starts.items()}
    return records, heatmaps
