"""Analysis instruments for optimizer runs: exact Hessians, Frobenius
distances between approximate and exact inverse Hessians, per-iteration step
sizes, convergence-rate ratios and the Dennis-More superlinear marker.

Exact Hessians are built from central differences of the analytic gradient;
the 2n shifted gradients of one Hessian are evaluated as one stacked
statevector sweep, bit for bit equal to 2n separate evaluations.  All
diagnostic evaluations are charged to a caller-supplied shadow ledger so
they never pollute a run's measurement-cost accounting.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cost import CostLedger
from .driver import AdaptResult
from .optimizer import OptimizerResult, expand_inverse_hessian
from .paulis import PauliSum
from .pools import OperatorPool
from .simulator import AnsatzState, gradient_components

__all__ = [
    "HessianReport",
    "ConvergenceReport",
    "HessianDistanceRecord",
    "frobenius_distance",
    "exact_hessian",
    "exact_ansatz_hessian",
    "is_positive_definite",
    "hessian_report",
    "convergence_report",
    "hessian_distance_series",
]

logger = logging.getLogger(__name__)

_DEFAULT_FD_STEP = 1e-5


def frobenius_distance(a: np.ndarray, b: np.ndarray) -> float:
    """sqrt(Tr[(A-B)(A-B)^dagger]), the element-wise root-sum-square."""
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b), ord="fro"))


def exact_hessian(
    grad_fn: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    step: float = _DEFAULT_FD_STEP,
) -> np.ndarray:
    """Central differences of an analytic gradient, symmetrized.

    Column i is (grad(x + h e_i) - grad(x - h e_i)) / 2h.  ``grad_fn`` maps
    a stack of parameter vectors, one per row, to the stack of their
    gradients; it is called once, on all 2n shifted points, with x + h e_i
    and x - h e_i in adjacent rows (a stacked sweep recomputes a row alone
    where its angle differs from the rest, and the two rows of a pair differ
    at the same element).
    """
    if step <= 0:
        raise ValueError("finite-difference step must be positive")
    x0 = np.asarray(x, dtype=float)
    n = x0.size
    shifts = step * np.eye(n)
    points = np.empty((2 * n, n), dtype=float)
    points[0::2] = x0 + shifts
    points[1::2] = x0 - shifts
    grads = np.asarray(grad_fn(points))
    out = ((grads[0::2] - grads[1::2]) / (2.0 * step)).T
    return 0.5 * (out + out.T)


def exact_ansatz_hessian(
    ansatz: AnsatzState,
    hamiltonian: PauliSum,
    x: np.ndarray | None = None,
    step: float = _DEFAULT_FD_STEP,
    shadow_ledger: CostLedger | None = None,
) -> np.ndarray:
    """Exact energy Hessian of an ansatz at parameter vector ``x``; the 2n
    shifted gradients are one stacked :func:`gradient_components` call."""
    indices = list(range(ansatz.n_parameters))

    def grad_fn(points: np.ndarray) -> np.ndarray:
        return gradient_components(
            ansatz, hamiltonian, indices, shadow_ledger, points=points
        )

    point = ansatz.parameters if x is None else np.asarray(x, dtype=float)
    return exact_hessian(grad_fn, point, step=step)


def is_positive_definite(matrix: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(matrix)
        return True
    except np.linalg.LinAlgError:
        return False


@dataclass
class HessianReport:
    """Comparison of an optimizer's inverse Hessian with the exact one."""

    exact_hessian: np.ndarray
    exact_inverse: np.ndarray | None
    approx_inverse: np.ndarray
    frobenius_distance: float | None
    elementwise_abs_diff: np.ndarray | None
    hessian_positive_definite: bool


def hessian_report(exact: np.ndarray, approx_inverse: np.ndarray) -> HessianReport:
    """Invert the exact Hessian (when possible) and measure the distance."""
    pd = is_positive_definite(exact)
    try:
        inverse = np.linalg.inv(exact)
    except np.linalg.LinAlgError:
        return HessianReport(exact, None, approx_inverse, None, None, pd)
    diff = np.abs(inverse - approx_inverse)
    return HessianReport(
        exact, inverse, approx_inverse,
        frobenius_distance(inverse, approx_inverse), diff, pd,
    )


@dataclass
class ConvergenceReport:
    """Per-iteration convergence-rate quantities for one optimization.

    The solution proxy is the run's own final iterate, which biases the last
    ratios; assertions built on this report should drop the final two points.
    """

    error_ratios: np.ndarray
    step_sizes: np.ndarray
    superlinear_markers: np.ndarray
    x_star_proxy: np.ndarray
    insufficient: bool


def convergence_report(
    opt_result: OptimizerResult,
    hessian_at_xstar: np.ndarray | None = None,
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
        return ConvergenceReport(np.empty(0), np.empty(0), np.empty(0), x_star, True)

    errors = [float(np.linalg.norm(xk - x_star)) for xk in iterates]
    ratios = np.array([
        errors[k + 1] / errors[k] if errors[k] > 0 else np.nan
        for k in range(len(errors) - 1)
    ])
    alphas = np.array([rec.alpha for rec in opt_result.trace], dtype=float)

    markers = np.empty(len(snapshots))
    markers[:] = np.nan
    if hessian_at_xstar is not None:
        for i, snap in enumerate(snapshots):
            p = snap.direction
            norm_p = np.linalg.norm(p)
            if norm_p == 0:
                continue
            bk_p = np.linalg.solve(snap.h, p)
            markers[i] = float(np.linalg.norm(bk_p - hessian_at_xstar @ p) / norm_p)

    return ConvergenceReport(ratios, alphas, markers, x_star, False)


@dataclass
class HessianDistanceRecord:
    """Initial-inverse-Hessian distances for one ansatz-growth iteration."""

    n: int
    canonical_distance: float | None
    recycled_distance: float | None
    evolution_distance: float | None
    excluded: bool
    reason: str = ""


def _iteration_ansatz(result: AdaptResult, pool: OperatorPool, reference: str,
                      upto: int, x: np.ndarray) -> AnsatzState:
    ansatz = AnsatzState(reference)
    for it in result.iterations[:upto]:
        ansatz = ansatz.grown(pool.operators[it.selected_index], 0.0)
    return ansatz.with_parameters(x)


def hessian_distance_series(
    canonical: AdaptResult,
    recycled: AdaptResult,
    hamiltonian: PauliSum,
    pool: OperatorPool,
    reference: str,
    step: float = _DEFAULT_FD_STEP,
    shadow_ledger: CostLedger | None = None,
    with_evolution: bool = True,
    heatmap_iterations: tuple[int, ...] = (),
) -> tuple[list[HessianDistanceRecord], dict[int, dict[str, np.ndarray]]]:
    """Distances between initial approximate and exact inverse Hessians.

    For every growth iteration the exact Hessian is evaluated once, at the
    recycled run's optimization start point, and shared by both mode
    comparisons; this keeps the last row/column of the two element-wise
    difference matrices identical by construction, since neither mode starts
    with information about the new parameter.  Iterations where the two runs
    selected different operators, or where the exact Hessian is singular,
    are flagged and excluded.  Heatmap matrices (|exact inverse - initial
    approximate| per mode) are returned for the requested iterations.
    """
    records: list[HessianDistanceRecord] = []
    heatmaps: dict[int, dict[str, np.ndarray]] = {}
    upto = min(len(canonical.iterations), len(recycled.iterations))
    for i in range(upto):
        n = i + 1
        rec_it = recycled.iterations[i]
        if canonical.iterations[i].selected_index != rec_it.selected_index:
            records.append(HessianDistanceRecord(
                n, None, None, None, True, "operator selection diverged"))
            continue
        ansatz = _iteration_ansatz(recycled, pool, reference, n, rec_it.x_start)
        exact = exact_ansatz_hessian(
            ansatz, hamiltonian, rec_it.x_start, step=step,
            shadow_ledger=shadow_ledger,
        )
        report_can = hessian_report(exact, np.eye(n))
        report_rec = hessian_report(exact, rec_it.h_start)
        if report_can.exact_inverse is None:
            records.append(HessianDistanceRecord(
                n, None, None, None, True, "singular exact Hessian"))
            logger.warning("iteration %d excluded: singular exact Hessian", n)
            continue
        evolution = None
        if with_evolution:
            exact_final = exact_ansatz_hessian(
                ansatz, hamiltonian, rec_it.x_star, step=step,
                shadow_ledger=shadow_ledger,
            )
            try:
                evolution = frobenius_distance(
                    report_can.exact_inverse, np.linalg.inv(exact_final))
            except np.linalg.LinAlgError:
                evolution = None
        records.append(HessianDistanceRecord(
            n, report_can.frobenius_distance, report_rec.frobenius_distance,
            evolution, False))
        if n in heatmap_iterations:
            heatmaps[n] = {
                "canonical": report_can.elementwise_abs_diff,
                "recycling": report_rec.elementwise_abs_diff,
            }
    return records, heatmaps
