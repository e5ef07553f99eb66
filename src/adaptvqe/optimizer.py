"""BFGS with a Wolfe line search, in canonical and inverse-Hessian-recycling forms.

Two entry points share the same update rule and line search but differ in
initialization and loop ordering:

* :func:`minimize_canonical` starts from ``H_0 = I`` and updates the inverse
  Hessian only when the convergence check fails, so the returned matrix is
  the one that produced the last search direction.
* :func:`minimize_recycled` starts from a previous optimization's final
  ``H*`` expanded by an identity block for the new parameters, reuses the
  previous final gradient for the old entries of the initial gradient, and
  updates the matrix before the convergence check so the returned ``H*`` is
  current.  Its outputs feed the next call directly.

The line search brackets from an initial trial step of 1 (doubling), then
zooms with safeguarded quadratic interpolation until the sufficient-decrease
and curvature conditions hold (weak curvature by default, strong behind a
flag), with ``c1 = 1e-4`` and ``c2 = 0.9``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .objectives import Objective

__all__ = [
    "CURVATURE_SKIP_TOL",
    "LineSearchResult",
    "IterationRecord",
    "OptimizerSnapshot",
    "OptimizerResult",
    "wolfe_line_search",
    "bfgs_update",
    "curvature_condition_holds",
    "expand_inverse_hessian",
    "freeze_parameters",
    "minimize_canonical",
    "minimize_recycled",
]

logger = logging.getLogger(__name__)

CURVATURE_SKIP_TOL = 1e-10

_C1_DEFAULT = 1e-4
_C2_DEFAULT = 0.9
_MAX_TRIALS_DEFAULT = 25
_EXPANSION_FACTOR = 2.0


@dataclass
class LineSearchResult:
    x: np.ndarray
    f: float
    grad: np.ndarray
    alpha: float
    evals: int
    success: bool


@dataclass
class IterationRecord:
    """One completed line search, with enough data to re-audit the step."""

    k: int
    f: float
    grad_norm: float
    alpha: float
    evals: int
    fevals_cumulative: int
    update_skipped: bool
    f_start: float
    dir_deriv_start: float
    dir_deriv_end: float


@dataclass
class OptimizerSnapshot:
    """Optimizer state at the moment a search direction was computed."""

    k: int
    x: np.ndarray
    f: float
    grad: np.ndarray
    direction: np.ndarray
    h: np.ndarray


@dataclass
class OptimizerResult:
    x_star: np.ndarray
    f_star: float
    grad_star: np.ndarray
    h_star: np.ndarray
    line_searches: int
    converged: bool
    line_search_failed: bool
    trace: list[IterationRecord] = field(default_factory=list)
    initial_fevals: int = 0
    snapshots: list[OptimizerSnapshot] | None = None


def wolfe_line_search(
    objective: Objective,
    x: np.ndarray,
    f_x: float,
    grad_x: np.ndarray,
    direction: np.ndarray,
    c1: float = _C1_DEFAULT,
    c2: float = _C2_DEFAULT,
    max_trials: int = _MAX_TRIALS_DEFAULT,
    strong: bool = False,
) -> LineSearchResult:
    """Find a step satisfying the sufficient-decrease and curvature conditions.

    The first trial is always ``alpha = 1``; the step doubles until the
    conditions hold or a bracket is found, then the bracket is zoomed.  Each
    trial costs one combined function/gradient evaluation.  On exhaustion of
    the trial budget the best point seen is returned with ``success=False``.
    A non-finite value or gradient at any trial raises ``ValueError``.
    """
    x = np.asarray(x, dtype=float)
    p = np.asarray(direction, dtype=float)
    d0 = float(grad_x @ p)
    if d0 >= 0.0:
        raise ValueError(f"line search needs a descent direction (g.p = {d0:.3e})")

    evals = 0
    best = LineSearchResult(x, f_x, grad_x, 0.0, 0, False)

    def probe(alpha: float):
        nonlocal evals, best
        f_a, g_a = objective.value_and_grad(x + alpha * p)
        evals += 1
        if not (np.isfinite(f_a) and np.all(np.isfinite(g_a))):
            raise ValueError(f"non-finite objective or gradient at step {alpha:.6g}")
        if f_a < best.f:
            best = LineSearchResult(x + alpha * p, f_a, g_a, alpha, 0, False)
        return f_a, g_a, float(g_a @ p)

    def curvature_ok(d_a: float) -> bool:
        if strong:
            return abs(d_a) <= -c2 * d0
        return d_a >= c2 * d0

    def accept(alpha, f_a, g_a):
        return LineSearchResult(x + alpha * p, f_a, g_a, alpha, evals, True)

    def fail():
        return LineSearchResult(best.x, best.f, best.grad, best.alpha, evals, False)

    def zoom(a_lo, f_lo, d_lo, a_hi, f_hi):
        while evals < max_trials:
            span = a_hi - a_lo
            if abs(span) < 1e-16 * max(1.0, abs(a_lo)):
                return fail()
            # Quadratic through f(lo), f'(lo), f(hi); bisect when degenerate
            # or when the model minimum falls outside the safeguarded interior.
            denom = f_hi - f_lo - d_lo * span
            a_j = a_lo - 0.5 * d_lo * span * span / denom if denom > 0 else a_lo + 0.5 * span
            lo_bound = a_lo + 0.1 * span
            hi_bound = a_hi - 0.1 * span
            if span > 0:
                a_j = min(max(a_j, lo_bound), hi_bound)
            else:
                a_j = min(max(a_j, hi_bound), lo_bound)
            f_j, g_j, d_j = probe(a_j)
            if f_j > f_x + c1 * a_j * d0 or f_j >= f_lo:
                a_hi, f_hi = a_j, f_j
            else:
                if curvature_ok(d_j):
                    return accept(a_j, f_j, g_j)
                if d_j * span >= 0:
                    a_hi, f_hi = a_lo, f_lo
                a_lo, f_lo, d_lo = a_j, f_j, d_j
        return fail()

    alpha_prev, f_prev, d_prev = 0.0, f_x, d0
    alpha = 1.0
    while evals < max_trials:
        f_a, g_a, d_a = probe(alpha)
        if f_a > f_x + c1 * alpha * d0 or (alpha_prev > 0.0 and f_a >= f_prev):
            return zoom(alpha_prev, f_prev, d_prev, alpha, f_a)
        if curvature_ok(d_a):
            return accept(alpha, f_a, g_a)
        if d_a >= 0.0:
            return zoom(alpha, f_a, d_a, alpha_prev, f_prev)
        alpha_prev, f_prev, d_prev = alpha, f_a, d_a
        alpha *= _EXPANSION_FACTOR
    return fail()


def curvature_condition_holds(s: np.ndarray, y: np.ndarray,
                              tol: float = CURVATURE_SKIP_TOL) -> bool:
    """True when y.s is positive enough for a PD-preserving update."""
    return float(y @ s) > tol * float(np.linalg.norm(y) * np.linalg.norm(s))


def bfgs_update(h: np.ndarray, s: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Rank-2 inverse-Hessian update from a step s and gradient change y.

    Applies ``H' = (I - rho s y^T) H (I - rho y s^T) + rho s s^T`` with
    ``rho = 1/(y.s)``.  When the curvature y.s is not safely positive the
    update is skipped and ``h`` is returned unchanged (the event is logged);
    this preserves positive definiteness without damping.
    """
    s = np.asarray(s, dtype=float)
    y = np.asarray(y, dtype=float)
    if h.shape != (s.size, s.size) or y.size != s.size:
        raise ValueError("dimension mismatch in BFGS update")
    if not curvature_condition_holds(s, y):
        logger.info("BFGS update skipped: y.s = %.3e", float(y @ s))
        return h
    rho = 1.0 / float(y @ s)
    hy = h @ y
    yhy = float(y @ hy)
    out = (
        h
        - rho * (np.outer(s, hy) + np.outer(hy, s))
        + (rho * rho * yhy + rho) * np.outer(s, s)
    )
    return 0.5 * (out + out.T)


def expand_inverse_hessian(h: np.ndarray, new_parameter_count: int) -> np.ndarray:
    """Block-diagonal expansion [[H, 0], [0, I]] for appended parameters."""
    if new_parameter_count < 0:
        raise ValueError("new parameter count must be non-negative")
    old = h.shape[0]
    out = np.eye(old + new_parameter_count)
    out[:old, :old] = h
    return out


def freeze_parameters(h: np.ndarray, indices) -> np.ndarray:
    """Remove the rows and columns of frozen parameters.

    The result is the principal submatrix on the kept indices, which stays
    symmetric positive definite whenever the input is.
    """
    n = h.shape[0]
    indices = list(indices)
    frozen = set(indices)
    if len(frozen) != len(indices):
        raise ValueError("frozen indices must be distinct")
    if any(i < 0 or i >= n for i in frozen):
        raise ValueError(f"frozen index out of range for dimension {n}")
    keep = [i for i in range(n) if i not in frozen]
    return h[np.ix_(keep, keep)]


def _result(x, f, g, h, line_searches, converged, failed, trace, initial_fevals,
            snapshots):
    return OptimizerResult(
        x_star=np.array(x, dtype=float),
        f_star=float(f),
        grad_star=np.array(g, dtype=float),
        h_star=np.array(h, dtype=float),
        line_searches=line_searches,
        converged=converged,
        line_search_failed=failed,
        trace=trace,
        initial_fevals=initial_fevals,
        snapshots=snapshots,
    )


def minimize_canonical(
    objective: Objective,
    x0: np.ndarray,
    grad_tol: float = 1e-6,
    max_iterations: int = 10000,
    c1: float = _C1_DEFAULT,
    c2: float = _C2_DEFAULT,
    max_line_search_trials: int = _MAX_TRIALS_DEFAULT,
    strong_wolfe: bool = False,
    record_state: bool = False,
) -> OptimizerResult:
    """BFGS from scratch: identity initial inverse Hessian.

    Terminates when the gradient norm falls below ``grad_tol`` or after
    ``max_iterations`` line searches; a point already below the threshold
    returns immediately with zero line searches.  On the converged iteration
    the inverse Hessian is not updated.
    """
    x = np.array(x0, dtype=float)
    n = x.size
    fevals_before = objective.ledger.function_evaluations
    f, g = objective.value_and_grad(x)
    initial_fevals = objective.ledger.function_evaluations - fevals_before
    h = np.eye(n)
    trace: list[IterationRecord] = []
    snapshots: list[OptimizerSnapshot] | None = [] if record_state else None

    if np.linalg.norm(g) < grad_tol:
        return _result(x, f, g, h, 0, True, False, trace, initial_fevals, snapshots)

    line_searches = 0
    k = 0
    while k < max_iterations:
        p = -h @ g
        if snapshots is not None:
            snapshots.append(OptimizerSnapshot(k, x.copy(), f, g.copy(), p.copy(), h.copy()))
        try:
            ls = wolfe_line_search(objective, x, f, g, p, c1=c1, c2=c2,
                                   max_trials=max_line_search_trials,
                                   strong=strong_wolfe)
        except ValueError as exc:
            raise ValueError(f"optimizer iteration {k}: {exc}") from exc
        line_searches += 1
        d_start = float(g @ p)
        d_end = float(ls.grad @ p)
        if not ls.success:
            trace.append(IterationRecord(
                k=k, f=ls.f, grad_norm=float(np.linalg.norm(ls.grad)),
                alpha=ls.alpha, evals=ls.evals,
                fevals_cumulative=objective.ledger.function_evaluations,
                update_skipped=True, f_start=f, dir_deriv_start=d_start,
                dir_deriv_end=d_end))
            return _result(ls.x, ls.f, ls.grad, h, line_searches, False, True,
                           trace, initial_fevals, snapshots)
        converged = np.linalg.norm(ls.grad) <= grad_tol
        update_skipped = False
        if not converged:
            s = ls.x - x
            y = ls.grad - g
            update_skipped = not curvature_condition_holds(s, y)
            if not update_skipped:
                h = bfgs_update(h, s, y)
        trace.append(IterationRecord(
            k=k, f=ls.f, grad_norm=float(np.linalg.norm(ls.grad)),
            alpha=ls.alpha, evals=ls.evals,
            fevals_cumulative=objective.ledger.function_evaluations,
            update_skipped=update_skipped, f_start=f, dir_deriv_start=d_start,
            dir_deriv_end=d_end))
        x, f, g = ls.x, ls.f, ls.grad
        if converged:
            return _result(x, f, g, h, line_searches, True, False, trace,
                           initial_fevals, snapshots)
        k += 1
    return _result(x, f, g, h, line_searches, False, False, trace,
                   initial_fevals, snapshots)


def minimize_recycled(
    objective: Objective,
    x_prev: np.ndarray,
    grad_prev: np.ndarray,
    h_prev: np.ndarray,
    new_parameter_count: int = 1,
    grad_tol: float = 1e-6,
    max_iterations: int = 10000,
    c1: float = _C1_DEFAULT,
    c2: float = _C2_DEFAULT,
    max_line_search_trials: int = _MAX_TRIALS_DEFAULT,
    strong_wolfe: bool = False,
    record_state: bool = False,
) -> OptimizerResult:
    """BFGS warm-started from a previous optimization one dimension down.

    The start point appends zeros for the new parameters, the previous final
    gradient is reused verbatim for the old entries of the initial gradient
    (only the new partial derivatives are evaluated), and the initial inverse
    Hessian is the previous final ``H*`` expanded by an identity block.  The
    matrix is updated before the convergence check, so the returned ``H*``
    includes the final step's information.
    """
    x_prev = np.asarray(x_prev, dtype=float)
    grad_prev = np.asarray(grad_prev, dtype=float)
    m = new_parameter_count
    old = x_prev.size
    n = old + m
    if grad_prev.size != old or h_prev.shape != (old, old):
        raise ValueError(
            f"carried state dimensions disagree: x {old}, grad {grad_prev.size}, "
            f"H {h_prev.shape}"
        )
    if m < 1:
        raise ValueError("recycled minimization expects at least one new parameter")

    x = np.concatenate([x_prev, np.zeros(m)])
    fevals_before = objective.ledger.function_evaluations
    f = objective.value(x)
    g_new = objective.grad_components(x, list(range(old, n)))
    initial_fevals = objective.ledger.function_evaluations - fevals_before
    g = np.concatenate([grad_prev, g_new])
    h = expand_inverse_hessian(h_prev, m)
    trace: list[IterationRecord] = []
    snapshots: list[OptimizerSnapshot] | None = [] if record_state else None

    if np.linalg.norm(g) < grad_tol:
        return _result(x, f, g, h, 0, True, False, trace, initial_fevals, snapshots)

    line_searches = 0
    k = 0
    while k < max_iterations:
        p = -h @ g
        if snapshots is not None:
            snapshots.append(OptimizerSnapshot(k, x.copy(), f, g.copy(), p.copy(), h.copy()))
        try:
            ls = wolfe_line_search(objective, x, f, g, p, c1=c1, c2=c2,
                                   max_trials=max_line_search_trials,
                                   strong=strong_wolfe)
        except ValueError as exc:
            raise ValueError(f"optimizer iteration {k}: {exc}") from exc
        line_searches += 1
        d_start = float(g @ p)
        d_end = float(ls.grad @ p)
        if not ls.success:
            trace.append(IterationRecord(
                k=k, f=ls.f, grad_norm=float(np.linalg.norm(ls.grad)),
                alpha=ls.alpha, evals=ls.evals,
                fevals_cumulative=objective.ledger.function_evaluations,
                update_skipped=True, f_start=f, dir_deriv_start=d_start,
                dir_deriv_end=d_end))
            return _result(ls.x, ls.f, ls.grad, h, line_searches, False, True,
                           trace, initial_fevals, snapshots)
        s = ls.x - x
        y = ls.grad - g
        update_skipped = not curvature_condition_holds(s, y)
        if not update_skipped:
            h = bfgs_update(h, s, y)
        trace.append(IterationRecord(
            k=k, f=ls.f, grad_norm=float(np.linalg.norm(ls.grad)),
            alpha=ls.alpha, evals=ls.evals,
            fevals_cumulative=objective.ledger.function_evaluations,
            update_skipped=update_skipped, f_start=f, dir_deriv_start=d_start,
            dir_deriv_end=d_end))
        x, f, g = ls.x, ls.f, ls.grad
        k += 1
        if np.linalg.norm(g) < grad_tol:
            return _result(x, f, g, h, line_searches, True, False, trace,
                           initial_fevals, snapshots)
    return _result(x, f, g, h, line_searches, False, False, trace,
                   initial_fevals, snapshots)
