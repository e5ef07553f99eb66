"""BFGS with a Wolfe line search, in canonical and inverse-Hessian-recycling forms.

Both entry points run one BFGS iteration and differ only in how it starts
and in whether the converging step updates the inverse Hessian:

* :func:`minimize_canonical` starts from ``H_0 = I`` and updates the inverse
  Hessian only when the convergence check fails, so the returned matrix is
  the one that produced the last search direction.
* :func:`minimize_recycled` starts from a previous optimization's final
  ``H*`` expanded by an identity row and column for the one parameter each
  growth iteration appends, reuses the previous final gradient for the old
  entries of the initial gradient (it asks its objective for the energy and
  the new partial derivative only, which an objective built on the carried
  optimum answers without a sweep), and also updates the matrix on the
  converging step, so the returned ``H*`` is current.  Its outputs feed the
  next call directly.

Each run stops when the gradient norm falls below ``grad_tol`` or after
``max_iterations`` line searches; :func:`~adaptvqe.paulis.checked_threshold`
and :func:`~adaptvqe.paulis.checked_cap` are the package's one rule for each
kind of run limit.  Each run charges the ``ledger`` it is given (a fresh
:class:`~adaptvqe.cost.CostLedger` by default): 1 + 2n for the canonical
start, 3 for the recycled one (one energy and the new partial derivative),
and each line-search trial.

The line search brackets from an initial trial step of 1 (doubling), then
zooms with safeguarded quadratic interpolation until the sufficient-decrease
and weak curvature conditions hold, with ``c1 = 1e-4`` and ``c2 = 0.9``, in
at most 25 trials.  Each trial is one ``Objective.evaluate``, charged
1 + 2n (one energy and a full gradient), but the gradient is computed on
demand: the search reads it only where it needs the slope ``g.p``, that is
at a trial that passes the sufficient-decrease test, and at the best point
when the search fails.  A start whose x, f, g or H is not finite raises
``ValueError`` naming it, before any line search, and a non-finite value
raises at every trial; a deferred gradient is checked when it is read, so a
non-finite gradient at a trial whose gradient is never read does not raise.

A line search returns the gradient callable of the trial it returns, and a
run that of its optimum, as ``handle``; it is ``None`` when the returned
point is the search's or the run's own start.  For an ansatz objective it
is a :class:`~adaptvqe.simulator.GradientHandle`, which the growth loop
carries to the next iteration.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .cost import CostLedger
from .objectives import Objective
from .paulis import checked_cap, checked_threshold

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
    "minimize_canonical",
    "minimize_recycled",
]

logger = logging.getLogger(__name__)

CURVATURE_SKIP_TOL = 1e-10
DEFAULT_GRAD_TOL = 1e-6  # stop when the gradient norm falls below this
DEFAULT_LINE_SEARCH_CAP = 10000  # stop after this many line searches

_C1 = 1e-4
_C2 = 0.9
_MAX_TRIALS = 25
_EXPANSION_FACTOR = 2.0


@dataclass
class LineSearchResult:
    x: np.ndarray
    f: float
    grad: np.ndarray
    alpha: float
    evals: int
    success: bool
    handle: Callable[[], np.ndarray] | None


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
    handle: Callable[[], np.ndarray] | None = None


def wolfe_line_search(
    objective: Objective,
    x: np.ndarray,
    f_x: float,
    grad_x: np.ndarray,
    direction: np.ndarray,
    ledger: CostLedger,
) -> LineSearchResult:
    """Find a step satisfying the sufficient-decrease and curvature
    conditions, as the module doc describes; when the trial budget runs out,
    the best point seen is returned with ``success=False``."""
    x = np.asarray(x, dtype=float)
    p = np.asarray(direction, dtype=float)
    d0 = float(grad_x @ p)
    if d0 >= 0.0:
        raise ValueError(f"line search needs a descent direction (g.p = {d0:.3e})")

    evals = 0
    # The lowest point so far, (x, f, gradient callable, alpha), and the
    # latest trial's gradient callable.  An unread callable holds its
    # trial's states, so the latest is dropped before the next evaluation.
    start = (x, f_x, lambda: grad_x, 0.0)
    best = start
    latest = None

    def probe(alpha: float) -> float:
        nonlocal evals, best, latest
        latest = None
        x_a = x + alpha * p
        f_a, latest = objective.evaluate(x_a)
        evals += 1
        ledger.charge_energy()
        ledger.charge_gradient(x.size)
        if not math.isfinite(f_a):
            raise ValueError(f"non-finite objective at step {alpha:.6g}")
        if f_a < best[1]:
            best = (x_a, f_a, latest, alpha)
        return f_a

    def read(alpha: float, gradient) -> np.ndarray:
        g_a = gradient()
        if not np.isfinite(g_a).all():
            raise ValueError(f"non-finite gradient at step {alpha:.6g}")
        return g_a

    def slope(alpha: float) -> tuple[np.ndarray, float]:
        """The latest trial's gradient and its derivative along ``p``."""
        g_a = read(alpha, latest)
        return g_a, float(g_a @ p)

    def accept(alpha, f_a, g_a):
        return LineSearchResult(x + alpha * p, f_a, g_a, alpha, evals, True, latest)

    def fail():
        x_b, f_b, gradient, alpha = best
        return LineSearchResult(x_b, f_b, read(alpha, gradient), alpha, evals, False,
                                None if best is start else gradient)

    def zoom(a_lo, f_lo, d_lo, a_hi, f_hi):
        while evals < _MAX_TRIALS:
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
            f_j = probe(a_j)
            if f_j > f_x + _C1 * a_j * d0 or f_j >= f_lo:
                a_hi, f_hi = a_j, f_j
            else:
                g_j, d_j = slope(a_j)
                if d_j >= _C2 * d0:
                    return accept(a_j, f_j, g_j)
                if d_j * span >= 0:
                    a_hi, f_hi = a_lo, f_lo
                a_lo, f_lo, d_lo = a_j, f_j, d_j
        return fail()

    alpha_prev, f_prev, d_prev = 0.0, f_x, d0
    alpha = 1.0
    while evals < _MAX_TRIALS:
        f_a = probe(alpha)
        if f_a > f_x + _C1 * alpha * d0 or (alpha_prev > 0.0 and f_a >= f_prev):
            return zoom(alpha_prev, f_prev, d_prev, alpha, f_a)
        g_a, d_a = slope(alpha)
        if d_a >= _C2 * d0:
            return accept(alpha, f_a, g_a)
        if d_a >= 0.0:
            return zoom(alpha, f_a, d_a, alpha_prev, f_prev)
        alpha_prev, f_prev, d_prev = alpha, f_a, d_a
        alpha *= _EXPANSION_FACTOR
    return fail()


def curvature_condition_holds(s: np.ndarray, y: np.ndarray) -> bool:
    """True when y.s is positive enough for a PD-preserving update."""
    return float(y @ s) > CURVATURE_SKIP_TOL * (_norm(y) * _norm(s))


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
    s_col, hy_col = s[:, None], hy[:, None]
    out = (
        h
        - rho * (s_col * hy + hy_col * s)
        + (rho * rho * yhy + rho) * (s_col * s)
    )
    return 0.5 * (out + out.T)


def _norm(v: np.ndarray) -> float:
    """``np.linalg.norm`` of a real 1-D vector, which numpy computes as this
    same ``sqrt(v.dot(v))``, without its wrapper's cost."""
    return math.sqrt(v.dot(v))


def expand_inverse_hessian(h: np.ndarray) -> np.ndarray:
    """Block-diagonal expansion [[H, 0], [0, 1]]: ``h`` grown by one row and
    column for the one parameter a growth iteration appends."""
    old = h.shape[0]
    out = np.eye(old + 1)
    out[:old, :old] = h
    return out


def minimize_canonical(
    objective: Objective,
    x0: np.ndarray,
    grad_tol: float = DEFAULT_GRAD_TOL,
    max_iterations: int = DEFAULT_LINE_SEARCH_CAP,
    record_state: bool = False,
    ledger: CostLedger | None = None,
) -> OptimizerResult:
    """BFGS from ``H_0 = I`` (see the module doc); a start already below
    ``grad_tol`` returns at once with zero line searches."""
    checked_threshold("grad_tol", grad_tol)
    checked_cap("max_iterations", max_iterations)
    ledger = ledger if ledger is not None else CostLedger()
    x = np.array(x0, dtype=float)
    f, g = objective.value_and_grad(x)
    initial_fevals = ledger.charge_energy() + ledger.charge_gradient(x.size)
    return _minimize(objective, ledger, x, f, g, np.eye(x.size), initial_fevals,
                     grad_tol, max_iterations, record_state,
                     update_on_converged=False)


def minimize_recycled(
    objective: Objective,
    x_prev: np.ndarray,
    grad_prev: np.ndarray,
    h_prev: np.ndarray,
    grad_tol: float = DEFAULT_GRAD_TOL,
    max_iterations: int = DEFAULT_LINE_SEARCH_CAP,
    record_state: bool = False,
    ledger: CostLedger | None = None,
) -> OptimizerResult:
    """BFGS warm-started from a previous optimization one dimension down,
    whose final point, gradient and inverse Hessian are ``x_prev``,
    ``grad_prev`` and ``h_prev`` (see the module doc)."""
    checked_threshold("grad_tol", grad_tol)
    checked_cap("max_iterations", max_iterations)
    ledger = ledger if ledger is not None else CostLedger()
    x_prev = np.asarray(x_prev, dtype=float)
    grad_prev = np.asarray(grad_prev, dtype=float)
    h_prev = np.asarray(h_prev, dtype=float)
    old = x_prev.size
    if grad_prev.size != old or h_prev.shape != (old, old):
        raise ValueError(
            f"carried state dimensions disagree: x {old}, grad {grad_prev.size}, "
            f"H {h_prev.shape}"
        )

    x = np.concatenate([x_prev, np.zeros(1)])
    f = objective.value(x)
    initial_fevals = ledger.charge_energy()
    g_new = objective.grad_components(x, [old])
    initial_fevals += ledger.charge_gradient(1)
    g = np.concatenate([grad_prev, g_new])
    return _minimize(objective, ledger, x, f, g, expand_inverse_hessian(h_prev),
                     initial_fevals, grad_tol, max_iterations, record_state,
                     update_on_converged=True)


def _minimize(objective, ledger, x, f, g, h, initial_fevals, grad_tol,
              max_iterations, record_state, update_on_converged) -> OptimizerResult:
    """The BFGS iteration shared by both entry points, from a prepared start.

    A failed line search ends the run at the best point it saw, with the
    matrix that produced the last direction.  Otherwise the matrix is updated
    from the step, except on the converging step when
    ``update_on_converged`` is false.
    """
    for name, value in (("x", x), ("f", f), ("g", g), ("H", h)):
        if not np.isfinite(value).all():
            raise ValueError(f"optimizer start: {name} is not finite")
    trace: list[IterationRecord] = []
    snapshots: list[OptimizerSnapshot] | None = [] if record_state else None
    handle = None

    def finish(x, f, g, h, converged, failed):
        return OptimizerResult(
            x_star=np.array(x, dtype=float),
            f_star=float(f),
            grad_star=np.array(g, dtype=float),
            h_star=np.array(h, dtype=float),
            line_searches=len(trace),
            converged=converged,
            line_search_failed=failed,
            trace=trace,
            initial_fevals=initial_fevals,
            snapshots=snapshots,
            handle=handle,
        )

    if _norm(g) < grad_tol:
        return finish(x, f, g, h, True, False)

    for k in range(max_iterations):
        p = -h @ g
        if snapshots is not None:
            snapshots.append(OptimizerSnapshot(k, x.copy(), f, g.copy(), p.copy(), h.copy()))
        try:
            ls = wolfe_line_search(objective, x, f, g, p, ledger)
        except ValueError as exc:
            raise ValueError(f"optimizer iteration {k}: {exc}") from exc
        grad_norm = _norm(ls.grad)
        converged = ls.success and grad_norm < grad_tol
        update_skipped = not ls.success
        if ls.success and (update_on_converged or not converged):
            h_next = bfgs_update(h, ls.x - x, ls.grad - g)
            update_skipped = h_next is h
            h = h_next
        trace.append(IterationRecord(
            k=k, f=ls.f, grad_norm=grad_norm, alpha=ls.alpha, evals=ls.evals,
            fevals_cumulative=ledger.function_evaluations,
            update_skipped=update_skipped, f_start=f,
            dir_deriv_start=float(g @ p), dir_deriv_end=float(ls.grad @ p)))
        x, f, g = ls.x, ls.f, ls.grad
        if ls.handle is not None:
            handle = ls.handle
        if not ls.success or converged:
            return finish(x, f, g, h, converged, not ls.success)
    return finish(x, f, g, h, False, False)
