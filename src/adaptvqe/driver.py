"""The adaptive ansatz-growth outer loop.

Each iteration measures the gradient of every pool operator at the current
state, appends the operator with the largest gradient magnitude (parameter
initialized to zero), and re-optimizes all parameters.  The optimizer is
dispatched per mode: ``canonical`` restarts from an identity inverse
Hessian, ``recycling`` warm-starts from the previous iteration's final
parameter vector, gradient and inverse Hessian.  The loop stops when the
pool-gradient norm is at most ``eps`` (``DEFAULT_EPS``) or after
``max_iterations`` operators (``DEFAULT_GROWTH_CAP``); :func:`checked_mode`
is the one check of :data:`MODES`.  :func:`run_adapt` charges the initial
energy and each pool sweep to the run's ledger and passes that ledger to
the minimizer, which charges the rest (see :mod:`adaptvqe.cost`).

The loop carries the :class:`~adaptvqe.simulator.GradientHandle` of the
state it stands at across the growth boundary (see "The carried handle" in
:mod:`adaptvqe.simulator`): first the reference state's, then each
optimizer's last evaluation's, kept when the optimizer returns its own
start.  The pool sweep and the next objective's start read it.  The
charges do not change: they price hardware queries, not simulator work.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .cost import CostLedger, default_pool_sweep_units
from .objectives import AnsatzObjective
from .optimizer import (
    DEFAULT_GRAD_TOL,
    DEFAULT_LINE_SEARCH_CAP,
    IterationRecord,
    OptimizerSnapshot,
    expand_inverse_hessian,
    minimize_canonical,
    minimize_recycled,
)
from .paulis import PauliSum, checked_cap, checked_threshold
from .pools import OperatorPool
from .simulator import (
    AnsatzState,
    GradientHandle,
    energy_then_gradient,
    expectation,  # noqa: F401  (perfbench/tracing.py wraps driver.expectation)
    prepare,  # noqa: F401  (perfbench/tracing.py wraps driver.prepare)
)

__all__ = [
    "MODES",
    "AdaptIteration",
    "AdaptResult",
    "pool_gradients",
    "select_operator",
    "run_adapt",
    "checked_mode",
]

logger = logging.getLogger(__name__)

MODES = ("canonical", "recycling")
DEFAULT_EPS = 1e-6  # stop growing when the pool-gradient norm is at most this
DEFAULT_GROWTH_CAP = 50  # stop growing after this many operators

_ENERGY_RISE_TOL = 1e-10
_TIE_TOL = 1e-6
_STALL_LIMIT = 3


@dataclass
class AdaptIteration:
    """Everything recorded about one ansatz-growth iteration."""

    n: int
    selected_index: int
    selected_label: str
    selected_gradient: float
    pool_grad_norm: float
    energy: float
    error: float | None
    line_searches: int
    fevals_cumulative: int
    opt_converged: bool
    line_search_failed: bool
    x_start: np.ndarray
    x_star: np.ndarray
    grad_star: np.ndarray
    h_start: np.ndarray
    h_star: np.ndarray
    opt_trace: list[IterationRecord]
    opt_initial_fevals: int
    opt_snapshots: list[OptimizerSnapshot] | None = None


@dataclass
class AdaptResult:
    mode: str
    ansatz: AnsatzState
    x_star: np.ndarray
    energy: float
    initial_energy: float
    converged: bool
    stalled: bool
    pool_sweeps: int
    final_pool_grad_norm: float | None
    exact_energy: float | None
    iterations: list[AdaptIteration] = field(default_factory=list)
    ledger: CostLedger = field(default_factory=CostLedger)

    @property
    def error(self) -> float | None:
        if self.exact_energy is None:
            return None
        return self.energy - self.exact_energy


def pool_gradients(carried: GradientHandle, pool: OperatorPool) -> np.ndarray:
    """Energy derivative of each candidate operator at parameter zero, at
    the state ``carried`` holds.

    Each entry is the expectation of the commutator of the Hamiltonian with
    the generator, evaluated as 2 Re <H psi | A_k psi> by
    :meth:`~adaptvqe.compiled.GeneratorBatch.gradients` on the pool's
    compiled batch (:attr:`OperatorPool.batch`) from the carried ``psi`` and
    ``H|psi>``; the Hamiltonian was checked by the sweep that computed them.
    The batch builds its table once per pool, at every size.  One call is
    one pool sweep, which :func:`run_adapt` charges at the flat 8N rate.
    """
    if carried.psi.size != 1 << pool.n_qubits:
        raise ValueError("pool qubit count does not match the state")
    return pool.batch.gradients(carried.psi, carried.h_psi)


def select_operator(gradients: np.ndarray) -> tuple[int, float]:
    """Index of the largest-magnitude gradient and the Euclidean norm of the
    whole gradient vector, summed by numpy itself rather than by BLAS, so
    that neither depends on the BLAS kernel.

    Candidates within 1e-6 of the maximum magnitude, and at least half of
    it, count as tied and the lowest pool index wins.  Symmetry-degenerate
    operators differ only by numerical noise at converged iterates, so a
    strict argmax would make the selection depend on noise instead of on
    the pool order; the half keeps a zero gradient from tying once every
    magnitude is below 1e-6.  A non-finite gradient raises ``ValueError``
    naming its pool index.
    """
    gradients = np.asarray(gradients, dtype=float)
    if gradients.size == 0:
        raise ValueError("cannot select from an empty pool")
    bad = np.flatnonzero(~np.isfinite(gradients))
    if bad.size:
        raise ValueError(
            f"pool gradient {bad[0]} is not finite ({gradients[bad[0]]})")
    magnitudes = np.abs(gradients)
    best = float(np.max(magnitudes))
    index = int(np.argmax(magnitudes >= max(best - _TIE_TOL, best / 2)))
    return index, float(np.sqrt(np.square(gradients).sum()))


def checked_mode(mode: str) -> str:
    """``mode`` when it is one of :data:`MODES`; else ``ValueError``."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    return mode


def run_adapt(
    hamiltonian: PauliSum,
    reference: str,
    pool: OperatorPool,
    mode: str = "canonical",
    eps: float = DEFAULT_EPS,
    max_iterations: int = DEFAULT_GROWTH_CAP,
    opt_grad_tol: float = DEFAULT_GRAD_TOL,
    opt_max_iterations: int = DEFAULT_LINE_SEARCH_CAP,
    exact_energy: float | None = None,
    record_optimizer_state: bool = False,
) -> AdaptResult:
    """Run the adaptive growth loop until the pool-gradient norm drops below
    ``eps`` or ``max_iterations`` operators have been added.

    A line-search failure inside one optimization is recorded and the loop
    continues from the best point found; three consecutive
    first-line-search failures abort the loop with a diagnostic.
    """
    checked_mode(mode)
    if len(pool) == 0:
        raise ValueError("operator pool is empty")
    checked_threshold("eps", eps)
    checked_threshold("opt_grad_tol", opt_grad_tol)
    checked_cap("max_iterations", max_iterations)
    checked_cap("opt_max_iterations", opt_max_iterations, low=1)

    ledger = CostLedger()
    ansatz = AnsatzState(reference)
    energy, carried = energy_then_gradient(ansatz, hamiltonian)
    ledger.charge_energy()
    initial_energy = energy

    x_star = np.zeros(0)
    grad_star = np.zeros(0)
    h_star = np.zeros((0, 0))
    iterations: list[AdaptIteration] = []
    converged = False
    stalled = False
    pool_sweeps = 0
    pool_norm = None
    consecutive_stalls = 0

    n = 0
    while n < max_iterations:
        n += 1
        grads = pool_gradients(carried, pool)
        ledger.charge_pool_sweep(default_pool_sweep_units(ansatz.n_qubits))
        pool_sweeps += 1
        try:
            index, pool_norm = select_operator(grads)
        except ValueError as exc:
            raise RuntimeError(f"ADAPT iteration {n} ({mode} mode) failed: {exc}") from exc
        ledger.record_iteration(
            f"adapt-{n}", pool_grad_norm=pool_norm, **ledger.snapshot()
        )
        if pool_norm <= eps:
            converged = True
            break

        ansatz = ansatz.grown(pool.operators[index], 0.0)
        objective = AnsatzObjective(hamiltonian, ansatz, carried)
        x_start = np.concatenate([x_star, [0.0]])
        settings = dict(grad_tol=opt_grad_tol, max_iterations=opt_max_iterations,
                        record_state=record_optimizer_state, ledger=ledger)
        try:
            if mode == "canonical":
                h_start = np.eye(n)
                opt = minimize_canonical(objective, x_start, **settings)
            else:
                h_start = expand_inverse_hessian(h_star)
                opt = minimize_recycled(objective, x_star, grad_star, h_star, **settings)
        except Exception as exc:
            raise RuntimeError(f"ADAPT iteration {n} ({mode} mode) failed: {exc}") from exc

        if opt.f_star > energy + _ENERGY_RISE_TOL:
            raise RuntimeError(
                f"ADAPT iteration {n}: energy rose from {energy:.12f} to "
                f"{opt.f_star:.12f}"
            )
        if opt.line_search_failed and opt.line_searches <= 1:
            consecutive_stalls += 1
            logger.warning("ADAPT iteration %d: first line search failed (%d/%d)",
                           n, consecutive_stalls, _STALL_LIMIT)
        else:
            consecutive_stalls = 0

        if opt.handle is not None:
            carried = opt.handle
        x_star = opt.x_star
        grad_star = opt.grad_star
        h_star = opt.h_star
        energy = opt.f_star
        # built anew rather than by with_parameters, which would share the
        # optimization's compiled caches and keep them past it
        ansatz = AnsatzState(reference, tuple(zip(ansatz.generators, x_star.tolist())))
        iterations.append(AdaptIteration(
            n=n,
            selected_index=index,
            selected_label=pool.labels[index],
            selected_gradient=float(grads[index]),
            pool_grad_norm=pool_norm,
            energy=energy,
            error=None if exact_energy is None else energy - exact_energy,
            line_searches=opt.line_searches,
            fevals_cumulative=ledger.function_evaluations,
            opt_converged=opt.converged,
            line_search_failed=opt.line_search_failed,
            x_start=x_start,
            x_star=x_star.copy(),
            grad_star=grad_star.copy(),
            h_start=h_start,
            h_star=h_star.copy(),
            opt_trace=opt.trace,
            opt_initial_fevals=opt.initial_fevals,
            opt_snapshots=opt.snapshots,
        ))
        if consecutive_stalls >= _STALL_LIMIT:
            stalled = True
            logger.error("ADAPT aborted after %d consecutive stalled iterations",
                         consecutive_stalls)
            break

    return AdaptResult(
        mode=mode,
        ansatz=ansatz,
        x_star=x_star,
        energy=energy,
        initial_energy=initial_energy,
        converged=converged,
        stalled=stalled,
        pool_sweeps=pool_sweeps,
        final_pool_grad_norm=pool_norm,
        exact_energy=exact_energy,
        iterations=iterations,
        ledger=ledger,
    )
