import functools
import logging
import re

import numpy as np
import pytest

from adaptvqe.cost import CostLedger
from adaptvqe.objectives import FunctionObjective
from adaptvqe.optimizer import (
    _norm,
    bfgs_update,
    curvature_condition_holds,
    expand_inverse_hessian,
    minimize_canonical,
    minimize_recycled,
    wolfe_line_search,
)

from oracles import wolfe_admissible_alphas

C1, C2 = 1e-4, 0.9

# Geometric-spectrum quadratics keep every intermediate line search in the
# zoom branch, whose quadratic interpolation is exact for quadratics; that
# realizes the exact-line-search regime the textbook termination and
# secant-completeness results assume.
GEOMETRIC_DIAGS = {n: [10.0 * 3.0 ** k for k in range(n)] for n in range(1, 6)}


def quadratic_objective(matrix, linear=None):
    matrix = np.asarray(matrix, dtype=float)
    linear = np.zeros(matrix.shape[0]) if linear is None else np.asarray(linear)
    return FunctionObjective(
        lambda x: 0.5 * x @ matrix @ x - linear @ x,
        lambda x: matrix @ x - linear,
    )


def unbounded_objective():
    """f = sum(x): every line search exhausts its trials."""
    return FunctionObjective(lambda x: float(np.sum(x)), lambda x: np.ones(x.size))


def cosh_objective():
    """f = sum(cosh(x)), minimized at 0 but not in two line searches from 3."""
    return FunctionObjective(lambda x: float(np.sum(np.cosh(x))), np.sinh)


class DeferredObjective(FunctionObjective):
    """``evaluate`` computes the gradient when it is first read, as the
    ansatz objective does, and counts the gradients computed; ``poisoned``
    lists the trial points whose gradient reads NaN."""

    def __init__(self, f, grad, poisoned=()):
        super().__init__(f, grad)
        self.poisoned = [np.asarray(point, dtype=float) for point in poisoned]
        self.gradients_computed = 0

    def evaluate(self, x):
        x = np.array(x, dtype=float)

        @functools.cache
        def gradient():
            self.gradients_computed += 1
            if any(np.array_equal(x, point) for point in self.poisoned):
                return np.full(x.size, np.nan)
            return np.asarray(self._grad(x), dtype=float)

        return float(self._f(x)), gradient


def random_spd(rng, n, floor=0.5):
    m = rng.normal(size=(n, n))
    return m @ m.T + floor * np.eye(n)


class TestWolfeLineSearch:
    def test_unit_step_accepted_on_well_scaled_parabola(self):
        obj = quadratic_objective([[2.0]])  # f = theta^2
        result = wolfe_line_search(obj, np.array([1.0]), 1.0, np.array([2.0]),
                                   np.array([-1.0]), CostLedger())
        assert result.success and result.alpha == 1.0 and result.evals == 1
        assert result.x[0] == pytest.approx(0.0)
        assert result.f == pytest.approx(0.0)

    @pytest.mark.parametrize("f,g", [(np.nan, 1.0), (1.0, np.inf)])
    def test_non_finite_trial_is_rejected(self, f, g):
        obj = FunctionObjective(lambda x: f, lambda x: np.array([g]))
        with pytest.raises(ValueError, match="non-finite"):
            wolfe_line_search(obj, np.array([1.0]), 1.0, np.array([2.0]),
                              np.array([-1.0]), CostLedger())

    def test_stationary_point_is_a_precondition_violation(self):
        obj = quadratic_objective([[2.0]])
        with pytest.raises(ValueError, match="descent direction"):
            wolfe_line_search(obj, np.zeros(1), 0.0, np.zeros(1), np.array([-1.0]),
                              CostLedger())

    def test_steepest_descent_step_matches_scan_oracle(self):
        # f = x^T diag(1,4) x / 2 from (1,1) along -grad: alpha=1 fails the
        # decrease test, so the bracket (0,1] is zoomed; the quadratic
        # interpolation lands on the exact 1-d minimizer 17/65.
        diag = np.diag([1.0, 4.0])
        obj = quadratic_objective(diag)
        x = np.array([1.0, 1.0])
        grad = diag @ x
        p = -grad
        result = wolfe_line_search(obj, x, 2.5, grad, p, CostLedger())
        assert result.success
        assert 0.0 < result.alpha <= 1.0

        def phi(a):
            return 0.5 * (x + a * p) @ diag @ (x + a * p)

        def dphi(a):
            return (diag @ (x + a * p)) @ p

        admissible = wolfe_admissible_alphas(phi, dphi, 2.5, grad @ p,
                                             np.linspace(1e-4, 2.0, 20001))
        assert admissible.size > 0
        assert np.min(np.abs(admissible - result.alpha)) < 1e-4
        assert result.alpha == pytest.approx(17.0 / 65.0, abs=1e-12)

    def test_gradient_read_only_where_the_search_needs_it(self):
        # the scan-oracle search above: alpha = 1 fails sufficient decrease,
        # so its gradient is never read, and the accepted zoom trial's is
        diag = np.diag([1.0, 4.0])
        x = np.array([1.0, 1.0])
        grad = diag @ x
        deferred = DeferredObjective(lambda v: 0.5 * v @ diag @ v, lambda v: diag @ v)
        eager = quadratic_objective(diag)
        deferred_ledger, eager_ledger = CostLedger(), CostLedger()
        got = wolfe_line_search(deferred, x, 2.5, grad, -grad, deferred_ledger)
        expected = wolfe_line_search(eager, x, 2.5, grad, -grad, eager_ledger)
        assert got.success and got.evals == 2
        assert deferred.gradients_computed == got.evals - 1
        assert (got.x.tobytes(), got.f, got.grad.tobytes(), got.alpha, got.evals) == (
            expected.x.tobytes(), expected.f, expected.grad.tobytes(), expected.alpha,
            expected.evals)
        # every trial is charged one energy and a full gradient, read or not
        assert deferred_ledger.function_evaluations == got.evals * (1 + 2 * 2)
        assert deferred_ledger.function_evaluations == eager_ledger.function_evaluations

    def test_non_finite_gradient_raises_where_it_is_read(self):
        def parabola(poisoned):
            return DeferredObjective(lambda v: float(v @ v), lambda v: 2.0 * v, poisoned)

        # f = x^2 from 1 along -1: alpha = 1 passes sufficient decrease, so
        # its gradient is read
        with pytest.raises(ValueError, match="non-finite gradient"):
            wolfe_line_search(parabola([[0.0]]), np.array([1.0]), 1.0,
                              np.array([2.0]), np.array([-1.0]), CostLedger())
        # from 1 along -3: alpha = 1 fails it, and its gradient is never read
        objective = parabola([[-2.0]])
        result = wolfe_line_search(objective, np.array([1.0]), 1.0, np.array([2.0]),
                                   np.array([-3.0]), CostLedger())
        assert result.success and np.all(np.isfinite(result.grad))
        assert objective.gradients_computed == result.evals - 1

    def test_accepted_steps_satisfy_both_conditions(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            n = int(rng.integers(1, 6))
            a = random_spd(rng, n)
            b = rng.normal(size=n)
            obj = quadratic_objective(a, b)
            x = rng.normal(size=n)
            f0 = obj.value_and_grad(x)[0]
            g0 = a @ x - b
            if np.linalg.norm(g0) < 1e-12:
                continue
            p = -g0
            result = wolfe_line_search(obj, x, f0, g0, p, CostLedger())
            assert result.success
            d0 = g0 @ p
            assert result.f <= f0 + C1 * result.alpha * d0 + 1e-14
            assert result.grad @ p >= C2 * d0

    def test_unbounded_descent_exhausts_trials(self):
        result = wolfe_line_search(unbounded_objective(), np.zeros(1), 0.0, np.ones(1),
                                   np.array([-1.0]), CostLedger())
        assert not result.success
        assert result.evals == 25
        assert result.f < 0.0  # best point seen is still returned


class TestBfgsUpdate:
    def test_identity_fixed_point(self):
        h = np.eye(2)
        s = y = np.array([1.0, 0.0])
        np.testing.assert_allclose(bfgs_update(h, s, y), np.eye(2), atol=1e-15)

    def test_secant_condition_forced(self):
        h = bfgs_update(np.eye(2), np.array([1.0, 0.0]), np.array([2.0, 0.0]))
        np.testing.assert_allclose(h @ np.array([2.0, 0.0]), np.array([1.0, 0.0]),
                                   atol=1e-12)

    def test_matches_textbook_formula_and_stays_spd(self):
        rng = np.random.default_rng(32)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            h = random_spd(rng, n)
            s = rng.normal(size=n)
            y = rng.normal(size=n)
            if y @ s <= 1e-8:
                continue
            rho = 1.0 / (y @ s)
            left = np.eye(n) - rho * np.outer(s, y)
            oracle = left @ h @ left.T + rho * np.outer(s, s)
            updated = bfgs_update(h, s, y)
            np.testing.assert_allclose(updated, oracle, atol=1e-10)
            assert np.min(np.linalg.eigvalsh(updated)) > 0
            residual = np.linalg.norm(updated @ y - s)
            assert residual < 1e-9 * (1 + np.linalg.norm(s))

    def test_skips_on_nonpositive_curvature(self):
        h = np.eye(2)
        s = np.array([1.0, 0.0])
        y = np.array([-1.0, 0.0])
        assert not curvature_condition_holds(s, y)
        assert bfgs_update(h, s, y) is h

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            bfgs_update(np.eye(2), np.ones(3), np.ones(3))

    def test_bytes_match_the_outer_product_form(self):
        """Broadcast columns times rows are ``np.outer`` bit for bit, so the
        update replays the ``np.outer`` formula it replaced."""
        rng = np.random.default_rng(7)
        for n in (1, 2, 5, 30, 60):
            a = rng.normal(size=(n, n))
            h = a @ a.T / n + np.eye(n)
            s = rng.normal(size=n) * 10.0 ** rng.integers(-6, 3)
            y = rng.normal(size=n)
            y += 2.0 * abs(s @ y) / (s @ s) * s
            rho = 1.0 / float(y @ s)
            hy = h @ y
            out = (h - rho * (np.outer(s, hy) + np.outer(hy, s))
                   + (rho * rho * float(y @ hy) + rho) * np.outer(s, s))
            assert bfgs_update(h, s, y).tobytes() == (0.5 * (out + out.T)).tobytes()


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 16, 30, 61, 200])
def test_norm_bytes_match_numpy(n):
    rng = np.random.default_rng(n)
    for scale in (1e-9, 1.0, 1e7):
        v = rng.normal(size=n) * scale
        assert float(_norm(v)).hex() == float(np.linalg.norm(v)).hex()


class TestMinimizeCanonical:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_quadratic_termination(self, n):
        diag = np.diag(GEOMETRIC_DIAGS[n])
        obj = quadratic_objective(diag)
        result = minimize_canonical(obj, np.ones(n), grad_tol=1e-6)
        assert result.converged
        assert result.line_searches <= n + 1
        assert np.linalg.norm(result.grad_star) < 1e-6
        np.testing.assert_allclose(result.x_star, np.linalg.solve(diag, np.zeros(n)),
                                   atol=1e-7)

    def test_already_converged_start(self):
        obj = quadratic_objective(np.eye(2))
        result = minimize_canonical(obj, np.zeros(2), grad_tol=1e-6)
        assert result.converged and result.line_searches == 0
        np.testing.assert_allclose(result.x_star, np.zeros(2))
        np.testing.assert_allclose(result.h_star, np.eye(2))

    def test_rosenbrock_golden(self):
        obj = FunctionObjective(
            lambda x: (1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2,
            lambda x: np.array([
                -2 * (1 - x[0]) - 400 * x[0] * (x[1] - x[0] ** 2),
                200 * (x[1] - x[0] ** 2),
            ]),
        )
        result = minimize_canonical(obj, np.array([-1.2, 1.0]), grad_tol=1e-6)
        assert result.converged
        np.testing.assert_allclose(result.x_star, [1.0, 1.0], atol=1e-6)
        # regression number frozen at first implementation
        assert result.line_searches == 35

    def test_monotone_decrease_and_spd_path(self):
        rng = np.random.default_rng(33)
        a = random_spd(rng, 4)
        obj = quadratic_objective(a, rng.normal(size=4))
        result = minimize_canonical(obj, rng.normal(size=4), grad_tol=1e-8,
                                    record_state=True)
        assert result.converged
        values = [snap.f for snap in result.snapshots] + [result.f_star]
        assert all(later < earlier for earlier, later in zip(values, values[1:]))
        for snap in result.snapshots:
            assert np.min(np.linalg.eigvalsh(snap.h)) > 0
            assert snap.direction @ snap.grad < 0

    def test_h_not_updated_on_converging_search(self):
        obj = quadratic_objective(np.diag([10.0]))
        result = minimize_canonical(obj, np.array([1.0]), grad_tol=1e-6)
        assert result.converged and result.line_searches == 1
        np.testing.assert_allclose(result.h_star, np.eye(1))

    def test_line_search_failure_reported(self):
        result = minimize_canonical(unbounded_objective(), np.zeros(1),
                                    grad_tol=1e-6)
        assert result.line_search_failed and not result.converged
        assert result.line_searches == 1
        assert result.trace[-1].update_skipped is True
        assert result.trace[-1].evals == 25
        np.testing.assert_array_equal(result.h_star, np.eye(1))

    def test_skipped_update_is_logged_and_recorded(self, caplog):
        # f = -x0 along (1, 0): the unit step passes both Wolfe tests, but
        # y.s = 0.1 is tiny next to |y||s| = 1e10, so the update is skipped
        def grad(x):
            return np.array([-1.0, 0.0]) if x[0] == 0.0 else np.array([-0.9, 1e10])

        obj = FunctionObjective(lambda x: -x[0], grad)
        with caplog.at_level(logging.INFO, logger="adaptvqe.optimizer"):
            result = minimize_canonical(obj, np.zeros(2), max_iterations=1)
        assert result.line_searches == 1 and not result.line_search_failed
        assert result.trace[-1].update_skipped is True
        np.testing.assert_array_equal(result.h_star, np.eye(2))
        assert caplog.messages == ["BFGS update skipped: y.s = 1.000e-01"]

    def test_iteration_cap(self):
        result = minimize_canonical(cosh_objective(), np.array([3.0]),
                                    grad_tol=1e-14, max_iterations=2)
        assert not result.converged and not result.line_search_failed
        assert result.line_searches == 2 and len(result.trace) == 2


@pytest.mark.parametrize("grad_tol", [float("nan"), float("inf"), 0.0, -1.0])
def test_grad_tol_finite_and_positive(grad_tol):
    obj = quadratic_objective(np.eye(2))
    ledger = CostLedger()
    with pytest.raises(ValueError, match="finite and positive, grad_tol is not$"):
        minimize_canonical(obj, np.ones(2), grad_tol=grad_tol, ledger=ledger)
    with pytest.raises(ValueError, match="finite and positive, grad_tol is not$"):
        minimize_recycled(obj, np.ones(1), np.ones(1), np.eye(1), grad_tol=grad_tol,
                          ledger=ledger)
    assert ledger.function_evaluations == 0


@pytest.mark.parametrize("max_iterations", [True, 2.5, 2.0, "3", -1])
def test_iteration_cap_is_a_non_negative_int(max_iterations):
    obj = quadratic_objective(np.eye(2))
    expected = re.escape("max_iterations must be at least 0, got -1" if max_iterations == -1
                         else f"max_iterations must be an int, got {max_iterations!r}")
    ledger = CostLedger()
    with pytest.raises(ValueError, match=f"^{expected}$"):
        minimize_canonical(obj, np.ones(2), max_iterations=max_iterations, ledger=ledger)
    with pytest.raises(ValueError, match=f"^{expected}$"):
        minimize_recycled(obj, np.ones(1), np.ones(1), np.eye(1),
                          max_iterations=max_iterations, ledger=ledger)
    assert ledger.function_evaluations == 0


def test_starts_charged_at_hardware_rates():
    # the canonical start is one energy and a full gradient, 1 + 2n; the
    # recycled start one energy and the new component, 3
    obj = quadratic_objective(np.diag([1.0, 2.0, 3.0]))
    ledger = CostLedger()
    canonical = minimize_canonical(obj, np.ones(3), max_iterations=0, ledger=ledger)
    assert canonical.initial_fevals == ledger.function_evaluations == 1 + 2 * 3
    ledger = CostLedger()
    recycled = minimize_recycled(obj, np.ones(2), np.ones(2), np.eye(2), max_iterations=0,
                                 ledger=ledger)
    assert recycled.initial_fevals == ledger.function_evaluations == 3
    assert canonical.line_searches == recycled.line_searches == 0


class TestMinimizeRecycled:
    def test_expansion_block_form(self):
        h = np.array([[2.0, 0.5], [0.5, 1.0]])
        expanded = expand_inverse_hessian(h)
        np.testing.assert_allclose(
            expanded, [[2.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]])

    def test_expansion_preserves_positive_definiteness(self):
        rng = np.random.default_rng(34)
        for _ in range(10):
            h = random_spd(rng, int(rng.integers(1, 5)))
            expanded = expand_inverse_hessian(h)
            assert np.min(np.linalg.eigvalsh(expanded)) > 0

    def test_separable_quadratic_needs_at_most_two_searches(self):
        # previous problem fully optimized; the appended coordinate is
        # independent, so only its own curvature must be learned
        diag = np.diag(GEOMETRIC_DIAGS[3])
        b = diag @ np.ones(3)
        prev = minimize_canonical(quadratic_objective(diag, b), np.zeros(3),
                                  grad_tol=1e-8)
        assert prev.converged
        full = np.diag(GEOMETRIC_DIAGS[3] + [7.0])
        b_full = full @ np.array([1.0, 1.0, 1.0, 1.0])
        recycled = minimize_recycled(
            quadratic_objective(full, b_full), prev.x_star, prev.grad_star,
            prev.h_star, grad_tol=1e-8)
        assert recycled.converged
        assert recycled.line_searches <= 2
        canonical = minimize_canonical(
            quadratic_objective(full, b_full),
            np.concatenate([prev.x_star, [0.0]]), grad_tol=1e-8)
        assert canonical.line_searches >= recycled.line_searches

    def test_old_gradient_entries_reused_verbatim(self):
        diag = np.diag([10.0, 30.0])
        prev = minimize_canonical(quadratic_objective(diag, diag @ np.ones(2)),
                                  np.zeros(2), grad_tol=1e-8)
        calls = []
        full = np.diag([10.0, 30.0, 5.0])
        b = full @ np.array([1.0, 1.0, 2.0])
        inner = quadratic_objective(full, b)

        class Spy:
            def value(self, x):
                return inner.value(x)

            def value_and_grad(self, x):
                return inner.value_and_grad(x)

            def evaluate(self, x):
                return inner.evaluate(x)

            def grad_components(self, x, indices):
                calls.append(tuple(indices))
                return inner.grad_components(x, indices)

        ledger = CostLedger()
        result = minimize_recycled(Spy(), prev.x_star, prev.grad_star,
                                   prev.h_star, grad_tol=1e-8, ledger=ledger)
        assert calls[0] == (2,)  # only the new component is evaluated up front
        assert result.initial_fevals == 1 + 2  # one energy, one shifted pair
        assert result.converged
        assert ledger.function_evaluations > result.initial_fevals

    def test_h_updated_before_convergence_check(self):
        # single converging search: canonical keeps H = I, recycled returns
        # the secant-updated matrix
        obj = quadratic_objective(np.diag([10.0]), np.array([10.0]))
        recycled = minimize_recycled(obj, np.zeros(0), np.zeros(0),
                                     np.zeros((0, 0)), grad_tol=1e-6)
        assert recycled.converged and recycled.line_searches == 1
        np.testing.assert_allclose(recycled.h_star, [[0.1]], atol=1e-12)

    def test_first_direction_uses_expanded_matrix_exactly(self):
        h_prev = np.array([[2.0, 0.5], [0.5, 1.0]])
        grad_prev = np.array([1e-9, -1e-9])
        full = np.diag([3.0, 4.0, 5.0])
        b = full @ np.array([0.2, -0.1, 1.0])
        obj = quadratic_objective(full, b)
        result = minimize_recycled(obj, np.array([0.2, -0.1]), grad_prev, h_prev,
                                   grad_tol=1e-10, record_state=True)
        x0 = np.array([0.2, -0.1, 0.0])
        g0 = np.concatenate([grad_prev, [(full @ x0 - b)[2]]])
        expected = -expand_inverse_hessian(h_prev) @ g0
        np.testing.assert_allclose(result.snapshots[0].direction, expected,
                                   atol=1e-14)

    def test_dimension_mismatch_rejected(self):
        obj = quadratic_objective(np.eye(3))
        with pytest.raises(ValueError, match="dimensions disagree"):
            minimize_recycled(obj, np.zeros(2), np.zeros(1), np.eye(2))

    def test_line_search_failure_reported(self):
        h_prev = np.array([[2.0]])
        result = minimize_recycled(unbounded_objective(), np.zeros(1), np.ones(1),
                                   h_prev, grad_tol=1e-6)
        assert result.line_search_failed and not result.converged
        assert result.line_searches == 1
        assert result.trace[-1].update_skipped is True
        np.testing.assert_array_equal(result.h_star, expand_inverse_hessian(h_prev))

    def test_iteration_cap(self):
        result = minimize_recycled(cosh_objective(), np.array([3.0]),
                                   np.array([np.sinh(3.0)]), np.eye(1),
                                   grad_tol=1e-14, max_iterations=2)
        assert not result.converged and not result.line_search_failed
        assert result.line_searches == 2 and len(result.trace) == 2

    def test_converged_start_returns_immediately(self):
        full = np.diag([2.0, 3.0, 1.0])
        obj = quadratic_objective(full)
        result = minimize_recycled(obj, np.zeros(2), np.zeros(2), np.eye(2),
                                   grad_tol=1e-6)
        assert result.converged and result.line_searches == 0


def nan_at(start, part):
    """``0.5 |x|^2`` with a nan value (``part == "f"``) or gradient
    (``part == "g"``) at ``start`` alone."""
    def f(x):
        return np.nan if part == "f" and np.array_equal(x, start) else 0.5 * float(x @ x)

    def grad(x):
        return np.full(x.size, np.nan) if part == "g" and np.array_equal(x, start) else x

    return FunctionObjective(f, grad)


@pytest.mark.parametrize("part", ["x", "f", "g"])
def test_canonical_non_finite_start_raises(part):
    """A nan start energy passed every sufficient-decrease test and the run
    reported convergence; each non-finite part of the start is named."""
    start = np.array([1.0, -2.0])
    x0 = np.array([1.0, np.inf]) if part == "x" else start
    with pytest.raises(ValueError, match=f"optimizer start: {part} is not finite"):
        minimize_canonical(nan_at(start, part), x0)


@pytest.mark.parametrize("part", ["x", "f", "g", "H"])
def test_recycled_non_finite_start_raises(part):
    x_prev = np.array([np.inf if part == "x" else 1.0])
    grad_prev = np.array([np.nan if part == "g" else 1.0])
    h_prev = np.array([[np.nan if part == "H" else 1.0]])
    with pytest.raises(ValueError, match=f"optimizer start: {part} is not finite"):
        minimize_recycled(nan_at(np.array([1.0, 0.0]), part), x_prev, grad_prev, h_prev)


def test_recycled_takes_a_nested_list_inverse_hessian():
    full = np.diag([2.0, 3.0, 1.0])
    obj = quadratic_objective(full, full @ np.ones(3))
    x_prev, grad_prev = np.array([0.5, 0.2]), np.array([-1.0, -2.4])
    h_prev = np.array([[0.5, 0.1], [0.1, 0.4]])
    as_list = minimize_recycled(obj, x_prev, grad_prev, h_prev.tolist())
    as_array = minimize_recycled(obj, x_prev, grad_prev, h_prev)
    assert as_list.x_star.tobytes() == as_array.x_star.tobytes()
    assert as_list.h_star.tobytes() == as_array.h_star.tobytes()


class TestSecantInvariantOnQuadratics:
    def test_final_h_equals_true_inverse(self):
        # exact-line-search regime: the built matrix is secant-complete
        diag = np.diag(GEOMETRIC_DIAGS[4])
        obj = quadratic_objective(diag)
        result = minimize_canonical(obj, np.ones(4), grad_tol=1e-8)
        assert np.linalg.norm(result.h_star - np.linalg.inv(diag), ord="fro") < 1e-6
