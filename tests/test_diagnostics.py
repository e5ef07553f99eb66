from dataclasses import replace

import numpy as np
import pytest

from adaptvqe import diagnostics
from adaptvqe.cost import CostLedger
from adaptvqe.diagnostics import (
    HessianDistanceRecord,
    convergence_report,
    exact_ansatz_hessian,
    exact_hessian,
    frobenius_distance,
    hessian_distance_series,
)
from adaptvqe.objectives import FunctionObjective
from adaptvqe.optimizer import OptimizerResult, OptimizerSnapshot, minimize_canonical
from adaptvqe import simulator
from adaptvqe.paulis import PauliSum
from adaptvqe.pools import build_qe_pool
from adaptvqe.simulator import AnsatzState

from oracles import central_difference_gradient, reference_exact_ansatz_hessian


def quadratic_objective(matrix):
    matrix = np.asarray(matrix, dtype=float)
    return FunctionObjective(lambda x: 0.5 * x @ matrix @ x, lambda x: matrix @ x)


def synthetic_result(iterates, alphas=None):
    """Wrap a list of iterates as a state-recorded optimizer result."""
    iterates = [np.atleast_1d(np.asarray(x, dtype=float)) for x in iterates]
    n = iterates[0].size
    snapshots = [OptimizerSnapshot(k, x, 0.0, np.zeros(n), -np.ones(n), np.eye(n))
                 for k, x in enumerate(iterates[:-1])]
    from adaptvqe.optimizer import IterationRecord
    trace = [IterationRecord(k, 0.0, 0.0, 1.0 if alphas is None else alphas[k],
                             1, 0, False, 0.0, -1.0, 0.0)
             for k in range(len(snapshots))]
    return OptimizerResult(
        x_star=iterates[-1], f_star=0.0, grad_star=np.zeros(n),
        h_star=np.eye(n), line_searches=len(snapshots), converged=True,
        line_search_failed=False, trace=trace, initial_fevals=0,
        snapshots=snapshots)


class TestExactHessian:
    def test_quadratic_surrogate_recovers_constant_matrix(self):
        a = np.array([[4.0, 1.0], [1.0, 3.0]])
        hess = exact_hessian(lambda points: points @ a.T, np.array([0.3, -0.7]))
        np.testing.assert_allclose(hess, a, atol=1e-6)

    def test_single_rotation_ansatz_analytic_value(self):
        # E(theta) = <0|exp(-i t Y) Z exp(i t Y)|0> = cos(2 t);  E''(0) = -4
        gen = PauliSum.from_text_terms([("Y", 1j)])
        ansatz = AnsatzState("0", ((gen, 0.0),))
        ham = PauliSum.from_text_terms([("Z", 1.0)])
        hess = exact_ansatz_hessian(ansatz, ham, ansatz.parameters, CostLedger())
        assert hess[0, 0] == pytest.approx(-4.0, abs=1e-6)

    def test_raw_asymmetry_is_small(self, h2_fixture):
        # symmetry of the unsymmetrized central-difference matrix is a
        # smoothness self-consistency check
        from adaptvqe.pools import build_qe_pool
        from adaptvqe.simulator import gradient_components
        pool = build_qe_pool(4, 2)
        ansatz = AnsatzState(h2_fixture.reference_bitstring,
                             ((pool.operators[2], 0.2), (pool.operators[3], -0.1)))
        x = ansatz.parameters

        def grad(params):
            return gradient_components(ansatz.with_parameters(params),
                                       h2_fixture.operator, [0, 1])

        raw = np.empty((2, 2))
        step = 1e-5
        for i in range(2):
            shift = np.zeros(2)
            shift[i] = step
            raw[:, i] = (grad(x + shift) - grad(x - shift)) / (2 * step)
        assert np.max(np.abs(raw - raw.T)) < 1e-6

    def test_shadow_ledger_charged(self, h2_fixture):
        from adaptvqe.pools import build_qe_pool
        pool = build_qe_pool(4, 2)
        ansatz = AnsatzState(h2_fixture.reference_bitstring, ((pool.operators[2], 0.2),))
        shadow = CostLedger()
        exact_ansatz_hessian(ansatz, h2_fixture.operator, ansatz.parameters,
                             shadow_ledger=shadow)
        assert shadow.function_evaluations == 2 * 2 * 1  # 2n grad calls of dim n=1


class TestStackedExactHessian:
    """The stacked sweep against one plain-route gradient per shifted point."""

    @staticmethod
    def ansatz_and_point(hfile, n_params, seed):
        pool = build_qe_pool(hfile.n_qubits, hfile.n_electrons)
        rng = np.random.default_rng(seed)
        picks = rng.integers(0, len(pool), size=n_params)
        ansatz = AnsatzState(hfile.reference_bitstring, tuple(
            (pool.operators[int(i)], float(t))
            for i, t in zip(picks, rng.normal(size=n_params) * 0.3)))
        return ansatz, ansatz.parameters

    @pytest.mark.parametrize("case", ["h2_fixture", "h4_equilibrium_fixture"])
    @pytest.mark.parametrize("n_params", [1, 5])
    @pytest.mark.parametrize("recycled_start", [False, True])
    def test_matches_per_column_route(self, case, n_params, recycled_start, request):
        hfile = request.getfixturevalue(case)
        ansatz, x = self.ansatz_and_point(hfile, n_params, n_params)
        if recycled_start:
            x[-1] = 0.0
        expected = reference_exact_ansatz_hessian(ansatz, hfile.operator, x)
        got = exact_ansatz_hessian(ansatz, hfile.operator, x, CostLedger())
        assert np.array_equal(got, expected)

    def test_one_hessian_over_several_stacks(self, h4_equilibrium_fixture, monkeypatch):
        # 3 rows per stack at 8 qubits: the 12 shifted points take 4 stacks
        monkeypatch.setattr(simulator, "_STACK_CAP", 3 << 8)
        hfile = h4_equilibrium_fixture
        ansatz, x = self.ansatz_and_point(hfile, 6, 7)
        shadow = CostLedger()
        got = exact_ansatz_hessian(ansatz, hfile.operator, x, shadow_ledger=shadow)
        assert np.array_equal(got, reference_exact_ansatz_hessian(ansatz, hfile.operator, x))
        assert shadow.function_evaluations == 2 * 6 * 2 * 6


class TestConvergenceReport:
    def test_geometric_sequence_is_linear_with_half_ratio(self):
        iterates = [np.array([2.0 ** -k]) for k in range(12)] + [np.array([0.0])]
        report = convergence_report(synthetic_result(iterates), np.eye(1))
        np.testing.assert_allclose(report.error_ratios[:-2], 0.5, atol=1e-12)

    def test_doubly_exponential_sequence_is_superlinear(self):
        iterates = [np.array([2.0 ** -(2 ** k)]) for k in range(7)] + [np.array([0.0])]
        report = convergence_report(synthetic_result(iterates), np.eye(1))
        ratios = report.error_ratios[:-2]
        assert all(later < earlier for earlier, later in zip(ratios, ratios[1:]))
        assert ratios[-1] < 1e-3

    def test_short_trace_flagged_insufficient(self):
        report = convergence_report(synthetic_result([np.ones(1), np.zeros(1)]), np.eye(1))
        assert report.insufficient

    def test_marker_vanishes_on_quadratic(self):
        diag = np.diag([10.0, 30.0, 90.0])
        obj = quadratic_objective(diag)
        result = minimize_canonical(obj, np.ones(3), grad_tol=1e-8, record_state=True)
        report = convergence_report(result, hessian_at_xstar=diag)
        assert report.superlinear_markers[-1] < 1e-6

    def test_requires_snapshots(self):
        result = minimize_canonical(quadratic_objective(np.eye(2)), np.ones(2))
        with pytest.raises(ValueError, match="snapshots"):
            convergence_report(result, np.eye(2))


class TestHessianReport:
    """The distance the series reports between exact and approximate inverses."""

    def test_frobenius_definition_matches_elementwise_sum(self):
        rng = np.random.default_rng(42)
        a, b = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
        expected = np.sqrt(np.sum(np.abs(a - b) ** 2))
        assert frobenius_distance(a, b) == pytest.approx(expected, rel=1e-12)


class TestHessianDistanceSeries:
    def test_last_row_and_column_identical_between_modes(
            self, h4_equilibrium_fixture, h4_equilibrium_paired):
        pool, results = h4_equilibrium_paired
        hf = h4_equilibrium_fixture
        records, heatmaps = hessian_distance_series(
            results["canonical"], results["recycling"], hf.operator, pool,
            hf.reference_bitstring, CostLedger(), with_evolution=False,
            heatmap_iterations=(2, 5))
        included = [r for r in records if not r.excluded]
        assert len(included) >= 5
        for n in (2, 5):
            pair = heatmaps[n]
            assert np.array_equal(pair["canonical"][-1, :], pair["recycling"][-1, :])
            assert np.array_equal(pair["canonical"][:, -1], pair["recycling"][:, -1])

    def test_first_iteration_distances_coincide(
            self, h4_equilibrium_fixture, h4_equilibrium_paired):
        # a single parameter has no history to recycle: both modes start at I
        pool, results = h4_equilibrium_paired
        hf = h4_equilibrium_fixture
        records, _ = hessian_distance_series(
            results["canonical"], results["recycling"], hf.operator, pool,
            hf.reference_bitstring, CostLedger(), with_evolution=False)
        first = records[0]
        assert first.n == 1 and not first.excluded
        assert first.canonical_distance == pytest.approx(first.recycled_distance)

    def test_recycled_initial_matrix_is_closer_late(
            self, h4_equilibrium_fixture, h4_equilibrium_paired):
        pool, results = h4_equilibrium_paired
        hf = h4_equilibrium_fixture
        shadow = CostLedger()
        records, _ = hessian_distance_series(
            results["canonical"], results["recycling"], hf.operator, pool,
            hf.reference_bitstring, with_evolution=False, shadow_ledger=shadow)
        late = [r for r in records if r.n >= 4 and not r.excluded]
        wins = sum(r.recycled_distance <= r.canonical_distance for r in late)
        assert wins / len(late) >= 0.9
        assert shadow.function_evaluations > 0

    def test_singular_exact_hessian_excluded(
            self, h4_equilibrium_fixture, h4_equilibrium_paired, monkeypatch):
        # a diagonal stand-in: 2 everywhere, singular at the second iteration
        def stand_in(ansatz, hamiltonian, x, shadow_ledger=None):
            n = ansatz.n_parameters
            return np.diag([1.0, 0.0]) if n == 2 else 2.0 * np.eye(n)

        monkeypatch.setattr(diagnostics, "exact_ansatz_hessian", stand_in)
        pool, results = h4_equilibrium_paired
        hf = h4_equilibrium_fixture
        records, heatmaps = hessian_distance_series(
            results["canonical"], results["recycling"], hf.operator, pool,
            hf.reference_bitstring, CostLedger(), heatmap_iterations=(1, 2, 3))
        singular = records[1]
        assert singular.n == 2 and singular.excluded
        assert singular.reason == "singular exact Hessian"
        assert singular.canonical_distance is None and singular.recycled_distance is None
        assert sorted(heatmaps) == [1, 3]
        third = records[2]
        assert not third.excluded
        assert third.canonical_distance == pytest.approx(0.5 * np.sqrt(3))
        assert third.evolution_distance == 0.0
        np.testing.assert_array_equal(heatmaps[3]["canonical"], 0.5 * np.eye(3))

    def test_diverged_selection_excluded(
            self, h4_equilibrium_fixture, h4_equilibrium_paired):
        pool, results = h4_equilibrium_paired
        hf = h4_equilibrium_fixture
        iterations = list(results["canonical"].iterations)
        moved = iterations[2]
        iterations[2] = replace(moved, selected_index=(moved.selected_index + 1) % len(pool))
        canonical = replace(results["canonical"], iterations=iterations)
        shadow = CostLedger()
        records, heatmaps = hessian_distance_series(
            canonical, results["recycling"], hf.operator, pool,
            hf.reference_bitstring, with_evolution=False, shadow_ledger=shadow,
            heatmap_iterations=(3,))
        diverged = records[2]
        assert diverged.n == 3 and diverged.excluded
        assert diverged.reason == "operator selection diverged"
        assert diverged.canonical_distance is None and diverged.recycled_distance is None
        assert heatmaps == {}
        assert not records[1].excluded and not records[3].excluded
        # no exact Hessian is evaluated for the excluded iteration
        sizes = [r.n for r in records if not r.excluded]
        assert shadow.function_evaluations == sum(2 * n * 2 * n for n in sizes)


def full_route_series(canonical, recycled, hfile, pool):
    """Per iteration of the series, ``None`` where the selections diverged,
    else the record and the evolution Hessian with every exact Hessian
    computed in full, none of them sliced from another."""
    expected = []
    ansatz = AnsatzState(hfile.reference_bitstring)
    for n, (can_it, rec_it) in enumerate(zip(canonical.iterations, recycled.iterations), 1):
        ansatz = ansatz.grown(pool.operators[rec_it.selected_index], 0.0)
        if can_it.selected_index != rec_it.selected_index:
            expected.append(None)
            continue
        inverse = np.linalg.inv(
            exact_ansatz_hessian(ansatz, hfile.operator, rec_it.x_start, CostLedger()))
        final = exact_ansatz_hessian(ansatz, hfile.operator, rec_it.x_star, CostLedger())
        expected.append((HessianDistanceRecord(
            n, frobenius_distance(inverse, np.eye(n)),
            frobenius_distance(inverse, rec_it.h_start),
            frobenius_distance(inverse, np.linalg.inv(final)), False), final))
    return expected


class TestEvolutionHessianSlice:
    """The evolution Hessian of iteration n is the leading block of the start
    Hessian of iteration n + 1, and is computed in full where there is none."""

    @staticmethod
    def variant(results, pool, kind):
        canonical = results["canonical"]
        iterations = list(canonical.iterations)
        if kind == "next_diverged":
            # iteration 4 diverges: iteration 3's evolution Hessian has no slice
            moved = iterations[3]
            iterations[3] = replace(
                moved, selected_index=(moved.selected_index + 1) % len(pool))
        elif kind == "canonical_truncated":
            # the series stops below the recycled run: its last one has no slice
            iterations = iterations[:len(iterations) - 3]
        return replace(canonical, iterations=iterations)

    @pytest.mark.parametrize("case", ["h4_equilibrium", "h4_stretched"])
    @pytest.mark.parametrize("kind", ["as_run", "next_diverged", "canonical_truncated"])
    def test_matches_full_route(self, case, kind, request, monkeypatch):
        hfile = request.getfixturevalue(f"{case}_fixture")
        pool, results = request.getfixturevalue(f"{case}_paired")
        canonical = self.variant(results, pool, kind)
        recycled = results["recycling"]
        expected = full_route_series(canonical, recycled, hfile, pool)
        computed = []

        def counted(ansatz, hamiltonian, x, shadow_ledger):
            computed.append(ansatz.n_parameters)
            return exact_ansatz_hessian(ansatz, hamiltonian, x, shadow_ledger)

        monkeypatch.setattr(diagnostics, "exact_ansatz_hessian", counted)
        shadow = CostLedger()
        records, _ = hessian_distance_series(
            canonical, recycled, hfile.operator, pool, hfile.reference_bitstring, shadow)

        assert len(records) == len(expected) == len(canonical.iterations)
        for record, want in zip(records, expected):
            if want is None:
                assert record.excluded and record.reason == "operator selection diverged"
                continue
            assert record == want[0]
            assert record.evolution_hessian.shape == want[1].shape
            assert record.evolution_hessian.tobytes() == want[1].tobytes()
        included = [r.n for r in records if not r.excluded]
        # one start Hessian per included iteration, plus the evolution Hessian
        # of each included iteration whose next one is not included
        full = [n for n in included if n + 1 not in included]
        assert sorted(computed) == sorted(included + full)
        assert (3 if kind == "next_diverged" else len(records)) in full
        if kind == "canonical_truncated":
            assert len(records) < len(recycled.iterations)
        # each reported Hessian is charged 2n gradients of n, sliced or not
        assert shadow.function_evaluations == sum(2 * (2 * n * 2 * n) for n in included)
