import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import adaptvqe.driver as driver_module
import adaptvqe.optimizer as optimizer_module
from adaptvqe.compiled import GeneratorBatch, _sign_tables
from adaptvqe.driver import MODES, pool_gradients, run_adapt, select_operator
from adaptvqe.experiment import ExperimentConfig
from adaptvqe.hamiltonians import builtin_model
from adaptvqe.objectives import FunctionObjective
from adaptvqe.optimizer import OptimizerResult, minimize_canonical, minimize_recycled
from adaptvqe.paulis import PauliString, PauliSum
from adaptvqe.pools import OperatorPool, build_nearest_neighbor_pool, build_qe_pool
from adaptvqe.simulator import (
    AnsatzState,
    StateVector,
    energy_then_gradient,
    expectation,
    gradient_components,
    prepare,
)

from oracles import commutator, dense_expectation, dense_prepare, reference_pool_gradients


def recomputed_fevals(result):
    """Re-derive the ledger's function evaluations from the traces alone."""
    total = 1  # reference energy measurement
    for n, it in enumerate(result.iterations, start=1):
        total += it.opt_initial_fevals
        per_eval = 1 + 2 * n
        total += sum(rec.evals * per_eval for rec in it.opt_trace)
    return total


def carried_at(ansatz, hamiltonian):
    """The growth loop's carried handle at ``ansatz``: its state and H|psi>."""
    return energy_then_gradient(ansatz, hamiltonian)[1]


class TestPoolGradients:
    def test_hand_computed_example(self):
        # H = Z, A = iY at |+> = exp(-pi/4 iY)|0>: <+|[Z, iY]|+> = <+|2X|+> = 2
        iy = PauliSum.from_text_terms([("Y", 1j)])
        pool = OperatorPool("Qubit", 1, (iy,), ("iY",))
        carried = carried_at(AnsatzState("0", ((iy, -np.pi / 4),)),
                             PauliSum.from_text_terms([("Z", 1.0)]))
        np.testing.assert_allclose(carried.psi, np.array([1.0, 1.0]) / np.sqrt(2),
                                   rtol=0, atol=1e-15)
        grads = pool_gradients(carried, pool)
        assert grads[0] == pytest.approx(2.0, abs=1e-12)

    def test_pool_and_hamiltonian_checked(self):
        # the pool against the state here; the Hamiltonian by the engine's
        # one rule, when the carried state is computed
        ham = PauliSum.from_text_terms([("ZZ", 1.0)])
        with pytest.raises(ValueError, match="pool qubit count"):
            pool_gradients(carried_at(AnsatzState("01"), ham), build_nearest_neighbor_pool(3))
        non_hermitian = PauliSum.from_text_terms([("XY", 1j), ("ZI", 0.5)])
        with pytest.raises(ValueError, match="not Hermitian"):
            pool_gradients(carried_at(AnsatzState("01"), non_hermitian),
                           build_nearest_neighbor_pool(2))

    def test_commuting_operator_gives_zero(self):
        ham = PauliSum.from_text_terms([("ZZ", 1.0)])
        pool = OperatorPool("Qubit", 2,
                            (PauliSum.from_text_terms([("ZI", 1j)]),), ("iZ0",))
        carried = carried_at(AnsatzState("01"), ham)
        assert pool_gradients(carried, pool)[0] == pytest.approx(0.0, abs=1e-12)

    def test_matches_symbolic_commutator_route(self, h2_fixture):
        pool = build_qe_pool(4, 2)
        ansatz = AnsatzState(h2_fixture.reference_bitstring)
        state = prepare(ansatz)
        grads = pool_gradients(carried_at(ansatz, h2_fixture.operator), pool)
        for op, g in zip(pool.operators, grads):
            comm = commutator(h2_fixture.operator, op)
            expected = 0.0 if comm.is_zero else expectation(state, comm)
            assert g == pytest.approx(expected, abs=1e-10)

    def test_matches_finite_difference_through_exponential(self, h2_fixture):
        pool = build_qe_pool(4, 2)
        ansatz = AnsatzState(h2_fixture.reference_bitstring)
        state = prepare(ansatz)
        grads = pool_gradients(carried_at(ansatz, h2_fixture.operator), pool)
        step = 1e-5

        def energy_at(op, theta):
            amps = op.compiled().exponential(state.amplitudes, theta)
            return expectation(StateVector(state.n_qubits, amps), h2_fixture.operator)

        for op, g in zip(pool.operators, grads):
            fd = (energy_at(op, step) - energy_at(op, -step)) / (2 * step)
            assert abs(g - fd) <= 1e-6 * max(1.0, abs(fd))

    @pytest.mark.parametrize("case", ["h4", "tfim8"])
    def test_sweep_matches_per_operator_route(self, case, h4_equilibrium_fixture):
        if case == "tfim8":
            hfile = builtin_model("tfim", 8, with_exact=False)
            pool = build_nearest_neighbor_pool(8)
        else:
            hfile = h4_equilibrium_fixture
            pool = build_qe_pool(hfile.n_qubits, hfile.n_electrons)
        rng = np.random.default_rng(11)
        picks = rng.integers(0, len(pool), size=4)
        ansatz = AnsatzState(hfile.reference_bitstring, tuple(
            (pool.operators[int(i)], float(t))
            for i, t in zip(picks, rng.normal(size=4) * 0.5)))
        state = prepare(ansatz)
        (owners, _, _), _ = _sign_tables([op.compiled() for op in pool.operators])
        assert owners.tolist() == list(range(len(pool)))  # one X mask each
        grads = pool_gradients(carried_at(ansatz, hfile.operator), pool)
        expected = reference_pool_gradients(
            state.amplitudes, state.n_qubits, hfile.operator, pool.operators)
        np.testing.assert_allclose(grads, expected, rtol=0, atol=1e-12)
        assert select_operator(grads)[0] == select_operator(expected)[0]

    def test_multi_mask_operators_take_the_one_sweep(self, h2_fixture):
        """Generators on two and on three X masks, with a Z-only group, are
        read from the same sweep table as a QE double, on float64 and on
        complex states.  Their masks' shares are summed in another order
        than a full apply, so they agree to rounding and give the same pick."""
        # XY, YX and IIYX commute with each other and with ZZII and ZZZZ
        two_masks = PauliSum.from_text_terms([("XYII", 1j), ("ZZII", 0.5j)])
        three_masks = PauliSum.from_text_terms(
            [("XYII", 0.3j), ("YXII", -0.5j), ("IIYX", -0.7j), ("ZZII", 0.4j), ("ZZZZ", 0.2j)])
        pool = OperatorPool("Qubit", 4, (two_masks, three_masks, build_qe_pool(4, 2).operators[2]),
                            ("two", "three", "double"))
        (owners, _, _), _ = _sign_tables([op.compiled() for op in pool.operators])
        assert np.bincount(owners).tolist() == [2, 3, 1]  # X masks per operator
        hamiltonian = h2_fixture.operator
        rng = np.random.default_rng(12)
        for psi in (rng.normal(size=16), rng.normal(size=16) + 1j * rng.normal(size=16)):
            h_psi = hamiltonian.compiled().apply(psi)
            grads = pool.batch.gradients(psi, h_psi)
            expected = reference_pool_gradients(psi.astype(complex), 4, hamiltonian,
                                                pool.operators)
            np.testing.assert_allclose(grads, expected, rtol=0, atol=1e-12)
            assert select_operator(grads)[0] == select_operator(expected)[0]
        assert abs(expected[:2]).min() > 0.1

    def test_ledger_charged_flat_rate(self, h2_fixture):
        # run_adapt charges each sweep 8N; the sweep itself charges nothing
        pool = build_qe_pool(4, 2)
        carried = carried_at(AnsatzState(h2_fixture.reference_bitstring), h2_fixture.operator)
        assert pool_gradients(carried, pool).shape == (len(pool),)
        result = run_adapt(h2_fixture.operator, h2_fixture.reference_bitstring, pool,
                           max_iterations=1)
        assert result.pool_sweeps == 1
        assert result.ledger.pool_gradient_units == 8 * 4
        assert result.ledger.breakdown[0]["pool_gradient_units"] == 8 * 4


class TestSelectOperator:
    def test_magnitude_argmax_and_norm(self):
        index, norm = select_operator(np.array([0.1, -0.5, 0.3]))
        assert index == 1
        assert norm == pytest.approx(np.sqrt(0.35))

    def test_exact_tie_prefers_lowest_index(self):
        index, _ = select_operator(np.array([0.5, -0.5]))
        assert index == 0

    def test_near_tie_within_tolerance_prefers_lowest_index(self):
        index, _ = select_operator(np.array([0.5, 0.5 + 1e-9]))
        assert index == 0

    def test_zero_gradient_does_not_tie_below_the_tolerance(self):
        """Once every magnitude is below 1e-6, a tied candidate must still
        be at least half the largest, so a zero gradient is not picked."""
        assert select_operator(np.array([0.0, 8.3e-8, -2e-8]))[0] == 1
        assert select_operator(np.array([0.0, 0.0]))[0] == 0

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError, match="empty pool"):
            select_operator(np.array([]))

    @pytest.mark.parametrize("grads, index", [([np.nan, 0.5, 0.2], 0),
                                              ([0.1, np.nan, 0.9], 1),
                                              ([0.1, 0.2, -np.inf], 2)])
    def test_non_finite_gradient_rejected(self, grads, index):
        with pytest.raises(ValueError, match=f"pool gradient {index} is not finite"):
            select_operator(np.array(grads))


SELECTION_SCRIPT = """
import hashlib
import numpy as np
from adaptvqe.driver import pool_gradients, select_operator
from adaptvqe.hamiltonians import builtin_model, bundled_fixture_path, load_hamiltonian
from adaptvqe.pools import build_qe_pool
from adaptvqe.simulator import AnsatzState, energy_then_gradient

h4 = load_hamiltonian(bundled_fixture_path("h4_sto3g_1p00.json"))
cases = [(h4.operator, h4.reference_bitstring, build_qe_pool(8, 4)),
         (builtin_model("heisenberg", 12, with_exact=False).operator, "111111000000",
          build_qe_pool(12, 6))]
rng = np.random.default_rng(2)
for hamiltonian, reference, pool in cases:
    picks = rng.integers(0, len(pool), size=5)
    ansatz = AnsatzState(reference, tuple((pool.operators[int(k)], float(t))
                                          for k, t in zip(picks, rng.normal(size=5))))
    grads = pool_gradients(energy_then_gradient(ansatz, hamiltonian)[1], pool)
    index, norm = select_operator(grads)
    print(hashlib.sha256(grads.tobytes()).hexdigest(), index, norm.hex())
"""


def test_selection_does_not_depend_on_the_blas_kernel():
    """The pool gradients, the pick and the norm on H4 and on a 12-qubit QE
    pool are the same bytes under the default OpenBLAS kernel and under
    Haswell's: the sweep and the norm call no BLAS."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    outputs = [subprocess.run([sys.executable, "-c", SELECTION_SCRIPT], env=run_env,
                              capture_output=True, text=True, check=True).stdout
               for run_env in (env, {**env, "OPENBLAS_CORETYPE": "Haswell"})]
    assert len(outputs[0].splitlines()) == 2
    assert outputs[0] == outputs[1]


class TestRunAdapt:
    def test_zero_iteration_budget_returns_reference(self, h2_fixture):
        result = run_adapt(h2_fixture.operator, h2_fixture.reference_bitstring,
                           build_qe_pool(4, 2), max_iterations=0)
        assert result.iterations == []
        assert result.energy == pytest.approx(h2_fixture.hf_energy, abs=1e-9)
        assert result.ansatz.n_parameters == 0
        assert result.pool_sweeps == 0
        assert result.ledger.function_evaluations == 1

    def test_all_zero_gradients_terminate_before_growth(self):
        ham = PauliSum.from_text_terms([("ZZ", 1.0)])
        pool = OperatorPool("Qubit", 2,
                            (PauliSum.from_text_terms([("ZI", 1j)]),
                             PauliSum.from_text_terms([("IZ", 1j)])),
                            ("iZ0", "iZ1"))
        result = run_adapt(ham, "01", pool, eps=1e-6, max_iterations=5)
        assert result.converged and result.iterations == []
        assert result.pool_sweeps == 1

    @pytest.mark.parametrize("mode", MODES)
    def test_tight_eps_selects_no_zero_gradient(self, h4_equilibrium_fixture, mode):
        """With ``eps=1e-9`` every H4 pool gradient is below the 1e-6 tie
        tolerance from iteration 20 on; each pick still has a non-zero
        gradient."""
        hfile = h4_equilibrium_fixture
        result = run_adapt(hfile.operator, hfile.reference_bitstring, build_qe_pool(8, 4),
                           mode=mode, eps=1e-9, max_iterations=21)
        assert len(result.iterations) == 21
        assert result.iterations[-1].pool_grad_norm < 1e-6
        assert all(it.selected_gradient != 0.0 for it in result.iterations)

    def test_complex_route_runs_end_to_end(self, h2_fixture):
        """H2 plus ``0.25 YXII`` is not real, and the nearest-neighbour pool
        picks ``i XX`` strings, so both modes carry complex states.  Each
        iteration's energy is the dense oracle's at its angles."""
        hamiltonian = PauliSum(4, list(h2_fixture.operator.items())
                               + [(PauliString.from_text("YXII"), 0.25)])
        pool = build_nearest_neighbor_pool(4)
        fevals = {}
        for mode in MODES:
            result = run_adapt(hamiltonian, h2_fixture.reference_bitstring, pool, mode=mode)
            assert result.converged and result.iterations, mode
            for it in result.iterations:
                state = dense_prepare(h2_fixture.reference_bitstring,
                                      zip(result.ansatz.generators, it.x_star))
                assert abs(it.energy - dense_expectation(state, hamiltonian)) <= 1e-12, mode
            assert prepare(result.ansatz).amplitudes.imag.any(), mode
            fevals[mode] = result.ledger.function_evaluations
        assert fevals["recycling"] <= fevals["canonical"]

    def test_h2_reaches_exact_energy_in_both_modes(self, h2_fixture, h2_paired):
        _, results = h2_paired
        for mode, result in results.items():
            assert result.converged, mode
            assert abs(result.energy - h2_fixture.exact_ground_energy) < 1e-8
        selected = {mode: [it.selected_index for it in result.iterations]
                    for mode, result in results.items()}
        assert selected["canonical"] == selected["recycling"]

    def test_energy_monotone_across_iterations(self, h4_stretched_paired):
        _, results = h4_stretched_paired
        for result in results.values():
            energies = [result.initial_energy] + [it.energy for it in result.iterations]
            for earlier, later in zip(energies, energies[1:]):
                assert later <= earlier + 1e-10

    def test_parameters_recycled_bitwise(self, h4_stretched_paired):
        _, results = h4_stretched_paired
        for result in results.values():
            for prev, current in zip(result.iterations, result.iterations[1:]):
                assert np.array_equal(current.x_start[:-1], prev.x_star)
                assert current.x_start[-1] == 0.0

    def test_recycled_h_start_is_expanded_previous_h_star(self, h4_stretched_paired):
        _, results = h4_stretched_paired
        rec = results["recycling"]
        for prev, current in zip(rec.iterations, rec.iterations[1:]):
            n_prev = prev.h_star.shape[0]
            assert np.array_equal(current.h_start[:n_prev, :n_prev], prev.h_star)
            assert current.h_start[-1, -1] == 1.0
            assert not current.h_start[:n_prev, n_prev:].any()

    def test_cost_ledger_audit(self, h2_paired, h4_stretched_paired):
        for _, results in (h2_paired, h4_stretched_paired):
            for result in results.values():
                assert recomputed_fevals(result) == result.ledger.function_evaluations
                assert (result.ledger.pool_gradient_units
                        == 8 * result.ansatz.n_qubits * result.pool_sweeps)

    def test_spin_model_recycling_is_cheaper(self):
        model = builtin_model("tfim", 6)
        pool = build_nearest_neighbor_pool(6)
        results = {m: run_adapt(model.operator, model.reference_bitstring, pool,
                                mode=m, eps=1e-6, max_iterations=12)
                   for m in ("canonical", "recycling")}
        canonical = results["canonical"].ledger.function_evaluations
        recycling = results["recycling"].ledger.function_evaluations
        assert recycling < canonical

    def test_mode_equivalence_until_small_pool_norm(self, h4_equilibrium_paired):
        _, results = h4_equilibrium_paired
        can, rec = results["canonical"], results["recycling"]
        for a, b in zip(can.iterations, rec.iterations):
            if min(a.pool_grad_norm, b.pool_grad_norm) < 1e-4:
                break
            assert a.selected_index == b.selected_index

    def test_invalid_arguments(self, h2_fixture):
        pool = build_qe_pool(4, 2)
        with pytest.raises(ValueError, match="unknown mode"):
            run_adapt(h2_fixture.operator, h2_fixture.reference_bitstring, pool,
                      mode="warm")
        with pytest.raises(ValueError, match="thresholds"):
            run_adapt(h2_fixture.operator, h2_fixture.reference_bitstring, pool,
                      eps=0.0)

    @pytest.mark.parametrize("threshold", ["eps", "opt_grad_tol"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_threshold_rejected(self, h2_fixture, threshold, value):
        pool = build_qe_pool(4, 2)
        with pytest.raises(ValueError, match="finite and positive"):
            run_adapt(h2_fixture.operator, h2_fixture.reference_bitstring, pool,
                      max_iterations=3, **{threshold: value})

    @pytest.mark.parametrize("caps", [
        {"max_iterations": 2.5}, {"max_iterations": True}, {"max_iterations": -1},
        {"opt_max_iterations": 10.0}, {"opt_max_iterations": True},
        {"opt_max_iterations": 0},
    ])
    def test_iteration_caps_are_ints_in_range(self, h2_fixture, caps):
        (name, value), = caps.items()
        low = int(name == "opt_max_iterations")
        expected = (f"{name} must be at least {low}, got {value}" if type(value) is int
                    else f"{name} must be an int, got {value!r}")
        with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
            run_adapt(h2_fixture.operator, h2_fixture.reference_bitstring,
                      build_qe_pool(4, 2), **caps)

    def test_non_finite_pool_gradient_names_the_iteration(self, h2_fixture, monkeypatch):
        pool = build_qe_pool(4, 2)
        sweep = driver_module.pool_gradients
        sweeps = 0

        def nan_on_second_sweep(*args):
            nonlocal sweeps
            sweeps += 1
            grads = sweep(*args)
            if sweeps == 2:
                grads[1] = np.nan
            return grads

        monkeypatch.setattr(driver_module, "pool_gradients", nan_on_second_sweep)
        with pytest.raises(RuntimeError,
                           match=r"iteration 2 \(recycling mode\).*pool gradient 1"):
            run_adapt(h2_fixture.operator, h2_fixture.reference_bitstring, pool,
                      mode="recycling", max_iterations=5)

    def test_stall_limit_aborts(self, h2_fixture, monkeypatch):
        pool = build_qe_pool(4, 2)

        def failing_minimize(objective, x0, **kwargs):
            x0 = np.asarray(x0, dtype=float)
            f, g = objective.value_and_grad(x0)
            return OptimizerResult(
                x_star=x0, f_star=f, grad_star=g, h_star=np.eye(x0.size),
                line_searches=1, converged=False, line_search_failed=True,
                trace=[], initial_fevals=1 + 2 * x0.size)

        monkeypatch.setattr(driver_module, "minimize_canonical", failing_minimize)
        result = run_adapt(h2_fixture.operator, h2_fixture.reference_bitstring,
                           pool, mode="canonical", max_iterations=10)
        assert result.stalled and not result.converged
        assert len(result.iterations) == 3


def repeated_hamiltonian_applies(hfile, pool, mode, **settings):
    """A run of ``mode``, and how many of its Hamiltonian applications had
    an input (bytes and shape) that the run had already applied H to."""
    compiled = hfile.operator.compiled()
    seen, repeats = set(), 0

    def counting_apply(amps, apply=compiled.apply):
        nonlocal repeats
        key = (amps.shape, hashlib.sha256(amps.tobytes()).digest())
        repeats += key in seen
        seen.add(key)
        return apply(amps)

    compiled.apply = counting_apply  # an instance attribute shadows the method
    try:
        result = run_adapt(hfile.operator, hfile.reference_bitstring, pool, mode=mode,
                           record_optimizer_state=True, **settings)
    finally:
        del compiled.apply
    return result, repeats


def assert_carried_reads_match_fresh(hfile, pool, result):
    """What the loop read from its carried state equals, bit for bit, a
    fresh computation at each iteration's start: the pool sweep's selected
    gradient and norm, and the start energy and new partial derivative."""
    hamiltonian = hfile.operator
    ansatz = AnsatzState(hfile.reference_bitstring)

    def fresh_sweep(at):
        psi = prepare(at).amplitudes
        grads = GeneratorBatch([op.compiled() for op in pool.operators]).gradients(
            psi, hamiltonian.compiled().apply(psi))
        return grads, select_operator(grads)

    for it in result.iterations:
        ansatz = ansatz.grown(pool.operators[it.selected_index])
        at_start = ansatz.with_parameters(it.x_start)
        grads, (index, norm) = fresh_sweep(at_start)
        assert (it.selected_index, it.selected_gradient, it.pool_grad_norm) == (
            index, grads[index], norm), it.n
        if it.opt_snapshots:
            f_start, g_start = it.opt_snapshots[0].f, it.opt_snapshots[0].grad
        else:  # the optimization returned its start
            f_start, g_start = it.energy, it.grad_star
        assert float(f_start).hex() == float(expectation(prepare(at_start), hamiltonian)).hex()
        assert (g_start[-1:].tobytes()
                == gradient_components(at_start, hamiltonian, [it.n - 1]).tobytes()), it.n
    if result.converged and result.iterations:
        assert result.final_pool_grad_norm == fresh_sweep(result.ansatz)[1][1]


@pytest.fixture(scope="module")
def h4_counted_runs(h4_equilibrium_fixture):
    pool = build_qe_pool(8, 4)
    return pool, {mode: repeated_hamiltonian_applies(h4_equilibrium_fixture, pool, mode)
                  for mode in ("canonical", "recycling")}


class TestCarriedState:
    """The pool sweep and the recycled start read the state and H|psi> of
    the optimizer's last evaluation instead of computing them again."""

    def test_h4_reads_match_fresh(self, h4_equilibrium_fixture, h4_counted_runs):
        pool, runs = h4_counted_runs
        for result, _ in runs.values():
            assert result.converged
            assert_carried_reads_match_fresh(h4_equilibrium_fixture, pool, result)

    @pytest.mark.parametrize("mode", ["canonical", "recycling"])
    def test_tfim8_reads_match_fresh(self, mode):
        model = builtin_model("tfim", 8, with_exact=False)
        pool = build_nearest_neighbor_pool(8)
        result = run_adapt(model.operator, model.reference_bitstring, pool, mode=mode,
                           max_iterations=25, record_optimizer_state=True)
        assert len(result.iterations) == 25
        assert_carried_reads_match_fresh(model, pool, result)

    @pytest.mark.parametrize("mode", ["canonical", "recycling"])
    def test_result_keeps_no_compiled_caches(self, mode):
        # the optimizations' ansatze hold their batched term tables; the
        # result's final ansatz is built anew, so it keeps none of them
        model = builtin_model("tfim", 4, with_exact=False)
        result = run_adapt(model.operator, model.reference_bitstring,
                           build_nearest_neighbor_pool(4), mode=mode, max_iterations=3)
        assert len(result.iterations) == 3
        assert "_batch" not in vars(result.ansatz)

    def test_h4_repeats_no_hamiltonian_application(self, h4_counted_runs):
        # before the state was carried: 39 canonical and 58 recycling
        # repeats; the canonical start's value_and_grad still repeats one
        # per growth iteration
        _, runs = h4_counted_runs
        canonical, canonical_repeats = runs["canonical"]
        recycling, recycling_repeats = runs["recycling"]
        assert len(canonical.iterations) == 19
        assert canonical_repeats <= len(canonical.iterations)
        assert recycling_repeats <= 1

    @pytest.mark.parametrize("mode", ["canonical", "recycling"])
    def test_optimization_that_returns_its_start(self, h4_equilibrium_fixture, mode):
        # selected gradients fall from about 2.2 to 1.9: a start below the
        # tolerance returns at once, and the next iteration starts from the
        # state carried from before it
        pool = build_qe_pool(8, 4)
        result = run_adapt(h4_equilibrium_fixture.operator,
                           h4_equilibrium_fixture.reference_bitstring, pool, mode=mode,
                           opt_grad_tol=2.1, max_iterations=5, record_optimizer_state=True)
        searches = [it.line_searches for it in result.iterations]
        assert any(now == 0 and then > 0 for now, then in zip(searches, searches[1:]))
        assert_carried_reads_match_fresh(h4_equilibrium_fixture, pool, result)

    @pytest.mark.parametrize("case, mode, kind", [
        ("h4_stretched", "canonical", "own start"),
        ("h4_stretched", "recycling", "own start"),
        ("tfim4", "recycling", "earlier trial"),
    ])
    def test_failed_line_searches(self, h4_stretched_fixture, monkeypatch, case, mode, kind):
        # three trials per search: a later search fails at its own start,
        # so the point and its handle come from the search before it, or
        # returns a trial before its last
        monkeypatch.setattr(optimizer_module, "_MAX_TRIALS", 3)
        if case == "tfim4":
            hfile = builtin_model("tfim", 4, with_exact=False)
            pool, max_iterations = build_nearest_neighbor_pool(4), 11
        else:
            hfile = h4_stretched_fixture
            pool, max_iterations = build_qe_pool(8, 4), 8
        result = run_adapt(hfile.operator, hfile.reference_bitstring, pool, mode=mode,
                           max_iterations=max_iterations, record_optimizer_state=True)
        failed = [(it.line_searches, it.opt_trace[-1].alpha)
                  for it in result.iterations if it.line_search_failed]
        if kind == "own start":
            assert any(searches > 1 and alpha == 0.0 for searches, alpha in failed)
        else:
            assert any(alpha > 0.0 for _, alpha in failed)
        assert_carried_reads_match_fresh(hfile, pool, result)


# One threshold rule and one cap rule, the same at every entry point that
# takes a run setting: ``(entry point, setting, low)``, ``low`` None for a
# convergence threshold and the least allowed value for an iteration cap.
def _quadratic():
    return FunctionObjective(lambda x: float(x @ x), lambda x: 2.0 * x)


LIMIT_ENTRY_POINTS = {
    "run_adapt": lambda hfile, **kw: run_adapt(
        hfile.operator, hfile.reference_bitstring, build_qe_pool(4, 2), **kw),
    "minimize_canonical": lambda hfile, **kw: minimize_canonical(
        _quadratic(), np.ones(2), **kw),
    "minimize_recycled": lambda hfile, **kw: minimize_recycled(
        _quadratic(), np.ones(1), np.ones(1), np.eye(1), **kw),
    "ExperimentConfig": lambda hfile, **kw: ExperimentConfig(
        builtin={"kind": "tfim", "n_qubits": 4}, **kw),
}
LIMIT_SETTINGS = [
    ("run_adapt", "eps", None),
    ("run_adapt", "opt_grad_tol", None),
    ("run_adapt", "max_iterations", 0),
    ("run_adapt", "opt_max_iterations", 1),
    ("minimize_canonical", "grad_tol", None),
    ("minimize_canonical", "max_iterations", 0),
    ("minimize_recycled", "grad_tol", None),
    ("minimize_recycled", "max_iterations", 0),
    ("ExperimentConfig", "eps", None),
    ("ExperimentConfig", "opt_grad_tol", None),
    ("ExperimentConfig", "max_adapt_iterations", 0),
    ("ExperimentConfig", "opt_max_iterations", 1),
]
TOO_LARGE_FOR_A_FLOAT = 10**400
BAD_THRESHOLDS = [True, False, "1e-3", None, np.float32(1e-3), TOO_LARGE_FOR_A_FLOAT, float("nan"),
                  float("inf"), float("-inf"), 0, 0.0, -1e-6]
BAD_CAPS = [True, False, 2.5, 2.0, "3", None, np.float64(3.0)]


def _label(value) -> str:
    return "10**400" if value is TOO_LARGE_FOR_A_FLOAT else f"{type(value).__name__}({value!r})"


def _bad_limit_cases():
    for entry, name, low in LIMIT_SETTINGS:
        values = BAD_THRESHOLDS if low is None else BAD_CAPS + [low - 1, np.int64(low - 1)]
        for value in values:
            yield pytest.param(entry, name, low, value, id=f"{entry}-{name}-{_label(value)}")


@pytest.mark.parametrize("entry, name, low, value", _bad_limit_cases())
def test_bad_limit_raises_naming_the_setting(h2_fixture, entry, name, low, value):
    is_number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if low is None:
        message = (f"convergence thresholds must be finite and positive, {name} is not"
                   if is_number else f"{name} must be a number, got {value!r}")
    elif isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        message = f"{name} must be at least {low}, got {value!r}"
    else:
        message = f"{name} must be an int, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        LIMIT_ENTRY_POINTS[entry](h2_fixture, **{name: value})


@pytest.mark.parametrize("entry, name, low", LIMIT_SETTINGS)
def test_numpy_limits_accepted(h2_fixture, entry, name, low):
    value = np.float64(1e-3) if low is None else np.int64(max(low, 1))
    LIMIT_ENTRY_POINTS[entry](h2_fixture, **{name: value})


def test_numpy_cap_is_kept_as_an_int():
    config = ExperimentConfig(builtin={"kind": "tfim", "n_qubits": 4},
                              max_adapt_iterations=np.int64(3))
    assert type(config.max_adapt_iterations) is int and config.max_adapt_iterations == 3
