import numpy as np

from adaptvqe.cost import CostLedger
from adaptvqe.objectives import AnsatzObjective, FunctionObjective
from adaptvqe.optimizer import minimize_canonical, minimize_recycled, wolfe_line_search
from adaptvqe.pools import build_qe_pool
from adaptvqe.simulator import AnsatzState, energy_and_gradient, energy_then_gradient


def test_repeated_indices_read_alike(h4_equilibrium_fixture):
    hfile = h4_equilibrium_fixture
    pool = build_qe_pool(hfile.n_qubits, hfile.n_electrons)
    ansatz = AnsatzState(hfile.reference_bitstring, tuple(
        (pool.operators[i], 0.0) for i in (0, 5, 40)))
    x = np.array([0.1, -0.2, 0.3])
    ansatz_objective = AnsatzObjective(hfile.operator, ansatz)
    function_objective = FunctionObjective(
        lambda x: energy_and_gradient(ansatz.with_parameters(x), hfile.operator)[0],
        lambda x: energy_and_gradient(ansatz.with_parameters(x), hfile.operator)[1])
    indices = [1, 1, 2]
    got = [objective.grad_components(x, indices)
           for objective in (ansatz_objective, function_objective)]
    assert np.array_equal(got[0], got[1])
    assert got[0][0] == got[0][1]


def test_line_search_over_deferred_gradients_matches_eager(h4_equilibrium_fixture):
    # a long step, so the search zooms through trials whose gradient the
    # ansatz objective never computes
    hfile = h4_equilibrium_fixture
    pool = build_qe_pool(hfile.n_qubits, hfile.n_electrons)
    ansatz = AnsatzState(hfile.reference_bitstring, tuple(
        (pool.operators[i], 0.0) for i in (0, 5, 40, 60)))
    x = np.array([0.1, -0.2, 0.3, 0.05])
    ansatz_objective = AnsatzObjective(hfile.operator, ansatz)
    eager_objective = FunctionObjective(
        lambda x: energy_and_gradient(ansatz.with_parameters(x), hfile.operator)[0],
        lambda x: energy_and_gradient(ansatz.with_parameters(x), hfile.operator)[1])
    f, g = energy_and_gradient(ansatz.with_parameters(x), hfile.operator)
    ledgers = (CostLedger(), CostLedger())
    got, expected = (wolfe_line_search(objective, x, f, g, -10.0 * g, ledger)
                     for objective, ledger in zip((ansatz_objective, eager_objective),
                                                  ledgers))
    assert got.success and got.evals == 3
    assert (got.x.tobytes(), float(got.f).hex(), got.grad.tobytes(), got.alpha,
            got.evals) == (expected.x.tobytes(), float(expected.f).hex(),
                           expected.grad.tobytes(), expected.alpha, expected.evals)
    assert (ledgers[0].snapshot() == ledgers[1].snapshot()
            == {"function_evaluations": 3 * (1 + 2 * 4), "pool_gradient_units": 0})


def test_carried_state_answers_the_start_only(h4_equilibrium_fixture):
    # the growth loop's objective: the previous optimum's handle, and the
    # grown ansatz at (x*, 0), which is the same state
    hfile = h4_equilibrium_fixture
    pool = build_qe_pool(hfile.n_qubits, hfile.n_electrons)
    previous = AnsatzState(hfile.reference_bitstring, tuple(
        (pool.operators[i], t) for i, t in ((0, 0.1), (5, -0.2))))
    _, carried = energy_then_gradient(previous, hfile.operator)
    ansatz = previous.grown(pool.operators[40])
    carried_objective = AnsatzObjective(hfile.operator, ansatz, carried)
    fresh_objective = AnsatzObjective(hfile.operator, ansatz)
    start, elsewhere = np.array([0.1, -0.2, 0.0]), np.array([0.1, -0.2, 0.3])
    for x in (start, elsewhere):
        assert (float(carried_objective.value(x)).hex()
                == float(fresh_objective.value(x)).hex())
        for indices in ([2], [0, 2]):
            assert (carried_objective.grad_components(x, indices).tobytes()
                    == fresh_objective.grad_components(x, indices).tobytes())


class PlainQuadratic:
    """f = x.x with the four compute methods of the protocol and nothing
    else: no ledger."""

    def value(self, x):
        return float(x @ x)

    def value_and_grad(self, x):
        return float(x @ x), 2.0 * x

    def grad_components(self, x, indices):
        return (2.0 * x)[list(indices)]

    def evaluate(self, x):
        f, g = self.value_and_grad(x)
        return f, lambda: g


def test_an_objective_needs_no_ledger():
    # each search from (1, 1) or (1, 0) along -g: alpha = 1 overshoots to
    # the mirror point, and the zoom lands on the minimum at alpha = 1/2;
    # the minimizers charge the ledger they are given, or a fresh one
    objective = PlainQuadratic()
    assert not hasattr(objective, "ledger")
    x = np.ones(2)
    ledger = CostLedger()
    search = wolfe_line_search(objective, x, 2.0, 2.0 * x, -2.0 * x, ledger)
    assert search.success and search.evals == 2 and search.alpha == 0.5
    assert ledger.function_evaluations == 2 * (1 + 2 * 2)
    for minimize, args, expected in (
            (minimize_canonical, (x,), (1 + 2 * 2) + 2 * (1 + 2 * 2)),
            (minimize_recycled, (np.ones(1), np.array([2.0]), np.eye(1)),
             3 + 2 * (1 + 2 * 2))):
        ledger = CostLedger()
        given = minimize(objective, *args, ledger=ledger)
        fresh = minimize(objective, *args)
        assert given.converged and given.line_searches == 1
        assert ledger.function_evaluations == expected
        assert (given.trace[-1].fevals_cumulative == fresh.trace[-1].fevals_cumulative
                == expected)
