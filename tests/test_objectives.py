import numpy as np

from adaptvqe.objectives import AnsatzObjective, FunctionObjective
from adaptvqe.optimizer import wolfe_line_search
from adaptvqe.pools import build_qe_pool
from adaptvqe.simulator import AnsatzState, energy_and_gradient


def test_repeated_indices_charged_alike(h4_equilibrium_fixture):
    # a repeated index is one measured component: 2 units per distinct index
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
    assert ansatz_objective.ledger.function_evaluations == 2 * 2
    assert function_objective.ledger.function_evaluations == 2 * 2


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
    got, expected = (wolfe_line_search(objective, x, f, g, -10.0 * g)
                     for objective in (ansatz_objective, eager_objective))
    assert got.success and got.evals == 3
    assert (got.x.tobytes(), float(got.f).hex(), got.grad.tobytes(), got.alpha,
            got.evals) == (expected.x.tobytes(), float(expected.f).hex(),
                           expected.grad.tobytes(), expected.alpha, expected.evals)
    assert (ansatz_objective.ledger.snapshot() == eager_objective.ledger.snapshot()
            == {"function_evaluations": 3 * (1 + 2 * 4), "pool_gradient_units": 0})
