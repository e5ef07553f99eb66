import numpy as np

from adaptvqe.objectives import AnsatzObjective, FunctionObjective
from adaptvqe.optimizer import wolfe_line_search
from adaptvqe.pools import build_qe_pool
from adaptvqe.simulator import AnsatzState, energy_and_gradient


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


def test_adapters_leave_their_ledger_at_zero(h2_fixture):
    # the adapters and the engine beneath them only compute; the optimizer
    # charges the ledger an adapter carries
    pool = build_qe_pool(4, 2)
    ansatz = AnsatzState(h2_fixture.reference_bitstring,
                         ((pool.operators[2], 0.0), (pool.operators[3], 0.0)))
    x = np.array([0.1, -0.2])
    for objective in (AnsatzObjective(h2_fixture.operator, ansatz),
                      FunctionObjective(lambda v: float(v @ v), lambda v: 2.0 * v)):
        objective.value(x)
        objective.value_and_grad(x)
        objective.grad_components(x, [1, 1, 0])
        _, gradient = objective.evaluate(x)
        gradient()
        assert objective.ledger.snapshot() == {"function_evaluations": 0,
                                               "pool_gradient_units": 0}
        assert objective.ledger.breakdown == []


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
