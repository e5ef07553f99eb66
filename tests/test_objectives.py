import numpy as np

from adaptvqe.objectives import AnsatzObjective, FunctionObjective
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
