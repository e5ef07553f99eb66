"""Adaptive VQE on an exact statevector simulator, with a quasi-Newton
optimizer that recycles the approximate inverse Hessian across ansatz-growth
iterations, plus convergence and measurement-cost diagnostics."""

from .cost import CostLedger, default_pool_sweep_units
from .diagnostics import (
    ConvergenceReport,
    HessianDistanceRecord,
    convergence_report,
    exact_ansatz_hessian,
    exact_hessian,
    frobenius_distance,
    hessian_distance_series,
)
from .driver import AdaptIteration, AdaptResult, pool_gradients, run_adapt, select_operator
from .hamiltonians import (
    HamiltonianFile,
    HamiltonianFormatError,
    builtin_model,
    bundled_fixture_path,
    ground_state_energy,
    load_hamiltonian,
    save_hamiltonian,
)
from .objectives import AnsatzObjective, FunctionObjective
from .optimizer import (
    OptimizerResult,
    bfgs_update,
    expand_inverse_hessian,
    minimize_canonical,
    minimize_recycled,
    wolfe_line_search,
)
from .paulis import PauliString, PauliSum
from .pools import (
    OperatorPool,
    build_nearest_neighbor_pool,
    build_qe_pool,
    build_qubit_pool,
)
from .simulator import (
    AnsatzState,
    StateVector,
    energy_and_gradient,
    energy_then_gradient,
    expectation,
    gradient_components,
    prepare,
)

__version__ = "0.1.0"
