import sys
from pathlib import Path

import pytest

# the oracles, and the fixture generator whose symbolic products they use
sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from adaptvqe.driver import run_adapt
from adaptvqe.hamiltonians import bundled_fixture_path, load_hamiltonian
from adaptvqe.pools import build_qe_pool


@pytest.fixture(scope="session")
def h2_fixture():
    return load_hamiltonian(bundled_fixture_path("h2_sto3g_0p7414.json"))


@pytest.fixture(scope="session")
def h4_equilibrium_fixture():
    return load_hamiltonian(bundled_fixture_path("h4_sto3g_1p00.json"))


@pytest.fixture(scope="session")
def h4_stretched_fixture():
    return load_hamiltonian(bundled_fixture_path("h4_sto3g_2p00.json"))


def paired_runs(hfile, record_state=False, max_iterations=60):
    """Canonical and recycling runs of the QE-pool loop on one fixture."""
    pool = build_qe_pool(hfile.n_qubits, hfile.n_electrons)
    results = {}
    for mode in ("canonical", "recycling"):
        results[mode] = run_adapt(
            hfile.operator, hfile.reference_bitstring, pool, mode=mode,
            eps=1e-6, max_iterations=max_iterations,
            exact_energy=hfile.exact_ground_energy,
            record_optimizer_state=record_state,
        )
    return pool, results


@pytest.fixture(scope="session")
def h2_paired(h2_fixture):
    return paired_runs(h2_fixture)


@pytest.fixture(scope="session")
def h4_equilibrium_paired(h4_equilibrium_fixture):
    return paired_runs(h4_equilibrium_fixture)


@pytest.fixture(scope="session")
def h4_stretched_paired(h4_stretched_fixture):
    return paired_runs(h4_stretched_fixture, record_state=True)
