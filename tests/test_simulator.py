import gc
import weakref
from itertools import groupby

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptvqe import compiled as compiled_module
from adaptvqe.compiled import _STACK_ROWS, _TABLE_AMPLITUDE_CAP, CompiledSum, GeneratorBatch
from adaptvqe.cost import CostLedger
from adaptvqe.driver import pool_gradients, select_operator
from adaptvqe.hamiltonians import builtin_model, dense_matrix
from adaptvqe.objectives import AnsatzObjective
from adaptvqe.optimizer import minimize_canonical, minimize_recycled, wolfe_line_search
from adaptvqe.paulis import PauliString, PauliSum
from adaptvqe.pools import OperatorPool, build_nearest_neighbor_pool, build_qe_pool, qe_double
from adaptvqe.simulator import (
    AnsatzState,
    StateVector,
    energy_and_gradient,
    energy_then_gradient,
    expectation,
    gradient_components,
    prepare,
)

from generate_fixtures import hydrogen_chain_operator
from oracles import (
    commutator,
    dense_expectation,
    dense_pauli_sum,
    dense_prepare,
    dense_strings_commute,
    reference_apply_sum,
    reference_energy_and_gradient,
    reference_exponential,
    reference_gathered_exponential,
    reference_pool_gradients,
)


def batch_of(generators):
    """A new compiled batch of the sums ``generators``."""
    return GeneratorBatch([generator.compiled() for generator in generators])


def random_generator(rng, n_qubits, max_weight=2):
    """Random single-string anti-Hermitian generator i*P."""
    sites = rng.choice(n_qubits, size=min(max_weight, n_qubits), replace=False)
    text = ["I"] * n_qubits
    for s in sites:
        text[s] = str(rng.choice(list("XYZ")))
    return PauliSum.from_text_terms([("".join(text), 1j)])


class TestStatePreparation:
    def test_empty_ansatz_is_reference_basis_state(self):
        state = prepare(AnsatzState("1100"))
        assert abs(state.amplitudes[0b0011]) == 1.0
        assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_single_qubit_rotation_to_one(self):
        gen = PauliSum.from_text_terms([("Y", 1j)])
        state = prepare(AnsatzState("0", ((gen, np.pi / 2),)))
        assert abs(state.amplitudes[1]) == pytest.approx(1.0, abs=1e-12)

    def test_qe_double_matches_dense_exponential(self):
        gen = qe_double((0, 1), (2, 3), 4)
        ansatz = AnsatzState("1100", ((gen, 0.3),))
        state = prepare(ansatz)
        oracle = dense_prepare("1100", ansatz.elements)
        assert abs(np.vdot(oracle, state.amplitudes)) ** 2 >= 1 - 1e-10

    def test_non_anti_hermitian_generator_rejected(self):
        gen = PauliSum.from_text_terms([("XI", 1.0)])
        with pytest.raises(ValueError, match="anti-Hermitian"):
            AnsatzState("00", ((gen, 0.1),))

    def test_qubit_count_mismatch_rejected(self):
        gen = PauliSum.from_text_terms([("X", 1j)])
        with pytest.raises(ValueError, match="qubit count"):
            AnsatzState("00", ((gen, 0.1),))

    def test_qubit_cap(self):
        # checked where the reference enters, before any state is built
        with pytest.raises(ValueError, match="cap"):
            AnsatzState("0" * 21)

    def test_noncommuting_generator_rejected(self):
        gen = PauliSum.from_text_terms([("XI", 1j), ("ZI", 0.7j)])
        assert gen.is_anti_hermitian() and not gen.terms_mutually_commute()
        for theta in (0.4, 0.0):
            with pytest.raises(ValueError, match="do not mutually commute"):
                AnsatzState("00", ((gen, theta),))
            with pytest.raises(ValueError, match="do not mutually commute"):
                gen.compiled().exponential(prepare(AnsatzState("00")).amplitudes, theta)

    def test_exponential_rejects_non_anti_hermitian_sum(self):
        gen = PauliSum.from_text_terms([("XI", 1.0)])
        with pytest.raises(ValueError, match="anti-Hermitian"):
            gen.compiled().exponential(prepare(AnsatzState("00")).amplitudes, 0.0)

    def test_unitarity_over_many_applications(self):
        rng = np.random.default_rng(21)
        amps = prepare(AnsatzState("0000")).amplitudes
        for _ in range(100):
            gen = random_generator(rng, 4)
            amps = gen.compiled().exponential(amps, float(rng.normal()))
        assert np.linalg.norm(amps) == pytest.approx(1.0, abs=1e-10)

    def test_commuting_term_order_is_irrelevant(self):
        # all eight strings of a QE double commute; shuffled application
        # order must reproduce the same state
        rng = np.random.default_rng(22)
        gen = qe_double((0, 1), (2, 3), 4)
        assert gen.terms_mutually_commute()
        reference_state = prepare(AnsatzState("1100", ((gen, 0.37),)))
        terms = list(gen)
        for _ in range(5):
            rng.shuffle(terms)
            shuffled = prepare(AnsatzState("1100", tuple(
                (PauliSum(4, [t]), 0.37) for t in terms)))
            overlap = np.vdot(reference_state.amplitudes, shuffled.amplitudes)
            assert abs(overlap) ** 2 >= 1 - 1e-10


class TestWithParameters:
    @pytest.fixture
    def ansatz(self):
        pool = build_qe_pool(4, 2)
        return AnsatzState("1100", tuple((op, 0.1 * k) for k, op in enumerate(pool.operators[:3])))

    def test_generators_are_not_checked_again(self, ansatz, monkeypatch):
        calls = []
        check = CompiledSum.check_generator
        monkeypatch.setattr(CompiledSum, "check_generator",
                            lambda self: calls.append(self) or check(self))
        x = np.array([0.3, -1.2, 2.5])
        moved = ansatz.with_parameters(x)
        assert calls == []
        built = AnsatzState(ansatz.reference, tuple(zip(ansatz.generators, x)))
        assert len(calls) == 3  # a full build checks every generator
        assert moved == built
        assert all(type(theta) is float for _, theta in moved.elements)
        assert prepare(moved).amplitudes.tobytes() == prepare(built).amplitudes.tobytes()

    @pytest.mark.parametrize("x, message", [
        ([0.1, 0.2], "parameter vector length does not match ansatz"),
        ([0.1, 0.2, 0.3, 0.4], "parameter vector length does not match ansatz"),
        ([0.1, np.nan, 0.2], "ansatz parameter is not finite"),
        ([np.inf, 0.1, 0.2], "ansatz parameter is not finite"),
        ([0.1, 0.2, -np.inf], "ansatz parameter is not finite"),
    ], ids=["short", "long", "nan", "inf", "-inf"])
    def test_bad_parameters_rejected(self, ansatz, x, message):
        with pytest.raises(ValueError, match=message):
            ansatz.with_parameters(np.array(x))

    @pytest.mark.parametrize("shape", [(3, 1), (1, 3), ()])
    def test_vector_must_be_one_dimensional(self, ansatz, shape):
        x = np.full(shape, 0.1)
        with pytest.raises(ValueError, match=r"parameter vector must be 1-D, got shape"):
            ansatz.with_parameters(x)

    def test_angles_are_copied(self, ansatz):
        x = np.array([0.3, -1.2, 2.5])
        moved = ansatz.with_parameters(x)
        x[:] = 7.0
        assert [theta for _, theta in moved.elements] == [0.3, -1.2, 2.5]
        assert moved.parameters.tolist() == [0.3, -1.2, 2.5]
        moved.parameters[0] = 9.0  # a copy each time: the state keeps its angles
        assert moved.parameters.tolist() == [0.3, -1.2, 2.5]

    def test_compiled_forms_and_reference_are_shared(self, ansatz):
        moved = ansatz.with_parameters(np.array([0.3, -1.2, 2.5]))
        again = moved.with_parameters(np.zeros(3))
        for state in (moved, again):
            assert state.generators is ansatz.generators
            assert state._batch is ansatz._batch
            assert state._reference_amplitudes is ansatz._reference_amplitudes
        assert all(compiled is gen.compiled() for compiled, gen
                   in zip(ansatz._batch.generators, ansatz.generators))
        assert not ansatz._reference_amplitudes.flags.writeable
        # a grown ansatz is a new build, with its own compiled list
        assert ansatz.grown(ansatz.generators[0])._batch is not ansatz._batch


class TestTrialPath:
    """One line-search trial, ``AnsatzObjective.evaluate`` and its deferred
    gradient, against the plain per-term sweep, byte for byte."""

    @pytest.mark.parametrize("case, n", [("tfim8", 1), ("tfim8", 5), ("tfim8", 30),
                                         ("h4", 1), ("h4", 10), ("h4", 19)])
    def test_bytes_match_reference(self, case, n, request):
        hfile, pool = fixture_case(case, request)
        rng = np.random.default_rng(n)
        ansatz = random_ansatz(rng, hfile, pool, n)
        objective = AnsatzObjective(hfile.operator, ansatz)
        for x in (rng.normal(size=n) * 0.3, np.zeros(n)):
            x[n // 2] = 0.0  # one element at angle 0
            energy, gradient = objective.evaluate(x)
            _, reference_energy, reference_grad = reference_energy_and_gradient(
                ansatz.reference, tuple(zip(ansatz.generators, x.tolist())), hfile.operator)
            assert float(energy).hex() == float(reference_energy).hex()
            assert gradient().tobytes() == reference_grad.tobytes()


class TestExpectation:
    def test_z_on_zero(self):
        state = prepare(AnsatzState("0"))
        assert expectation(state, PauliSum.from_text_terms([("Z", 1.0)])) == 1.0

    def test_x_on_plus(self):
        plus = StateVector(1, np.array([1.0, 1.0]) / np.sqrt(2))
        assert expectation(plus, PauliSum.from_text_terms([("X", 1.0)])) == pytest.approx(1.0)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            expectation(prepare(AnsatzState("0")), PauliSum.from_text_terms([("X", 1j)]))

    def test_h2_reference_energy_matches_metadata(self, h2_fixture):
        state = prepare(AnsatzState(h2_fixture.reference_bitstring))
        energy = expectation(state, h2_fixture.operator)
        assert energy == pytest.approx(h2_fixture.hf_energy, abs=1e-9)

    def test_compiled_apply_matches_dense(self):
        rng = np.random.default_rng(23)
        op = PauliSum.from_text_terms([("XZY", 0.3), ("IIZ", -1.2), ("YXI", 0.25)])
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        amps /= np.linalg.norm(amps)
        np.testing.assert_allclose(
            op.compiled().apply(amps), dense_pauli_sum(op) @ amps, atol=1e-12)


class TestGradients:
    def test_empty_ansatz_gradient(self, h2_fixture):
        energy, grad = energy_and_gradient(
            AnsatzState(h2_fixture.reference_bitstring), h2_fixture.operator)
        assert grad.shape == (0,)
        assert energy == pytest.approx(h2_fixture.hf_energy, abs=1e-9)

    def test_last_parameter_gradient_is_commutator_expectation(self, h2_fixture):
        pool = build_qe_pool(4, 2)
        base = AnsatzState(h2_fixture.reference_bitstring, ((pool.operators[2], 0.21),))
        grown = base.grown(pool.operators[3], 0.0)
        _, grad = energy_and_gradient(grown, h2_fixture.operator)
        state = prepare(base)
        comm = commutator(h2_fixture.operator, pool.operators[3])
        assert grad[-1] == pytest.approx(expectation(state, comm), abs=1e-10)

    @pytest.mark.parametrize("n_qubits,n_elements,seed", [(4, 6, 1), (6, 8, 2), (8, 10, 3)])
    def test_gradient_matches_finite_differences(self, n_qubits, n_elements, seed):
        rng = np.random.default_rng(seed)
        pool = build_nearest_neighbor_pool(n_qubits)
        gens = [pool.operators[int(i)] for i in rng.integers(0, len(pool), size=n_elements)]
        x = rng.normal(size=n_elements) * 0.6
        ham_terms = [("".join(rng.choice(list("IXYZ")) for _ in range(n_qubits)),
                      float(rng.normal())) for _ in range(6)]
        ham = PauliSum.from_text_terms(ham_terms, n_qubits)
        ham = PauliSum(n_qubits, [*ham, *((s, c.conjugate()) for s, c in ham)])
        ansatz = AnsatzState("0" * n_qubits, tuple(zip(gens, x)))
        _, grad = energy_and_gradient(ansatz, ham)
        step = 1e-5
        for j in range(n_elements):
            xp, xm = x.copy(), x.copy()
            xp[j] += step
            xm[j] -= step
            fd = (expectation(prepare(ansatz.with_parameters(xp)), ham)
                  - expectation(prepare(ansatz.with_parameters(xm)), ham)) / (2 * step)
            assert abs(grad[j] - fd) <= 1e-6 * max(1.0, abs(fd))

    def test_gradient_components_match_full_gradient(self, h4_equilibrium_fixture):
        hf = h4_equilibrium_fixture
        rng = np.random.default_rng(5)
        pool = build_qe_pool(hf.n_qubits, hf.n_electrons)
        gens = [pool.operators[int(i)] for i in rng.integers(0, len(pool), size=5)]
        x = rng.normal(size=5) * 0.4
        ansatz = AnsatzState(hf.reference_bitstring, tuple(zip(gens, x)))
        _, full = energy_and_gradient(ansatz, hf.operator)
        # the columns of the full gradient in the order given, repeats
        # included, and bools read as 0 and 1
        for indices in ([4, 1, 3], [2, 0, 2], [True, False], []):
            subset = gradient_components(ansatz, hf.operator, indices)
            assert subset.tobytes() == full[np.array(indices, dtype=int)].tobytes(), indices

    def test_gradient_component_index_out_of_range(self, h2_fixture):
        with pytest.raises(ValueError, match="out of range"):
            gradient_components(AnsatzState(h2_fixture.reference_bitstring),
                                h2_fixture.operator, [0])


class TestStackedGradientComponents:
    def test_rows_match_one_call_per_point(self, h4_equilibrium_fixture):
        hfile = h4_equilibrium_fixture
        pool = build_qe_pool(hfile.n_qubits, hfile.n_electrons)
        rng = np.random.default_rng(3)
        ansatz = AnsatzState(hfile.reference_bitstring, tuple(
            (pool.operators[int(i)], 0.0) for i in rng.integers(0, len(pool), size=4)))
        points = rng.normal(size=(5, 4)) * 0.4
        points[1] = points[0]
        points[2, 1:] = points[0, 1:]
        points[3, -1] = 0.0
        indices = [3, 0, 3, 2]
        got = gradient_components(ansatz, hfile.operator, indices, points=points)
        assert got.shape == (5, 4)
        for point, row in zip(points, got):
            expected = gradient_components(ansatz.with_parameters(point), hfile.operator,
                                           indices)
            assert np.array_equal(row, expected)
            _, full = energy_and_gradient(ansatz.with_parameters(point), hfile.operator)
            assert np.array_equal(row, full[indices])

    def test_points_validated(self, h2_fixture):
        pool = build_qe_pool(4, 2)
        ansatz = AnsatzState(h2_fixture.reference_bitstring, ((pool.operators[2], 0.1),))
        with pytest.raises(ValueError, match="shape"):
            gradient_components(ansatz, h2_fixture.operator, [0], points=np.zeros((2, 2)))
        with pytest.raises(ValueError, match="not finite"):
            gradient_components(ansatz, h2_fixture.operator, [0],
                                points=np.array([[0.1], [np.nan]]))


# Each gradient route on a one-parameter ansatz, the pool sweep included.
GRADIENT_ROUTES = {
    "full": lambda ansatz, hamiltonian: energy_and_gradient(ansatz, hamiltonian),
    "single": lambda ansatz, hamiltonian: gradient_components(ansatz, hamiltonian, [0]),
    "stacked": lambda ansatz, hamiltonian: gradient_components(
        ansatz, hamiltonian, [0], points=np.array([[0.1], [-0.3]])),
    # the pool sweep reads the state and H|psi> of a checked sweep
    "pool": lambda ansatz, hamiltonian: pool_gradients(
        energy_then_gradient(ansatz, hamiltonian)[1],
        OperatorPool("Qubit", ansatz.n_qubits, ansatz.generators, ("A",))),
}


class TestHamiltonianValidated:
    """Every gradient route rejects a bad Hamiltonian before sweeping."""

    @pytest.fixture
    def ansatz(self, h2_fixture):
        return AnsatzState(h2_fixture.reference_bitstring,
                           ((build_qe_pool(4, 2).operators[2], 0.1),))

    @pytest.mark.parametrize("route", GRADIENT_ROUTES.values(), ids=GRADIENT_ROUTES.keys())
    def test_non_hermitian_rejected(self, ansatz, route):
        hamiltonian = PauliSum.from_text_terms([("XIII", 1j), ("ZZII", 0.5)])
        with pytest.raises(ValueError, match="not Hermitian"):
            route(ansatz, hamiltonian)

    @pytest.mark.parametrize("n_qubits", [3, 6])
    @pytest.mark.parametrize("route", GRADIENT_ROUTES.values(), ids=GRADIENT_ROUTES.keys())
    def test_qubit_count_mismatch_rejected(self, ansatz, route, n_qubits):
        hamiltonian = PauliSum.from_text_terms([("Z" + "I" * (n_qubits - 1), 1.0)])
        with pytest.raises(ValueError, match="qubit count"):
            route(ansatz, hamiltonian)


def assert_bit_exact(ansatz, hamiltonian, amps):
    """Compiled application, preparation and gradients against the plain
    per-term route, with ``np.array_equal``; applications byte for byte,
    since ``np.array_equal`` cannot tell a signed zero."""
    n_qubits = ansatz.n_qubits
    psi, energy, grad = reference_energy_and_gradient(
        ansatz.reference, ansatz.elements, hamiltonian)
    assert np.array_equal(prepare(ansatz).amplitudes, psi)
    got_energy, got_grad = energy_and_gradient(ansatz, hamiltonian)
    assert got_energy == energy
    assert np.array_equal(got_grad, grad)
    if ansatz.n_parameters:
        n = ansatz.n_parameters
        wanted = list(range(n))[::2]
        assert np.array_equal(gradient_components(ansatz, hamiltonian, wanted), grad[wanted])
        x = ansatz.parameters
        points = np.stack([x, np.roll(x, 1), 0.5 * x])
        stacked = gradient_components(ansatz, hamiltonian, range(n), points=points)
        for point, row in zip(points, stacked):
            _, full = energy_and_gradient(ansatz.with_parameters(point), hamiltonian)
            assert np.array_equal(row, full)
    for operator in (hamiltonian,) + ansatz.generators:
        assert (operator.compiled().apply(amps).tobytes()
                == reference_apply_sum(amps, n_qubits, operator).tobytes())
    for generator, theta in ansatz.elements:
        assert np.array_equal(
            generator.compiled().exponential(amps, theta),
            reference_exponential(amps, n_qubits, generator, theta))


def assert_rows_bit_exact(compiled, stack, theta=None):
    """``apply`` (and ``exponential`` at ``theta``) on a stack of states
    against one 1-D call per row, byte for byte.  A small 1-D state goes
    through the term table and a stack term by term, so for ``apply`` this
    compares the two routes."""
    applied = compiled.apply(stack)
    for row, got in zip(stack, applied):
        assert got.tobytes() == compiled.apply(row).tobytes()
    assert ("_table" in vars(compiled)) == (stack.shape[-1] <= _TABLE_AMPLITUDE_CAP)
    if theta is not None:
        rotated = compiled.exponential(stack, theta)
        for row, got in zip(stack, rotated):
            assert got.tobytes() == compiled.exponential(row, theta).tobytes()


def basis_amplitudes(n_qubits, index):
    amps = np.zeros(1 << n_qubits, dtype=complex)
    amps[index] = 1.0
    return amps


def random_amplitudes(rng, n_qubits):
    amps = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
    return amps / np.linalg.norm(amps)


_COEFFS = st.floats(0.1, 2.0) | st.floats(-2.0, -0.1)


@st.composite
def hermitian_sums(draw):
    """Real-coefficient sums with an identity term, a single-Y string and
    several terms on each of at most three X masks."""
    n_qubits = draw(st.integers(1, 5))
    full = (1 << n_qubits) - 1
    x_masks = draw(st.lists(st.integers(0, full), min_size=1, max_size=3))
    terms = [(PauliString(n_qubits, 0, 0), draw(_COEFFS)),
             (PauliString.single("Y", draw(st.integers(0, n_qubits - 1)), n_qubits),
              draw(_COEFFS))]
    for _ in range(draw(st.integers(1, 10))):
        string = PauliString(n_qubits, draw(st.sampled_from(x_masks)),
                             draw(st.integers(0, full)))
        terms.append((string, draw(_COEFFS)))
    return PauliSum(n_qubits, terms)


@st.composite
def commuting_generators(draw, n_qubits):
    """Anti-Hermitian sums of 1-8 mutually commuting strings."""
    full = (1 << n_qubits) - 1
    strings: list[PauliString] = []
    for _ in range(draw(st.integers(1, 8))):
        string = PauliString(n_qubits, draw(st.integers(0, full)),
                             draw(st.integers(0, full)))
        if all(dense_strings_commute(string.text(), kept.text()) for kept in strings):
            strings.append(string)
    return PauliSum(n_qubits, [(s, 1j * draw(_COEFFS)) for s in strings])


def fixture_case(case, request):
    """``(hfile, pool)`` for H2, H4 1.0 A or TFIM-8 with its nn pool."""
    if case == "tfim8":
        return builtin_model("tfim", 8, with_exact=False), build_nearest_neighbor_pool(8)
    fixture = {"h2": "h2_fixture", "h4": "h4_equilibrium_fixture"}[case]
    hfile = request.getfixturevalue(fixture)
    return hfile, build_qe_pool(hfile.n_qubits, hfile.n_electrons)


def random_ansatz(rng, hfile, pool, n):
    picks = rng.integers(0, len(pool), size=n)
    return AnsatzState(hfile.reference_bitstring, tuple(
        (pool.operators[int(i)], float(t))
        for i, t in zip(picks, rng.normal(size=n) * 0.5)))


class TestCompiledIsBitExact:
    @pytest.mark.parametrize("case", ["h2", "h4", "tfim8"])
    def test_fixtures(self, case, request):
        hfile, pool = fixture_case(case, request)
        rng = np.random.default_rng(len(case))
        ansatz = random_ansatz(rng, hfile, pool, 6)
        assert_bit_exact(ansatz, hfile.operator, random_amplitudes(rng, hfile.n_qubits))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_generated_sums(self, data):
        hamiltonian = data.draw(hermitian_sums())
        n_qubits = hamiltonian.n_qubits
        generators = [data.draw(commuting_generators(n_qubits))
                      for _ in range(data.draw(st.integers(1, 3)))]
        thetas = [data.draw(st.floats(-1.5, 1.5)) for _ in generators]
        reference = "".join(data.draw(st.sampled_from("01")) for _ in range(n_qubits))
        ansatz = AnsatzState(reference, tuple(zip(generators, thetas)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        amps = random_amplitudes(rng, n_qubits)
        assert_bit_exact(ansatz, hamiltonian, amps)
        index = data.draw(st.integers(0, (1 << n_qubits) - 1))
        assert_bit_exact(ansatz, hamiltonian, basis_amplitudes(n_qubits, index))
        stack = np.stack([amps] + [random_amplitudes(rng, n_qubits) for _ in range(2)])
        assert_rows_bit_exact(hamiltonian.compiled(), stack)
        for generator, theta in zip(generators, thetas):
            assert_rows_bit_exact(generator.compiled(), stack, theta)
        # the pool sweep sums in another order: rounding-level agreement
        np.testing.assert_allclose(
            batch_of(generators).gradients(amps, hamiltonian.compiled().apply(amps)),
            reference_pool_gradients(amps, n_qubits, hamiltonian, generators),
            rtol=0, atol=1e-12)


class TestEnergyThenGradient:
    """The energy-first route against the eager sweep and the plain
    per-term reference."""

    @pytest.mark.parametrize("n", [0, 1, 7])
    @pytest.mark.parametrize("case", ["h2", "h4", "tfim8"])
    def test_bytes_match_eager_and_reference(self, case, n, request):
        hfile, pool = fixture_case(case, request)
        ansatz = random_ansatz(np.random.default_rng(n), hfile, pool, n)
        energy, gradient = energy_then_gradient(ansatz, hfile.operator)
        eager_energy, eager_grad = energy_and_gradient(ansatz, hfile.operator)
        _, reference_energy, reference_grad = reference_energy_and_gradient(
            ansatz.reference, ansatz.elements, hfile.operator)
        assert (float(energy).hex() == float(eager_energy).hex()
                == float(reference_energy).hex())
        grad = gradient()
        assert grad.shape == (n,)
        assert grad.tobytes() == eager_grad.tobytes() == reference_grad.tobytes()
        assert gradient() is grad  # computed once, then cached

    def test_handle_keeps_only_its_final_state_read_only(
            self, h4_equilibrium_fixture, monkeypatch):
        # the growth loop carries a handle across iterations: it must cost
        # two state vectors, psi and H|psi>, and neither may be written
        hfile = h4_equilibrium_fixture
        ansatz = random_ansatz(np.random.default_rng(5), hfile,
                               build_qe_pool(hfile.n_qubits, hfile.n_electrons), 4)
        exponential = CompiledSum.exponential
        forward = []

        def recording_exponential(compiled, amps, theta):
            out = exponential(compiled, amps, theta)
            forward.append(weakref.ref(out))
            return out

        monkeypatch.setattr(CompiledSum, "exponential", recording_exponential)
        energy, handle = energy_then_gradient(ansatz, hfile.operator)
        states = forward[:]  # the reverse half's exponentials come later
        assert len(states) == 4 and all(ref() is not None for ref in states)
        assert states[-1]() is handle.psi
        assert float(handle.energy).hex() == float(energy).hex()
        assert handle.h_psi.tobytes() == hfile.operator.compiled().apply(
            prepare(ansatz).amplitudes).tobytes()
        for carried in (handle.psi, handle.h_psi):
            with pytest.raises(ValueError, match="read-only"):
                carried[0] = 0.0
        handle()
        assert [ref() is None for ref in states] == [True, True, True, False]

    def test_bad_hamiltonian_raises_before_any_charge(self, h2_fixture):
        # a query that raises is not charged: not at a minimizer's start, not
        # at a line-search trial
        ansatz = AnsatzState(h2_fixture.reference_bitstring,
                             ((build_qe_pool(4, 2).operators[2], 0.1),))
        hamiltonian = PauliSum.from_text_terms([("XIII", 1j), ("ZZII", 0.5)])
        with pytest.raises(ValueError, match="not Hermitian"):
            energy_then_gradient(ansatz, hamiltonian)
        objective = AnsatzObjective(hamiltonian, ansatz)
        x = np.array([0.1])
        ledger = CostLedger()
        with pytest.raises(ValueError, match="not Hermitian"):
            minimize_canonical(objective, x, ledger=ledger)
        with pytest.raises(ValueError, match="not Hermitian"):
            minimize_recycled(objective, np.zeros(0), np.zeros(0), np.zeros((0, 0)),
                              ledger=ledger)
        with pytest.raises(ValueError, match="not Hermitian"):
            wolfe_line_search(objective, x, 0.0, np.ones(1), -np.ones(1), ledger)
        assert ledger.snapshot() == {"function_evaluations": 0,
                                     "pool_gradient_units": 0}


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_dense_matrix_matches_oracle_bytes(data):
    """The compiled dense matrix is byte for byte the kron-built dense sum,
    for Hermitian sums and for generators."""
    hamiltonian = data.draw(hermitian_sums())
    generator = data.draw(commuting_generators(hamiltonian.n_qubits))
    for operator in (hamiltonian, generator):
        assert dense_matrix(operator).tobytes() == dense_pauli_sum(operator).tobytes()


def test_exponential_matches_reference_up_to_the_sign_of_a_zero():
    """The compiled exponential gathers before it multiplies, the reference
    after, so a zero amplitude may differ in sign and in nothing else."""
    pool = build_qe_pool(8, 4)
    generator = pool.operators[pool.labels.index("double (0, 1)->(2, 3)")]
    for theta in (-2.31, 0.3):
        for index in (15, 37):
            amps = basis_amplitudes(8, index)
            got = generator.compiled().exponential(amps, theta)
            expected = reference_exponential(amps, 8, generator, theta)
            assert np.array_equal(got, expected)
            parts, reference_parts = got.view(np.float64), expected.view(np.float64)
            differ = parts.view(np.uint64) != reference_parts.view(np.uint64)
            assert np.all(parts[differ] == 0.0)


def signs_by_z_mask(compiled):
    """Z mask -> the sign vector a compiled sum holds for it."""
    held = [signs for _, terms, *_ in compiled._groups for signs, *_ in terms]
    return {string.z_mask: signs for (string, _), signs in zip(compiled.terms, held)
            if string.z_mask}


def assert_signs_are_stack_rows(groups, n_qubits):
    """Above the size key: one read-only int8 stack per X mask, row ``k``
    the ``(-1)^popcount(b & z)`` of its ``k``-th term, and each term's signs
    that row, a view (None for a Z mask of 0).  The stacks are consecutive
    views of one array of the sum, so no two masks share a row."""
    index = np.arange(1 << n_qubits, dtype=np.uint64)
    rows = groups[0][2].base
    assert rows is not None and not rows.flags.writeable
    for _, terms, stack, _ in groups:
        assert stack.dtype == np.int8 and not stack.flags.writeable
        assert stack.shape == (len(terms), 1 << n_qubits) and stack.base is rows
        for k, (signs, *_, z) in enumerate(terms):
            assert stack[k].tobytes() == compiled_module._parity_signs(index, z).tobytes()
            if z:
                assert signs.base is rows
                assert signs.__array_interface__ == stack[k].__array_interface__
            else:
                assert signs is None
    assert sum(len(stack) for _, _, stack, _ in groups) == len(rows)


class TestSharedSigns:
    @pytest.mark.parametrize("n_qubits", [8, 12])
    def test_sums_with_a_common_z_mask_share_one_read_only_vector(self, n_qubits):
        """Up to the size key, sums with a common Z mask share one read-only
        complex vector; above it each X mask holds one read-only int8 stack
        and each term's signs are a row of it."""
        pad = "I" * (n_qubits - 4)
        first = PauliSum.from_text_terms([("ZZIX" + pad, 1.0), ("XIZI" + pad, 0.5)])
        second = PauliSum.from_text_terms([("YYII" + pad, -2.0), ("IIZZ" + pad, 0.3)])
        if n_qubits == 12:
            for operator in (first, second):
                assert_signs_are_stack_rows(operator.compiled()._groups, n_qubits)
            return
        first_signs = signs_by_z_mask(first.compiled())
        second_signs = signs_by_z_mask(second.compiled())
        common = set(first_signs) & set(second_signs)
        assert common == {0b0011}  # ZZ.. and YY.. read the same Z mask
        for z in common:
            assert first_signs[z] is second_signs[z]
        for signs in (*first_signs.values(), *second_signs.values()):
            assert not signs.flags.writeable
            assert signs.dtype == (complex if n_qubits == 8 else np.int8)

    @pytest.mark.parametrize("n_qubits", [8, 12])
    def test_real_route_signs_are_shared_too(self, n_qubits):
        """The float64 route holds one read-only float64 sign vector per
        qubit count and Z mask up to the size key, and above it the int8
        stacks of the complex route and their rows."""
        pad = "I" * (n_qubits - 4)
        first = PauliSum.from_text_terms([("ZZIX" + pad, 1.0), ("XIZI" + pad, 0.5)])
        second = PauliSum.from_text_terms([("YYII" + pad, -2.0), ("IIZZ" + pad, 0.3)])
        index = np.arange(1 << n_qubits, dtype=np.uint64)
        for operator in (first, second):
            compiled = operator.compiled()
            assert compiled.real
            if n_qubits == 12:
                assert_signs_are_stack_rows(compiled._real_groups, n_qubits)
                for (_, real_terms, real_stack, _), (_, terms, stack, _) in zip(
                        compiled._real_groups, compiled._groups):
                    assert real_stack is stack
                    assert all(a[0] is b[0] for a, b in zip(real_terms, terms))
                continue
            held = [signs for _, terms, *_ in compiled._real_groups for signs, *_ in terms]
            for (string, _), signs in zip(compiled.terms, held):
                assert signs is compiled_module._shared_signs(
                    n_qubits, index, string.z_mask, float)
                assert signs.dtype == np.float64 and not signs.flags.writeable

    def test_h4_bytes_do_not_depend_on_sharing(self, h4_equilibrium_fixture, monkeypatch):
        """``apply`` and ``exponential`` of the H4 Hamiltonian and QE pool
        with the shared vectors against sums that each build their own."""
        hamiltonian = h4_equilibrium_fixture.operator
        pool = build_qe_pool(8, h4_equilibrium_fixture.n_electrons)
        rng = np.random.default_rng(4)
        states = [random_amplitudes(rng, 8), basis_amplitudes(8, 0b1111)]
        stack = np.stack(states)

        def outputs():
            out = []
            for operator in (hamiltonian, *pool.operators):
                compiled = CompiledSum(operator)
                for amps in (*states, stack):
                    out.append(compiled.apply(amps).tobytes())
                    if operator is not hamiltonian:
                        out.append(compiled.exponential(amps, 0.3).tobytes())
            return out

        shared = outputs()
        for amps in states:
            assert (CompiledSum(hamiltonian).apply(amps).tobytes()
                    == reference_apply_sum(amps, 8, hamiltonian).tobytes())

        def own_signs(n_qubits, index, z_mask, dtype):
            return compiled_module._parity_signs(index, z_mask).astype(dtype)

        monkeypatch.setattr(compiled_module, "_shared_signs", own_signs)
        assert outputs() == shared

    def test_12_qubit_bytes_do_not_depend_on_the_stack_rows(self):
        """At 12 qubits, ``apply`` and ``exponential`` of a sum with many
        terms per X mask and of QE generators, complex and float64, on 1-D
        states and stacks, with each term's signs a row of its mask's stack
        against the same sums with every stack and row a private copy; and
        ``apply`` against the per-term reference."""
        rng = np.random.default_rng(12)
        hamiltonian = masked_sum(rng, 12)
        pool = build_qe_pool(12, 6)
        generators = [pool.operators[int(k)] for k in rng.choice(len(pool), 4, replace=False)]
        states = [random_amplitudes(rng, 12), basis_amplitudes(12, 0b111111)]
        states += [amps.real.copy() for amps in states]
        stacks = [np.stack(states[:2]), np.stack(states[2:])]

        def outputs(compiled_sums):
            out = []
            for operator, compiled in zip((hamiltonian, *generators), compiled_sums):
                for amps in (*states, *stacks):
                    out.append(compiled.apply(amps).tobytes())
                    if operator is not hamiltonian:
                        out.append(compiled.exponential(amps, 0.3).tobytes())
            return out

        viewed = [CompiledSum(operator) for operator in (hamiltonian, *generators)]
        copied = [CompiledSum(operator) for operator in (hamiltonian, *generators)]
        for compiled in copied:
            compiled._groups = tuple(
                (flip, tuple((None if signs is None else signs.copy(), *rest)
                             for signs, *rest in terms), stack.copy(), scalars)
                for flip, terms, stack, scalars in compiled._groups)
            assert not any(np.shares_memory(signs, stack)
                           for _, terms, stack, _ in compiled._groups
                           for signs, *_ in terms if signs is not None)
        assert outputs(viewed) == outputs(copied)
        for amps in states[:2]:
            assert (viewed[0].apply(amps).tobytes()
                    == reference_apply_sum(amps, 12, hamiltonian).tobytes())


def random_sum(rng, n_qubits, n_terms, n_masks):
    """Random Hermitian sum of ``n_terms`` strings on ``n_masks`` X masks."""
    full = 1 << n_qubits
    x_masks = rng.integers(0, full, size=n_masks).tolist() + [0]
    return PauliSum(n_qubits, [
        (PauliString(n_qubits, int(rng.choice(x_masks)), int(rng.integers(0, full))),
         float(rng.normal())) for _ in range(n_terms)])


def masked_sum(rng, n_qubits, n_terms=80):
    """``n_terms`` strings with real scalars on three X masks and the Z-only
    mask, so that most masks hold more than ``_STACK_ROWS`` terms."""
    full = 1 << n_qubits
    x_masks = [0] + rng.integers(1, full, size=3).tolist()
    terms = []
    for _ in range(n_terms):
        x, z = int(rng.choice(x_masks)), int(rng.integers(0, full))
        coeff = float(rng.normal())
        terms.append((PauliString(n_qubits, x, z),
                      1j * coeff if (x & z).bit_count() % 2 else coeff))
    return PauliSum(n_qubits, terms)


def signed_zero_states(rng, n_qubits):
    """Complex states made of signed zeros: all ``-0 - 0i``, all ``-0 + 0i``
    and a random state with half its parts replaced by ``-0`` or ``+0``."""
    dim = 1 << n_qubits
    mixed = random_amplitudes(rng, n_qubits)
    parts = mixed.view(np.float64)
    parts[rng.random(2 * dim) < 0.5] = -0.0
    parts[rng.random(2 * dim) < 0.25] = 0.0
    return [np.full(dim, complex(-0.0, -0.0)), np.full(dim, complex(-0.0, 0.0)), mixed]


class TestMaskBlocks:
    """Above the term table, and for every stack, ``apply`` runs one X mask
    at a time in blocks of at most ``_STACK_ROWS`` terms (fewer for a stack
    of more than ``_STACK_AMPLITUDES`` amplitudes): byte for byte the
    per-term reference on complex states, and its real part on float64
    states."""

    @pytest.mark.parametrize("n_qubits", [8, 9, 10, 12])
    def test_matches_reference_bytes(self, n_qubits):
        rng = np.random.default_rng(n_qubits)
        operator = masked_sum(rng, n_qubits)
        compiled = operator.compiled()
        assert compiled.real
        sizes = [len(scalars) for *_, scalars in compiled._groups]
        assert compiled._groups[0][0] is None  # the Z-only mask
        assert max(sizes) > _STACK_ROWS and any(size % _STACK_ROWS for size in sizes)
        states = [random_amplitudes(rng, n_qubits), *signed_zero_states(rng, n_qubits)]

        def expected(amps):
            return reference_apply_sum(amps.astype(complex), n_qubits, operator)

        for amps in (*states, *(amps.real.copy() for amps in states)):
            reference = expected(amps)
            if amps.dtype == np.float64:
                reference = reference.real
            if n_qubits > 8:
                assert compiled.apply(amps).tobytes() == reference.tobytes()
            # a stack with the state in its middle row
            stack = np.stack([np.roll(amps, 1), amps, 2 * amps])
            assert compiled.apply(stack)[1].tobytes() == reference.tobytes()
        for stack in (np.stack(states), np.stack([amps.real for amps in states])):
            for row, got in zip(stack, compiled.apply(stack)):
                reference = expected(row)
                assert got.tobytes() == (reference.real if row.dtype == np.float64
                                         else reference).tobytes()


def scattered_amplitudes(rng, n_qubits, count):
    """A complex state with ``count`` nonzero amplitudes at random indices."""
    dim = 1 << n_qubits
    amps = np.zeros(dim, dtype=complex)
    amps[rng.choice(dim, count, replace=False)] = (rng.normal(size=count)
                                                   + 1j * rng.normal(size=count))
    return amps


def sparse_states(rng, n_qubits):
    """Complex states either side of the support route's quarter rule: a
    basis state, two nonzero amplitudes, exactly a quarter of them and one
    past it, and two states with ``-0`` and ``+0`` parts both inside the
    support and outside it (one with a single nonzero amplitude, so the
    two added indices hold ``-0``)."""
    dim = 1 << n_qubits
    signed = scattered_amplitudes(rng, n_qubits, 6)
    parts = signed.view(np.float64)
    parts[(parts == 0) & (rng.random(2 * dim) < 0.5)] = -0.0
    inside = np.flatnonzero(signed)
    signed[inside[0]] = complex(-0.0, signed[inside[0]].imag)
    signed[inside[1]] = complex(signed[inside[1]].real, 0.0)
    signed[inside[2]] = complex(signed[inside[2]].real, -0.0)
    lone = np.full(dim, complex(-0.0, -0.0))
    lone[int(rng.integers(2, dim))] = 0.3 - 0.2j
    return [basis_amplitudes(n_qubits, int(rng.integers(2, dim))),
            scattered_amplitudes(rng, n_qubits, 2),
            scattered_amplitudes(rng, n_qubits, dim // 4),
            scattered_amplitudes(rng, n_qubits, dim // 4 + 1), signed, lone]


@pytest.fixture
def support_calls(monkeypatch):
    """What each call of ``compiled._support`` returned, in order."""
    calls, support = [], compiled_module._support

    def spy(amps):
        calls.append(support(amps))
        return calls[-1]

    monkeypatch.setattr(compiled_module, "_support", spy)
    return calls


def takes_support_route(amps):
    """A 1-D state above the term table with at most a quarter of its
    amplitudes nonzero."""
    return (amps.ndim == 1 and amps.size > _TABLE_AMPLITUDE_CAP
            and np.count_nonzero(amps) <= amps.size // 4)


@pytest.fixture(scope="module")
def h6_problem():
    """The H6 STO-3G 1.0 A Hamiltonian and its QE pool."""
    return hydrogen_chain_operator(1.0, 6)[0], build_qe_pool(12, 6)


class TestSupportRoute:
    """Above the term table, a 1-D state with at most a quarter of its
    amplitudes nonzero is applied only where it is nonzero: the gathered
    nonzero amplitudes, each X mask's signs and accumulator read and written
    at the indices they reach.  Every byte is the per-term reference's, as on
    the X-mask route; stacks and denser states keep that route."""

    @pytest.mark.parametrize("n_qubits", [9, 10, 12])
    def test_matches_reference_bytes(self, n_qubits, support_calls):
        rng = np.random.default_rng(100 + n_qubits)
        operators = [masked_sum(rng, n_qubits), random_sum(rng, n_qubits, 60, 6)]
        states = sparse_states(rng, n_qubits)
        states += [amps.real.copy() for amps in states]
        for operator in operators:
            compiled = operator.compiled()
            assert compiled.real or operator is operators[1]
            for amps in states:
                if amps.dtype == np.float64 and not compiled.real:
                    continue
                expected = reference_apply_sum(amps.astype(complex), n_qubits, operator)
                if amps.dtype == np.float64:
                    expected = expected.real
                support_calls.clear()
                assert compiled.apply(amps).tobytes() == expected.tobytes()
                assert len(support_calls) == 1
                assert (support_calls[0] is not None) == takes_support_route(amps)
        assert any(takes_support_route(amps) for amps in states)
        assert not all(takes_support_route(amps) for amps in states)

    def test_h6_adapt_states(self, h6_problem, support_calls):
        """The H6 Hamiltonian and QE generators on states built from the
        reference by QE exponentials, float64 and complex, which carry
        rounding residues outside the six-electron sector."""
        hamiltonian, pool = h6_problem
        rng = np.random.default_rng(6)
        reference = basis_amplitudes(12, 0b111111).real.copy()
        acting = [op for op in pool.operators if op.compiled().apply(reference).any()]
        picks = [acting[int(k)] for k in rng.choice(len(acting), 5, replace=False)]
        angles = rng.normal(size=len(picks)) * 0.3
        states = []
        for start in (reference, reference.astype(complex)):
            states.append(start)
            for op, theta in zip(picks, angles):
                states.append(op.compiled().exponential(states[-1], theta))
        electrons = np.bitwise_count(np.arange(1 << 12))
        assert any(np.count_nonzero(amps[electrons != 6]) for amps in states)
        for operator in (hamiltonian, *picks, *pool.operators[:3]):
            compiled = operator.compiled()
            for amps in states:
                expected = reference_apply_sum(amps.astype(complex), 12, operator)
                if amps.dtype == np.float64:
                    expected = expected.real
                support_calls.clear()
                assert compiled.apply(amps).tobytes() == expected.tobytes()
                assert support_calls[0] is not None

    def test_dense_states_and_stacks_keep_the_x_mask_route(self, support_calls):
        rng = np.random.default_rng(7)
        compiled = masked_sum(rng, 10).compiled()
        sparse = scattered_amplitudes(rng, 10, 3)
        compiled.apply(sparse)
        compiled.apply(random_amplitudes(rng, 10))
        assert support_calls[0] is not None and support_calls[1] is None
        stack = np.stack([sparse, sparse.conj()])
        for amps in (stack, stack.real.copy()):
            got = compiled.apply(amps)
            for row, expected in zip(amps, got):
                assert compiled.apply(row).tobytes() == expected.tobytes()
        # one call per row above, none for the stacks
        assert len(support_calls) == 2 + 4
        compiled = masked_sum(rng, 8).compiled()
        compiled.apply(basis_amplitudes(8, 3))
        assert len(support_calls) == 6  # the term table

    @pytest.mark.parametrize("columns", [2, 3, 7])
    def test_numpy_reduces_two_columns_row_by_row(self, columns):
        """A block of two or more columns (at least two indices) is reduced
        as sequential ``+=`` along axis 0, the accumulator first."""
        rng = np.random.default_rng(columns)
        for dtype in (float, complex):
            rows = rng.normal(size=(16, columns)) * 10.0 ** rng.integers(-8, 8, (16, columns))
            if dtype is complex:
                rows = rows + 1j * rng.normal(size=(16, columns))
            rows[:, 0] = [1.0] + [2.0 ** -53] * 15
            acc = rng.normal(size=columns).astype(dtype)
            expected = acc.copy()
            for row in rows:
                expected += row
            rows[0] += acc
            np.add.reduce(rows, axis=0, out=acc)
            assert acc.tobytes() == expected.tobytes()

    def test_numpy_sums_one_column_pairwise(self):
        """A one-column block is summed pairwise, not row by row, so the
        support route never reads fewer than two indices."""
        rows = np.array([[1.0]] + [[2.0 ** -53]] * 15)
        expected = np.zeros(1)
        for row in rows:
            expected += row
        got = np.zeros(1)
        np.add.reduce(rows, axis=0, out=got)
        assert got.tobytes() != expected.tobytes()


def real_multi_mask_generator(n_qubits):
    """Three mutually commuting odd-Y strings on three X masks."""
    pad = "I" * (n_qubits - 4)
    return PauliSum.from_text_terms([("YZII" + pad, 0.5j), ("IIYX" + pad, -0.2j),
                                     ("YZYX" + pad, 0.1j)])


def exponential_generators(rng, n_qubits):
    """Generators of the QE pool (H4's at 8 and 9 qubits, H6's at 12) and of
    the nearest-neighbour pool, a generator with the identity and a Z-only
    term, one on four X masks, one of them the Z-only mask, and a real one
    on three X masks."""
    pool = build_qe_pool(n_qubits, 4 if n_qubits < 12 else 6)
    doubles = [op for op in pool.operators if op.n_terms == 8]
    singles = [op for op in pool.operators if op.n_terms == 2]
    strings = build_nearest_neighbor_pool(n_qubits).operators
    pad = "I" * (n_qubits - 4)
    return [
        *(doubles[int(k)] for k in rng.choice(len(doubles), 3, replace=False)),
        *(singles[int(k)] for k in rng.choice(len(singles), 2, replace=False)),
        *(strings[int(k)] for k in rng.choice(len(strings), 4, replace=False)),
        PauliSum.from_text_terms([("I" * n_qubits, 0.5j), ("ZZIZ" + pad, 0.7j),
                                  ("XXII" + pad, -0.4j), ("YYII" + pad, 0.3j)]),
        PauliSum.from_text_terms([("YZII" + pad, 0.5j), ("IIYX" + pad, -0.2j),
                                  ("YZYX" + pad, 0.1j), ("IZII" + pad, 0.6j)]),
        real_multi_mask_generator(n_qubits),
    ]


class TestExponentialBytes:
    """``exponential`` rotates in place on its own arrays: byte for byte the
    per-term expression it replaced (``reference_gathered_exponential``), on
    1-D states and stacks, complex and float64, and it never writes its
    input, which is read-only here."""

    @pytest.mark.parametrize("n_qubits", [8, 9, 12])
    def test_matches_the_per_term_expression(self, n_qubits):
        rng = np.random.default_rng(n_qubits)
        generators = exponential_generators(rng, n_qubits)
        assert any(not g.compiled().real for g in generators)
        states = [random_amplitudes(rng, n_qubits), basis_amplitudes(n_qubits, 0b1111),
                  *signed_zero_states(rng, n_qubits)]
        states += [amps.real.copy() for amps in states]
        states += [np.stack(states[:3]), np.stack(states[-3:])]
        for amps in states:
            amps.setflags(write=False)
        for generator in generators:
            compiled = generator.compiled()
            for amps in states:
                if amps.dtype == np.float64 and not compiled.real:
                    continue
                for theta in (0.3, -2.31):
                    got = compiled.exponential(amps, theta)
                    assert got.dtype == amps.dtype and got.shape == amps.shape
                    assert got.tobytes() == reference_gathered_exponential(
                        amps, n_qubits, generator, theta).tobytes()


class TestTermTable:
    """A 1-D state of at most ``_TABLE_AMPLITUDE_CAP`` amplitudes is applied
    through the term table, byte for byte the per-term reference (the
    generated sums of ``TestCompiledIsBitExact`` cover 1-5 qubits)."""

    @pytest.mark.parametrize("case", ["h4", "tfim8", "one_term_per_mask", "many_terms_per_mask"])
    def test_one_gather_row_per_x_mask(self, case, request):
        """The table holds one gather row per X mask, in canonical order,
        and each term's row of them; ``apply`` through it is byte for byte
        the per-term reference, on complex and float64 states, signed zeros
        included."""
        rng = np.random.default_rng(len(case))
        if case == "h4":
            operator = request.getfixturevalue("h4_equilibrium_fixture").operator
        elif case == "tfim8":
            operator = builtin_model("tfim", 8, with_exact=False).operator
        elif case == "one_term_per_mask":
            x_masks = rng.choice(256, size=40, replace=False).tolist()
            operator = PauliSum(8, [
                (PauliString(8, x, int(z)), 1j * coeff if (x & int(z)).bit_count() % 2 else coeff)
                for x, z, coeff in zip(x_masks, rng.integers(0, 256, size=40), rng.normal(size=40))])
        else:
            operator = masked_sum(rng, 8)
        compiled = operator.compiled()
        x_masks = [x for x, _ in groupby(string.x_mask for string, _ in compiled.terms)]
        if case == "one_term_per_mask":
            assert len(x_masks) == len(compiled.terms)
        else:
            assert len(x_masks) < len(compiled.terms)
        states = [random_amplitudes(rng, 8), basis_amplitudes(8, 37),
                  *signed_zero_states(rng, 8)]
        if compiled.real:
            states += [amps.real.copy() for amps in states]
        for amps in states:
            expected = reference_apply_sum(amps.astype(complex), 8, operator)
            if amps.dtype == np.float64:
                expected = expected.real
            assert compiled.apply(amps).tobytes() == expected.tobytes()
        tables = [compiled._table] + ([compiled._real_table] if compiled.real else [])
        for table, flips, masks in tables:
            assert table.shape == (len(compiled.terms), 256)
            assert flips.shape == (len(x_masks), 256) and flips.dtype == np.intp
            for row, x in zip(flips, x_masks):
                assert np.array_equal(row, np.arange(256) ^ x)
            assert masks.tolist() == [x_masks.index(s.x_mask) for s, _ in compiled.terms]

    @pytest.mark.parametrize("n_qubits", [8, 9])
    def test_either_side_of_the_size_key(self, n_qubits):
        rng = np.random.default_rng(n_qubits)
        operator = random_sum(rng, n_qubits, n_terms=40, n_masks=5)
        compiled = operator.compiled()
        for amps in (random_amplitudes(rng, n_qubits), basis_amplitudes(n_qubits, 37)):
            expected = reference_apply_sum(amps, n_qubits, operator)
            assert compiled.apply(amps).tobytes() == expected.tobytes()
        # the key is pinned at 8 qubits: larger states keep the per-term route
        assert ("_table" in vars(compiled)) == (n_qubits == 8)

    @pytest.mark.parametrize("n_qubits", [8, 9])
    def test_rotations_either_side_of_the_size_key(self, monkeypatch, n_qubits):
        """Up to the key a sum holds ``np.intp`` flips and complex signs,
        above it int32 flips and int8 signs that numpy casts on every call.
        QE generators match the per-term reference either way, as a 1-D
        exponential and as a stacked exponential and apply, and each stacked
        row is the 1-D result byte for byte.  At 8 qubits the key is also
        moved to 0, so the cast route runs, and its bytes are the precast
        route's.  (Against the reference only the values are compared: on a
        basis state the two routes can differ in the sign of a zero.)"""
        pool = build_qe_pool(n_qubits, 4)
        rng = np.random.default_rng(n_qubits)
        doubles = [op for op in pool.operators if op.n_terms == 8]
        singles = [op for op in pool.operators if op.n_terms == 2]
        generators = [doubles[0], singles[0]] + [
            pool.operators[int(i)] for i in rng.choice(len(pool), 4, replace=False)]
        thetas = rng.normal(size=len(generators)).tolist()
        states = [random_amplitudes(rng, n_qubits), basis_amplitudes(n_qubits, 0b1111),
                  basis_amplitudes(n_qubits, 37)]
        stack = np.stack([states[0], states[1], random_amplitudes(rng, n_qubits)])

        def outputs(precast):
            out = []
            for generator, theta in zip(generators, thetas):
                # a fresh compiled form, built under the current key
                compiled = PauliSum(n_qubits, generator.items()).compiled()
                flips = {flip.dtype for flip, *_ in compiled._groups if flip is not None}
                signs = {signs.dtype for _, terms, *_ in compiled._groups
                         for signs, *_ in terms if signs is not None}
                assert flips == {np.dtype(np.intp if precast else np.int32)}
                assert signs == {np.dtype(complex if precast else np.int8)}
                for amps in states:
                    got = compiled.exponential(amps, theta)
                    assert np.array_equal(
                        got, reference_exponential(amps, n_qubits, generator, theta))
                    out.append(got.tobytes())
                for rotated, applied, row in zip(compiled.exponential(stack, theta),
                                                 compiled.apply(stack), stack):
                    assert rotated.tobytes() == compiled.exponential(row, theta).tobytes()
                    assert np.array_equal(
                        applied, reference_apply_sum(row, n_qubits, generator))
                    out += [rotated.tobytes(), applied.tobytes()]
            return out

        key_route = outputs(precast=n_qubits == 8)
        if n_qubits == 8:
            with monkeypatch.context() as patch:
                patch.setattr(compiled_module, "_TABLE_AMPLITUDE_CAP", 0)
                assert outputs(precast=False) == key_route

    def test_stack_stays_term_by_term(self, h4_equilibrium_fixture):
        compiled = PauliSum(8, h4_equilibrium_fixture.operator.items()).compiled()
        rng = np.random.default_rng(3)
        stack = np.stack([random_amplitudes(rng, 8) for _ in range(3)])
        compiled.apply(stack)
        assert "_table" not in vars(compiled)
        assert_rows_bit_exact(compiled, stack)

    @pytest.mark.parametrize("n_qubits", [4, 8])
    def test_batch_rows_match_apply(self, n_qubits):
        """``GeneratorBatch.apply_each`` against one ``apply`` per row, byte
        for byte, over 1-, 2-, 3- and 8-term generators in mixed order (so
        most are padded), one of them on three X masks, and over one-string
        generators alone (one gather row per term, in order, so the batch
        takes no row gather); on states with exact zeros, where a ``-0``
        surviving the padding or the sum would show, complex and, for the
        real generators, float64."""
        rng = np.random.default_rng(n_qubits)
        pool = build_qe_pool(n_qubits, 2)
        strings = build_nearest_neighbor_pool(n_qubits).operators
        doubles = [op for op in pool.operators if op.n_terms == 8]
        singles = [op for op in pool.operators if op.n_terms == 2]
        mixed = [doubles[0], strings[0], singles[0], real_multi_mask_generator(n_qubits),
                 doubles[-1], strings[-1], singles[-1], doubles[0], strings[1]]
        one_string = [strings[int(k)] for k in rng.integers(0, len(strings), size=8)]
        for generators in (mixed, one_string):
            state_sets = [
                [random_amplitudes(rng, n_qubits) for _ in generators],
                [basis_amplitudes(n_qubits, k % (1 << n_qubits)) for k in range(len(generators))],
                [random_amplitudes(rng, n_qubits) * (rng.random(1 << n_qubits) < 0.5)
                 for _ in generators],
                [signed_zero_states(rng, n_qubits)[k % 3] for k in range(len(generators))],
            ]
            real = [gen for gen in generators if gen.compiled().real]
            assert len(real) > 1
            for batch_generators in (generators, real):
                batch = batch_of(batch_generators)
                assert batch.tabled
                for states in state_sets:
                    if batch_generators is real:
                        states = [amps.real.copy() for amps in states[:len(real)]]
                    got = batch.apply_each(states)
                    assert got.shape == (len(batch_generators), 1 << n_qubits)
                    for row, generator, amps in zip(got, batch_generators, states):
                        assert row.tobytes() == generator.compiled().apply(amps).tobytes()
                        expected = reference_apply_sum(amps.astype(complex), n_qubits, generator)
                        assert row.tobytes() == (expected.real if batch_generators is real
                                                 else expected).tobytes()
                _, _, rows = batch._real_table if batch_generators is real else batch._table
                assert (rows is None) == (generators is one_string)

    def test_batch_stays_out_above_the_size_key(self):
        pool = build_nearest_neighbor_pool(9)
        assert not GeneratorBatch([op.compiled() for op in pool.operators[:3]]).tabled
        assert not GeneratorBatch([]).tabled

    @pytest.mark.parametrize("shape", [(1, 2), (200, 2), (16, 4), (185, 256), (60, 1024)])
    def test_numpy_sums_axis_zero_row_by_row(self, shape):
        """The table route relies on numpy adding the rows of a C-contiguous
        array in order along axis 0; a numpy whose order differs fails here."""
        rng = np.random.default_rng(shape[0])
        scale = 10.0 ** rng.integers(-8, 8, size=shape)
        rows = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * scale
        rows[:, 0] = -0.0  # all-negative-zero column: the sum starts at +0
        expected = np.zeros(shape[1], dtype=complex)
        for row in rows:
            expected += row
        assert rows.sum(axis=0, initial=0).tobytes() == expected.tobytes()


def real_problem(case, request):
    """``(hamiltonian, ansatz)`` with real scalars throughout: H2 and H4 at
    1.0 and 2.0 A with their QE pools, TFIM-8 with the odd-Y strings of its
    nn pool (an even-Y string has zero gradient at a real state, so the
    growth loop never picks one), and Heisenberg-10 with a QE pool, above
    the term-table key, so on the int8 per-term route."""
    if case == "heisenberg10":
        hfile, pool = builtin_model("heisenberg", 10, with_exact=False), build_qe_pool(10, 5)
        reference = "1111100000"
    else:
        if case == "h4_stretched":
            hfile = request.getfixturevalue("h4_stretched_fixture")
            pool = build_qe_pool(hfile.n_qubits, hfile.n_electrons)
        else:
            hfile, pool = fixture_case(case, request)
        reference = hfile.reference_bitstring
    operators = [op for op in pool.operators if op.compiled().real]
    rng = np.random.default_rng(len(case))
    picks = rng.integers(0, len(operators), size=7)
    return hfile.operator, AnsatzState(reference, tuple(
        (operators[int(i)], float(t)) for i, t in zip(picks, rng.normal(size=7) * 0.5)))


def assert_sweep_matches_oracle(ansatz, hamiltonian, dtype):
    """Energy, gradient, a partial gradient, the last element's derivative
    and stacked rows, byte for byte the plain route's, from states of
    ``dtype``."""
    energy, handle = energy_then_gradient(ansatz, hamiltonian)
    assert handle.psi.dtype == dtype and handle.h_psi.dtype == complex
    _, reference_energy, reference_grad = reference_energy_and_gradient(
        ansatz.reference, ansatz.elements, hamiltonian)
    assert float(energy).hex() == float(reference_energy).hex()
    assert handle().tobytes() == reference_grad.tobytes()
    assert (float(handle.derivative(ansatz.generators[-1])).hex()
            == float(reference_grad[-1]).hex())
    n = ansatz.n_parameters
    wanted = list(range(n))[1::2]
    assert (gradient_components(ansatz, hamiltonian, wanted).tobytes()
            == reference_grad[wanted].tobytes())
    x = ansatz.parameters
    points = np.stack([x, np.roll(x, 1), 0.5 * x])
    stacked = gradient_components(ansatz, hamiltonian, range(n), points=points)
    for point, row in zip(points, stacked):
        elements = tuple(zip(ansatz.generators, point.tolist()))
        _, _, expected = reference_energy_and_gradient(ansatz.reference, elements, hamiltonian)
        assert row.tobytes() == expected.tobytes()


@st.composite
def real_problems(draw):
    """A Hamiltonian of even-Y strings with real coefficients and 1-3
    generators of mutually commuting odd-Y strings with imaginary ones."""
    n_qubits = draw(st.integers(1, 5))
    full = (1 << n_qubits) - 1

    def strings(y_parity, count):
        drawn = [PauliString(n_qubits, draw(st.integers(0, full)), draw(st.integers(0, full)))
                 for _ in range(count)]
        return [s for s in drawn if (s.x_mask & s.z_mask).bit_count() % 2 == y_parity]

    hamiltonian = PauliSum(n_qubits, [(PauliString(n_qubits, 0, 0), draw(_COEFFS))] + [
        (s, draw(_COEFFS)) for s in strings(0, draw(st.integers(1, 12)))])
    generators = []
    for _ in range(draw(st.integers(1, 3))):
        kept = [PauliString.single("Y", draw(st.integers(0, n_qubits - 1)), n_qubits)]
        for string in strings(1, draw(st.integers(0, 7))):
            if all(dense_strings_commute(string.text(), k.text()) for k in kept):
                kept.append(string)
        generators.append(PauliSum(n_qubits, [(s, 1j * draw(_COEFFS)) for s in kept]))
    return hamiltonian, generators


class TestRealRoute:
    """A real Hamiltonian with real generators is swept in float64, byte for
    byte the complex plain route, since every overlap is still a complex
    ``np.vdot``; any other problem keeps complex states."""

    @pytest.mark.parametrize("case", ["h2", "h4", "h4_stretched", "tfim8", "heisenberg10"])
    def test_real_problems_run_in_float64(self, case, request):
        hamiltonian, ansatz = real_problem(case, request)
        assert hamiltonian.compiled().real and ansatz._batch.real
        assert_sweep_matches_oracle(ansatz, hamiltonian, np.float64)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_generated_real_problems(self, data):
        """The sweep on generated real problems, and each operator's float64
        ``apply`` (byte for byte) and ``exponential`` (up to the sign of a
        zero) against the real part of its complex route, for 1-D states
        and stacks."""
        hamiltonian, generators = data.draw(real_problems())
        n_qubits = hamiltonian.n_qubits
        thetas = [data.draw(st.floats(-1.5, 1.5)) for _ in generators]
        reference = "".join(data.draw(st.sampled_from("01")) for _ in range(n_qubits))
        ansatz = AnsatzState(reference, tuple(zip(generators, thetas)))
        assert_sweep_matches_oracle(ansatz, hamiltonian, np.float64)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        stack = rng.normal(size=(3, 1 << n_qubits))
        for amps in (stack[0], stack):
            for operator in (hamiltonian, *generators):
                compiled = operator.compiled()
                assert (compiled.apply(amps).tobytes()
                        == compiled.apply(amps.astype(complex)).real.tobytes())
            for generator, theta in zip(generators, thetas):
                compiled = generator.compiled()
                assert np.array_equal(compiled.exponential(amps, theta),
                                      compiled.exponential(amps.astype(complex), theta).real)

    @pytest.mark.parametrize("route", ["odd_y_hamiltonian", "even_y_generator"])
    def test_other_problems_keep_complex_states(self, route, h2_fixture):
        hamiltonian = h2_fixture.operator
        pool = build_qe_pool(4, 2)
        elements = [(pool.operators[k], 0.3 + 0.2 * k) for k in range(3)]
        if route == "odd_y_hamiltonian":
            hamiltonian = PauliSum(4, list(hamiltonian.items())
                                   + [(PauliString.from_text("YXII"), 0.25)])
            assert not hamiltonian.compiled().real
        else:
            generator = PauliSum.from_text_terms([("XIII", 1j)])  # i X0: no Y
            assert not generator.compiled().real
            elements.append((generator, -0.4))
        ansatz = AnsatzState(h2_fixture.reference_bitstring, tuple(elements))
        assert_sweep_matches_oracle(ansatz, hamiltonian, complex)

    def test_float_state_needs_a_real_sum(self):
        generator = PauliSum.from_text_terms([("XX", 1j)])  # no Y: not real
        amps = np.array([1.0, 0.0, 0.0, 0.0])
        for call in (lambda c: c.apply(amps), lambda c: c.exponential(amps, 0.3)):
            with pytest.raises(ValueError, match="real scalars"):
                call(generator.compiled())

    def test_derivative_of_a_complex_generator_from_a_real_state(self, request):
        hamiltonian, ansatz = real_problem("h2", request)
        _, handle = energy_then_gradient(ansatz, hamiltonian)
        generator = PauliSum.from_text_terms([("IXII", 1j)])
        psi, _, _ = reference_energy_and_gradient(
            ansatz.reference, ansatz.elements, hamiltonian)
        h_psi = reference_apply_sum(psi, 4, hamiltonian)
        expected = 2.0 * np.vdot(h_psi, reference_apply_sum(psi, 4, generator)).real
        assert float(handle.derivative(generator)).hex() == float(expected).hex()

    @pytest.mark.parametrize("case", ["h4", "tfim8"])
    def test_pool_sweep_converts_real_inputs(self, case, request):
        """A float64 ``psi`` and ``H|psi>`` give the complex sweep's bits (on
        random real vectors a float sweep differs in most components), and a
        real sweep's handle the sweep of the complex route's state."""
        hfile, pool = fixture_case(case, request)
        rng = np.random.default_rng(7)
        psi, h_psi = rng.normal(size=256), rng.normal(size=256)
        expected = batch_of(pool.operators).gradients(psi.astype(complex), h_psi.astype(complex))
        assert batch_of(pool.operators).gradients(psi, h_psi).tobytes() == expected.tobytes()
        ansatz = random_ansatz(rng, hfile, pool, 5)
        _, handle = energy_then_gradient(ansatz, hfile.operator)
        amps = prepare(ansatz).amplitudes
        expected = batch_of(pool.operators).gradients(amps, hfile.operator.compiled().apply(amps))
        assert pool_gradients(handle, pool).tobytes() == expected.tobytes()


def odd_y_problem(h2_fixture):
    """H2 plus ``0.25 YXII`` (not real), three QE elements and the phase
    ``i X0`` (no Y), which gives ``psi`` a non-zero imaginary part."""
    pool = build_qe_pool(4, 2)
    hamiltonian = PauliSum(4, list(h2_fixture.operator.items())
                           + [(PauliString.from_text("YXII"), 0.25)])
    elements = [(pool.operators[k], 0.3 + 0.2 * k) for k in range(3)]
    elements.insert(1, (PauliSum.from_text_terms([("XIII", 1j)]), 0.4))
    return hamiltonian, AnsatzState(h2_fixture.reference_bitstring, tuple(elements)), pool


def twelve_qubit_problem(complex_state):
    """Heisenberg-12 with six operators of its QE pool at random angles: a
    float64 state, or, with the phase ``i Z0`` (no Y) in the middle, a
    complex one whose real part alone gives other pool gradients."""
    hamiltonian = builtin_model("heisenberg", 12, with_exact=False).operator
    pool = build_qe_pool(12, 6)
    rng = np.random.default_rng(12)
    elements = [(pool.operators[int(k)], float(t))
                for k, t in zip(rng.integers(0, len(pool), size=6), rng.normal(size=6) * 0.5)]
    if complex_state:
        elements.insert(3, (PauliSum.from_text_terms([("Z" + "I" * 11, 1j)]), 0.7))
    return hamiltonian, AnsatzState("111111000000", tuple(elements)), pool


def sweep_problem(case, request):
    """``(hamiltonian, ansatz, pool)`` of a pool-sweep case."""
    if case == "odd_y_h2":
        return odd_y_problem(request.getfixturevalue("h2_fixture"))
    if case.startswith("qe12"):
        return twelve_qubit_problem(case == "qe12_complex")
    hamiltonian, ansatz = real_problem(case, request)
    n_qubits = hamiltonian.n_qubits
    pool = (build_nearest_neighbor_pool(8) if case == "tfim8"
            else build_qe_pool(n_qubits, n_qubits // 2))
    return hamiltonian, ansatz, pool


class TestDiagonalSweep:
    """The pool sweep reads each generator's folded diagonal only on the
    support patterns where it is non-zero, from a table its pool builds once
    (see "Pool sweeps" in :mod:`adaptvqe.compiled`)."""

    @pytest.mark.parametrize("case", ["h2", "h4", "h4_stretched", "tfim8", "odd_y_h2",
                                      "qe12", "qe12_complex"])
    def test_matches_reference_and_picks_the_same_operator(self, case, request):
        hamiltonian, ansatz, pool = sweep_problem(case, request)
        _, carried = energy_then_gradient(ansatz, hamiltonian)
        real = case not in ("odd_y_h2", "qe12_complex")
        assert carried.psi.dtype == (np.float64 if real else complex)
        assert real or carried.psi.imag.any()
        grads = pool_gradients(carried, pool)
        _, (owners, _, _, _) = pool.batch._sweep_table
        assert np.unique(owners).tolist() == list(range(len(pool)))
        expected = reference_pool_gradients(
            prepare(ansatz).amplitudes, ansatz.n_qubits, hamiltonian, pool.operators)
        np.testing.assert_allclose(grads, expected, rtol=0, atol=1e-12)
        assert select_operator(grads)[0] == select_operator(expected)[0]

    def test_nearest_neighbour_strings_off_their_z_support(self):
        """X-only, Z-only and XZ strings: the X mask need not lie in the Z
        support, nor the Z support in the X mask."""
        pool = build_nearest_neighbor_pool(8)
        masks = [(s.x_mask, s.z_mask) for op in pool.operators for s, _ in op]
        assert any(x and not z for x, z in masks) and any(z and not x for x, z in masks)
        assert any(x & ~z and z & ~x for x, z in masks)
        rng = np.random.default_rng(8)
        hamiltonian = builtin_model("tfim", 8, with_exact=False).operator
        psi = random_amplitudes(rng, 8)
        np.testing.assert_allclose(
            pool.batch.gradients(psi, hamiltonian.compiled().apply(psi)),
            reference_pool_gradients(psi, 8, hamiltonian, pool.operators), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("case", ["h4", "tfim8", "qe12", "qe12_complex"])
    def test_value_does_not_depend_on_the_list(self, case, request):
        """A generator's bytes are the same in the whole pool, in a shuffled
        subset of it and in a carried sweep of the pool."""
        if case.startswith("qe12"):
            hamiltonian, ansatz, pool = twelve_qubit_problem(case == "qe12_complex")
            rng = np.random.default_rng(3)
        else:
            hfile, pool = fixture_case(case, request)
            hamiltonian, rng = hfile.operator, np.random.default_rng(3)
            ansatz = random_ansatz(rng, hfile, pool, 4)
        _, carried = energy_then_gradient(ansatz, hamiltonian)
        whole = batch_of(pool.operators).gradients(carried.psi, carried.h_psi)
        assert pool_gradients(carried, pool).tobytes() == whole.tobytes()
        for size in (1, 7, len(pool) // 2):
            subset = rng.permutation(len(pool))[:size]
            part = batch_of([pool.operators[k] for k in subset]).gradients(
                carried.psi, carried.h_psi)
            assert part.tobytes() == whole[subset].tobytes()

    @pytest.mark.parametrize("case", ["h4", "tfim8", "qe12", "qe12_complex"])
    def test_rows_are_numpy_sums(self, case, request):
        """Byte for byte, each generator's value is its entries times its
        rows, each row summed alone by numpy (not by BLAS) in index order,
        added up from 0: the arithmetic the sweep does in blocks."""
        if case.startswith("qe12"):
            hamiltonian, ansatz, pool = twelve_qubit_problem(case == "qe12_complex")
        else:
            hfile, pool = fixture_case(case, request)
            hamiltonian, ansatz = hfile.operator, random_ansatz(
                np.random.default_rng(5), hfile, pool, 4)
        _, carried = energy_then_gradient(ansatz, hamiltonian)
        psi, h_psi = carried.psi, carried.h_psi
        if psi.dtype == np.float64:
            h_psi = h_psi.real.copy()
        index = np.arange(psi.size)
        grads = pool_gradients(carried, pool)
        for k, generator in enumerate(pool.operators):
            (_, xs, supports), (group, patterns, t_real, t_imag) = compiled_module._sign_tables(
                [generator.compiled()])
            total = 0.0
            for g, c, t_re, t_im in zip(group, patterns.tolist(), t_real, t_imag):
                x, support = int(xs[g]), int(supports[g])
                b = index[index & support == c]
                row = np.sum(psi[b] * np.conj(h_psi[b ^ x]))
                total += t_re * row.real - t_im * row.imag
            assert float(grads[k]).hex() == float(2.0 * total).hex(), k

    def test_table_is_built_once_and_dies_with_the_pool(self, h4_equilibrium_fixture):
        pool = build_qe_pool(8, 4)
        _, carried = energy_then_gradient(AnsatzState(h4_equilibrium_fixture.reference_bitstring),
                                          h4_equilibrium_fixture.operator)
        first = pool_gradients(carried, pool)
        table = pool.batch._sweep_table
        assert pool_gradients(carried, pool).tobytes() == first.tobytes()
        assert pool.batch._sweep_table is table
        blocks, (owners, _, _, _) = table
        # a QE single or double is non-zero on 2 of its support patterns
        assert owners.tolist() == sorted(list(range(len(pool))) * 2)
        assert sum(supports.size * outers.shape[1] for outers, supports, _, _ in blocks) < 256 * 16
        pool_ref, table_ref = weakref.ref(pool), weakref.ref(blocks[0][0])
        del pool, table, blocks, owners
        gc.collect()
        assert pool_ref() is None and table_ref() is None

    def test_shapes_are_checked(self):
        pool = build_qe_pool(4, 2)
        psi = random_amplitudes(np.random.default_rng(4), 8)
        with pytest.raises(ValueError, match=r"\(256,\).*\(256,\).*\(16,\)"):
            pool.batch.gradients(psi, psi)
        small = build_qe_pool(8, 4)
        with pytest.raises(ValueError, match=r"\(16,\).*\(256,\).*\(256,\)"):
            small.batch.gradients(psi[:16], psi)
        with pytest.raises(ValueError, match="shape"):
            small.batch.gradients(psi.reshape(16, 16), psi.reshape(16, 16))
        assert GeneratorBatch([]).gradients(psi, psi[:3]).shape == (0,)
