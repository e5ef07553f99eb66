import gc
import weakref

import numpy as np
import pytest
from generate_fixtures import jordan_wigner_ladder, pauli_product

from adaptvqe.compiled import DEFAULT_PRUNE_TOL
from adaptvqe.paulis import PauliString, PauliSum

from oracles import (
    commutator,
    dense_basis_state,
    dense_operator,
    dense_pauli_sum,
    dense_string,
)

UNIT_PHASES = (1 + 0j, -1 + 0j, 1j, -1j)


def random_text(rng, n_qubits):
    return "".join(rng.choice(list("IXYZ")) for _ in range(n_qubits))


def random_string(rng, n_qubits):
    return PauliString.from_text(random_text(rng, n_qubits))


def product(a: str, b: str) -> tuple[complex, PauliString]:
    """``(phase, string)`` of the product of two strings, read from the
    one-term sum ``pauli_product`` gives."""
    ((string, phase),) = pauli_product(PauliSum.from_text_terms([(a, 1.0)]),
                                       PauliSum.from_text_terms([(b, 1.0)])).items()
    return phase, string


def random_pairs(seed, count):
    """Two-term sums on 1-4 qubits with coefficients mixing real and
    imaginary parts, so that every flag is seen both ways."""
    rng = np.random.default_rng(seed)
    coeffs = (1.0, -0.5, 1j, -2j, 0.3 + 0.7j)
    pairs = []
    for _ in range(count):
        n = int(rng.integers(1, 5))
        pairs.append([(random_text(rng, n), coeffs[rng.integers(len(coeffs))])
                      for _ in range(2)])
    return pairs


class TestPauliString:
    def test_text_round_trip(self):
        for text in ("XYIZ", "IIII", "ZZXY"):
            assert PauliString.from_text(text).text() == text

    def test_invalid_letter_rejected(self):
        with pytest.raises(ValueError, match="invalid Pauli letter"):
            PauliString.from_text("XQ")

    def test_support(self):
        assert PauliString.from_text("XIYZ").support == (0, 2, 3)


class TestMultiply:
    """The string product of the fixture generator's ``pauli_product``."""

    def test_involution(self):
        phase, string = product("X", "X")
        assert phase == 1 and string == PauliString(1, 0, 0)

    def test_xy_gives_iz(self):
        phase, string = product("X", "Y")
        assert phase == 1j and string.text() == "Z"

    def test_xz_zx_product(self):
        # per-site phases (-i)(i) cancel; the product is YY
        phase, string = product("XZ", "ZX")
        assert phase == 1 and string.text() == "YY"
        oracle = dense_string("XZ") @ dense_string("ZX")
        np.testing.assert_allclose(phase * dense_string("YY"), oracle, atol=1e-14)

    def test_random_products_match_dense_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            n = int(rng.integers(1, 5))
            a, b = random_text(rng, n), random_text(rng, n)
            phase, string = product(a, b)
            assert phase in UNIT_PHASES
            np.testing.assert_allclose(
                phase * dense_string(string.text()),
                dense_string(a) @ dense_string(b),
                atol=1e-14,
            )


class TestPauliSum:
    def test_combines_and_prunes(self):
        s = PauliSum.from_text_terms([("X", 0.5), ("X", -0.5), ("Z", 1.0)])
        assert s.n_terms == 1
        assert s.items() == ((PauliString.from_text("Z"), 1.0),)

    def test_one_fixed_tolerance(self):
        # it prunes terms and decides the Hermitian check
        tol = DEFAULT_PRUNE_TOL
        assert PauliSum.from_text_terms([("X", 1e-9), ("Z", 1.0)]).n_terms == 2
        assert PauliSum.from_text_terms([("X", tol), ("Z", 1.0)]).n_terms == 1
        assert PauliSum.from_text_terms([("X", 1 + 0.5j * tol)]).is_hermitian()
        assert not PauliSum.from_text_terms([("X", 1 + 2j * tol)]).is_hermitian()
        assert PauliSum.from_text_terms([("X", 1j + 0.5 * tol)]).is_anti_hermitian()

    def test_qubit_count_mismatch(self):
        with pytest.raises(ValueError, match="term on 1 qubits in a 2-qubit sum"):
            PauliSum(2, [(PauliString.from_text("XX"), 1.0), (PauliString.from_text("X"), 1.0)])

    @pytest.mark.parametrize("coeff", [np.nan, np.inf, -np.inf, complex(0.5, np.nan)])
    def test_non_finite_coefficient_rejected(self, coeff):
        with pytest.raises(ValueError, match="ZZ has non-finite coefficient"):
            PauliSum.from_text_terms([("ZZ", coeff), ("XX", 1.0)])

    def test_structural_equality_and_ordering(self):
        a = PauliSum.from_text_terms([("XI", 1.0), ("IZ", 2.0)])
        b = PauliSum.from_text_terms([("IZ", 2.0), ("XI", 1.0)])
        assert a == b
        assert [s.text() for s, _ in a] == [s.text() for s, _ in b]

    def test_compiled_form_freed_with_its_sum(self):
        # no reference cycle: the compiled arrays go with the sum, not at
        # the next full collection
        op = PauliSum.from_text_terms([("XZ", 0.5), ("ZZ", 1.0), ("YY", -0.3)])
        op.compiled().apply(np.ones(4, dtype=complex))
        op.compiled().apply(np.ones((2, 4), dtype=complex))
        compiled = weakref.ref(op.compiled())
        gc.disable()
        try:
            del op
            assert compiled() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("terms", [
        [("XX", 1.0), ("ZZ", -0.5)],  # Hermitian and commuting
        [("XY", 1j), ("YX", -1j)],  # anti-Hermitian and commuting
        [("XI", 0.5j), ("ZI", 1.0)],  # neither, and not commuting
        [("XI", 1.0), ("IX", 1.0)],
        [("XX", 1.0), ("YY", 1.0)],
        [("XY", 1.0), ("YX", 1.0)],
        [("XI", 1.0), ("YI", 1.0)],
        [("XZZXI", 1.0), ("IXZZX", 1.0)],
        # 20 qubits, with the strings' masks on bit 19
        [("Z" + "I" * 18 + "X", 1j), ("I" * 19 + "Y", 1j)],
        [("X" + "I" * 18 + "Y", 1.0), ("Z" + "I" * 18 + "X", -0.5)],
        *random_pairs(12, 30),
    ])
    def test_compiled_flags_match_the_sum_checks(self, terms):
        # the sum's checks read the compiled flags; both must agree with
        # the dense matrices on the sites some string acts on (a site where
        # every string is the identity changes none of the three properties)
        op = PauliSum.from_text_terms(terms)
        compiled = op.compiled()
        sites = [i for i in range(op.n_qubits) if any(text[i] != "I" for text, _ in terms)]
        reduced = [("".join(text[i] for i in sites) or "I", c) for text, c in terms]
        matrix = dense_operator(reduced)
        strings = [dense_string(text) for text, _ in reduced]
        commuting = all(np.array_equal(a @ b, b @ a) for a in strings for b in strings)
        assert compiled.hermitian == op.is_hermitian() == np.allclose(matrix, matrix.conj().T)
        assert (compiled.anti_hermitian == op.is_anti_hermitian()
                == np.allclose(matrix, -matrix.conj().T))
        assert compiled.commuting == op.terms_mutually_commute() == commuting

    def test_hermiticity_classification(self):
        assert PauliSum.from_text_terms([("X", 1.0), ("Z", -2.5)]).is_hermitian()
        assert not PauliSum.from_text_terms([("X", 1j)]).is_hermitian()
        assert PauliSum.from_text_terms([("X", 1j), ("Y", -0.5j)]).is_anti_hermitian()
        assert not PauliSum.from_text_terms([("X", 1.0)]).is_anti_hermitian()

    def test_matmul_matches_dense(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            a = PauliSum(n, [(random_string(rng, n), complex(*rng.normal(size=2)))
                             for _ in range(3)])
            b = PauliSum(n, [(random_string(rng, n), complex(*rng.normal(size=2)))
                             for _ in range(3)])
            if a.is_zero or b.is_zero:
                continue
            np.testing.assert_allclose(
                dense_pauli_sum(pauli_product(a, b)),
                dense_pauli_sum(a) @ dense_pauli_sum(b), atol=1e-12)

    def test_immutability(self):
        s = PauliSum.from_text_terms([("X", 1.0)])
        with pytest.raises(AttributeError):
            s.n_qubits = 3


class TestCommutator:
    def test_z_with_x(self):
        result = commutator(PauliSum.from_text_terms([("Z", 1.0)]),
                            PauliSum.from_text_terms([("X", 1.0)]))
        assert result == PauliSum.from_text_terms([("Y", 2j)])

    def test_disjoint_supports_commute(self):
        result = commutator(PauliSum.from_text_terms([("XI", 1.0)]),
                            PauliSum.from_text_terms([("IX", 1.0)]))
        assert result.is_zero

    def test_mixed_sum_matches_dense_oracle(self):
        a = PauliSum.from_text_terms([("Z", 1.0), ("X", 0.5)])
        b = PauliSum.from_text_terms([("Y", 1j)])
        da, db = dense_pauli_sum(a), dense_pauli_sum(b)
        np.testing.assert_allclose(
            dense_pauli_sum(commutator(a, b)), da @ db - db @ da, atol=1e-12)

    def test_hermitian_with_anti_hermitian_is_hermitian(self):
        # real-coefficient sum against imaginary-coefficient sum: all-real output
        rng = np.random.default_rng(15)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            a = PauliSum(n, [(random_string(rng, n), float(rng.normal()))
                             for _ in range(4)])
            b = PauliSum(n, [(random_string(rng, n), 1j * float(rng.normal()))
                             for _ in range(4)])
            assert commutator(a, b).is_hermitian()


class TestJordanWigner:
    """The fixture generator's ladder operators."""

    def test_creation_on_first_orbital(self):
        op = jordan_wigner_ladder(0, True, 2)
        assert op == PauliSum.from_text_terms([("XI", 0.5), ("YI", -0.5j)])

    def test_annihilation_with_z_string(self):
        op = jordan_wigner_ladder(1, False, 2)
        assert op == PauliSum.from_text_terms([("ZX", 0.5), ("ZY", 0.5j)])

    def test_creation_acts_as_raising_operator(self):
        op = jordan_wigner_ladder(0, True, 1)
        state = dense_pauli_sum(op) @ dense_basis_state("0")
        np.testing.assert_allclose(state, dense_basis_state("1"), atol=1e-14)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            jordan_wigner_ladder(3, True, 2)

    @pytest.mark.parametrize("n_qubits", [2, 3, 4])
    def test_canonical_anticommutation_dense(self, n_qubits):
        # {a_i, a_j^dag} = delta_ij I, brute force on dense matrices
        for i in range(n_qubits):
            for j in range(n_qubits):
                a_i = dense_pauli_sum(jordan_wigner_ladder(i, False, n_qubits))
                adag_j = dense_pauli_sum(jordan_wigner_ladder(j, True, n_qubits))
                anti = a_i @ adag_j + adag_j @ a_i
                expected = np.eye(2 ** n_qubits) if i == j else np.zeros_like(anti)
                np.testing.assert_allclose(anti, expected, atol=1e-14)

    @pytest.mark.parametrize("n_qubits", [3, 4])
    def test_nilpotency(self, n_qubits):
        for i in range(n_qubits):
            adag = dense_pauli_sum(jordan_wigner_ladder(i, True, n_qubits))
            np.testing.assert_allclose(adag @ adag, np.zeros_like(adag), atol=1e-14)
