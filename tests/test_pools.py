import struct
from itertools import combinations

import numpy as np
import pytest

from adaptvqe.paulis import PauliSum
from adaptvqe.pools import (
    OperatorPool,
    build_nearest_neighbor_pool,
    build_qe_pool,
    build_qubit_pool,
    qe_double,
    qe_single,
)

from oracles import (
    commutator,
    particle_number_operator,
    reference_qe_double,
    reference_qe_single,
    sz_projection_operator,
)

# The double excitation on four spin-orbitals, printed as eight X/Y strings
# with coefficients +-i; letters listed for sites (p, q, r, s) = (0, 1, 2, 3).
QE_DOUBLE_PATTERN = {
    "XXYX": -1j, "XXXY": -1j, "XYXX": +1j, "YXYY": -1j,
    "YXXX": +1j, "XYYY": -1j, "YYYX": +1j, "YYXY": +1j,
}


def spin(index):
    return index % 2


def excitations(n_qubits, include_singles=True):
    """Independent combinatorial oracle for the spin-preserving excitations,
    in pool order: ``(p, q)`` for a single, ``(source, target)`` for a double."""
    if include_singles:
        yield from ((p, q) for p, q in combinations(range(n_qubits), 2)
                    if spin(p) == spin(q))
    for i, j, k, l in combinations(range(n_qubits), 4):
        for pair_a, pair_b in (((i, j), (k, l)), ((i, k), (j, l)), ((i, l), (j, k))):
            if spin(pair_a[0]) + spin(pair_a[1]) == spin(pair_b[0]) + spin(pair_b[1]):
                yield pair_a, pair_b


def enumerate_excitations(n_qubits, include_singles=True):
    return sum(1 for _ in excitations(n_qubits, include_singles))


def reference_qe_pool(n_qubits, include_singles=True):
    """Labels and ladder-product operators of the QE pool, in pool order."""
    labels, operators = [], []
    for a, b in excitations(n_qubits, include_singles):
        if isinstance(a, int):
            labels.append(f"single ({a})->({b})")
            operators.append(reference_qe_single(a, b, n_qubits))
        else:
            labels.append(f"double {a}->{b}")
            operators.append(reference_qe_double(a, b, n_qubits))
    return OperatorPool("QE", n_qubits, tuple(operators), tuple(labels))


def enumerate_qubit_pool_strings(qe_pool):
    return len({string for op in qe_pool.operators for string, _ in op})


class TestQeDouble:
    def test_eight_term_sign_pattern(self):
        tau = qe_double((0, 1), (2, 3), 4)
        terms = {string.text(): coeff for string, coeff in tau}
        assert terms == QE_DOUBLE_PATTERN

    def test_distinct_indices_required(self):
        with pytest.raises(ValueError, match="distinct"):
            qe_double((0, 1), (1, 2), 4)


class TestQeSingle:
    def test_two_string_form(self):
        op = qe_single(0, 2, 4)
        assert op == PauliSum.from_text_terms([("XIYI", 0.5j), ("YIXI", -0.5j)])


class TestQePool:
    def test_invalid_electron_count(self):
        for bad in (0, 4, 7):
            with pytest.raises(ValueError, match="electron count"):
                build_qe_pool(4, bad)

    @pytest.mark.parametrize("n_qubits,n_electrons", [(4, 2), (6, 2), (8, 4)])
    def test_size_matches_combinatorial_oracle(self, n_qubits, n_electrons):
        pool = build_qe_pool(n_qubits, n_electrons)
        assert len(pool) == enumerate_excitations(n_qubits)
        no_singles = build_qe_pool(n_qubits, n_electrons, include_singles=False)
        assert len(no_singles) == enumerate_excitations(n_qubits, include_singles=False)

    @pytest.mark.parametrize("include_singles", [True, False])
    @pytest.mark.parametrize("n_qubits,n_electrons", [(4, 2), (6, 2), (8, 4), (12, 6)])
    def test_matches_ladder_product_bit_for_bit(self, n_qubits, n_electrons,
                                                include_singles):
        pool = build_qe_pool(n_qubits, n_electrons, include_singles)
        reference = reference_qe_pool(n_qubits, include_singles)
        assert pool.labels == reference.labels
        for op, ref in zip(pool.operators, reference.operators, strict=True):
            assert ([(s.x_mask, s.z_mask) for s, _ in op]
                    == [(s.x_mask, s.z_mask) for s, _ in ref])
            assert ([struct.pack("dd", c.real, c.imag) for _, c in op]
                    == [struct.pack("dd", c.real, c.imag) for _, c in ref])
        assert pool.to_payload() == reference.to_payload()

    def test_golden_sizes(self):
        # frozen from the enumeration oracle at first implementation
        assert len(build_qe_pool(4, 2)) == 4
        assert len(build_qe_pool(8, 4)) == 90

    @pytest.mark.parametrize("n_qubits", [4, 6])
    def test_symmetry_conservation(self, n_qubits):
        pool = build_qe_pool(n_qubits, 2)
        number = particle_number_operator(n_qubits)
        sz = sz_projection_operator(n_qubits)
        for op in pool.operators:
            assert commutator(number, op).is_zero
            assert commutator(sz, op).is_zero

    def test_all_anti_hermitian_nonzero_unique(self):
        pool = build_qe_pool(6, 2)
        seen = set()
        for op in pool.operators:
            assert op.is_anti_hermitian() and not op.is_zero
            assert op not in seen
            seen.add(op)

    def test_enumeration_order_deterministic(self):
        labels = build_qe_pool(4, 2).labels
        assert labels == ("single (0)->(2)", "single (1)->(3)",
                          "double (0, 1)->(2, 3)", "double (0, 3)->(1, 2)")


class TestQubitPool:
    def test_requires_qe_pool(self):
        nn = build_nearest_neighbor_pool(4)
        with pytest.raises(ValueError, match="expected a QE pool"):
            build_qubit_pool(nn)

    def test_single_double_expands_to_eight_strings(self):
        pool = build_qe_pool(4, 2, include_singles=False)
        only_one = type(pool)(pool.kind, pool.n_qubits,
                              pool.operators[:1], pool.labels[:1])
        qubit = build_qubit_pool(only_one)
        assert len(qubit) == 8
        for op in qubit.operators:
            assert op.n_terms == 1
            assert list(op)[0][1] == 1j

    def test_deduplicates_shared_strings(self):
        pool = build_qe_pool(4, 2)
        qubit = build_qubit_pool(pool)
        # the two doubles on (0,1,2,3) share all eight strings
        assert len(qubit) == enumerate_qubit_pool_strings(pool)
        assert len(qubit) == 12

    def test_golden_size_h4_scale(self):
        pool = build_qe_pool(8, 4)
        assert len(build_qubit_pool(pool)) == enumerate_qubit_pool_strings(pool)

    def test_some_elements_break_particle_number(self):
        qubit = build_qubit_pool(build_qe_pool(4, 2))
        number = particle_number_operator(4)
        assert any(not commutator(number, op).is_zero for op in qubit.operators)


class TestNearestNeighborPool:
    def test_size_and_weights(self):
        n = 5
        pool = build_nearest_neighbor_pool(n)
        assert len(pool) == 3 * n + 9 * (n - 1)
        for op in pool.operators:
            (string, coeff), = op.items()
            assert coeff == 1j
            assert len(string.support) in (1, 2)

    def test_minimum_size(self):
        with pytest.raises(ValueError, match="at least 2"):
            build_nearest_neighbor_pool(1)


def assert_generators(pool):
    """Every operator meets the engine's generator contract: an anti-Hermitian
    sum of mutually commuting Pauli strings."""
    for label, op in zip(pool.labels, pool.operators):
        compiled = op.compiled()
        assert compiled.anti_hermitian and compiled.commuting, label


class TestGeneratorContract:
    @pytest.mark.parametrize("n_qubits", [4, 8, 12])
    @pytest.mark.parametrize("include_singles", [True, False])
    def test_qe_pool(self, n_qubits, include_singles):
        assert_generators(build_qe_pool(n_qubits, n_qubits // 2, include_singles))

    @pytest.mark.parametrize("n_qubits", [4, 8])
    def test_qubit_pool(self, n_qubits):
        assert_generators(build_qubit_pool(build_qe_pool(n_qubits, n_qubits // 2)))

    @pytest.mark.parametrize("n_qubits", range(2, 9))
    def test_nearest_neighbor_pool(self, n_qubits):
        assert_generators(build_nearest_neighbor_pool(n_qubits))


class TestPoolChecksGenerators:
    def test_non_commuting_operator_rejected_at_construction(self):
        # anti-Hermitian, but YI and XI anticommute: AnsatzState would reject
        # it, so the pool does too, before it could be selected mid-run
        op = PauliSum.from_text_terms([("YI", 1j), ("IZ", 0.5j), ("XI", 0.1j)])
        assert op.is_anti_hermitian() and not op.terms_mutually_commute()
        with pytest.raises(ValueError, match="pool operator 'bad' is not an anti-Hermitian sum of mutually commuting"):
            OperatorPool("Qubit", 2, (op,), ("bad",))

    def test_hermitian_operator_rejected(self):
        op = PauliSum.from_text_terms([("XY", 1.0)])
        with pytest.raises(ValueError, match="pool operator 'h' is not an anti-Hermitian sum"):
            OperatorPool("Qubit", 2, (op,), ("h",))

    def test_checked_flags_are_kept_for_the_ansatz(self):
        pool = build_qe_pool(4, 2)
        for op in pool.operators:
            assert {"anti_hermitian", "commuting"} <= set(vars(op.compiled()))


class TestPoolExport:
    def test_payload_shape(self):
        pool = build_qe_pool(4, 2)
        payload = pool.to_payload()
        assert [entry["label"] for entry in payload] == list(pool.labels)
        first = payload[2]["terms"]
        assert len(first) == 8
        assert all(set(t) == {"pauli", "re", "im"} for t in first)
