"""Operator pools for adaptive ansatz growth.

Two families are provided:

* the qubit-excitation (QE) pool: spin-adapted single and double qubit
  excitations that preserve particle number and the Z spin projection, with
  spin-orbital index parity encoding spin (alpha = even, beta = odd);
* the qubit pool: one operator ``i * P`` per distinct Pauli string appearing
  in a QE pool.

A nearest-neighbour qubit pool over weight <= 2 strings is also provided as
the documented convention for the built-in lattice-model Hamiltonians.

Each QE generator is written from a fixed letter pattern: a double is
eight weight-4 X/Y strings with coefficients ``+-i``, a single the
two-string ``(i/2)(X_p Y_q - Y_p X_q)`` form, and only the sites vary.
The patterns are what the product of single-site (Z-string-free) ladder
operators ``t``, taken as ``t - t^dagger`` and rescaled to unit-magnitude
coefficients for doubles, expands to.  The two routes give equal sums bit
for bit: the products only multiply and add powers of two, so every
coefficient is exactly ``+-i`` or ``+-i/2`` on both, and ``PauliSum`` adds
each coefficient to ``0j``, which clears the sign of a zero real part.
The product form is kept in ``tests/oracles.py`` as the reference.
Qubit-pool generators are ``i * P``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product

from .compiled import GeneratorBatch
from .paulis import PauliString, PauliSum

__all__ = [
    "OperatorPool",
    "build_qe_pool",
    "build_qubit_pool",
    "build_nearest_neighbor_pool",
    "qe_single",
    "qe_double",
]

QE_KIND = "QE"
QUBIT_KIND = "Qubit"


@dataclass(frozen=True)
class OperatorPool:
    """A fixed, ordered set of generators with labels.

    Each operator must be an anti-Hermitian sum of mutually commuting Pauli
    strings, the rule :class:`AnsatzState` applies, so a bad operator fails
    here and not when it is selected mid-run.  The flags are cached on each
    operator's compiled form and reused when the ansatz grows.
    """

    kind: str
    n_qubits: int
    operators: tuple[PauliSum, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        if len(self.operators) != len(self.labels):
            raise ValueError("operator and label counts differ")
        seen = set()
        for op, label in zip(self.operators, self.labels):
            if op.n_qubits != self.n_qubits:
                raise ValueError("pool operator qubit count mismatch")
            if op.is_zero:
                raise ValueError("pool contains a zero operator")
            if not (op.is_anti_hermitian() and op.terms_mutually_commute()):
                raise ValueError(f"pool operator {label!r} is not an anti-Hermitian "
                                 "sum of mutually commuting Pauli strings")
            if op in seen:
                raise ValueError("pool contains duplicate operators")
            seen.add(op)

    def __len__(self) -> int:
        return len(self.operators)

    @cached_property
    def batch(self) -> GeneratorBatch:
        """The compiled operators, in order, built on first use and kept on
        the pool, so the pool sweep's table is built once per pool and
        dropped with it (see "Pool sweeps" in :mod:`adaptvqe.compiled`)."""
        return GeneratorBatch([op.compiled() for op in self.operators])

    def to_payload(self) -> list[dict]:
        """JSON-ready export: one entry per operator with its Pauli terms."""
        return [
            {
                "label": label,
                "terms": [
                    {"pauli": string.text(), "re": coeff.real, "im": coeff.imag}
                    for string, coeff in op
                ],
            }
            for label, op in zip(self.labels, self.operators)
        ]


# Letters and coefficients of each generator, one letter per site of the
# excitation in the order the function names them: (p, q) for a single and
# (p, q, r, s) for a double of ``source=(p, q)``, ``target=(r, s)``.
QE_SINGLE_PATTERN = (("XY", 0.5j), ("YX", -0.5j))
QE_DOUBLE_PATTERN = (
    ("XXYX", -1j), ("XXXY", -1j), ("XYXX", 1j), ("YXYY", -1j),
    ("YXXX", 1j), ("XYYY", -1j), ("YYYX", 1j), ("YYXY", 1j),
)


def _excitation(sites: tuple[int, ...], pattern, n_qubits: int) -> PauliSum:
    """The X/Y strings of ``pattern`` on ``sites``: every string flips all
    of them, and a Y adds its site to the z mask."""
    for site in sites:
        if not 0 <= site < n_qubits:
            raise ValueError(f"site {site} out of range for {n_qubits} qubits")
    x_mask = sum(1 << site for site in sites)
    terms = []
    for letters, coeff in pattern:
        z_mask = sum(1 << site for site, letter in zip(sites, letters) if letter == "Y")
        terms.append((PauliString(n_qubits, x_mask, z_mask), coeff))
    return PauliSum(n_qubits, terms)


def qe_single(p: int, q: int, n_qubits: int) -> PauliSum:
    """Single qubit excitation (i/2)(X_p Y_q - Y_p X_q)."""
    if p == q:
        raise ValueError("single excitation needs two distinct spin-orbitals")
    return _excitation((p, q), QE_SINGLE_PATTERN, n_qubits)


def qe_double(source: tuple[int, int], target: tuple[int, int], n_qubits: int) -> PauliSum:
    """Double qubit excitation moving a pair from ``source`` to ``target``.

    Expands to eight weight-4 X/Y strings with coefficients ``+-i``.
    """
    p, q = source
    r, s = target
    if len({p, q, r, s}) != 4:
        raise ValueError("double excitation needs four distinct spin-orbitals")
    return _excitation((p, q, r, s), QE_DOUBLE_PATTERN, n_qubits)


def _spin(index: int) -> int:
    # alpha = even index, beta = odd index
    return index % 2


def build_qe_pool(n_qubits: int, n_electrons: int, include_singles: bool = True) -> OperatorPool:
    """All particle-number- and S_z-preserving single and double excitations.

    The excitations are generalized (not restricted to occupied->virtual), so
    the enumeration depends only on ``n_qubits``; ``n_electrons`` is validated
    because the pool is meaningful only alongside a reference determinant.
    Enumeration order is lexicographic on the index tuples, which fixes
    selection tie-breaking and pool files.
    """
    if not 0 < n_electrons < n_qubits:
        raise ValueError(
            f"electron count {n_electrons} invalid for {n_qubits} spin-orbitals"
        )
    operators: list[PauliSum] = []
    labels: list[str] = []
    if include_singles:
        for p, q in combinations(range(n_qubits), 2):
            if _spin(p) == _spin(q):
                operators.append(qe_single(p, q, n_qubits))
                labels.append(f"single ({p})->({q})")
    for quartet in combinations(range(n_qubits), 4):
        i, j, k, l = quartet
        for pair_a, pair_b in (((i, j), (k, l)), ((i, k), (j, l)), ((i, l), (j, k))):
            if _spin(pair_a[0]) + _spin(pair_a[1]) != _spin(pair_b[0]) + _spin(pair_b[1]):
                continue
            operators.append(qe_double(pair_a, pair_b, n_qubits))
            labels.append(f"double {pair_a}->{pair_b}")
    return OperatorPool(QE_KIND, n_qubits, tuple(operators), tuple(labels))


def build_qubit_pool(qe_pool: OperatorPool) -> OperatorPool:
    """One operator ``i * P`` per distinct Pauli string of a QE pool.

    Strings are collected in pool order (canonical order within each
    operator) and deduplicated, so the result is deterministic.
    """
    if qe_pool.kind != QE_KIND:
        raise ValueError(f"expected a QE pool, got kind {qe_pool.kind!r}")
    n_qubits = qe_pool.n_qubits
    seen: set[PauliString] = set()
    operators: list[PauliSum] = []
    labels: list[str] = []
    for op in qe_pool.operators:
        for string, _ in op:
            if string in seen:
                continue
            seen.add(string)
            operators.append(PauliSum(n_qubits, [(string, 1j)]))
            labels.append(_string_label(string))
    return OperatorPool(QUBIT_KIND, n_qubits, tuple(operators), tuple(labels))


def build_nearest_neighbor_pool(n_qubits: int) -> OperatorPool:
    """Qubit pool over all weight-1 and adjacent weight-2 Pauli strings.

    This is the documented pool convention for the built-in lattice models
    (open chains), where excitation-style pools have no meaning.
    """
    if n_qubits < 2:
        raise ValueError("nearest-neighbour pool needs at least 2 qubits")
    operators: list[PauliSum] = []
    labels: list[str] = []
    for site in range(n_qubits):
        for letter in "XYZ":
            string = PauliString.single(letter, site, n_qubits)
            operators.append(PauliSum(n_qubits, [(string, 1j)]))
            labels.append(_string_label(string))
    for site in range(n_qubits - 1):
        for la, lb in product("XYZ", repeat=2):
            text = "I" * site + la + lb + "I" * (n_qubits - site - 2)
            string = PauliString.from_text(text)
            operators.append(PauliSum(n_qubits, [(string, 1j)]))
            labels.append(_string_label(string))
    return OperatorPool(QUBIT_KIND, n_qubits, tuple(operators), tuple(labels))


def _string_label(string: PauliString) -> str:
    support = string.support
    letters = "".join(string.letter(site) for site in support)
    return f"string {letters} on {support}"
