"""Independent dense-matrix oracles for the test suite.

Everything here is built from text-form Pauli strings and plain numpy/scipy
primitives, deliberately avoiding the package's own mask-based algebra and
statevector engine, so that tests compare two independent routes.

Conventions match the package's documented ones: qubit 0 is the leftmost
character of a text string and the least-significant bit of a basis index.

Three groups are exceptions.  ``commutator``, ``particle_number_operator``
and ``sz_projection_operator`` build package ``PauliSum`` objects for
symbolic checks; the commutator is ``ab - ba``, both products taken by
``pauli_product`` of ``tools/generate_fixtures.py`` and summed by the
``PauliSum`` constructor.  ``reference_qe_single`` and
``reference_qe_double`` are the ladder-product construction of the QE
generators that the pool's fixed letter patterns replaced, built the same
way, and the pools must match them bit for bit.  The
``reference_*`` functions are the plain term-by-term statevector route (a
phase, a gather and an accumulation per Pauli string, in canonical term
order) that the compiled engine replaced, and the per-column
central-difference Hessian built on it that the stacked gradient sweep
replaced.  The engine must reproduce them bit for bit, except that a
compiled exponential may give ``-0j`` where ``reference_exponential`` gives
``0j`` (equal under ``np.array_equal``).  ``reference_gathered_exponential``
is the compiled exponential's own per-term expression, gather first, as it
stood before its rotations were written in place; the engine's exponential
must reproduce it byte for byte, signed zeros included.
"""

from __future__ import annotations

from functools import reduce

import numpy as np
import scipy.linalg
from generate_fixtures import pauli_product

from adaptvqe.paulis import PauliSum

PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def dense_string(text: str) -> np.ndarray:
    """Dense matrix of a Pauli string; site 0 leftmost = least significant."""
    out = np.eye(1, dtype=complex)
    for letter in reversed(text):
        out = np.kron(out, PAULI_MATRICES[letter])
    return out


def dense_operator(terms) -> np.ndarray:
    """Dense matrix of a list of ``(text, coefficient)`` pairs."""
    first = terms[0][0]
    out = np.zeros((2 ** len(first), 2 ** len(first)), dtype=complex)
    for text, coeff in terms:
        out += complex(coeff) * dense_string(text)
    return out


def dense_strings_commute(a: str, b: str) -> bool:
    """Whether two Pauli strings commute, from their site-by-site 2x2
    matrices: each site's pair commutes or anticommutes, and the strings
    commute when an even number of sites anticommute."""
    anticommuting = 0
    for la, lb in zip(a, b, strict=True):
        ma, mb = PAULI_MATRICES[la], PAULI_MATRICES[lb]
        anticommuting += not np.array_equal(ma @ mb, mb @ ma)
    return anticommuting % 2 == 0


def dense_pauli_sum(operator) -> np.ndarray:
    """Dense matrix of a package PauliSum, built via the text route; the
    zero matrix for a sum whose terms cancelled."""
    if not operator.n_terms:
        return np.zeros((1 << operator.n_qubits,) * 2, dtype=complex)
    return dense_operator([(s.text(), c) for s, c in operator])


def dense_basis_state(bitstring: str) -> np.ndarray:
    index = sum(1 << i for i, ch in enumerate(bitstring) if ch == "1")
    vec = np.zeros(2 ** len(bitstring), dtype=complex)
    vec[index] = 1.0
    return vec


def dense_prepare(reference: str, elements) -> np.ndarray:
    """Matrix-exponential product state: exp(t_n A_n)...exp(t_1 A_1)|ref>."""
    state = dense_basis_state(reference)
    for generator, theta in elements:
        state = scipy.linalg.expm(theta * dense_pauli_sum(generator)) @ state
    return state


def dense_expectation(state: np.ndarray, operator) -> float:
    return float(np.real(np.vdot(state, dense_pauli_sum(operator) @ state)))


def central_difference_gradient(f, x, step=1e-5):
    x = np.asarray(x, dtype=float)
    out = np.empty(x.size)
    for i in range(x.size):
        shift = np.zeros(x.size)
        shift[i] = step
        out[i] = (f(x + shift) - f(x - shift)) / (2 * step)
    return out


def commutator(a, b):
    ba = pauli_product(b, a)
    return PauliSum(a.n_qubits, [*pauli_product(a, b), *((s, -c) for s, c in ba)])


def _z_at(site: int, n_qubits: int) -> str:
    return "I" * site + "Z" + "I" * (n_qubits - site - 1)


def particle_number_operator(n_qubits: int):
    """Total occupation sum_i (I - Z_i)/2."""
    return PauliSum.from_text_terms(
        [("I" * n_qubits, 0.5 * n_qubits)]
        + [(_z_at(i, n_qubits), -0.5) for i in range(n_qubits)])


def sz_projection_operator(n_qubits: int):
    """Z spin projection sum_i s_i (I - Z_i)/2, with s_i = +1/2 on alpha
    (even) and -1/2 on beta (odd) spin-orbitals."""
    spins = [0.5 if i % 2 == 0 else -0.5 for i in range(n_qubits)]
    return PauliSum.from_text_terms(
        [("I" * n_qubits, 0.5 * sum(spins))]
        + [(_z_at(i, n_qubits), -0.5 * s) for i, s in enumerate(spins)])


def _qubit_ladder(site: int, n_qubits: int, creation: bool):
    """Single-site excitation ladder operator (X -+ iY)/2, no Z string."""
    x = "I" * site + "X" + "I" * (n_qubits - site - 1)
    y = "I" * site + "Y" + "I" * (n_qubits - site - 1)
    return PauliSum.from_text_terms([(x, 0.5), (y, 0.5 * (-1j if creation else 1j))])


def _minus_adjoint(t):
    """``t - t^dagger``, with the adjoint written term by term."""
    return PauliSum(t.n_qubits, [*t, *((s, -c.conjugate()) for s, c in t)])


def reference_qe_single(p: int, q: int, n_qubits: int):
    """Single qubit excitation as ``t - t^dagger`` of ``t = Q_p^dagger Q_q``."""
    t = pauli_product(_qubit_ladder(p, n_qubits, True), _qubit_ladder(q, n_qubits, False))
    return _minus_adjoint(t)


def reference_qe_double(source, target, n_qubits: int):
    """Double qubit excitation as ``8 (t - t^dagger)`` of
    ``t = Q_r^dagger Q_s^dagger Q_p Q_q``, for ``source=(p, q)`` and
    ``target=(r, s)``."""
    p, q = source
    r, s = target
    t = reduce(pauli_product, (_qubit_ladder(r, n_qubits, True),
                               _qubit_ladder(s, n_qubits, True),
                               _qubit_ladder(p, n_qubits, False),
                               _qubit_ladder(q, n_qubits, False)))
    return PauliSum(n_qubits, [(string, c * 8.0) for string, c in _minus_adjoint(t)])


def wolfe_admissible_alphas(phi, dphi, f0, d0, alphas, c1=1e-4, c2=0.9):
    """Brute-force scan: step sizes satisfying both Wolfe conditions."""
    good = []
    for a in alphas:
        if phi(a) <= f0 + c1 * a * d0 and dphi(a) >= c2 * d0:
            good.append(a)
    return np.array(good)


def _parity_signs(n_qubits, z_mask):
    idx = np.arange(1 << n_qubits, dtype=np.uint64)
    parity = np.bitwise_count(idx & np.uint64(z_mask)) & 1
    return (1 - 2 * parity).astype(np.int8)


def _flip_indices(n_qubits, x_mask):
    return (np.arange(1 << n_qubits, dtype=np.int64) ^ x_mask).astype(np.int32)


def reference_apply_string(amps, n_qubits, string):
    """P|psi> via phase multiplication plus an index-XOR permutation."""
    y_count = (string.x_mask & string.z_mask).bit_count()
    out = amps * _parity_signs(n_qubits, string.z_mask)
    if y_count % 4:
        out = out * (1j ** (y_count % 4))
    if string.x_mask:
        out = out[_flip_indices(n_qubits, string.x_mask)]
    return out


def reference_apply_sum(amps, n_qubits, operator):
    out = np.zeros_like(amps)
    for string, coeff in operator:
        out += coeff * reference_apply_string(amps, n_qubits, string)
    return out


def reference_exponential(amps, n_qubits, generator, theta):
    """exp(theta * generator)|psi> for a generator of commuting strings."""
    if theta == 0.0 or generator.is_zero:
        return amps
    assert generator.terms_mutually_commute()
    for string, coeff in generator:
        w = theta * coeff.imag
        if w == 0.0:
            continue
        amps = np.cos(w) * amps + 1j * np.sin(w) * reference_apply_string(
            amps, n_qubits, string)
    return amps


def reference_gathered_exponential(amps, n_qubits, generator, theta):
    """exp(theta * generator)|psi> term by term in canonical order, gather
    first: ``cos(w) psi + f (s_z * psi[b ^ x])`` with ``w = theta Im(c)``,
    ``s_z`` the term's signs after the gather and ``f`` the factor
    ``1j sin(w) (-i)^y``, or ``-sin(w) Im((-i)^y)`` on a float64 state.
    ``amps`` is one state or a stack of states, one per row."""
    if theta == 0.0:
        return amps
    real = amps.dtype == np.float64
    for string, coeff in generator:
        w = theta * coeff.imag
        if w == 0.0:
            continue
        x_mask, z_mask = string.x_mask, string.z_mask
        rotated = amps.take(_flip_indices(n_qubits, x_mask), axis=-1) if x_mask else amps
        if z_mask:
            rotated = rotated * _parity_signs(n_qubits, z_mask)
        unit = (1 + 0j, -1j, -1 + 0j, 1j)[(x_mask & z_mask).bit_count() % 4]
        factor = -np.sin(w) * unit.imag if real else 1j * np.sin(w) * unit
        amps = np.cos(w) * amps + factor * rotated
    return amps


def reference_energy_and_gradient(reference, elements, hamiltonian):
    """Energy and gradient by the forward/reverse sweep of the plain route."""
    n_qubits = len(reference)
    states = [dense_basis_state(reference)]
    for generator, theta in elements:
        states.append(reference_exponential(states[-1], n_qubits, generator, theta))
    psi = states[-1]
    lam = reference_apply_sum(psi, n_qubits, hamiltonian)
    energy = complex(np.vdot(psi, lam)).real
    grad = np.empty(len(elements), dtype=float)
    for j in range(len(elements) - 1, -1, -1):
        generator, theta = elements[j]
        grad[j] = 2.0 * np.real(
            np.vdot(lam, reference_apply_sum(states[j + 1], n_qubits, generator)))
        lam = reference_exponential(lam, n_qubits, generator, -theta)
    return psi, energy, grad


def reference_pool_gradients(amps, n_qubits, hamiltonian, operators):
    """2 Re <H psi|A_k psi>, one full application per pool operator."""
    h_psi = reference_apply_sum(amps, n_qubits, hamiltonian)
    return np.array([
        2.0 * np.real(np.vdot(h_psi, reference_apply_sum(amps, n_qubits, op)))
        for op in operators
    ])


def reference_exact_ansatz_hessian(ansatz, hamiltonian, x, step=1e-5):
    """Central-difference Hessian with one plain-route gradient per shifted
    point, column by column, symmetrized."""
    x0 = np.asarray(x, dtype=float)
    n = x0.size

    def grad(params):
        elements = tuple(zip(ansatz.generators, params.tolist()))
        return reference_energy_and_gradient(ansatz.reference, elements, hamiltonian)[2]

    out = np.empty((n, n), dtype=float)
    for i in range(n):
        shift = np.zeros(n)
        shift[i] = step
        out[:, i] = (grad(x0 + shift) - grad(x0 - shift)) / (2.0 * step)
    return 0.5 * (out + out.T)
