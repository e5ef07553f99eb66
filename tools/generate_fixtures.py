#!/usr/bin/env python3
"""Generate the bundled molecular Hamiltonian fixtures.

Self-contained restricted Hartree-Fock for hydrogen chains in the STO-3G
basis (s-type Gaussians only, so every integral has a closed form), followed
by a Jordan-Wigner transformation of the second-quantized Hamiltonian into a
Pauli-sum JSON file.  Spin-orbitals are interleaved (alpha = even index,
beta = odd index) and ordered by orbital energy, so the mean-field
determinant occupies the lowest qubits.  This file is the home of the
symbolic algebra the transformation needs, the product of two Pauli sums
(:func:`pauli_product`) and the Jordan-Wigner ladder operators
(:func:`jordan_wigner_ladder`): the package itself multiplies no sums.

Run from the repository root:

    python tools/generate_fixtures.py

The emitted metadata records the geometry, the SCF energy, and the exact
ground-state energy from dense diagonalization of the final Pauli sum; the
test suite re-verifies both numbers independently.
"""

from __future__ import annotations

import itertools
import sys
from functools import reduce
from pathlib import Path

import numpy as np
from scipy.special import erf

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from adaptvqe.hamiltonians import (
    HamiltonianFile,
    ground_state_energy,
    save_hamiltonian,
)
from adaptvqe.compiled import DEFAULT_PRUNE_TOL
from adaptvqe.paulis import PauliString, PauliSum
from adaptvqe.simulator import AnsatzState, expectation, prepare

ANGSTROM_TO_BOHR = 1.8897259886

# STO-3G hydrogen 1s: contraction of three primitives (exponent, coefficient)
STO3G_H = (
    (3.42525091, 0.15432897),
    (0.62391373, 0.53532814),
    (0.16885540, 0.44463454),
)


def boys_f0(t: float) -> float:
    if t < 1e-12:
        return 1.0
    return 0.5 * np.sqrt(np.pi / t) * erf(np.sqrt(t))


def _norm(alpha: float) -> float:
    return (2.0 * alpha / np.pi) ** 0.75


def one_electron_integrals(centers: np.ndarray, charges: np.ndarray):
    """Overlap, kinetic and nuclear-attraction matrices over 1s AOs."""
    n = len(centers)
    S = np.zeros((n, n))
    T = np.zeros((n, n))
    V = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            rij2 = float(np.sum((centers[i] - centers[j]) ** 2))
            for (a, ca), (b, cb) in itertools.product(STO3G_H, STO3G_H):
                pref = ca * cb * _norm(a) * _norm(b)
                p = a + b
                mu = a * b / p
                k = np.exp(-mu * rij2)
                S[i, j] += pref * (np.pi / p) ** 1.5 * k
                T[i, j] += pref * mu * (3.0 - 2.0 * mu * rij2) * (np.pi / p) ** 1.5 * k
                center_p = (a * centers[i] + b * centers[j]) / p
                for cidx in range(n):
                    t = p * float(np.sum((center_p - centers[cidx]) ** 2))
                    V[i, j] -= pref * charges[cidx] * 2.0 * np.pi / p * k * boys_f0(t)
    return S, T, V


def two_electron_integrals(centers: np.ndarray) -> np.ndarray:
    """(ij|kl) in chemist notation over 1s AOs."""
    n = len(centers)
    eri = np.zeros((n, n, n, n))
    for i, j, k, l in itertools.product(range(n), repeat=4):
        rij2 = float(np.sum((centers[i] - centers[j]) ** 2))
        rkl2 = float(np.sum((centers[k] - centers[l]) ** 2))
        total = 0.0
        for (a, ca), (b, cb), (c, cc), (d, cd) in itertools.product(STO3G_H, repeat=4):
            pref = ca * cb * cc * cd * _norm(a) * _norm(b) * _norm(c) * _norm(d)
            p = a + b
            q = c + d
            center_p = (a * centers[i] + b * centers[j]) / p
            center_q = (c * centers[k] + d * centers[l]) / q
            rpq2 = float(np.sum((center_p - center_q) ** 2))
            k_ab = np.exp(-a * b / p * rij2)
            k_cd = np.exp(-c * d / q * rkl2)
            t = p * q / (p + q) * rpq2
            total += (
                pref
                * 2.0 * np.pi ** 2.5 / (p * q * np.sqrt(p + q))
                * k_ab * k_cd * boys_f0(t)
            )
        eri[i, j, k, l] = total
    return eri


def restricted_hartree_fock(centers, charges, n_electrons,
                            max_cycles=500, tol=1e-12, mixing=0.5):
    """Closed-shell SCF; returns (total energy, MO coefficients, MO energies)."""
    S, T, V = one_electron_integrals(centers, charges)
    eri = two_electron_integrals(centers)
    h_core = T + V
    e_nuc = 0.0
    for a in range(len(centers)):
        for b in range(a + 1, len(centers)):
            e_nuc += charges[a] * charges[b] / np.linalg.norm(centers[a] - centers[b])

    s_val, s_vec = np.linalg.eigh(S)
    x = s_vec @ np.diag(s_val ** -0.5) @ s_vec.T
    n_occ = n_electrons // 2

    def fock(density):
        coulomb = np.einsum("pqrs,rs->pq", eri, density)
        exchange = np.einsum("prqs,rs->pq", eri, density)
        return h_core + coulomb - 0.5 * exchange

    density = np.zeros_like(S)
    energy = 0.0
    for cycle in range(max_cycles):
        f = fock(density)
        f_ortho = x.T @ f @ x
        mo_energies, c_ortho = np.linalg.eigh(f_ortho)
        coeffs = x @ c_ortho
        new_density = 2.0 * coeffs[:, :n_occ] @ coeffs[:, :n_occ].T
        if cycle > 0:
            new_density = mixing * new_density + (1.0 - mixing) * density
        new_energy = 0.5 * np.sum(new_density * (h_core + fock(new_density))) + e_nuc
        if abs(new_energy - energy) < tol and np.max(np.abs(new_density - density)) < 1e-10:
            density = new_density
            energy = new_energy
            break
        density, energy = new_density, new_energy
    else:
        raise RuntimeError("SCF did not converge")
    f = fock(density)
    mo_energies, c_ortho = np.linalg.eigh(x.T @ f @ x)
    coeffs = x @ c_ortho
    return energy, coeffs, mo_energies, h_core, eri, e_nuc


_UNIT_PHASES = (1 + 0j, 1j, -1 + 0j, -1j)


def pauli_product(a: PauliSum, b: PauliSum) -> PauliSum:
    """The operator product ``a b``, expanded term by term.

    Each pair of strings multiplies in the normal form
    P(x, z) = i^{|x & z|} X^x Z^z: commuting X^b past Z^a contributes a
    factor -1 per overlapping site, and the Y content of each factor its own
    power of i.  Products landing on one string are summed in the order the
    pairs are met, and the ``PauliSum`` constructor then prunes and sorts.
    """
    out: dict[PauliString, complex] = {}
    for sa, ca in a:
        for sb, cb in b:
            x = sa.x_mask ^ sb.x_mask
            z = sa.z_mask ^ sb.z_mask
            exponent = ((sa.x_mask & sa.z_mask).bit_count()
                        + (sb.x_mask & sb.z_mask).bit_count()
                        + 2 * (sa.z_mask & sb.x_mask).bit_count()
                        - (x & z).bit_count()) % 4
            product = PauliString(a.n_qubits, x, z)
            out[product] = out.get(product, 0j) + ca * cb * _UNIT_PHASES[exponent]
    return PauliSum(a.n_qubits, out)


def jordan_wigner_ladder(index: int, creation: bool, n_qubits: int) -> PauliSum:
    """Fermionic ladder operator for mode ``index`` as a two-string PauliSum.

    Creation maps to ``1/2 * Z_0...Z_{index-1} (X_index - i Y_index)`` and
    annihilation to the ``+ i Y`` branch.  Modes with lower index sit earlier
    in the Z string, matching the qubit-0-is-LSB layout.
    """
    if not 0 <= index < n_qubits:
        raise ValueError(f"orbital index {index} out of range for {n_qubits} qubits")
    z_string = (1 << index) - 1
    x_term = PauliString(n_qubits, 1 << index, z_string)
    y_term = PauliString(n_qubits, 1 << index, z_string | (1 << index))
    sign = -1j if creation else 1j
    return PauliSum(n_qubits, [(x_term, 0.5), (y_term, 0.5 * sign)])


def jordan_wigner_hamiltonian(h_mo, eri_mo, e_nuc, n_qubits) -> PauliSum:
    """JW transform of the interleaved-spin second-quantized Hamiltonian."""
    n_spatial = h_mo.shape[0]

    def ladder(orbital, spin, creation):
        return jordan_wigner_ladder(2 * orbital + spin, creation, n_qubits)

    # One dict instead of one PauliSum per added term, which re-sorted the
    # whole sum each time.  The pruning stays as PauliSum did it, on the
    # scaled term and then on each touched key after every addition, since
    # a key that falls to the tolerance and is later added to again would
    # otherwise end on a different coefficient, and the fixtures must stay
    # byte for byte the same.
    coeffs = {PauliString(n_qubits, 0, 0): complex(e_nuc)}

    def add(term: PauliSum, scale) -> None:
        for string, c in term.items():
            c = c * scale
            if abs(c) <= DEFAULT_PRUNE_TOL:
                continue
            c = coeffs.get(string, 0j) + c
            if abs(c) > DEFAULT_PRUNE_TOL:
                coeffs[string] = c
            else:
                coeffs.pop(string, None)

    for p in range(n_spatial):
        for q in range(n_spatial):
            if abs(h_mo[p, q]) < 1e-13:
                continue
            for spin in (0, 1):
                add(pauli_product(ladder(p, spin, True), ladder(q, spin, False)),
                    h_mo[p, q])
    for p, q, r, s in itertools.product(range(n_spatial), repeat=4):
        coeff = 0.5 * eri_mo[p, q, r, s]
        if abs(coeff) < 1e-13:
            continue
        for sigma in (0, 1):
            for tau in (0, 1):
                term = reduce(pauli_product, (ladder(p, sigma, True), ladder(r, tau, True),
                                              ladder(s, tau, False), ladder(q, sigma, False)))
                add(term, coeff)
    return PauliSum(n_qubits, coeffs)


def hydrogen_chain_operator(spacing_angstrom: float, n_atoms: int) -> tuple[PauliSum, float]:
    """The Jordan-Wigner Hamiltonian of a linear chain of ``n_atoms``
    hydrogen atoms ``spacing_angstrom`` apart in STO-3G, and its RHF energy."""
    centers = np.array(
        [[0.0, 0.0, i * spacing_angstrom * ANGSTROM_TO_BOHR] for i in range(n_atoms)]
    )
    e_hf, coeffs, mo_energies, h_core, eri, e_nuc = restricted_hartree_fock(
        centers, np.ones(n_atoms), n_atoms
    )
    h_mo = coeffs.T @ h_core @ coeffs
    eri_mo = np.einsum("ap,bq,abcd,cr,ds->pqrs", coeffs, coeffs, eri, coeffs, coeffs,
                       optimize=True)
    return jordan_wigner_hamiltonian(h_mo, eri_mo, e_nuc, 2 * n_atoms), e_hf


def build_hydrogen_chain(name: str, spacing_angstrom: float, n_atoms: int) -> HamiltonianFile:
    n_electrons = n_atoms
    n_qubits = 2 * n_atoms
    operator, e_hf = hydrogen_chain_operator(spacing_angstrom, n_atoms)

    reference = "1" * n_electrons + "0" * (n_qubits - n_electrons)
    hf_from_operator = expectation(prepare(AnsatzState(reference)), operator)
    if abs(hf_from_operator - e_hf) > 1e-9:
        raise RuntimeError(
            f"{name}: determinant energy {hf_from_operator!r} != SCF {e_hf!r}"
        )
    exact = ground_state_energy(operator)
    print(f"{name}: n_qubits={n_qubits} terms={operator.n_terms} "
          f"E_HF={e_hf:.10f} E_exact={exact:.10f} corr={exact - e_hf:.3e}")
    return HamiltonianFile(
        n_qubits=n_qubits,
        operator=operator,
        name=name,
        reference_bitstring=reference,
        units="hartree",
        n_electrons=n_electrons,
        exact_ground_energy=exact,
        hf_energy=hf_from_operator,
        extra_metadata={
            "basis": "sto-3g",
            "geometry": [["H", [0.0, 0.0, round(i * spacing_angstrom, 6)]]
                         for i in range(n_atoms)],
            "generator": "tools/generate_fixtures.py (in-repo RHF + Jordan-Wigner)",
        },
    )


def main():
    out_dir = Path(__file__).resolve().parent.parent / "src" / "adaptvqe" / "fixtures"
    out_dir.mkdir(parents=True, exist_ok=True)
    fixtures = [
        ("h2_sto3g_0p7414", 0.7414, 2),
        ("h4_sto3g_1p00", 1.00, 4),
        ("h4_sto3g_2p00", 2.00, 4),
    ]
    for name, spacing, atoms in fixtures:
        hfile = build_hydrogen_chain(name, spacing, atoms)
        save_hamiltonian(hfile, out_dir / f"{name}.json")
        print(f"  wrote {out_dir / (name + '.json')}")


if __name__ == "__main__":
    main()
