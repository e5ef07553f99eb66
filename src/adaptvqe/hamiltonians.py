"""Hamiltonian file ingestion, built-in model Hamiltonians, and bundled fixtures.

The on-disk format is JSON: a qubit count, a list of Pauli terms with real
and imaginary coefficient parts, and a metadata block carrying the reference
occupation bitstring plus optional exact and mean-field energies.  Loading
canonicalizes term order and validates Hermiticity and the name, which
becomes part of output file names; saving emits canonical,
byte-deterministic JSON so files round-trip exactly.  Every output file the
package writes goes through :func:`write_atomically`, so an interrupted
write leaves the old file whole.

Exact ground-state energies come from the compiled form of the operator:
dense diagonalization of :meth:`CompiledSum.dense` up to 11 qubits, and at
12 ARPACK's Lanczos with ``CompiledSum.apply`` as the matrix-vector product.
scipy is imported only there.

Built-in chemistry-free models (transverse-field Ising and Heisenberg open
chains) make the full pipeline testable without electronic-structure input.
"""

from __future__ import annotations

import cmath
import json
import os
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .compiled import DEFAULT_PRUNE_TOL
from .paulis import PauliString, PauliSum, finite_float, is_a

__all__ = [
    "HamiltonianFile",
    "HamiltonianFormatError",
    "load_hamiltonian",
    "save_hamiltonian",
    "parse_hamiltonian_payload",
    "hamiltonian_payload",
    "builtin_model",
    "ground_state_energy",
    "dense_matrix",
    "bundled_fixture_path",
]

DIAGONALIZATION_CAP = 12
MODEL_KINDS = ("tfim", "heisenberg")  # the kinds builtin_model builds
DEFAULT_COUPLING = 1.0  # builtin_model's J
DEFAULT_FIELD = 1.0  # builtin_model's h
_DENSE_DIAG_CAP = 11

_VALID_UNITS = ("hartree", "dimensionless")


class HamiltonianFormatError(ValueError):
    """A Hamiltonian file failed validation; the message carries context."""


@dataclass
class HamiltonianFile:
    """A validated Hamiltonian plus the metadata needed to run on it."""

    n_qubits: int
    operator: PauliSum
    name: str
    reference_bitstring: str
    units: str = "hartree"
    n_electrons: int | None = None
    exact_ground_energy: float | None = None
    hf_energy: float | None = None
    extra_metadata: dict = field(default_factory=dict)


def _check_diagonalization_cap(n_qubits: int) -> None:
    if n_qubits > DIAGONALIZATION_CAP:
        raise ValueError(
            f"{n_qubits} qubits exceeds the diagonalization cap of {DIAGONALIZATION_CAP}")


def dense_matrix(operator: PauliSum) -> np.ndarray:
    """Dense matrix of an operator, site 0 least significant (guarded by the
    diagonalization cap): :meth:`CompiledSum.dense` of its compiled form."""
    _check_diagonalization_cap(operator.n_qubits)
    return operator.compiled().dense()


def ground_state_energy(operator: PauliSum) -> float:
    """Lowest eigenvalue by diagonalization (cap: 12 qubits); above
    ``_DENSE_DIAG_CAP`` qubits by Lanczos on the compiled ``apply``."""
    if not operator.compiled().hermitian:
        raise ValueError("ground-state energy needs a Hermitian operator")
    _check_diagonalization_cap(operator.n_qubits)
    if operator.n_qubits <= _DENSE_DIAG_CAP:
        return float(np.linalg.eigvalsh(dense_matrix(operator))[0])
    from scipy.sparse.linalg import LinearOperator, eigsh  # scipy only here

    dim = 1 << operator.n_qubits
    matrix = LinearOperator((dim, dim), matvec=operator.compiled().apply, dtype=complex)
    # A fixed start vector makes ARPACK, and so the result, repeatable.
    v0 = np.random.default_rng(0).standard_normal(dim)
    return float(eigsh(matrix, k=1, which="SA", v0=v0, return_eigenvectors=False)[0])


def parse_hamiltonian_payload(payload: dict, source: str = "<payload>") -> HamiltonianFile:
    """Validate and canonicalize a decoded Hamiltonian JSON object."""

    def fail(message: str) -> HamiltonianFormatError:
        return HamiltonianFormatError(f"{source}: {message}")

    if not isinstance(payload, dict):
        raise fail("top level must be a JSON object")
    n_qubits = payload.get("n_qubits")
    if not is_a(n_qubits, int) or n_qubits < 1:
        raise fail(f"n_qubits must be a positive integer, got {n_qubits!r}")
    terms = payload.get("terms")
    if not isinstance(terms, list) or not terms:
        raise fail("terms must be a non-empty list")

    parsed: list[tuple[PauliString, complex]] = []
    for i, term in enumerate(terms):
        if not isinstance(term, dict):
            raise fail(f"term {i}: expected an object")
        pauli = term.get("pauli")
        if not isinstance(pauli, str) or len(pauli) != n_qubits:
            raise fail(f"term {i}: pauli must be a string of length {n_qubits}")
        try:
            string = PauliString.from_text(pauli)
        except ValueError as exc:
            raise fail(f"term {i}: {exc}") from None
        parts = []
        for key in ("re", "im"):
            part = term.get(key, 0.0)
            if not is_a(part, (int, float)):
                raise fail(f"term {i}: re/im must be numbers")
            try:
                parts.append(float(part))
            except OverflowError:
                raise fail(f"term {i}: {key} is too large for a float") from None
        coeff = complex(*parts)
        if not cmath.isfinite(coeff):
            raise fail(f"term {i}: coefficient {coeff} is not finite")
        parsed.append((string, coeff))

    operator = PauliSum(n_qubits, parsed)
    bad = [(s.text(), c.imag) for s, c in operator if abs(c.imag) > DEFAULT_PRUNE_TOL]
    if bad:
        string, imag = bad[0]
        raise fail(
            f"not Hermitian: term {string} has imaginary coefficient {imag:.3e}"
        )
    operator = PauliSum(n_qubits, [(s, c.real) for s, c in operator])

    metadata = payload.get("metadata", {})
    if not isinstance(metadata, dict):
        raise fail("metadata must be an object")
    reference = metadata.get("reference_bitstring")
    if not isinstance(reference, str) or len(reference) != n_qubits:
        raise fail(f"metadata.reference_bitstring must have length {n_qubits}")
    if any(c not in "01" for c in reference):
        raise fail("metadata.reference_bitstring must be over {0,1}")
    name = metadata.get("name", "unnamed")
    # the name is part of output file names
    if (not isinstance(name, str) or name in (".", "..")
            or any(c in name for c in "/\\\0")):
        raise fail("metadata.name must be a string with no '/', '\\' or NUL "
                   f"and not '.' or '..', got {name!r}")
    units = metadata.get("units", "hartree")
    if units not in _VALID_UNITS:
        raise fail(f"metadata.units must be one of {_VALID_UNITS}, got {units!r}")

    def optional_number(key: str) -> float | None:
        value = metadata.get(key)
        if value is None:
            return None
        number = finite_float(value)
        if number is None:
            raise fail(f"metadata.{key} must be a finite number")
        return number

    n_electrons = metadata.get("n_electrons")
    if n_electrons is not None and (not is_a(n_electrons, int) or n_electrons < 0):
        raise fail("metadata.n_electrons must be a non-negative integer")

    known = {"name", "reference_bitstring", "units", "n_electrons",
             "exact_ground_energy", "hf_energy"}
    return HamiltonianFile(
        n_qubits=n_qubits,
        operator=operator,
        name=name,
        reference_bitstring=reference,
        units=units,
        n_electrons=n_electrons,
        exact_ground_energy=optional_number("exact_ground_energy"),
        hf_energy=optional_number("hf_energy"),
        extra_metadata={k: v for k, v in metadata.items() if k not in known},
    )


def hamiltonian_payload(hfile: HamiltonianFile) -> dict:
    """Canonical JSON-ready form (terms in canonical order, metadata sorted)."""
    metadata: dict = {
        "name": hfile.name,
        "reference_bitstring": hfile.reference_bitstring,
        "units": hfile.units,
    }
    if hfile.n_electrons is not None:
        metadata["n_electrons"] = hfile.n_electrons
    if hfile.exact_ground_energy is not None:
        metadata["exact_ground_energy"] = hfile.exact_ground_energy
    if hfile.hf_energy is not None:
        metadata["hf_energy"] = hfile.hf_energy
    metadata.update(hfile.extra_metadata)
    return {
        "n_qubits": hfile.n_qubits,
        "terms": [
            {"pauli": string.text(), "re": coeff.real, "im": 0.0}
            for string, coeff in hfile.operator
        ],
        "metadata": metadata,
    }


def load_hamiltonian(path: str | Path, verify: bool = False) -> HamiltonianFile:
    """Load and validate a Hamiltonian JSON file.

    With ``verify`` the recorded exact ground-state energy (if any) is
    re-checked against a diagonalization of the loaded operator.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise HamiltonianFormatError(f"{path}: cannot read file: {exc}") from exc
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise HamiltonianFormatError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    hfile = parse_hamiltonian_payload(payload, source=str(path))
    if verify and hfile.exact_ground_energy is not None:
        recomputed = ground_state_energy(hfile.operator)
        if abs(recomputed - hfile.exact_ground_energy) > 1e-9:
            raise HamiltonianFormatError(
                f"{path}: recorded exact ground energy {hfile.exact_ground_energy!r} "
                f"disagrees with diagonalization {recomputed!r}"
            )
    return hfile


def write_atomically(path: str | Path, write) -> None:
    """Call ``write(fh)`` on a temporary file beside ``path``, then rename it
    onto ``path``: an interrupted write leaves the old file whole."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with tmp.open("w", newline="") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path: str | Path, payload) -> None:
    """``payload`` as canonical JSON (two-space indent, sorted keys, one
    trailing newline), written atomically."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    write_atomically(path, lambda fh: fh.write(text))


def save_hamiltonian(hfile: HamiltonianFile, path: str | Path) -> None:
    """Write canonical, byte-deterministic JSON (save/load round-trips)."""
    write_json(path, hamiltonian_payload(hfile))


def builtin_model(
    kind: str,
    n_qubits: int,
    coupling: float = DEFAULT_COUPLING,
    field_strength: float = DEFAULT_FIELD,
    with_exact: bool = True,
) -> HamiltonianFile:
    """Built-in open-chain model Hamiltonians.

    ``tfim``: -J sum Z_i Z_{i+1} - h sum X_i;  ``heisenberg``:
    J sum (X X + Y Y + Z Z) on neighbours.  The exact ground energy is
    filled by diagonalization (cap 12 qubits) unless disabled.
    """
    kind = kind.lower()
    if n_qubits < 2:
        raise ValueError("builtin models need at least 2 qubits")
    terms: list[tuple[PauliString, complex]] = []
    if kind == "tfim":
        for i in range(n_qubits - 1):
            terms.append((
                PauliString.from_text(
                    "I" * i + "ZZ" + "I" * (n_qubits - i - 2)), -coupling))
        for i in range(n_qubits):
            terms.append((PauliString.single("X", i, n_qubits), -field_strength))
        name = f"tfim_n{n_qubits}_j{coupling:g}_h{field_strength:g}"
    elif kind == "heisenberg":
        for i in range(n_qubits - 1):
            for letter in "XYZ":
                terms.append((
                    PauliString.from_text(
                        "I" * i + letter * 2 + "I" * (n_qubits - i - 2)), coupling))
        name = f"heisenberg_n{n_qubits}_j{coupling:g}"
    else:
        raise ValueError(f"unknown builtin model kind {kind!r}; expected one of {MODEL_KINDS}")
    operator = PauliSum(n_qubits, terms)
    exact = ground_state_energy(operator) if with_exact else None
    return HamiltonianFile(
        n_qubits=n_qubits,
        operator=operator,
        name=name,
        reference_bitstring="0" * n_qubits,
        units="dimensionless",
        exact_ground_energy=exact,
        extra_metadata={"kind": kind, "coupling": coupling,
                        "field": field_strength},
    )


def bundled_fixture_path(name: str) -> Path:
    """Path to a bundled fixture file, e.g. ``h2_sto3g_0p7414.json``."""
    root = resources.files("adaptvqe").joinpath("fixtures")
    candidate = root.joinpath(name)
    if not candidate.is_file():
        available = ", ".join(sorted(p.name for p in root.iterdir()))
        raise FileNotFoundError(f"no bundled fixture {name!r}; have: {available}")
    return Path(str(candidate))
