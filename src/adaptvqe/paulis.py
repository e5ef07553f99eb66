"""Pauli strings and sparse linear combinations of them, plus the input rules
every module shares.

A :class:`PauliString` is stored as a pair of bit masks (X-support and
Z-support, with Y = both), the form :mod:`~adaptvqe.compiled` reads to apply
and check a sum.  A :class:`PauliSum` maps strings to complex coefficients
and is the common representation for Hamiltonians, pool generators and
ansatz generators.  The package builds no symbolic product of sums: the
pools write each generator from its letter pattern, and the products and
Jordan-Wigner ladder operators that the molecular fixtures need live in
``tools/generate_fixtures.py``.

Conventions (fixed globally):

* Qubit ``0`` is the least-significant bit of a basis-state index.
* The text form of a string (``"XYIZ"``) lists site 0 leftmost.
* Terms are ordered lexicographically on ``(x_mask, z_mask)`` so that
  equality and serialization are structural and deterministic.
* One tolerance, ``compiled.DEFAULT_PRUNE_TOL = 1e-12``, drops negligible
  terms and decides the Hermitian and anti-Hermitian checks.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

from .compiled import DEFAULT_PRUNE_TOL, CompiledSum

__all__ = [
    "PauliString",
    "PauliSum",
    "is_a",
    "finite_float",
    "checked_threshold",
    "checked_cap",
]

_LETTER_TO_MASKS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_MASKS_TO_LETTER = {v: k for k, v in _LETTER_TO_MASKS.items()}


def is_a(value, kind) -> bool:
    """``isinstance``, except that a bool (a JSON ``true`` or ``false``) is
    not an int or a number."""
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


def finite_float(value) -> float | None:
    """``value`` as a float when it is a finite number (not a bool), else
    None: a JSON integer too large for a float gives None, not
    ``OverflowError``."""
    if not is_a(value, (int, float)):
        return None
    try:
        number = float(value)
    except OverflowError:
        return None
    return number if cmath.isfinite(number) else None


def checked_threshold(name: str, value):
    """``value`` when it is a finite number above 0 (not a bool); else
    ``ValueError`` naming ``name``.  The one threshold rule."""
    if not is_a(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if (finite_float(value) or 0.0) <= 0:
        raise ValueError(f"convergence thresholds must be finite and positive, {name} is not")
    return value


def checked_cap(name: str, value, low: int = 0) -> int:
    """``value`` as an int when it is an int or numpy integer (not a bool) of
    at least ``low``; else ``ValueError`` naming ``name``.  The one cap rule."""
    if not is_a(value, (int, np.integer)):
        raise ValueError(f"{name} must be an int, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be at least {low}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class PauliString:
    """A tensor product of single-qubit Pauli operators on ``n_qubits`` sites.

    ``x_mask`` has bit ``i`` set when site ``i`` carries X or Y; ``z_mask``
    has it set for Z or Y, so the identity is ``PauliString(n_qubits, 0, 0)``.
    The string itself is always Hermitian.
    """

    n_qubits: int
    x_mask: int
    z_mask: int

    def __post_init__(self):
        if self.n_qubits <= 0:
            raise ValueError(f"n_qubits must be positive, got {self.n_qubits}")
        full = (1 << self.n_qubits) - 1
        if self.x_mask & ~full or self.z_mask & ~full:
            raise ValueError("mask has support outside the declared qubit range")

    @classmethod
    def from_text(cls, text: str) -> "PauliString":
        """Parse the site-0-leftmost text form, e.g. ``"XYIZ"``."""
        x = z = 0
        for i, letter in enumerate(text):
            try:
                xb, zb = _LETTER_TO_MASKS[letter]
            except KeyError:
                raise ValueError(f"invalid Pauli letter {letter!r} in {text!r}") from None
            x |= xb << i
            z |= zb << i
        if not text:
            raise ValueError("empty Pauli string text")
        return cls(len(text), x, z)

    @classmethod
    def single(cls, letter: str, site: int, n_qubits: int) -> "PauliString":
        """A single non-identity letter at ``site``, identity elsewhere."""
        if not 0 <= site < n_qubits:
            raise ValueError(f"site {site} out of range for {n_qubits} qubits")
        xb, zb = _LETTER_TO_MASKS[letter]
        return cls(n_qubits, xb << site, zb << site)

    def letter(self, site: int) -> str:
        return _MASKS_TO_LETTER[((self.x_mask >> site) & 1, (self.z_mask >> site) & 1)]

    def text(self) -> str:
        return "".join(self.letter(i) for i in range(self.n_qubits))

    @property
    def support(self) -> tuple[int, ...]:
        mask = self.x_mask | self.z_mask
        return tuple(i for i in range(self.n_qubits) if (mask >> i) & 1)

    def sort_key(self) -> tuple[int, int]:
        return (self.x_mask, self.z_mask)

    def __str__(self) -> str:
        return self.text()


class PauliSum:
    """An immutable sparse linear combination of Pauli strings.

    A non-finite coefficient raises ``ValueError``.  Terms with coefficient
    magnitude at or below ``DEFAULT_PRUNE_TOL`` are dropped at construction,
    duplicates are combined, and iteration order is the canonical
    ``(x_mask, z_mask)`` order.  The statevector form is built on
    first use of :meth:`compiled` and kept on the sum.
    """

    __slots__ = ("n_qubits", "_terms", "_hash", "_compiled")

    def __init__(
        self,
        n_qubits: int,
        terms: Mapping[PauliString, complex] | Iterable[tuple[PauliString, complex]] = (),
    ):
        if n_qubits <= 0:
            raise ValueError(f"n_qubits must be positive, got {n_qubits}")
        items = terms.items() if isinstance(terms, Mapping) else terms
        combined: dict[PauliString, complex] = {}
        for string, coeff in items:
            if string.n_qubits != n_qubits:
                raise ValueError(
                    f"term on {string.n_qubits} qubits in a {n_qubits}-qubit sum"
                )
            coeff = complex(coeff)
            if not cmath.isfinite(coeff):
                raise ValueError(f"term {string.text()} has non-finite coefficient {coeff}")
            combined[string] = combined.get(string, 0j) + coeff
        pruned = {s: c for s, c in combined.items() if abs(c) > DEFAULT_PRUNE_TOL}
        ordered = sorted(pruned.items(), key=lambda item: item[0].sort_key())
        object.__setattr__(self, "n_qubits", n_qubits)
        object.__setattr__(self, "_terms", tuple(ordered))
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_compiled", None)

    def __setattr__(self, name, value):
        raise AttributeError("PauliSum is immutable")

    @classmethod
    def from_text_terms(
        cls, terms: Iterable[tuple[str, complex]], n_qubits: int | None = None
    ) -> "PauliSum":
        parsed = [(PauliString.from_text(text), coeff) for text, coeff in terms]
        if n_qubits is None:
            if not parsed:
                raise ValueError("cannot infer qubit count from empty term list")
            n_qubits = parsed[0][0].n_qubits
        return cls(n_qubits, parsed)

    def items(self) -> tuple[tuple[PauliString, complex], ...]:
        return self._terms

    def strings(self) -> tuple[PauliString, ...]:
        return tuple(s for s, _ in self._terms)

    @property
    def n_terms(self) -> int:
        return len(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def is_hermitian(self) -> bool:
        """All coefficients real to within ``DEFAULT_PRUNE_TOL`` (each Pauli
        string is itself Hermitian); computed once, by the compiled form."""
        return self.compiled().hermitian

    def is_anti_hermitian(self) -> bool:
        """All coefficients purely imaginary to within ``DEFAULT_PRUNE_TOL``;
        computed once, by the compiled form."""
        return self.compiled().anti_hermitian

    def terms_mutually_commute(self) -> bool:
        """Every pair of strings commutes; computed once, by the compiled
        form."""
        return self.compiled().commuting

    def compiled(self) -> CompiledSum:
        """The statevector form of this sum, built on first use and kept."""
        if self._compiled is None:
            object.__setattr__(self, "_compiled", CompiledSum(self))
        return self._compiled

    def __iter__(self) -> Iterator[tuple[PauliString, complex]]:
        return iter(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PauliSum):
            return NotImplemented
        return self.n_qubits == other.n_qubits and self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.n_qubits, self._terms)))
        return self._hash

    def __repr__(self) -> str:
        body = " + ".join(f"({c:.6g})*{s.text()}" for s, c in self._terms[:6])
        if self.n_terms > 6:
            body += f" + ... ({self.n_terms} terms)"
        return f"PauliSum({body or '0'})"

