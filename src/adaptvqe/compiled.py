"""Pauli sums compiled for the dense statevector engine.

This module owns the engine's arithmetic invariants: the bit-exact rule,
the term table, stacks and batches, the pool sweep's summation order and
the real route.  ``CHANGES.md`` holds the measurements behind each choice.

A :class:`CompiledSum` is what the engine applies.  :meth:`PauliSum.compiled`
builds it on first use and keeps it on the sum, so an operator is analysed
once.  It keeps the sum's terms and qubit count, not the sum, so a dropped
sum and its arrays are freed at once.  A string acts as
``(P psi)[b] = i^y s_z(b ^ x) psi[b ^ x]``, with ``y = popcount(x & z)``
its Y letters and ``s_z(b ^ x) = s_z(b) (-1)^popcount(x & z)``, so a
compiled sum holds

* its terms in canonical ``(x_mask, z_mask)`` order, grouped by X mask, with
  one gather index ``b -> b ^ x`` per mask and one read-only sign vector
  ``(-1)^popcount(b & z)`` per Z mask, shared by every sum of the process
  with the same qubit count, Z mask and dtype.  Up to
  ``_TABLE_AMPLITUDE_CAP`` amplitudes these are ``np.intp`` and complex
  ``±1``, the arrays numpy would cast to on every call; above it, int32 and
  int8, which take less memory;
* each term's folded scalar, its coefficient times ``(-i)^y``;
* for a generator, one rotation ``(flip, signs, imag, unit)`` per term,
  built once, after the generator check;
* the Hermitian, anti-Hermitian and commuting flags, each computed on first
  use.  The first two read the coefficients against ``DEFAULT_PRUNE_TOL``,
  the package's one tolerance; two strings anticommute exactly when
  ``popcount(x_a & z_b) + popcount(z_a & x_b)`` is odd.

**Bit-exact rule.**  Everything that feeds the optimizer replays the plain
term-by-term route in the same term order, because the optimizer's
line-search and evaluation counts flip under one-ulp differences.  A
product by a unit phase or a sign is exact, so folding it into the scalar
changes no bit.  ``apply`` is byte for byte
``tests/oracles.reference_apply_sum``; ``exponential`` equals
``tests/oracles.reference_exponential`` in value but may differ in the sign
of a zero, since it gathers before it multiplies.  One phase vector per
mask, a CSR product or one Givens rotation per generator each move an ulp.

**Term table.**  A 1-D state of at most ``_TABLE_AMPLITUDE_CAP`` amplitudes
is applied as one gather, one product and one sum over a table of one row
per term, the scalar times its sign vector, with one gather index each.
That replays the per-term rounding: a sign is ``±1`` and rounding is
symmetric under negation; the table stays the left operand; numpy adds the
rows of a C-contiguous array along axis 0 one after another; and the sum
starts from ``+0``, as the per-term accumulator did.  Larger states keep
the per-term loop, since there a table is large and slower.  **Stacks** of
states, shape ``(m, 2^q)``, are applied term by term along the last axis,
never through the table, so every row is bit for bit the 1-D result.
**Batches.**  A :class:`GeneratorBatch` applies several generators, each to
its own small state, in one gather, product and sum over their tables
stacked and padded with zero rows; the sum starts from ``+0``
(``np.add.reduceat`` over unpadded rows rounds differently), so each row is
byte for byte its generator's ``apply``.  Its ansatz or pool keeps it.

**Pool sweeps.**  The pool sweep reads ``2 Re <H psi|A_k psi>`` for every
generator of a pool and feeds only the tolerant argmax of the selection,
so it alone may sum in another order.  :attr:`CompiledSum.sign_table` holds
one ``(x, S, patterns, t)`` per X mask of the terms, and ``<H psi|A psi>``
is the sum over the masks of ``sum_c t[c] r[c]``, with ``r[c]`` the sum of
``psi[b] conj((H psi)[b ^ x])`` over the ``b`` whose bits on ``S`` are
``c``, read only where ``t[c] != 0``.  :meth:`GeneratorBatch.gradients`
is the sweep.  It reads a table, built once per batch, of one row per
needed ``(x, S, c)``, shared by the generators that need it; it gathers and
multiplies blocks of rows, sums each row with numpy's ``sum(axis=1)`` and
adds each generator's rows times its entries with ``np.bincount``.  No
BLAS call is made, so a generator's value depends neither on the other
generators nor on the BLAS kernel.  It runs in float64 when ``psi`` and
``H psi`` have zero imaginary parts, whatever their dtype.

**Real problems.**  A sum is :attr:`CompiledSum.real` when every folded
scalar is real: real coefficients on even-Y strings, or imaginary ones on
odd-Y strings.  Such a sum keeps a real state real, so ``apply``,
``exponential`` and :meth:`GeneratorBatch.apply_each` also take float64
states, chosen by dtype, with real scalars and tables, shared float64 signs
up to the cap and the rotation factor ``-sin(w) unit.imag``.  IEEE products
and sums of operands with zero imaginary parts have the real results as
real parts, save the sign of an exact zero, so each result is the complex
route's real part.  Any other sum raises ``ValueError`` on a float64 state.
"""

from __future__ import annotations

from functools import cached_property
from itertools import groupby
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:
    from .paulis import PauliSum

__all__ = ["DEFAULT_PRUNE_TOL", "CompiledSum", "GeneratorBatch"]

# Drops a term from a sum and decides the Hermitian and anti-Hermitian flags.
DEFAULT_PRUNE_TOL = 1e-12

# 1-D states of at most this many amplitudes are applied through the term
# table: 8 qubits, the largest size whose runs have been timed end to end.
_TABLE_AMPLITUDE_CAP = 1 << 8

_UNIT_PHASES = (1 + 0j, 1j, -1 + 0j, -1j)

# Amplitudes per block of the pool sweep's rows: the size that timed fastest.
_SWEEP_BLOCK = 1 << 13

_FLOAT64 = np.dtype(np.float64)  # a real state's; cheaper to compare than np.float64

# One read-only sign vector per (n_qubits, z_mask, dtype), shared by every
# compiled sum for the life of the process.
_SIGN_VECTORS: dict[tuple[int, int, type], np.ndarray] = {}


def _parity_signs(index: np.ndarray, z_mask: int) -> np.ndarray:
    """(-1)^popcount(b & z_mask) for every basis index b."""
    parity = np.bitwise_count(index & np.uint64(z_mask)) & 1
    return (1 - 2 * parity).astype(np.int8)


def _shared_signs(n_qubits: int, index: np.ndarray, z_mask: int,
                  dtype: type) -> np.ndarray:
    """The read-only ``dtype`` sign vector of ``z_mask`` on ``n_qubits``,
    built from the basis ``index`` on first request and shared from then
    on."""
    key = (n_qubits, z_mask, dtype)
    signs = _SIGN_VECTORS.get(key)
    if signs is None:
        signs = _parity_signs(index, z_mask).astype(dtype, copy=False)
        signs.setflags(write=False)
        _SIGN_VECTORS[key] = signs
    return signs


class CompiledSum:
    """The statevector form of one :class:`PauliSum` (see the module doc)."""

    def __init__(self, operator: "PauliSum"):
        self.terms = operator.items()
        self.n_qubits = operator.n_qubits

    @cached_property
    def hermitian(self) -> bool:
        return all(abs(c.imag) <= DEFAULT_PRUNE_TOL for _, c in self.terms)

    @cached_property
    def anti_hermitian(self) -> bool:
        return all(abs(c.real) <= DEFAULT_PRUNE_TOL for _, c in self.terms)

    @cached_property
    def commuting(self) -> bool:
        masks = [(s.x_mask, s.z_mask) for s, _ in self.terms]
        return not any(((xa & zb).bit_count() + (za & xb).bit_count()) & 1
                       for i, (xa, za) in enumerate(masks) for xb, zb in masks[:i])

    def check_generator(self) -> None:
        """Raise ``ValueError`` unless this sum is a generator: anti-Hermitian,
        with mutually commuting Pauli strings."""
        if not self.anti_hermitian:
            raise ValueError("generator is not anti-Hermitian")
        if not self.commuting:
            raise ValueError("generator terms do not mutually commute")

    @cached_property
    def real(self) -> bool:
        """Every folded scalar is real, so a float64 state stays real (see
        "Real problems" in the module doc)."""
        return all(scalar.imag == 0.0 for _, terms in self._groups for *_, scalar, _ in terms)

    @cached_property
    def _groups(self) -> tuple:
        """``((flip, terms), ...)`` per X mask in canonical order.

        ``flip`` is the gather index ``b -> b ^ x``, None for the Z-only
        mask; each term is ``(signs, coeff, unit, scalar, z)`` with ``signs``
        the shared vector ``(-1)^popcount(b & z)``, None for a Z mask of 0, ``unit``
        the folded phase ``(-i)^y``, ``scalar = coeff * unit`` and ``z`` the
        Z mask.  The
        flips are ``np.intp`` and the signs complex up to
        ``_TABLE_AMPLITUDE_CAP`` amplitudes, int32 and int8 above it (see
        the module doc).
        """
        dim = 1 << self.n_qubits
        flip_type, sign_type = ((np.intp, complex) if dim <= _TABLE_AMPLITUDE_CAP
                                else (np.int32, np.int8))
        index = np.arange(dim, dtype=np.uint64)
        groups: list[tuple[np.ndarray | None, list]] = []
        last_x = None
        for string, coeff in self.terms:
            x, z = string.x_mask, string.z_mask
            if x != last_x:
                flip = (index ^ np.uint64(x)).astype(flip_type) if x else None
                groups.append((flip, []))
                last_x = x
            signs = _shared_signs(self.n_qubits, index, z, sign_type) if z else None
            unit = _UNIT_PHASES[3 * (x & z).bit_count() % 4]
            groups[-1][1].append((signs, coeff, unit, coeff * unit, z))
        return tuple((flip, tuple(terms)) for flip, terms in groups)

    @cached_property
    def _real_groups(self) -> tuple:
        """``_groups`` for float64 states: the same flips, each scalar's real
        part and, up to ``_TABLE_AMPLITUDE_CAP`` amplitudes, float64 signs."""
        if not self.real:
            raise ValueError("a float64 state needs a sum with real scalars")
        index = np.arange(1 << self.n_qubits, dtype=np.uint64)
        return tuple((flip, tuple(
            (signs if signs is None or signs.dtype == np.int8
             else _shared_signs(self.n_qubits, index, z, float), coeff, unit, scalar.real, z)
            for signs, coeff, unit, scalar, z in terms)) for flip, terms in self._groups)

    def _rotations_of(self, groups: tuple) -> tuple:
        """``(flip, signs, imag, unit)`` per term of a generator in canonical
        order, ``imag`` the imaginary part of its coefficient; raises as
        :meth:`check_generator` does for any other sum."""
        self.check_generator()
        return tuple((flip, signs, coeff.imag, unit)
                     for flip, terms in groups for signs, coeff, unit, *_ in terms)

    _rotations = cached_property(lambda self: self._rotations_of(self._groups))
    _real_rotations = cached_property(lambda self: self._rotations_of(self._real_groups))

    def _tabulate(self, groups: tuple, dtype: type) -> tuple[np.ndarray, np.ndarray]:
        """``(table, flips)``, one row per term in canonical order: the
        folded scalar times the term's sign vector (the scalar broadcast for
        a Z mask of 0) and its gather index ``b -> b ^ x``."""
        dim = 1 << self.n_qubits
        index = np.arange(dim, dtype=np.intp)
        rows, flips = [], []
        for flip, terms in groups:
            gather = index if flip is None else flip
            for signs, _, _, scalar, _ in terms:
                rows.append(np.full(dim, scalar) if signs is None else scalar * signs)
                flips.append(gather)
        return (np.array(rows, dtype=dtype).reshape(-1, dim),
                np.array(flips, dtype=np.intp).reshape(-1, dim))

    _table = cached_property(lambda self: self._tabulate(self._groups, complex))
    _real_table = cached_property(lambda self: self._tabulate(self._real_groups, float))

    def apply(self, amps: np.ndarray) -> np.ndarray:
        """``O|psi>``: term by term in canonical order, one gather per X mask.

        ``amps`` is one state or a stack of states, one per row, complex or,
        for a :attr:`real` sum, float64.  A state of at most
        ``_TABLE_AMPLITUDE_CAP`` amplitudes is applied through the term
        table in three numpy calls (see the module doc).
        """
        real = amps.dtype == _FLOAT64
        if amps.ndim == 1 and amps.size <= _TABLE_AMPLITUDE_CAP:
            table, flips = self._real_table if real else self._table
            gathered = amps.take(flips)
            np.multiply(table, gathered, out=gathered)
            return gathered.sum(axis=0, initial=0)
        out = np.zeros_like(amps)
        for flip, terms in self._real_groups if real else self._groups:
            gathered = amps if flip is None else amps.take(flip, axis=-1)
            for signs, _, _, scalar, _ in terms:
                out += scalar * (gathered if signs is None else gathered * signs)
        return out

    def exponential(self, amps: np.ndarray, theta: float) -> np.ndarray:
        """``exp(theta * A)|psi>`` for this generator ``A``.

        ``A`` must be an anti-Hermitian sum of mutually commuting Pauli
        strings, as every pool operator is; any other sum raises
        ``ValueError``.  The terms are applied one after another with the
        closed-form rotation ``exp(i w P) = cos(w) I + i sin(w) P``.
        ``amps`` is one state or a stack of states, one per row, complex or,
        for a :attr:`real` generator, float64 (see the module doc).
        """
        real = amps.dtype == _FLOAT64
        rotations = self._real_rotations if real else self._rotations
        if theta == 0.0:
            return amps
        for flip, signs, imag, unit in rotations:
            w = theta * imag
            if w == 0.0:
                continue
            rotated = amps if flip is None else amps.take(flip, axis=-1)
            if signs is not None:
                rotated = rotated * signs
            factor = -np.sin(w) * unit.imag if real else 1j * np.sin(w) * unit
            amps = np.cos(w) * amps + factor * rotated
        return amps

    @cached_property
    def sign_table(self) -> tuple[tuple[int, int, np.ndarray, np.ndarray], ...]:
        """``(x_mask, support, patterns, table)`` per X mask of the terms, in
        canonical order.

        ``support`` is the qubit support of the mask's terms, ``x`` and every
        Z mask.  A pattern ``c`` is a subset of it, and ``t[c]`` the sum of
        each of those terms' ``coeff i^y (-1)^popcount(c & z)``, so that the
        mask's share of ``<phi|A psi>`` is the sum of
        ``t[c] conj(phi[b ^ x]) psi[b]`` over every ``b`` whose bits on
        ``support`` are some ``c``.  ``patterns`` (uint64, ascending) and
        ``table`` keep only the ``c`` with ``t[c] != 0``.
        """
        tables = []
        for x_mask, group in groupby(self.terms, key=lambda term: term[0].x_mask):
            terms = tuple(group)
            support = x_mask
            for string, _ in terms:
                support |= string.z_mask
            patterns = np.zeros(1, dtype=np.uint64)
            for q in range(self.n_qubits):
                if support >> q & 1:
                    patterns = np.concatenate([patterns, patterns | np.uint64(1 << q)])
            z_masks = np.array([[s.z_mask] for s, _ in terms], dtype=np.uint64)
            scalars = np.array([[coeff * _UNIT_PHASES[(s.x_mask & s.z_mask).bit_count() % 4]]
                                for s, coeff in terms])
            table = (scalars * _parity_signs(patterns, z_masks)).sum(axis=0)
            kept = np.flatnonzero(table)
            tables.append((x_mask, support, patterns[kept], table[kept]))
        return tuple(tables)

    def dense(self) -> np.ndarray:
        """The one full-dimension matrix form of the sum, read from the same
        groups as :meth:`apply`, site 0 least significant: each term in
        canonical order adds its folded scalar times its sign vector at the
        entries ``(b, b ^ x)`` of an all-zero matrix, so each entry is
        rounded as in a dense sum of the terms' matrices."""
        dim = 1 << self.n_qubits
        index = np.arange(dim)
        out = np.zeros((dim, dim), dtype=complex)
        for flip, terms in self._groups:
            cols = index if flip is None else flip
            for signs, _, _, scalar, _ in terms:
                out[index, cols] += scalar if signs is None else scalar * signs
        return out


class GeneratorBatch:
    """Compiled generators, in order, each applied to its own state by one
    call, and swept as a pool by :meth:`gradients` (see the module doc).
    ``tabled`` is true when their states have at most
    ``_TABLE_AMPLITUDE_CAP`` amplitudes, the only size :meth:`apply_each`
    takes."""

    def __init__(self, generators: Sequence[CompiledSum]):
        self.generators = tuple(generators)
        self.tabled = bool(generators) and 1 << generators[0].n_qubits <= _TABLE_AMPLITUDE_CAP

    @cached_property
    def real(self) -> bool:
        """Every generator is :attr:`CompiledSum.real`."""
        return all(compiled.real for compiled in self.generators)

    def _stack(self, real: bool) -> tuple[np.ndarray, np.ndarray]:
        """Each generator's term table and its gather indices into the
        concatenated states, padded with zero rows to the longest."""
        dim = 1 << self.generators[0].n_qubits
        shape = (len(self.generators), max(len(g.terms) for g in self.generators), dim)
        table = np.zeros(shape, dtype=float if real else complex)
        index = np.zeros(shape, dtype=np.intp)
        for j, compiled in enumerate(self.generators):
            rows, flips = compiled._real_table if real else compiled._table
            table[j, :len(rows)] = rows
            index[j, :len(rows)] = flips + j * dim
        return table, index

    _table = cached_property(lambda self: self._stack(real=False))
    _real_table = cached_property(lambda self: self._stack(real=True))

    def apply_each(self, states: Sequence[np.ndarray]) -> np.ndarray:
        """Row ``j`` is ``generators[j].apply(states[j])``, byte for byte,
        for finite 1-D states of at most ``_TABLE_AMPLITUDE_CAP`` amplitudes,
        all complex or all float64."""
        table, index = self._real_table if states[0].dtype == _FLOAT64 else self._table
        gathered = np.concatenate(states).take(index)
        np.multiply(table, gathered, out=gathered)
        return gathered.sum(axis=1, initial=0)

    def gradients(self, psi: np.ndarray, h_psi: np.ndarray) -> np.ndarray:
        """``2 Re <H psi|A_k psi>`` for each generator, from a state ``psi``
        and ``h_psi`` = ``H|psi>``: the energy derivative of
        ``exp(t A_k)|psi>`` at ``t = 0``.

        ``psi`` and ``h_psi`` are 1-D, one amplitude per basis state of the
        generators' qubits.  Every generator is read from the batch's table,
        in the order "Pool sweeps" in the module doc sets out: the result
        agrees with :meth:`CompiledSum.apply` to rounding, not bit for bit,
        and a generator's value does not depend on the others swept with it.
        """
        if not self.generators:
            return np.empty(0)
        dim = 1 << self.generators[0].n_qubits
        if psi.shape != (dim,) or h_psi.shape != (dim,):
            raise ValueError(f"psi of shape {psi.shape} and H|psi> of shape {h_psi.shape}: "
                             f"the generators need two of shape ({dim},)")
        blocks, (owners, rows, t_real, t_imag) = self._sweep_table
        if psi.imag.any() or h_psi.imag.any():
            left, right = psi.astype(complex, copy=False), h_psi.conj()
        else:
            left, right = (np.ascontiguousarray(amps.real, dtype=float) for amps in (psi, h_psi))
        sums = [np.empty(0)]
        for outers, slots, patterns, flips in blocks:
            index = outers[slots]
            index |= patterns
            products = left.take(index)
            index ^= flips
            products *= right.take(index)
            sums.append(products.sum(axis=1))
        reduced = np.concatenate(sums)[rows]
        weights = t_real * reduced.real - t_imag * reduced.imag
        return 2.0 * np.bincount(owners, weights, minlength=len(self.generators))

    @cached_property
    def _sweep_table(self) -> tuple:
        """``(blocks, entries)``, the table :meth:`gradients` reads (see
        "Pool sweeps" in the module doc).

        Row ``(x, S, c)`` reads the ``b = c | o`` for every ``o`` outside
        ``S``.  The rows are sorted by the size of ``S``, and each block
        ``(outers, slots, patterns, flips)`` holds about ``_SWEEP_BLOCK``
        amplitudes of rows of one size: the int32 ``o`` of each of their
        supports, and per row its support's slot, ``c`` and ``x``.
        ``entries`` are ``(owners, rows, real, imag)``, one per pattern of
        each X mask's :attr:`~CompiledSum.sign_table` of each generator:
        the generator's index, the row and ``t[c]``.
        """
        n_qubits = self.generators[0].n_qubits
        owners, keys, values = [], [], [np.empty(0, dtype=complex)]
        for k, compiled in enumerate(self.generators):
            for x, support, patterns, table in compiled.sign_table:
                owners += [k] * patterns.size
                keys += [(support.bit_count(), support, c, x) for c in patterns.tolist()]
                values.append(table)
        rows = {key: j for j, key in enumerate(sorted(set(keys)))}
        index = np.arange(1 << n_qubits)
        blocks = []
        for size in sorted({key[0] for key in rows}):
            run = [key for key in rows if key[0] == size]
            slots = {support: j for j, support in enumerate(sorted({key[1] for key in run}))}
            outers = np.array([np.flatnonzero(index & support == 0) for support in slots],
                              dtype=np.int32)
            step = max(1, _SWEEP_BLOCK >> n_qubits - size)
            for start in range(0, len(run), step):
                _, supports, patterns, flips = np.array(run[start:start + step]).T
                blocks.append((outers, np.array([slots[s] for s in supports.tolist()]),
                               patterns[:, None].astype(np.int32), flips[:, None].astype(np.int32)))
        t = np.concatenate(values)
        return blocks, (np.array(owners, dtype=np.intp),
                        np.array([rows[key] for key in keys], dtype=np.intp),
                        t.real.copy(), t.imag.copy())
