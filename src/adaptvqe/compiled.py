"""Pauli sums compiled for the dense statevector engine.

This module owns the engine's arithmetic invariants: the bit-exact rule,
the term table, the X-mask route, the support route, batches, the pool
sweep's summation order and the real route.  ``CHANGES.md`` holds the
measurements behind each choice.

A :class:`CompiledSum` is what the engine applies.  :meth:`PauliSum.compiled`
builds it on first use and keeps it on the sum, so an operator is analysed
once.  It keeps the sum's terms and qubit count, not the sum, and shares
no array with another sum, so a dropped sum and its arrays are freed at
once.  A string acts as ``(P psi)[b] = i^y s_z(b ^ x) psi[b ^ x]``, with
``y = popcount(x & z)`` its Y letters and
``s_z(b ^ x) = s_z(b) (-1)^popcount(x & z)``, so a compiled sum holds

* its terms in canonical ``(x_mask, z_mask)`` order and one set of per-term
  arrays in that order: ``_scalars``, each term's folded scalar (its
  coefficient times ``(-i)^y``) in one complex column; ``_sign_rows``, one
  read-only int8 row ``(-1)^popcount(b & z)`` per term; and ``_groups``, one
  ``(flip, start, stop)`` per X mask, the gather index ``b -> b ^ x`` (None
  for the Z-only mask) and the mask's slice of the other two.  Every route
  reads slices of these and builds only what it reads;
* for a generator, one rotation ``(flip, signs, imag, factor)`` per term,
  built once per dtype, after the generator check.  Up to
  ``_TABLE_AMPLITUDE_CAP`` amplitudes the signs are the term's row cast
  once to the state's dtype, the operands numpy would cast to on every
  call, and the flips ``np.intp``.  Above it the signs are the int8 row, a
  view cast on every call, and the flips int32, so the arrays grow by one
  int8 per amplitude and term: at the 20-qubit cap a float64 row would take
  8 MB against 1 MB;
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
of a zero, since it gathers before it multiplies, and is byte for byte
``tests/oracles.reference_gathered_exponential``.  One phase vector per
mask, a CSR product or one Givens rotation per generator each move an ulp.

**Term table.**  A 1-D state of at most ``_TABLE_AMPLITUDE_CAP`` amplitudes
is applied over a table of one row per term, the scalar times its sign row:
one gather with one index row per X mask, one row gather that gives each
term its mask's gathered row, one product in place with the table as left
operand, and one sum.  That replays the per-term rounding: a sign is ``±1``
and rounding is symmetric under negation; a Z mask of 0 gives the scalar
itself, since a finite nonzero coefficient times ``1 + 0j``, times
``1 + 0j`` again, keeps every bit; the table stays the left operand; numpy
adds the rows of a C-contiguous array along axis 0 one after another; and
the sum starts from ``+0``, as the per-term accumulator did.  Larger states
take the X-mask or the support route, since there a table is large and
slower.

**X-mask route.**  Every stack of states of shape ``(m, 2^q)``, applied
along the last axis, and every larger 1-D state that the support route
leaves, goes one X mask at a time: one gather, then, for each block of the
mask's terms in canonical order (at most ``_STACK_ROWS`` terms and
``_STACK_AMPLITUDES`` amplitudes), one product of their scalars by the
gathered state into one buffer allocated per call, one product by their
sign rows, the accumulator added to the block's first row and one
``np.add.reduce`` along axis 0 into the accumulator.  That replays the
per-term rounding too: ``(c g) s`` and ``c (g s)`` differ at most in the
sign of a zero, since ``s = ±1``; IEEE addition commutes, so ``t + out`` is
``out + t``; the accumulator starts from ``+0`` and, rounding to nearest,
becomes ``-0`` only when both addends are, so no sign of a zero reaches it;
and numpy adds the rows along axis 0 one after another.  So every row of a
stack is bit for bit the 1-D result.

**Support route.**  A 1-D state above the cap with at most a quarter of its
amplitudes nonzero is applied only where it is nonzero, every term at once.
Its support ``S``, the nonzero indices, is gathered once.  A term adds its
scalar times ``psi[S]`` times its signs at ``S ^ x``, which are its signs
at ``S`` times ``(-1)^popcount(x & z)``; that constant is folded into a
column of scalars, once per sum and dtype, so every term's signs are read
at ``S`` itself, with one shared-index ``take`` of ``_sign_rows``.  The
terms go in canonical order, in chunks of ``_STACK_AMPLITUDES // |S|``
terms, at least one: per chunk one product of the folded scalars by the
gathered amplitudes, one product by the signs, the indices ``S ^ x`` they
reach and one ``np.add.at`` of the products there.  That is byte for byte
the X-mask route: a product by ``±1`` is exact, so each product is the
X-mask route's save the sign of a zero; ``np.add.at`` is unbuffered and
adds in index order, so every reached amplitude gets the same products
added from ``+0`` in the same term order; every skipped product is
``(c ±0) s = ±0``, and an accumulator that starts from ``+0`` is never
``-0``, so adding ``±0`` leaves it as it is; and every amplitude never
reached is ``+0`` on both routes.  The route's cost grows with ``S``, so it
stops at a quarter of the amplitudes.  Stacks keep the X-mask route: the
route reads one support per call, and each row of a stack has its own.

**Batches.**  A :class:`GeneratorBatch` applies several generators, each to
its own small state, over their tables stacked and padded with zero rows:
one gather per X mask of each generator, one row gather (none when each
generator is one string), one product and one sum.  The sum starts from
``+0`` (``np.add.reduceat`` over unpadded rows rounds differently), so each
row is byte for byte its generator's ``apply``.  Its ansatz or pool keeps
it.

**Pool sweeps.**  The pool sweep reads ``2 Re <H psi|A_k psi>`` for every
generator of a pool and feeds only the tolerant argmax of the selection,
so it alone may sum in another order.  Each X mask ``x`` of a generator
has a sign table: ``S`` the qubit support of the mask's terms, ``x`` and
every Z mask; a pattern ``c`` a subset of ``S``; and ``t[c]`` the sum of
each of those terms' ``coeff i^y (-1)^popcount(c & z)``.  ``<H psi|A psi>``
is the sum over the masks of ``sum_c t[c] r[c]``, with ``r[c]`` the sum of
``psi[b] conj((H psi)[b ^ x])`` over the ``b`` whose bits on ``S`` are
``c``, read only where ``t[c] != 0``.  :meth:`GeneratorBatch.gradients`
is the sweep.  It reads a table, built once per batch with no loop over
its generators, of one row per
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
states, chosen by dtype, with the real scalars ``_real_scalars``, the same
int8 rows and the rotation factor ``sin(w) (-unit.imag)``.  IEEE products
and sums of operands with zero imaginary parts have the real results as
real parts, save the sign of an exact zero, so each result is the complex
route's real part.  ``_real_scalars`` raises ``ValueError`` for any other
sum, so every route refuses it on a float64 state.
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

# Terms, and amplitudes (16 12-qubit states), per block of the X-mask route
# of ``apply``: the sizes that timed fastest.
_STACK_ROWS = 16
_STACK_AMPLITUDES = _STACK_ROWS << 12

# Amplitudes per block of the pool sweep's rows: the size that timed fastest.
_SWEEP_BLOCK = 1 << 13

_FLOAT64 = np.dtype(np.float64)  # a real state's; cheaper to compare than np.float64


def _parity_signs(index: np.ndarray, z_mask: int) -> np.ndarray:
    """(-1)^popcount(b & z_mask) for every basis index b."""
    parity = np.bitwise_count(index & z_mask) & 1
    return (1 - 2 * parity).astype(np.int8)


def _support(amps: np.ndarray) -> np.ndarray | None:
    """The indices of a 1-D state's nonzero amplitudes, in ascending order;
    None when more than a quarter of them are nonzero (see "Support route"
    in the module doc)."""
    nonzero = amps != 0
    if np.count_nonzero(nonzero) > amps.size >> 2:
        return None
    return np.flatnonzero(nonzero)


def _deposit(counts: np.ndarray, masks: np.ndarray, n_qubits: int) -> np.ndarray:
    """Each count's bits, lowest first, placed on the set bits of its mask,
    as int32: the counts ``0, 1, ...`` give the subsets of a mask in
    ascending order."""
    out = np.zeros(np.broadcast_shapes(counts.shape, masks.shape), dtype=np.int32)
    counts, bits = np.broadcast_to(counts, out.shape).astype(np.int32), np.empty_like(out)
    for q in range(n_qubits):
        on = (masks >> q & 1).astype(np.int32)
        np.bitwise_and(counts, on, out=bits)
        bits <<= q
        out |= bits
        counts >>= on
    return out


def _sign_tables(generators: Sequence["CompiledSum"]) -> tuple:
    """The sign tables of every X mask of ``generators`` (see "Pool sweeps"
    in the module doc), flat: ``((owner, x, support), (group, patterns,
    t_real, t_imag))``, the first one entry per mask of each generator in
    order, the second one per pattern ``c`` with ``t[c] != 0`` of each mask,
    in ascending order.

    Each ``t[c]`` is summed over its mask's terms in canonical order from
    ``+0`` by ``np.bincount``, one parity for every term and pattern.
    """
    n_qubits = generators[0].n_qubits
    owner = np.repeat(np.arange(len(generators)), [len(g.terms) for g in generators])
    x = np.array([s.x_mask for g in generators for s, _ in g.terms], dtype=np.int32)
    z = np.array([s.z_mask for g in generators for s, _ in g.terms], dtype=np.int32)
    scalars = np.array([c * _UNIT_PHASES[(s.x_mask & s.z_mask).bit_count() % 4]
                        for g in generators for s, c in g.terms], dtype=complex)
    starts = (np.diff(owner, prepend=-1) != 0) | (np.diff(x, prepend=-1) != 0)
    group, first = np.cumsum(starts) - 1, np.flatnonzero(starts)
    support = np.bitwise_or.reduceat(z, first) | x[first]
    width = 1 << np.bitwise_count(support).astype(np.int64)
    offset = np.cumsum(width) - width
    owned = np.repeat(np.arange(first.size), width)
    patterns = _deposit(np.arange(owned.size) - offset[owned], support[owned], n_qubits)
    reads = width[group]
    pair = np.arange(reads.sum())
    pair -= np.repeat(np.cumsum(reads) - reads - offset[group], reads)
    signs = _parity_signs(patterns[pair], np.repeat(z, reads))
    t_real, t_imag = (np.bincount(pair, np.repeat(part, reads) * signs, minlength=patterns.size)
                      for part in (scalars.real, scalars.imag))
    kept = (t_real != 0) | (t_imag != 0)
    return ((owner[first], x[first], support),
            (owned[kept], patterns[kept], t_real[kept], t_imag[kept]))


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
    def _scalars(self) -> np.ndarray:
        """The column of every term's folded scalar, its coefficient times
        ``(-i)^y``, in canonical order."""
        return np.array([coeff * _UNIT_PHASES[3 * (s.x_mask & s.z_mask).bit_count() % 4]
                         for s, coeff in self.terms], dtype=complex).reshape(-1, 1)

    @cached_property
    def real(self) -> bool:
        """Every folded scalar is real, so a float64 state stays real (see
        "Real problems" in the module doc)."""
        return not self._scalars.imag.any()

    @cached_property
    def _real_scalars(self) -> np.ndarray:
        """The real parts of ``_scalars``, for float64 states; the one check
        that refuses a sum that is not :attr:`real`."""
        if not self.real:
            raise ValueError("a float64 state needs a sum with real scalars")
        return self._scalars.real.copy()

    @cached_property
    def _sign_rows(self) -> np.ndarray:
        """The read-only int8 sign rows (see the module doc), filled a row at
        a time, so no temporary outgrows a row."""
        index = np.arange(1 << self.n_qubits, dtype=np.uint64)
        rows = np.empty((len(self.terms), index.size), dtype=np.int8)
        for row, (string, _) in zip(rows, self.terms):
            row[...] = _parity_signs(index, string.z_mask)
        rows.setflags(write=False)
        return rows

    @cached_property
    def _groups(self) -> tuple:
        """``(flip, start, stop)`` per X mask in canonical order: the gather
        index ``b -> b ^ x`` (see the module doc) and the mask's slice of the
        per-term arrays."""
        dim = 1 << self.n_qubits
        index = np.arange(dim, dtype=np.uint64)
        dtype = np.intp if dim <= _TABLE_AMPLITUDE_CAP else np.int32
        groups, stop = [], 0
        for x, group in groupby(string.x_mask for string, _ in self.terms):
            start, stop = stop, stop + sum(1 for _ in group)
            groups.append(((index ^ np.uint64(x)).astype(dtype) if x else None, start, stop))
        return tuple(groups)

    def _rotations_of(self, real: bool) -> tuple:
        """``(flip, signs, imag, factor)`` per term of a generator in
        canonical order (see the module doc; ``signs`` is None for a Z mask
        of 0): ``imag`` the imaginary part of its coefficient and ``factor``
        what ``sin(w)`` is scaled by, ``-unit.imag`` on the real route and
        the folded phase ``unit`` on the complex one.  Raises as
        :meth:`check_generator` and ``_real_scalars`` do."""
        self.check_generator()
        dtype = self._real_scalars.dtype if real else self._scalars.dtype
        cast = 1 << self.n_qubits <= _TABLE_AMPLITUDE_CAP
        rotations = []
        for flip, start, stop in self._groups:
            for (string, coeff), row in zip(self.terms[start:stop], self._sign_rows[start:stop]):
                unit = _UNIT_PHASES[3 * (string.x_mask & string.z_mask).bit_count() % 4]
                signs = None if not string.z_mask else row.astype(dtype) if cast else row
                rotations.append((flip, signs, coeff.imag, -unit.imag if real else unit))
        return tuple(rotations)

    _rotations = cached_property(lambda self: self._rotations_of(real=False))
    _real_rotations = cached_property(lambda self: self._rotations_of(real=True))

    def _tabulate(self, scalars: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(table, flips, masks)``: one row per term in canonical order, the
        folded scalar times the term's sign row; one gather index
        ``b -> b ^ x`` per X mask; and each term's row of ``flips``."""
        dim = 1 << self.n_qubits
        flips = [np.arange(dim) if flip is None else flip for flip, *_ in self._groups]
        masks = np.repeat(np.arange(len(self._groups)),
                          [stop - start for _, start, stop in self._groups])
        return scalars * self._sign_rows, np.array(flips, dtype=np.intp).reshape(-1, dim), masks

    _table = cached_property(lambda self: self._tabulate(self._scalars))
    _real_table = cached_property(lambda self: self._tabulate(self._real_scalars))

    def _fold(self, scalars: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(scalars, masks)``, one column entry per term: ``scalars`` times
        ``(-1)^popcount(x & z)`` and the X mask as ``np.intp`` (see "Support
        route" in the module doc)."""
        odd = np.array([(s.x_mask & s.z_mask).bit_count() & 1 for s, _ in self.terms], dtype=bool)
        masks = np.array([s.x_mask for s, _ in self.terms], dtype=np.intp)
        return np.where(odd[:, None], -scalars, scalars), masks[:, None]

    _folded = cached_property(lambda self: self._fold(self._scalars))
    _real_folded = cached_property(lambda self: self._fold(self._real_scalars))

    def apply(self, amps: np.ndarray) -> np.ndarray:
        """``O|psi>``, in canonical term order.

        ``amps`` is one state or a stack of states, one per row, complex or,
        for a :attr:`real` sum, float64.  A 1-D state takes the term table up
        to ``_TABLE_AMPLITUDE_CAP`` amplitudes, and above it the support
        route when at most a quarter of it is nonzero; any other state or
        stack takes the X-mask route (see the module doc).
        """
        real = amps.dtype == _FLOAT64
        if amps.ndim == 1 and amps.size <= _TABLE_AMPLITUDE_CAP:
            table, flips, masks = self._real_table if real else self._table
            gathered = amps.take(flips).take(masks, axis=0)
            np.multiply(table, gathered, out=gathered)
            return gathered.sum(axis=0, initial=0)
        out = np.zeros_like(amps)
        support = _support(amps) if amps.ndim == 1 else None
        if support is not None:
            folded, x_masks = self._real_folded if real else self._folded
            source = amps.take(support)
            chunk = max(1, _STACK_AMPLITUDES // max(support.size, 1))
            for first in range(0, len(folded), chunk):
                products = folded[first:first + chunk] * source
                products *= self._sign_rows[first:first + chunk].take(support, axis=1)
                reached = support ^ x_masks[first:first + chunk]
                np.add.at(out, reached.ravel(), products.ravel())
            return out
        scalars, signs = self._real_scalars if real else self._scalars, self._sign_rows
        if amps.ndim == 2:
            scalars, signs = scalars[:, None], signs[:, None]
        longest = max((stop - start for _, start, stop in self._groups), default=0)
        step = max(1, min(_STACK_ROWS, _STACK_AMPLITUDES // max(amps.size, 1)))
        block = np.empty((min(longest, step), *amps.shape), dtype=amps.dtype)
        for flip, start, stop in self._groups:
            gathered = amps if flip is None else amps.take(flip, axis=-1)
            for first in range(start, stop, step):
                last = min(first + step, stop)
                rows = block[:last - first]
                np.multiply(scalars[first:last], gathered, out=rows)
                rows *= signs[first:last]
                rows[0] += out
                np.add.reduce(rows, axis=0, out=out)
        return out

    def exponential(self, amps: np.ndarray, theta: float) -> np.ndarray:
        """``exp(theta * A)|psi>`` for this generator ``A``.

        ``A`` must be an anti-Hermitian sum of mutually commuting Pauli
        strings, as every pool operator is; any other sum raises
        ``ValueError``.  The terms are applied one after another with the
        closed-form rotation ``exp(i w P) = cos(w) I + i sin(w) P``: one
        gather of the state, in-place products by the term's signs and by
        ``sin(w)`` times its factor, then the state times ``cos(w)`` plus
        the rotated state.  Each product has the operands of the plain
        ``cos(w) psi + f P psi``, at most swapped, so the bytes are the
        same; ``amps`` itself is never written.  It is one state or a stack
        of states, one per row, complex or, for a :attr:`real` generator,
        float64 (see the module doc).
        """
        real = amps.dtype == _FLOAT64
        rotations = self._real_rotations if real else self._rotations
        if theta == 0.0:
            return amps
        for flip, signs, imag, factor in rotations:
            w = theta * imag
            if w == 0.0:
                continue
            rotated = amps.copy() if flip is None else amps.take(flip, axis=-1)
            if signs is not None:
                rotated *= signs
            rotated *= np.sin(w) * factor if real else 1j * np.sin(w) * factor
            amps = amps * np.cos(w)
            amps += rotated
        return amps

    def dense(self) -> np.ndarray:
        """The one full-dimension matrix form of the sum, site 0 least
        significant: each term in canonical order adds its term-table row at
        the entries ``(b, b ^ x)`` of an all-zero matrix, so each entry is
        rounded as in a dense sum of the terms' matrices."""
        table, flips, masks = self._tabulate(self._scalars)
        index = np.arange(1 << self.n_qubits)
        out = np.zeros((index.size, index.size), dtype=complex)
        for row, mask in zip(table, masks):
            out[index, flips[mask]] += row
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

    def _stack(self, real: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """``(table, flips, rows)``: each generator's term table, padded with
        zero rows to the longest; the gather index of each X mask of each
        generator into the concatenated states; and each padded term's row
        of ``flips`` (row 0 for a padding row), None when that is every row
        in order, as when each generator is one string."""
        dim = 1 << self.generators[0].n_qubits
        shape = (len(self.generators), max(len(g.terms) for g in self.generators), dim)
        table = np.zeros(shape, dtype=float if real else complex)
        rows = np.zeros(shape[:2], dtype=np.intp)
        flips, start = [], 0
        for j, compiled in enumerate(self.generators):
            terms, mask_flips, masks = compiled._real_table if real else compiled._table
            table[j, :len(terms)] = terms
            rows[j, :len(terms)] = masks + start
            flips.append(mask_flips + j * dim)
            start += len(mask_flips)
        return table, np.concatenate(flips), None if start == rows.size else rows.ravel()

    _table = cached_property(lambda self: self._stack(real=False))
    _real_table = cached_property(lambda self: self._stack(real=True))

    def apply_each(self, states: Sequence[np.ndarray]) -> np.ndarray:
        """Row ``j`` is ``generators[j].apply(states[j])``, byte for byte,
        for finite 1-D states of at most ``_TABLE_AMPLITUDE_CAP`` amplitudes,
        all complex or all float64."""
        table, flips, rows = self._real_table if states[0].dtype == _FLOAT64 else self._table
        gathered = np.concatenate(states).take(flips)
        if rows is not None:
            gathered = gathered.take(rows, axis=0)
        gathered = gathered.reshape(table.shape)
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
        ``entries`` are ``(owners, rows, real, imag)``, one per kept pattern
        of each X mask of each generator (:func:`_sign_tables`): the
        generator's index, the row and ``t[c]``.  The ``o`` are the counts
        ``0, 1, ...`` deposited on the qubits outside ``S``.
        """
        n_qubits = self.generators[0].n_qubits
        (owner, x, support), (group, patterns, t_real, t_imag) = _sign_tables(self.generators)
        support, x = support[group], x[group]
        keys = np.stack([np.bitwise_count(support).astype(np.int64), support, patterns, x], axis=1)
        order = np.lexsort(keys.T[::-1])
        fresh = (np.diff(keys[order], axis=0, prepend=-1) != 0).any(axis=1)
        rows = np.empty(order.size, dtype=np.intp)
        rows[order] = np.cumsum(fresh) - 1
        unique = keys[order[fresh]]
        blocks = []
        for size in sorted(set(unique[:, 0].tolist())):
            run = unique[unique[:, 0] == size]
            fresh = np.diff(run[:, 1], prepend=-1) != 0
            free = ((1 << n_qubits) - 1) & ~run[fresh, 1]
            outers = _deposit(np.arange(1 << n_qubits - size), free[:, None], n_qubits)
            slots = np.cumsum(fresh) - 1
            step = max(1, _SWEEP_BLOCK >> n_qubits - size)
            for start in range(0, len(run), step):
                part = run[start:start + step]
                blocks.append((outers, slots[start:start + step],
                               part[:, 2:3].astype(np.int32), part[:, 3:4].astype(np.int32)))
        return blocks, (owner[group].astype(np.intp), rows, t_real, t_imag)
