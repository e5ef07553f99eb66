"""Pauli sums compiled for the dense statevector engine.

A :class:`CompiledSum` is what the engine applies.  :meth:`PauliSum.compiled`
builds it on first use and keeps it on the sum, so a Hamiltonian or a
generator is analysed once however often it is applied; nothing is built at
import, at Hamiltonian load or at pool construction.  It keeps the sum's
term tuple and qubit count, not the sum itself, so a dropped sum and its
compiled arrays are freed at once rather than at the next full collection.
It holds

* the terms in the sum's canonical ``(x_mask, z_mask)`` order, grouped by X
  mask, with one flip index ``b -> b ^ x`` per mask and one sign vector
  ``(-1)^popcount(b & z)`` per distinct Z mask.  A sign vector is
  read-only and shared by every sum of the process with the same qubit
  count, Z mask and dtype, so a pool and its Hamiltonian, or a Hamiltonian
  loaded again, build none twice.  Up to
  ``_TABLE_AMPLITUDE_CAP`` amplitudes the flips are ``np.intp`` and the
  signs complex ``±1``, exactly the arrays numpy would otherwise cast to on
  every gather and product; above it they stay int32 and int8, a half and
  a sixteenth of those bytes, since a 12-qubit Hamiltonian has hundreds of
  sign vectors;
* each term's folded scalar: its coefficient times the unit phase
  ``i^y (-1)^y = (-i)^y``, where ``y = popcount(x & z)`` counts its Y letters;
* for a generator, once it is first exponentiated, one rotation tuple
  ``(flip, signs, imag, unit)`` per term, built after the generator check,
  so neither the check nor the walk over the groups is repeated per call;
* once a small state is applied, the term table: one complex row per term,
  the scalar times the term's sign vector, and one ``np.intp`` gather index
  per term;
* the Hermitian, anti-Hermitian and mutually-commuting flags, each computed
  on first use and read by the :class:`PauliSum` methods of the same names.
  The first two read the coefficients against ``DEFAULT_PRUNE_TOL``, the
  package's one tolerance, which also prunes a sum's terms.  The third reads
  the masks: two strings anticommute exactly when
  ``popcount(x_a & z_b) + popcount(z_a & x_b)`` is odd, the number of sites
  where both act with different letters.

**Generators.**  A generator is an anti-Hermitian sum of mutually commuting
Pauli strings: every qubit-excitation, qubit-pool and nearest-neighbour
operator is one.  :meth:`CompiledSum.exponential` applies it as one
closed-form rotation per term and raises on any other sum; there is no
general matrix exponential.

**One operator form.**  :meth:`CompiledSum.dense` is the one matrix form of
a sum, built from the same groups as ``apply``; the 12-qubit eigensolver
uses ``apply`` itself as its matrix-vector product.  So every matrix,
matvec and apply reads one encoding, and no sparse matrix (nor scipy) is
needed.

A string acts as ``(P psi)[b] = i^y s_z(b ^ x) psi[b ^ x]`` with
``s_z(b ^ x) = s_z(b) (-1)^popcount(x & z)``, so one gather per X mask serves
every term of that mask and the constant sign folds into the scalar.

**Bit-exact rule.**  Everything that feeds the optimizer (``apply``,
``exponential``) replays the arithmetic of the plain term-by-term route
(kept as the test reference) in the same term order: a product by a unit
phase or by a sign is exact, so moving it onto the scalar changes no bit,
and holding a small sum's flips and signs precast changes none either.
Which equality holds: ``apply`` is byte for byte the reference
``tests/oracles.reference_apply_sum``.  ``exponential`` is equal in value
(``np.array_equal``) to ``tests/oracles.reference_exponential`` but may
differ from it in the sign of a zero: the reference multiplies by the signs
and ``i^y`` before it gathers, this route gathers and then multiplies by
the folded ``i sin(w) (-i)^y``.  For the first QE double of
``build_qe_pool(8, 4)`` at ``theta = -2.31`` on basis states 15 and 37,
some zero amplitudes come out ``-0j`` where the reference has ``0j``.
A 1-D state of at most ``_TABLE_AMPLITUDE_CAP`` (2^8) amplitudes is
applied as one gather, one product and one sum over the term table, and
that replays the per-term rounding too: a sign is ``±1`` and rounding is
symmetric under negation; the table stays the left operand, as the scalar
was; numpy adds the rows of a C-contiguous array along axis 0 one after
another (only a single column would be summed pairwise, and a state has
two amplitudes or more); and the sum starts from ``+0`` as the per-term
accumulator did, so no negative zero survives.  Larger states keep the
per-term loop: the table route has been timed end to end only at 8 qubits,
and at 12 qubits a Hamiltonian's table is tens of MB and slower.
Summing the terms of a mask into one phase vector, a CSR matrix-vector
product or one Givens rotation of a whole single-mask generator each differ by
an ulp or so, and the optimizer's line-search and evaluation counts flip
under such differences.  Only the pool sweep, whose output feeds a tolerant
argmax, sums in another order (below).

**Stacks.**  ``apply`` and ``exponential`` also take a stack of states of
shape ``(m, 2^q)``.  A stack is applied term by term, never through the
table, which measured slower on 32-row stacks.  The gather runs along the
last axis and the sign vectors broadcast over the rows; each term's
arithmetic and order are those of the per-term 1-D route, so every row is
bit for bit the 1-D result.

**Batches.**  A :class:`GeneratorBatch` applies several generators, each to
its own small 1-D state, as one gather, product and sum over their term
tables stacked and padded with zero rows.  The sum over the term axis starts
from ``+0``, so a padded ``±0`` product changes no bit and each row is byte
for byte its generator's ``apply`` (``np.add.reduceat`` over unpadded rows
measured an ulp off).  Its ansatz keeps it, so no module cache outlives it.

**Pool sweeps.**  The pool sweep reads ``2 Re <H psi|A_k psi>`` for every
generator of a pool, and feeds only the tolerant argmax of the selection,
so it may sum in another order than ``apply``.  A generator whose terms
share one X mask ``x`` (every QE, qubit-pool and nearest-neighbour
operator) has a :attr:`CompiledSum.sign_table` ``(x, S, t)`` over its
qubit support ``S``, and ``<H psi|A psi> = sum_c t[c] r[c]`` with
``r[c]`` the sum of ``psi[b] conj((H psi)[b ^ x])`` over the ``b`` whose
bits on ``S`` are the pattern ``c``.  Only the patterns with ``t[c] != 0``
are read: 2 of the 16 of a QE double, 2 of the 4 of a single, and all of a
Pauli string's.  :attr:`GeneratorBatch.sweep_table` holds one row per
needed ``(x, S, c)``, shared by the generators that need it, with int32
indices; the sweep gathers and multiplies each block of rows, sums each
row with numpy's own ``sum(axis=1)``, and adds each generator's rows times
its entries of ``t`` with ``np.bincount``.  No BLAS call is made, so a
generator's value depends neither on the other generators nor on the BLAS
kernel.  It runs in float64 when ``psi`` and ``H psi`` have zero
imaginary parts.  An :class:`~adaptvqe.pools.OperatorPool` keeps its
batch, so the table is built once per pool and dropped with it (0.44 MB
for the 570 operators of a 12-qubit QE pool).

**Real problems.**  A sum is :attr:`CompiledSum.real` when every folded
scalar has a zero imaginary part: real coefficients on strings with an even
number of Y letters (every bundled Hamiltonian, TFIM, Heisenberg), or
imaginary ones on odd-Y strings (every QE and qubit-pool generator).  Such
a sum keeps a real state real, so ``apply``, ``exponential`` and
:meth:`GeneratorBatch.apply_each` also take float64 states, chosen by
dtype: real scalars and tables, float64 signs up to the cap (shared like
the complex ones) and the rotation factor ``-sin(w) unit.imag``, the exact
real part of ``i sin(w) unit``.  IEEE complex products and sums of operands
with zero imaginary parts have the real results as real parts, save the
sign of an exact zero, so each result is the complex route's real part.
Any other sum raises ``ValueError`` on a float64 state.
"""

from __future__ import annotations

from functools import cached_property
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

# Amplitudes per block of the pool sweep's rows (2^12 is slower, 2^14 no faster).
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
    def sign_table(self) -> tuple[int, int, np.ndarray, np.ndarray] | None:
        """``(x_mask, support, patterns, table)`` when every term shares one
        X mask ``x``; None for several X masks (or none).

        ``support`` is the qubit support, ``x`` and every Z mask.  A pattern
        ``c`` is a subset of it, and ``t[c]`` the sum of each term's
        ``coeff i^y (-1)^popcount(c & z)``, so that ``<phi|A psi>`` is the sum
        of ``t[c] conj(phi[b ^ x]) psi[b]`` over every ``b`` whose bits on
        ``support`` are some ``c``.  ``patterns`` (uint64, ascending) and
        ``table`` keep only the ``c`` with ``t[c] != 0``.
        """
        x_masks = {s.x_mask for s, _ in self.terms}
        if len(x_masks) != 1:
            return None
        x_mask = support = x_masks.pop()
        for string, _ in self.terms:
            support |= string.z_mask
        patterns = np.zeros(1, dtype=np.uint64)
        for q in range(self.n_qubits):
            if support >> q & 1:
                patterns = np.concatenate([patterns, patterns | np.uint64(1 << q)])
        z_masks = np.array([[s.z_mask] for s, _ in self.terms], dtype=np.uint64)
        scalars = np.array([[coeff * _UNIT_PHASES[(s.x_mask & s.z_mask).bit_count() % 4]]
                            for s, coeff in self.terms])
        table = (scalars * _parity_signs(patterns, z_masks)).sum(axis=0)
        kept = np.flatnonzero(table)
        return x_mask, support, patterns[kept], table[kept]

    def dense(self) -> np.ndarray:
        """The full-dimension matrix, site 0 least significant: each term in
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
    call (see the module doc).  ``tabled`` is true when their states have at
    most ``_TABLE_AMPLITUDE_CAP`` amplitudes, the only size
    :meth:`apply_each` takes."""

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

    @cached_property
    def sweep_table(self) -> tuple:
        """``(members, others, blocks, entries)``, the pool sweep's table (see
        "Pool sweeps" in the module doc).

        ``members`` are the indices of the generators with a
        :attr:`~CompiledSum.sign_table` and ``others`` the rest.  Row
        ``(x, S, c)`` reads the ``b = c | o`` for every ``o`` outside ``S``.
        The rows are sorted by the size of ``S``, and each block
        ``(outers, slots, patterns, flips)`` holds about ``_SWEEP_BLOCK``
        amplitudes of rows of one size: the int32 ``o`` of each of their
        supports, and per row its support's slot, ``c`` and ``x``.
        ``entries`` are ``(owners, rows, real, imag)``, one per pattern of
        each member's sign table: its position in ``members``, the row and
        ``t[c]``.
        """
        n_qubits = self.generators[0].n_qubits
        members, others, owners, keys, values = [], [], [], [], [np.empty(0, dtype=complex)]
        for k, compiled in enumerate(self.generators):
            if compiled.sign_table is None:
                others.append(k)
                continue
            x, support, patterns, table = compiled.sign_table
            owners += [len(members)] * patterns.size
            keys += [(support.bit_count(), support, c, x) for c in patterns.tolist()]
            values.append(table)
            members.append(k)
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
        return np.array(members, dtype=np.intp), others, blocks, (
            np.array(owners, dtype=np.intp), np.array([rows[key] for key in keys], dtype=np.intp),
            t.real.copy(), t.imag.copy())
