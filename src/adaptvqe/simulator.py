"""Dense statevector engine for Pauli-sum Hamiltonians and ansatz generators.

States are dense vectors over the 2^n computational basis, qubit 0 the
least-significant bit of the index.  Every operator is applied through its
compiled form, built once and kept on the sum with its flags, so each
operator is validated once; :mod:`adaptvqe.compiled` owns the arithmetic
(the bit-exact rule, the term table, the pool sweep's order, the real
route).  An ansatz generator must be an anti-Hermitian sum of mutually
commuting Pauli strings; :class:`AnsatzState` rejects any other and checks
its reference once, when it is built.  One rule accepts a Hamiltonian at
every entry point: it is Hermitian and acts on the state's qubits.

**What a trial recomputes.**  An ansatz keeps its compiled generators (a
:class:`~adaptvqe.compiled.GeneratorBatch`), its reference amplitudes and
its parameter array.  :meth:`AnsatzState.with_parameters` checks only the
new angles and hands the rest on, so a line-search trial recomputes only
its states, ``H|psi>``, the energy and, when read, the reverse half.

**The sweep's two halves.**  Analytic gradients come from one sweep over
the ansatz elements.  The forward half checks the Hamiltonian, stores every
intermediate state and ``H|psi>`` and yields the energy; the reverse half
carries ``H|psi>`` back through the elements to the first and yields the
full gradient.  One point's gradient on a tabled batch applies every
generator in one call.  The sweep takes one parameter vector as a 1-D
state, or a stack of them, one per row, each row bit for bit its own call's
result.

**The carried handle.**  :func:`energy_then_gradient` runs the forward half
and returns a :class:`GradientHandle`, which runs the reverse half on its
first call, so a trial whose gradient is never read costs only the forward
half.  The handle keeps its point's energy, ``psi`` and ``H|psi>``,
read-only, and drops every other forward state once its gradient is
computed.  The growth loop's next pool sweep
(:meth:`~adaptvqe.compiled.GeneratorBatch.gradients`, which takes no
Hamiltonian) and the recycled start read them instead of preparing the
state again: a generator at angle 0 leaves its input unchanged, so the
state at ``(x*, 0)`` is the state at ``x*``, bit for bit.

**Complex overlaps.**  When the Hamiltonian and every generator are real,
the sweep carries float64 states (see "Real problems" in
:mod:`adaptvqe.compiled`), but every reduction stays a complex ``np.vdot``
of converted operands: a float64 one calls BLAS ddot, which rounds
otherwise than zdotc.  The handle keeps the sweep's own ``psi`` and the
complex ``H|psi>``; :func:`prepare`, :func:`expectation` and
:class:`StateVector` stay complex.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .compiled import CompiledSum, GeneratorBatch
from .paulis import PauliSum

__all__ = [
    "MAX_QUBITS",
    "check_qubit_cap",
    "StateVector",
    "AnsatzState",
    "prepare",
    "expectation",
    "GradientHandle",
    "energy_then_gradient",
    "energy_and_gradient",
    "gradient_components",
]

MAX_QUBITS = 20

_IMAG_TOL = 1e-10

# Amplitudes per stack in a stacked gradient_components sweep.
_STACK_CAP = 1 << 13


def check_qubit_cap(n_qubits: int) -> None:
    """``ValueError`` when ``n_qubits`` is above :data:`MAX_QUBITS`."""
    if n_qubits > MAX_QUBITS:
        raise ValueError(
            f"{n_qubits} qubits exceeds the dense-statevector cap of {MAX_QUBITS}"
        )


@dataclass(frozen=True)
class StateVector:
    """Normalized amplitudes over the 2^n computational basis states."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        check_qubit_cap(self.n_qubits)
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (1 << self.n_qubits,):
            raise ValueError(
                f"expected {1 << self.n_qubits} amplitudes, got shape {amps.shape}"
            )
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)


def _finite_angle(theta) -> float:
    theta = float(theta)
    if not math.isfinite(theta):
        raise ValueError("ansatz parameter is not finite")
    return theta


@dataclass(frozen=True)
class AnsatzState:
    """A reference occupation bitstring plus ordered (generator, angle) pairs.

    The prepared state is ``exp(t_n A_n) ... exp(t_1 A_1)|ref>`` with element
    order matching ansatz growth order.  Generators must be anti-Hermitian
    sums of mutually commuting Pauli strings.
    """

    reference: str
    elements: tuple[tuple[PauliSum, float], ...] = ()

    def __post_init__(self):
        n_qubits = len(self.reference)
        if not all(c in "01" for c in self.reference):
            raise ValueError(f"invalid reference bitstring {self.reference!r}")
        check_qubit_cap(n_qubits)
        normalized = []
        for generator, theta in self.elements:
            if generator.n_qubits != n_qubits:
                raise ValueError("generator qubit count does not match reference")
            generator.compiled().check_generator()
            normalized.append((generator, _finite_angle(theta)))
        object.__setattr__(self, "elements", tuple(normalized))

    @property
    def n_qubits(self) -> int:
        return len(self.reference)

    @property
    def n_parameters(self) -> int:
        return len(self.elements)

    @property
    def parameters(self) -> np.ndarray:
        return self._parameters.copy()

    @cached_property
    def _parameters(self) -> np.ndarray:
        """The angles, read-only."""
        return _read_only(np.array([theta for _, theta in self.elements], dtype=float))

    @cached_property
    def generators(self) -> tuple[PauliSum, ...]:
        return tuple(gen for gen, _ in self.elements)

    @cached_property
    def _batch(self) -> GeneratorBatch:
        """The compiled generators, in order."""
        return GeneratorBatch([gen.compiled() for gen in self.generators])

    @cached_property
    def _reference_amplitudes(self) -> np.ndarray:
        """The reference basis state, read-only; site 0 is the lowest bit."""
        amps = np.zeros(1 << self.n_qubits, dtype=complex)
        amps[int(self.reference[::-1] or "0", 2)] = 1.0
        return _read_only(amps)

    def with_parameters(self, x: np.ndarray) -> "AnsatzState":
        """This ansatz at the angles ``x`` (copied), a 1-D vector of one
        finite number per generator.  Only the angles are checked; the new
        state shares this one's angle-independent caches."""
        x = np.array(x, dtype=float)
        if x.ndim != 1:
            raise ValueError(f"parameter vector must be 1-D, got shape {x.shape}")
        if x.size != self.n_parameters:
            raise ValueError("parameter vector length does not match ansatz")
        thetas = x.tolist()
        if not all(map(math.isfinite, thetas)):
            raise ValueError("ansatz parameter is not finite")
        state = object.__new__(AnsatzState)
        state.__dict__.update(
            reference=self.reference, elements=tuple(zip(self.generators, thetas)),
            generators=self.generators, _batch=self._batch,
            _reference_amplitudes=self._reference_amplitudes, _parameters=_read_only(x))
        return state

    def grown(self, generator: PauliSum, theta: float = 0.0) -> "AnsatzState":
        return AnsatzState(self.reference, self.elements + ((generator, theta),))


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _checked_hamiltonian(hamiltonian: PauliSum, n_qubits: int) -> CompiledSum:
    """The compiled form of a Hermitian ``hamiltonian`` on ``n_qubits``."""
    compiled = hamiltonian.compiled()
    if not compiled.hermitian:
        raise ValueError("Hamiltonian is not Hermitian")
    if hamiltonian.n_qubits != n_qubits:
        raise ValueError("Hamiltonian qubit count does not match the state")
    return compiled


def _real_energy(value: complex) -> float:
    """The real part of an energy with no imaginary residue above tolerance."""
    if abs(value.imag) > _IMAG_TOL:
        raise ValueError(f"energy has imaginary residue {value.imag:.3e}")
    return value.real


def prepare(ansatz: AnsatzState) -> StateVector:
    """Apply the ansatz exponentials in growth order to the reference state."""
    amps = ansatz._reference_amplitudes
    for generator, theta in ansatz.elements:
        amps = generator.compiled().exponential(amps, theta)
    return StateVector(ansatz.n_qubits, amps)


def expectation(state: StateVector, observable: PauliSum) -> float:
    """<psi|O|psi> for a Hermitian observable, as a real number."""
    compiled = _checked_hamiltonian(observable, state.n_qubits)
    return _real_energy(complex(np.vdot(state.amplitudes, compiled.apply(state.amplitudes))))


class GradientHandle:
    """The full analytic gradient at one point, computed by the first call
    and cached, plus that point's ``energy``, final state ``psi`` and
    ``h_psi`` = ``H|psi>``, read-only (see "The carried handle" in the
    module doc)."""

    def __init__(self, sweep: "_Sweep"):
        self._sweep = sweep
        self._grad = None
        self.energy = sweep.energies[0]
        self.psi, self.h_psi = sweep.states[-1], sweep.h_psi
        self.psi.setflags(write=False)
        self.h_psi.setflags(write=False)

    def __call__(self) -> np.ndarray:
        if self._grad is None:
            self._grad = self._sweep.gradient()[0]
            self._sweep = None
        return self._grad

    def derivative(self, generator: PauliSum) -> float:
        """``2 Re <H psi|A psi>`` for the generator ``A``: the energy
        derivative of the last ansatz element when ``A`` is its generator,
        by the arithmetic the sweep's reverse half does for that element (a
        float64 ``psi`` is applied as complex: the same bytes, and any
        generator takes it)."""
        psi = self.psi.astype(complex, copy=False)
        return 2.0 * np.vdot(self.h_psi, generator.compiled().apply(psi)).real


def energy_then_gradient(
    ansatz: AnsatzState,
    hamiltonian: PauliSum,
) -> tuple[float, GradientHandle]:
    """The energy now and the full analytic gradient on demand.

    Only the forward half of the sweep runs here.  The returned handle runs
    the reverse half over the stored forward states on its first call, then
    drops them and returns the same cached array on every later call.
    Energy and gradient are bit for bit those of
    :func:`energy_and_gradient`.
    """
    handle = GradientHandle(_Sweep(ansatz, hamiltonian, ansatz._parameters[np.newaxis]))
    return handle.energy, handle


def energy_and_gradient(
    ansatz: AnsatzState,
    hamiltonian: PauliSum,
) -> tuple[float, np.ndarray]:
    """Energy and the full analytic parameter gradient."""
    energy, gradient = energy_then_gradient(ansatz, hamiltonian)
    return energy, gradient()


def gradient_components(
    ansatz: AnsatzState,
    hamiltonian: PauliSum,
    indices: list[int],
    points: np.ndarray | None = None,
) -> np.ndarray:
    """Partial derivatives for a subset of parameters: the columns
    ``indices`` of the full gradient, in their order, repeats included.

    With ``points``, an ``(m, n)`` array of parameter vectors for the
    ansatz's generators, the result is an ``(m, len(indices))`` array whose
    row ``r`` is bit for bit the result at ``ansatz.with_parameters(points[r])``.
    The rows are swept together in stacks of at most ``_STACK_CAP``
    amplitudes.
    """
    n = ansatz.n_parameters
    columns = np.asarray(indices, dtype=np.intp)
    if columns.size and (columns.min() < 0 or columns.max() >= n):
        raise ValueError(f"gradient index out of range for {n} parameters")
    stacked = points is not None
    if stacked:
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != n:
            raise ValueError(f"points must have shape (m, {n}), got {points.shape}")
        if not np.all(np.isfinite(points)):
            raise ValueError("ansatz parameter is not finite")
    else:
        points = ansatz._parameters[np.newaxis]
    out = np.empty((len(points), columns.size), dtype=float)
    rows = max(1, _STACK_CAP >> ansatz.n_qubits)
    for start in range(0, len(points), rows):
        grads = _Sweep(ansatz, hamiltonian, points[start:start + rows]).gradient()
        out[start:start + rows] = grads[:, columns]
    return out if stacked else out[0]


class _Sweep:
    """One forward/reverse sweep over the ansatz elements at each row of
    ``points``, an ``(m, n)`` array of parameter vectors (see "The sweep's
    two halves" in the module doc).

    dE/dt_j = 2 Re <psi| H U_n..U_{j+1} A_j |phi_j> with |phi_j> the state
    after the first j elements.  Building the sweep runs the forward half
    and sets ``energies``, one per row, each checked for an imaginary
    residue; :meth:`gradient` runs the reverse half.  The rows are swept
    together, one state per row; at each element the stack's most common
    angle is applied to every row and only the rows whose angle differs are
    recomputed alone.  A single point is swept as a 1-D state, since numpy's
    2-D broadcasting costs more per call.
    """

    def __init__(self, ansatz: AnsatzState, hamiltonian: PauliSum, points: np.ndarray):
        compiled_h = _checked_hamiltonian(hamiltonian, ansatz.n_qubits)
        self.batch = ansatz._batch
        self.generators = self.batch.generators
        reference = ansatz._reference_amplitudes
        if compiled_h.real and self.batch.real:
            reference = reference.real.copy()
        self.rows = len(points)
        if self.rows == 1:
            self.exponential, self.vdot = CompiledSum.exponential, _vdot
            forward, self.reverse = points[0].tolist(), (-points[0]).tolist()
            states = [reference]
        else:
            self.exponential, self.vdot = _exponential_rows, _vdot_rows
            forward, self.reverse = points.T.tolist(), (-points.T).tolist()
            states = [np.tile(reference, (self.rows, 1))]
        for compiled, theta in zip(self.generators, forward):
            states.append(self.exponential(compiled, states[-1], theta))
        self.states = states
        self.lam = compiled_h.apply(states[-1])
        self.h_psi = self.lam.astype(complex, copy=False)
        overlaps = self.vdot(states[-1], self.h_psi)
        self.energies = [_real_energy(complex(overlap)) for overlap in
                         (overlaps if self.rows > 1 else (overlaps,))]

    def gradient(self) -> np.ndarray:
        """The full gradient, an ``(m, n)`` array.  A single point on a
        tabled batch applies every generator to its state in one batched call
        (:class:`~adaptvqe.compiled.GeneratorBatch`) and writes its overlaps'
        operands into one complex buffer, the applied states in one call."""
        generators, states, reverse, lam = self.generators, self.states, self.reverse, self.lam
        tabled = self.rows == 1 and self.batch.tabled
        if tabled:
            operands = np.empty((2, len(generators), lam.size), dtype=complex)
            operands[1] = self.batch.apply_each(states[1:])
        values = []
        for j in range(len(generators) - 1, -1, -1):
            compiled = generators[j]
            if tabled:
                operands[0, j] = lam
            else:
                values.append(self.vdot(lam, compiled.apply(states[j + 1])))
            if j:
                lam = self.exponential(compiled, lam, reverse[j])
        if tabled:
            values = [np.vdot(a, b) for a, b in zip(*operands[:, ::-1])]
        overlaps = np.array(values[::-1], dtype=complex).reshape(len(generators), self.rows)
        return 2.0 * overlaps.real.T


def _vdot(a: np.ndarray, b: np.ndarray) -> complex:
    """:func:`np.vdot` of ``a`` and ``b`` as complex arrays: a float64 one is
    converted first, so every overlap is zdotc's (see the module doc)."""
    return np.vdot(a.astype(complex, copy=False), b.astype(complex, copy=False))


def _vdot_rows(a: np.ndarray, b: np.ndarray) -> list:
    """:func:`_vdot` of each pair of rows."""
    return [np.vdot(a_row, b_row) for a_row, b_row in
            zip(a.astype(complex, copy=False), b.astype(complex, copy=False))]


def _exponential_rows(compiled: CompiledSum, stack: np.ndarray,
                      thetas: list[float]) -> np.ndarray:
    """Row ``r`` of ``stack`` times ``exp(thetas[r] * A)``: the most common
    angle on the whole stack, then each other row alone."""
    common = Counter(thetas).most_common(1)[0][0]
    out = compiled.exponential(stack, common)
    for r, theta in enumerate(thetas):
        if theta != common:
            if out is stack:
                out = stack.copy()
            out[r] = compiled.exponential(stack[r], theta)
    return out
