"""Spans and counters for the traced run, recorded from outside the package.

``instrument(tracer)`` replaces public functions of each layer at the name
their caller looks up (a module attribute, or a method on its class) with a
wrapper that records a span (name, start, end, parent) and updates counters,
and restores the originals on exit.  No source file of the package changes.
A span's layer is the part of its name before the first dot; its self time
is its duration minus the time covered by its child spans.

Some counts are computed from the inputs of each call rather than observed
inside the simulator: ``simulator.string_applies`` is the number of Pauli
string applications the closed-form route performs for the call's ansatz and
operator, and ``simulator.bytes_computed`` is that number times the
amplitudes per state times 16 bytes.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array
from collections import Counter

import numpy as np

BYTES_PER_AMPLITUDE = 16


class Tracer:
    """In-memory span store (compact arrays) plus named counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, fn, span: str, on_call=None):
        """``fn`` with a span around every call; ``on_call(counts, args,
        kwargs, result)`` runs after the call returns."""
        name_id = self._ids.setdefault(span, len(self.names))
        if name_id == len(self.names):
            self.names.append(span)
        name_ids, parents = self.name_ids, self.parents
        starts, ends, stack = self.starts, self.ends, self._stack
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if on_call is not None:
                on_call(counts, args, kwargs, result)
            return result

        return wrapper

    @property
    def n_spans(self) -> int:
        return len(self.starts)

    def span_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive seconds and self seconds."""
        starts = np.frombuffer(self.starts, dtype=float)
        ends = np.frombuffer(self.ends, dtype=float)
        parents = np.frombuffer(self.parents, dtype=np.int32)
        name_ids = np.frombuffer(self.name_ids, dtype=np.int32)
        duration = ends - starts
        covered = np.zeros_like(duration)
        nested = parents >= 0
        np.add.at(covered, parents[nested], duration[nested])
        own = duration - covered
        n_names = len(self.names)
        calls = np.bincount(name_ids, minlength=n_names)
        inclusive = np.bincount(name_ids, weights=duration, minlength=n_names)
        self_time = np.bincount(name_ids, weights=own, minlength=n_names)
        return {
            name: {"calls": int(calls[i]), "inclusive_s": float(inclusive[i]),
                   "self_s": float(self_time[i])}
            for i, name in enumerate(self.names)
        }


# ------------------------------------------------------------ counters


def _forward_applies(ansatz) -> int:
    """String applications of the closed-form forward sweep."""
    return sum(gen.n_terms for gen, theta in ansatz.elements if theta != 0.0)


def _count_energy_and_gradient(counts, args, kwargs, result):
    ansatz, hamiltonian = args[0], args[1]
    applies = hamiltonian.n_terms
    for gen, theta in ansatz.elements:
        # forward exponential, generator application, reverse exponential
        applies += gen.n_terms * (3 if theta != 0.0 else 1)
    _add_applies(counts, applies, ansatz.n_qubits)


def _count_gradient_components(counts, args, kwargs, result):
    ansatz, hamiltonian, indices = args[0], args[1], args[2]
    wanted = set(indices)
    if not wanted:
        return
    applies = _forward_applies(ansatz) + hamiltonian.n_terms
    for j in range(min(wanted), ansatz.n_parameters):
        gen, theta = ansatz.elements[j]
        applies += gen.n_terms * ((j in wanted) + (theta != 0.0))
    _add_applies(counts, applies, ansatz.n_qubits)


def _count_prepare(counts, args, kwargs, result):
    _add_applies(counts, _forward_applies(args[0]), args[0].n_qubits)


def _count_expectation(counts, args, kwargs, result):
    _add_applies(counts, args[1].n_terms, args[0].n_qubits)


def _add_applies(counts, applies: int, n_qubits: int) -> None:
    counts["simulator.string_applies"] += applies
    counts["simulator.string_amps"] += applies << n_qubits


def _count_pool_sweep(counts, args, kwargs, result):
    counts["driver.pool_ops_evaluated"] += len(args[1])


def _count_line_search(counts, args, kwargs, result):
    counts["optimizer.ls_trials"] += result.evals
    if not result.success:
        counts["optimizer.ls_failures"] += 1
    elif result.alpha == 1.0:
        counts["optimizer.unit_steps"] += 1


def _count_curvature(counts, args, kwargs, result):
    if not result:
        counts["optimizer.updates_skipped"] += 1


# ------------------------------------------------------------ targets


def _targets():
    """(owner, attribute, span name, counter) for every wrapped name."""
    import adaptvqe
    from adaptvqe import diagnostics, driver, experiment, hamiltonians, objectives, optimizer, pools
    from adaptvqe.objectives import AnsatzObjective
    from adaptvqe.paulis import PauliSum

    return [
        # simulator, at the names objectives, driver and diagnostics look up
        (objectives, "energy_and_gradient", "simulator.energy_and_gradient",
         _count_energy_and_gradient),
        (objectives, "gradient_components", "simulator.gradient_components",
         _count_gradient_components),
        (diagnostics, "gradient_components", "simulator.gradient_components",
         _count_gradient_components),
        (objectives, "prepare", "simulator.prepare", _count_prepare),
        (driver, "prepare", "simulator.prepare", _count_prepare),
        (objectives, "expectation", "simulator.expectation", _count_expectation),
        (driver, "expectation", "simulator.expectation", _count_expectation),
        # driver
        (adaptvqe, "run_adapt", "driver.run_adapt", None),
        (experiment, "run_adapt", "driver.run_adapt", None),
        (driver, "pool_gradients", "driver.pool_gradients", _count_pool_sweep),
        # optimizer
        (driver, "minimize_canonical", "optimizer.minimize_canonical", None),
        (driver, "minimize_recycled", "optimizer.minimize_recycled", None),
        (optimizer, "wolfe_line_search", "optimizer.wolfe_line_search",
         _count_line_search),
        (optimizer, "bfgs_update", "optimizer.bfgs_update", None),
        (optimizer, "curvature_condition_holds", "optimizer.curvature_condition_holds",
         _count_curvature),
        # objectives
        (AnsatzObjective, "value", "objectives.value", None),
        (AnsatzObjective, "value_and_grad", "objectives.value_and_grad", None),
        (AnsatzObjective, "grad_components", "objectives.grad_components", None),
        # paulis: the validation methods
        (PauliSum, "is_hermitian", "paulis.is_hermitian", None),
        (PauliSum, "is_anti_hermitian", "paulis.is_anti_hermitian", None),
        (PauliSum, "terms_mutually_commute", "paulis.terms_mutually_commute", None),
        # set-up layers
        (hamiltonians, "load_hamiltonian", "hamiltonians.load_hamiltonian", None),
        (experiment, "load_hamiltonian", "hamiltonians.load_hamiltonian", None),
        (hamiltonians, "builtin_model", "hamiltonians.builtin_model", None),
        (pools, "build_qe_pool", "pools.build_qe_pool", None),
        (experiment, "build_qe_pool", "pools.build_qe_pool", None),
        (pools, "build_nearest_neighbor_pool", "pools.build_nearest_neighbor_pool", None),
        # diagnostics and experiment
        (experiment, "hessian_distance_series", "diagnostics.hessian_distance_series", None),
        (diagnostics, "exact_ansatz_hessian", "diagnostics.exact_ansatz_hessian", None),
        (experiment, "exact_ansatz_hessian", "diagnostics.exact_ansatz_hessian", None),
        (experiment, "convergence_report", "diagnostics.convergence_report", None),
        (experiment, "run_experiment", "experiment.run_experiment", None),
    ]


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install the wrappers for the duration of the block."""
    saved = []
    try:
        for owner, attr, span, on_call in _targets():
            original = owner.__dict__.get(attr)
            if original is None:
                raise AttributeError(
                    f"cannot trace {getattr(owner, '__name__', owner)}.{attr}: "
                    "no such attribute")
            setattr(owner, attr, tracer.wrap(original, span, on_call))
            saved.append((owner, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ------------------------------------------------------------ metrics

# Spans whose metric is inclusive of their children; every other ``_s``
# metric below is self time.
_INCLUSIVE = {
    "driver.optimize_s": ("optimizer.minimize_canonical", "optimizer.minimize_recycled"),
    "diagnostics.hessian_series_s": ("diagnostics.hessian_distance_series",),
    "diagnostics.convergence_report_s": ("diagnostics.convergence_report",),
    "hamiltonians.load_s": ("hamiltonians.load_hamiltonian", "hamiltonians.builtin_model"),
    "pools.build_s": ("pools.build_qe_pool", "pools.build_nearest_neighbor_pool"),
}
_SELF = {
    "simulator.energy_and_gradient_s": ("simulator.energy_and_gradient",),
    "simulator.gradient_components_s": ("simulator.gradient_components",),
    "simulator.prepare_s": ("simulator.prepare",),
    "simulator.expectation_s": ("simulator.expectation",),
    "driver.pool_sweep_s": ("driver.pool_gradients",),
    "optimizer.line_search_self_s": ("optimizer.wolfe_line_search",),
    "optimizer.bfgs_update_s": ("optimizer.bfgs_update",),
    "experiment.write_s": ("experiment.run_experiment",),
}
_CALLS = {
    "simulator.energy_and_gradient_calls": ("simulator.energy_and_gradient",),
    "simulator.gradient_components_calls": ("simulator.gradient_components",),
    "driver.pool_sweeps": ("driver.pool_gradients",),
    "optimizer.line_searches": ("optimizer.wolfe_line_search",),
    "optimizer.bfgs_updates": ("optimizer.bfgs_update",),
    "objectives.value_and_grad_calls": ("objectives.value_and_grad",),
    "objectives.value_calls": ("objectives.value",),
    "objectives.grad_components_calls": ("objectives.grad_components",),
    "paulis.validation_calls": ("paulis.is_hermitian", "paulis.is_anti_hermitian",
                                "paulis.terms_mutually_commute"),
    "diagnostics.exact_hessians": ("diagnostics.exact_ansatz_hessian",),
}
_LAYER_SELF = ("simulator", "driver", "optimizer", "objectives", "diagnostics")
_COUNTERS = ("simulator.string_applies", "driver.pool_ops_evaluated",
             "optimizer.ls_trials", "optimizer.ls_failures", "optimizer.updates_skipped")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from the recorded spans and counters."""
    totals = tracer.span_totals()

    def total(spans, field):
        return sum(totals[s][field] for s in spans if s in totals)

    out: dict[str, float] = {}
    for metric, spans in _INCLUSIVE.items():
        out[metric] = total(spans, "inclusive_s")
    for metric, spans in _SELF.items():
        out[metric] = total(spans, "self_s")
    for metric, spans in _CALLS.items():
        out[metric] = total(spans, "calls")
    for layer in _LAYER_SELF:
        out[f"{layer}.self_s"] = total(
            [s for s in totals if s.startswith(layer + ".")], "self_s")
    out["paulis.validation_s"] = total(
        [s for s in totals if s.startswith("paulis.")], "self_s")
    for name in _COUNTERS:
        out[name] = tracer.counts[name]
    amps = tracer.counts["simulator.string_amps"]
    out["simulator.bytes_computed"] = amps * BYTES_PER_AMPLITUDE
    out["simulator.ns_per_string_amp"] = out["simulator.self_s"] / amps * 1e9 if amps else 0.0
    searches = out["optimizer.line_searches"]
    out["optimizer.unit_step_fraction"] = (
        tracer.counts["optimizer.unit_steps"] / searches if searches else 0.0)
    return out
