#!/usr/bin/env python3
"""Time the engine layer by layer and write ``BENCH_layers.json``.

Run from the repository root:

    python tools/layer_bench.py [--out BENCH_layers.json]

Each case is one call into the package, timed as the median microseconds
per call over ``SAMPLES`` samples (with the quartiles), each sample being
enough back-to-back calls to take about ``SAMPLE_SECONDS``.  Every case runs
once before it is timed, so compiled operators and their caches are built.
A speed kernel, a fixed mix of statevector arithmetic that uses none of the
package's code, is timed the same way right before and right after each
case, and each case is written twice: raw (``median_us``) and scaled by
``KERNEL_REFERENCE_US`` over the mean of its two kernel medians
(``scaled_median_us``).  A shared host's speed drifts between cases, and the
scaled median follows the kernel read beside the case; the kernel can also
read differently in two checkouts, so compare two checkouts by both.
The cases are

* one Pauli-string application (8 and 12 qubits);
* one Hamiltonian application: H4 STO-3G 1.0 A (8 qubits, bundled), TFIM-8
  and H6 STO-3G 1.0 A (12 qubits, built here, which takes a few seconds),
  and H6 on a float64 state (``hamiltonian_apply.h6_real``), the route a
  real Hamiltonian with real generators is swept on;
* one generator exponential: a qubit-excitation double and single and a
  nearest-neighbour string at 8 qubits, and a double at 12 qubits, on a
  complex and on a float64 state (``exponential.qe_double_12q_real``);
* one ``energy_and_gradient`` of H4 with 10 and with 30 pool operators,
  and beside it one ``energy_then_gradient`` whose gradient is never read
  (``energy_only``), the forward half of the same sweep;
* one pool sweep (``driver.pool_gradients``) of the H4 and the H6 QE pool
  and of the TFIM-8 nearest-neighbour pool (``pool_sweep.tfim8``), from a
  carried handle (the state and ``H|psi>`` of an evaluation);
* one growth boundary on H4 and on H6 (``growth_boundary``): from the
  handle of the optimum, one pool sweep, the selection, and the recycled
  start's two queries (``AnsatzObjective.value`` and ``grad_components``
  of the new parameter), which the carried handle answers;
* one QE pool build (``pool_build``): ``build_qe_pool(8, 4)`` for H4 and
  ``build_qe_pool(12, 6)`` for H6, with the pool's checks;
* one BFGS inverse-Hessian update at 30 parameters;
* one exact Hessian (``diagnostics.exact_ansatz_hessian``, 2n shifted
  gradients in one stacked sweep) of H4 with 10 and with 19 pool operators;
* one line-search trial (``trial.tfim8_n20``): ``AnsatzObjective.evaluate``
  and its gradient read, for TFIM-8 with 20 nearest-neighbour operators
  (drawn from the whole pool, so its even-Y strings keep it complex), and
  the ``AnsatzState.with_parameters`` call inside it
  (``with_parameters.n20``); and one for H4 with 10 QE operators
  (``trial.h4_n10``), on the float64 route;
* the 12-qubit line-search trial (``trial.h6_n6``): ``evaluate`` and its
  gradient read for H6 with 6 QE operators, on the float64 route, where a
  trial costs about one X-mask Hamiltonian application;
* one stacked Hamiltonian application at 8 qubits
  (``hamiltonian_apply.h4_stack20_real``): H4 on 20 float64 states, the
  shape of the stacked sweep of an exact Hessian of 10 operators;
* the float64 8-qubit routes the H4 and TFIM-8 trials run: a QE double
  and an odd-Y nearest-neighbour string (``exponential.qe_double_real``,
  ``exponential.nn_string_real``) and the H4 Hamiltonian
  (``hamiltonian_apply.h4_real``), each on one random float64 state;
* H6 on the float64 state that four QE exponentials, each acting on the
  reference, make from it (``hamiltonian_apply.h6_adapt_real``): an ADAPT
  state, with few nonzero amplitudes, so on the support route.

The cases added last draw their random inputs last, so every earlier case
keeps the inputs it had before them.

The script uses only the package's public names, so a copy of it times any
checkout of the package it sits in.  No benchmark gate reads its output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tools"))

from adaptvqe.cost import CostLedger
from adaptvqe.diagnostics import exact_ansatz_hessian
from adaptvqe.driver import pool_gradients, select_operator
from adaptvqe.hamiltonians import (
    builtin_model,
    bundled_fixture_path,
    load_hamiltonian,
)
from adaptvqe.objectives import AnsatzObjective
from adaptvqe.optimizer import bfgs_update
from adaptvqe.paulis import PauliSum
from adaptvqe.pools import build_nearest_neighbor_pool, build_qe_pool
from adaptvqe.simulator import (
    AnsatzState,
    energy_and_gradient,
    energy_then_gradient,
    prepare,
)
from generate_fixtures import build_hydrogen_chain

SAMPLES = 15
SAMPLE_SECONDS = 0.02
THETA = 0.3
# The kernel's median on the 2-core VM these figures were first taken on.
KERNEL_REFERENCE_US = 12.0
KERNEL_SAMPLES = 5


def time_call(fn, n_samples: int = SAMPLES) -> dict:
    """Median and quartiles of microseconds per call of ``fn()``."""
    fn()
    calls, start = 0, time.perf_counter()
    while time.perf_counter() - start < SAMPLE_SECONDS:
        fn()
        calls += 1
    per_sample = max(calls, 1)
    samples = []
    for _ in range(n_samples):
        start = time.perf_counter()
        for _ in range(per_sample):
            fn()
        samples.append((time.perf_counter() - start) / per_sample * 1e6)
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return {"median_us": median, "q1_us": q1, "q3_us": q3,
            "samples": n_samples, "calls_per_sample": per_sample}


def kernel_us() -> float:
    """Median microseconds per call of the speed kernel: a sign product, a
    gather, a rotation and an overlap on 2^10 complex amplitudes, written
    here with numpy alone, so only the machine's speed moves it."""
    index = np.arange(1 << 10)
    flip = (index ^ 0b1000000001).astype(np.int32)
    signs = (1 - 2 * (np.bitwise_count(index & 0b110) & 1)).astype(np.int8)
    amps = np.full(index.size, 2.0 ** -5, dtype=complex)

    def kernel():
        rotated = (amps * signs)[flip]
        np.vdot(np.cos(0.1) * amps + 1j * np.sin(0.1) * rotated, rotated)

    return time_call(kernel, KERNEL_SAMPLES)["median_us"]


def random_state(rng, n_qubits: int) -> np.ndarray:
    amps = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
    return amps / np.linalg.norm(amps)


def random_real_state(rng, n_qubits: int) -> np.ndarray:
    amps = rng.normal(size=1 << n_qubits)
    return amps / np.linalg.norm(amps)


def first_with_terms(pool, n_terms: int):
    return next(op for op in pool.operators if op.n_terms == n_terms)


def random_ansatz(rng, hfile, pool, n: int) -> AnsatzState:
    """``n`` pool operators drawn at random, at random angles near 0."""
    picks = rng.integers(0, len(pool), size=n)
    return AnsatzState(hfile.reference_bitstring, tuple(
        (pool.operators[int(i)], float(t))
        for i, t in zip(picks, rng.normal(size=n) * 0.2)))


def growth_boundary(ansatz, carried, pool, hamiltonian) -> None:
    """From the handle of ``ansatz``'s optimum: the pool sweep, the
    selection and the recycled start of the grown ansatz."""
    index, _ = select_operator(pool_gradients(carried, pool))
    grown = ansatz.grown(pool.operators[index])
    objective = AnsatzObjective(hamiltonian, grown, carried)
    x_start = grown.parameters
    objective.value(x_start)
    objective.grad_components(x_start, [ansatz.n_parameters])


def cases(rng) -> dict:
    """Case name -> zero-argument callable."""
    h4 = load_hamiltonian(bundled_fixture_path("h4_sto3g_1p00.json"))
    tfim8 = builtin_model("tfim", 8, with_exact=False)
    h6 = build_hydrogen_chain("h6", 1.0, 6)
    h4_pool = build_qe_pool(8, h4.n_electrons)
    h6_pool = build_qe_pool(12, h6.n_electrons)
    nn_pool = build_nearest_neighbor_pool(8)
    psi8, psi12 = random_state(rng, 8), random_state(rng, 12)

    out = {}
    for n_qubits, psi in ((8, psi8), (12, psi12)):
        string = PauliSum.from_text_terms([(("XYZ" * 4)[:n_qubits], 1.0)])
        out[f"string_apply.{n_qubits}q"] = lambda c=string.compiled(), p=psi: c.apply(p)
    for name, hfile, psi in (("h4", h4, psi8), ("tfim8", tfim8, psi8), ("h6", h6, psi12)):
        compiled = hfile.operator.compiled()
        out[f"hamiltonian_apply.{name}"] = lambda c=compiled, p=psi: c.apply(p)
    generators = {
        "qe_double": (first_with_terms(h4_pool, 8), psi8),
        "qe_single": (first_with_terms(h4_pool, 2), psi8),
        "nn_string": (first_with_terms(nn_pool, 1), psi8),
        "qe_double_12q": (first_with_terms(h6_pool, 8), psi12),
    }
    for name, (generator, psi) in generators.items():
        compiled = generator.compiled()
        out[f"exponential.{name}"] = lambda c=compiled, p=psi: c.exponential(p, THETA)
    for n in (10, 30):
        ansatz = random_ansatz(rng, h4, h4_pool, n)
        out[f"energy_and_gradient.h4_n{n}"] = (
            lambda a=ansatz: energy_and_gradient(a, h4.operator))
        out[f"energy_only.h4_n{n}"] = (
            lambda a=ansatz: energy_then_gradient(a, h4.operator))
    for name, hfile, pool in (("h4", h4, h4_pool), ("h6", h6, h6_pool)):
        ansatz = AnsatzState(hfile.reference_bitstring, tuple(
            (op, 0.1) for op in pool.operators[:4]))
        _, carried = energy_then_gradient(ansatz, hfile.operator)
        out[f"pool_sweep.{name}"] = lambda c=carried, p=pool: pool_gradients(c, p)
        out[f"growth_boundary.{name}"] = (
            lambda a=ansatz, c=carried, p=pool, h=hfile.operator: growth_boundary(a, c, p, h))
        out[f"pool_build.{name}"] = (
            lambda n=pool.n_qubits, e=hfile.n_electrons: build_qe_pool(n, e))
    n = 30
    a = rng.normal(size=(n, n))
    h = a @ a.T / n + np.eye(n)
    s, y = rng.normal(size=n), rng.normal(size=n)
    y += 2.0 * abs(s @ y) / (s @ s) * s  # positive curvature: the update runs
    out["bfgs_update.n30"] = lambda: bfgs_update(h, s, y)
    for n in (10, 19):
        ansatz = random_ansatz(rng, h4, h4_pool, n)
        out[f"exact_hessian.h4_n{n}"] = (lambda a=ansatz: exact_ansatz_hessian(
            a, h4.operator, a.parameters, CostLedger()))
    trial_ansatz = random_ansatz(rng, tfim8, nn_pool, 20)
    objective = AnsatzObjective(tfim8.operator, trial_ansatz)
    x = trial_ansatz.parameters + 0.01
    out["trial.tfim8_n20"] = lambda: objective.evaluate(x)[1]()
    out["with_parameters.n20"] = lambda: trial_ansatz.with_parameters(x)
    real12 = random_real_state(rng, 12)
    out["hamiltonian_apply.h6_real"] = lambda c=h6.operator.compiled(): c.apply(real12)
    out["exponential.qe_double_12q_real"] = (
        lambda c=first_with_terms(h6_pool, 8).compiled(): c.exponential(real12, THETA))
    h4_ansatz = random_ansatz(rng, h4, h4_pool, 10)
    h4_objective = AnsatzObjective(h4.operator, h4_ansatz)
    h4_x = h4_ansatz.parameters + 0.01
    out["trial.h4_n10"] = lambda: h4_objective.evaluate(h4_x)[1]()
    _, tfim8_carried = energy_then_gradient(random_ansatz(rng, tfim8, nn_pool, 4),
                                            tfim8.operator)
    out["pool_sweep.tfim8"] = lambda: pool_gradients(tfim8_carried, nn_pool)
    h6_ansatz = random_ansatz(rng, h6, h6_pool, 6)
    h6_objective = AnsatzObjective(h6.operator, h6_ansatz)
    h6_x = h6_ansatz.parameters + 0.01
    out["trial.h6_n6"] = lambda: h6_objective.evaluate(h6_x)[1]()
    stack20 = rng.normal(size=(20, 1 << 8))
    out["hamiltonian_apply.h4_stack20_real"] = (
        lambda c=h4.operator.compiled(): c.apply(stack20))
    real8 = random_real_state(rng, 8)
    real_string = next(op for op in nn_pool.operators if op.n_terms == 1 and op.compiled().real)
    out["exponential.qe_double_real"] = (
        lambda c=first_with_terms(h4_pool, 8).compiled(): c.exponential(real8, THETA))
    out["exponential.nn_string_real"] = lambda c=real_string.compiled(): c.exponential(real8, THETA)
    out["hamiltonian_apply.h4_real"] = lambda c=h4.operator.compiled(): c.apply(real8)
    h6_adapt = prepare(AnsatzState(h6.reference_bitstring)).amplitudes.real.copy()
    acting = [op for op in h6_pool.operators if op.compiled().apply(h6_adapt).any()]
    for i, theta in zip(rng.choice(len(acting), 4, replace=False), rng.normal(size=4) * 0.2):
        h6_adapt = acting[int(i)].compiled().exponential(h6_adapt, float(theta))
    out["hamiltonian_apply.h6_adapt_real"] = (
        lambda c=h6.operator.compiled(), p=h6_adapt: c.apply(p))
    return out


def environment() -> dict:
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "cpus": len(os.sched_getaffinity(0)),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(ROOT / "BENCH_layers.json"))
    args = parser.parse_args(argv)
    rng = np.random.default_rng(0)
    results = {}
    print(f"{'case':32s} {'raw':>12s}    {'scaled':>12s}")
    for name, fn in cases(rng).items():
        before = kernel_us()
        result = time_call(fn)
        result["kernel_us"] = (before + kernel_us()) / 2
        result["scaled_median_us"] = result["median_us"] * KERNEL_REFERENCE_US / result["kernel_us"]
        results[name] = result
        print(f"{name:32s} {result['median_us']:12.1f} us {result['scaled_median_us']:12.1f} us",
              flush=True)
    payload = {"environment": environment(), "unit": "us per call",
               "kernel_reference_us": KERNEL_REFERENCE_US, "cases": results}
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
