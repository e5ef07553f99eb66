#!/usr/bin/env python3
"""Re-run the engine's recorded mutants and write ``BENCH_mutants.json``.

Run from the repository root:

    python tools/mutants.py [--out BENCH_mutants.json]

A mutant is a deliberate fault that some test is known to catch: one or
more edits, each an exact old text of a file and the new text put in its
place, plus the test node ids that catch it and the ``CHANGES.md`` entry that
recorded it.  The script copies ``src``, ``tests``
and ``tools`` into a temporary directory, runs every listed test there once
on the unmutated copy (they must all pass), then applies each mutant in
turn, runs its tests with ``pytest -x -q`` and restores the files.  A
mutant is killed when its tests fail.

The script fails, with exit status 1, when an old text is not found exactly
once in its file, when the unmutated tests fail, or when a mutant that is
not a known survivor fails no test.  A known survivor (``SURVIVORS``, each
with the ``CHANGES.md`` line that records it) is run and reported, and
fails nothing.  The output lists, per mutant, its edits, tests, outcome,
pytest's exit status and first failure, and the seconds it took.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "tools")

COMPILED = "src/adaptvqe/compiled.py"
SIMULATOR = "src/adaptvqe/simulator.py"
OPTIMIZER = "src/adaptvqe/optimizer.py"

SIM = "tests/test_simulator.py::"
SWEEP = SIM + "TestDiagonalSweep::"
REAL = SIM + "TestRealRoute::"
MULTI_MASK = ("tests/test_driver.py::TestPoolGradients::"
              "test_multi_mask_operators_take_the_one_sweep")


# The CHANGES.md entries that record the mutants, by the start of their titles.
TRIAL = "The ansatz compiled once per optimization, not once per trial"
ALGEBRA = "The package keeps only the algebra the pipeline runs"
REAL_ROUTE = "Real problems run in real arithmetic"
DIAGONAL = "The 8-qubit pool sweep is one gather, two products and one row sum"
ONE_SWEEP = "One pool sweep at every size"
ONE_ROUTE = "One pool-sweep route for every generator"
FULL_SWEEP = "The sweep keeps only the paths a caller takes"
MASK_BLOCKS = "Above the term table, a Hamiltonian is applied one X mask at a time"
MASK_BLOCK_TESTS = (SIM + "TestMaskBlocks::test_matches_reference_bytes",)
IN_PLACE = "A rotation is one gather and in-place products"
EXPONENTIAL_BYTES = (SIM + "TestExponentialBytes::test_matches_the_per_term_expression",)
SUPPORT = "The support route applies every term at once"
SUPPORT_BYTES = SIM + "TestSupportRoute::test_matches_reference_bytes"
SUPPORT_CHUNKS = SIM + "TestSupportRoute::test_chunks_and_folds_match_reference_and_x_mask_route"
LAYOUT = "A compiled sum keeps one set of per-term arrays"


@dataclass(frozen=True)
class Mutant:
    name: str
    recorded: str
    tests: tuple[str, ...]
    edits: tuple[tuple[str, str, str], ...]  # (file, old text, new text)


MUTANTS = (
    Mutant("with-parameters-asarray", TRIAL,
           (SIM + "TestWithParameters::test_angles_are_copied",), (
        (SIMULATOR, "x = np.array(x, dtype=float)\n        if x.ndim",
         "x = np.asarray(x, dtype=float)\n        if x.ndim"),)),
    Mutant("with-parameters-no-1d-check", TRIAL,
           (SIM + "TestWithParameters::test_vector_must_be_one_dimensional",), (
        (SIMULATOR, '        if x.ndim != 1:\n            raise ValueError(f"parameter vector '
                    'must be 1-D, got shape {x.shape}")\n', ""),)),
    Mutant("bfgs-reassociated", TRIAL,
           ("tests/test_optimizer.py::TestBfgsUpdate::test_bytes_match_the_outer_product_form",), (
        (OPTIMIZER, "(rho * rho * yhy + rho) * (s_col * s)",
         "(rho * rho * yhy + rho) * s_col * s"),)),
    Mutant("norm-by-sum", TRIAL, ("tests/test_optimizer.py::test_norm_bytes_match_numpy",), (
        (OPTIMIZER, "return math.sqrt(v.dot(v))", "return math.sqrt((v * v).sum())"),)),
    Mutant("batch-index-order", TRIAL, (SIM + "TestTermTable::test_batch_rows_match_apply",), (
        (COMPILED, "flips.append(mask_flips + j * dim)",
         "flips.append(mask_flips + (len(self.generators) - 1 - j) * dim)"),)),
    Mutant("unshared-reference", TRIAL,
           (SIM + "TestWithParameters::test_compiled_forms_and_reference_are_shared",), (
        (SIMULATOR, "_reference_amplitudes=self._reference_amplitudes, _parameters",
         "_parameters"),)),
    Mutant("driver-on-with-parameters", TRIAL,
           ("tests/test_driver.py::TestCarriedState::test_result_keeps_no_compiled_caches",), (
        ("src/adaptvqe/driver.py",
         "ansatz = AnsatzState(reference, tuple(zip(ansatz.generators, x_star.tolist())))",
         "ansatz = ansatz.with_parameters(x_star)"),)),
    Mutant("apply-sum-without-initial", TRIAL, (
        SIM + "TestTermTable::test_numpy_sums_axis_zero_row_by_row",
        SIM + "TestTermTable::test_batch_rows_match_apply",
        SIM + "TestCompiledIsBitExact::test_fixtures"), (
        (COMPILED, "return gathered.sum(axis=0, initial=0)", "return gathered.sum(axis=0)"),
        (COMPILED, "return gathered.sum(axis=1, initial=0)", "return gathered.sum(axis=1)"))),
    Mutant("one-sided-parity", ALGEBRA,
           ("tests/test_paulis.py::TestPauliSum::test_compiled_flags_match_the_sum_checks",), (
        (COMPILED, "((xa & zb).bit_count() + (za & xb).bit_count()) & 1",
         "(xa & zb).bit_count() & 1"),)),
    Mutant("masks-cut-to-16-bits", ALGEBRA,
           ("tests/test_paulis.py::TestPauliSum::test_compiled_flags_match_the_sum_checks",), (
        (COMPILED, "masks = [(s.x_mask, s.z_mask) for s, _ in self.terms]",
         "masks = [(s.x_mask & 0xFFFF, s.z_mask & 0xFFFF) for s, _ in self.terms]"),)),
    Mutant("looser-hermitian-tolerance", ALGEBRA,
           ("tests/test_paulis.py::TestPauliSum::test_one_fixed_tolerance",), (
        (COMPILED, "abs(c.imag) <= DEFAULT_PRUNE_TOL", "abs(c.imag) <= 10 * DEFAULT_PRUNE_TOL"),)),
    Mutant("float-vdot", REAL_ROUTE, (REAL + "test_real_problems_run_in_float64",), (
        (SIMULATOR, "return np.vdot(a.astype(complex, copy=False), b.astype(complex, copy=False))",
         "return np.vdot(a, b)"),)),
    Mutant("float-vdot-rows", REAL_ROUTE, (REAL + "test_real_problems_run_in_float64",), (
        (SIMULATOR, "zip(a.astype(complex, copy=False), b.astype(complex, copy=False))]",
         "zip(a, b)]"),)),
    Mutant("float-vdot-buffer", REAL_ROUTE, (REAL + "test_real_problems_run_in_float64",), (
        (SIMULATOR, "operands = np.empty((2, len(generators), lam.size), dtype=complex)",
         "operands = np.empty((2, len(generators), lam.size), dtype=lam.dtype)"),)),
    Mutant("real-route-without-flag", REAL_ROUTE,
           (REAL + "test_other_problems_keep_complex_states",), (
        (SIMULATOR, "if compiled_h.real and self.batch.real:", "if self.batch.real:"),)),
    Mutant("real-scalars-unchecked", REAL_ROUTE, (REAL + "test_float_state_needs_a_real_sum",), (
        (COMPILED, '        if not self.real:\n            raise ValueError("a float64 state '
                   'needs a sum with real scalars")\n', ""),)),
    Mutant("real-route-without-flag-or-check", REAL_ROUTE,
           (REAL + "test_other_problems_keep_complex_states",), (
        (SIMULATOR, "if compiled_h.real and self.batch.real:", "if self.batch.real:"),
        (COMPILED, '        if not self.real:\n            raise ValueError("a float64 state '
                   'needs a sum with real scalars")\n', ""))),
    Mutant("derivative-unconverted", REAL_ROUTE,
           (REAL + "test_derivative_of_a_complex_generator_from_a_real_state",), (
        (SIMULATOR, "psi = self.psi.astype(complex, copy=False)", "psi = self.psi"),)),
    Mutant("real-rotation-sign", REAL_ROUTE, (REAL + "test_real_problems_run_in_float64",), (
        (COMPILED, "-unit.imag if real else unit", "unit.imag if real else unit"),)),
    # module-list-keeps-every-table now keeps the table that replaced the
    # folded diagonals
    Mutant("uncached-pool-batch", DIAGONAL,
           (SWEEP + "test_table_is_built_once_and_dies_with_the_pool",), (
        ("src/adaptvqe/pools.py", "    @cached_property\n    def batch(self)",
         "    @property\n    def batch(self)"),)),
    Mutant("module-list-keeps-every-table", DIAGONAL,
           (SWEEP + "test_table_is_built_once_and_dies_with_the_pool",), (
        (COMPILED, "        return blocks, (owner[group]",
         "        globals().setdefault('_KEPT', []).append(blocks)\n"
         "        return blocks, (owner[group]"),)),
    Mutant("dropped-pattern-row", ONE_SWEEP,
           (SWEEP + "test_matches_reference_and_picks_the_same_operator",), (
        (COMPILED, "    kept = (t_real != 0) | (t_imag != 0)\n",
         "    kept = (t_real != 0) | (t_imag != 0)\n"
         "    kept[np.flatnonzero(kept)[:1]] = False\n"),)),
    Mutant("missing-x-flip", ONE_SWEEP,
           (SWEEP + "test_matches_reference_and_picks_the_same_operator",), (
        (COMPILED, "            index ^= flips\n", ""),)),
    Mutant("real-path-for-complex-input", ONE_SWEEP,
           (SWEEP + "test_matches_reference_and_picks_the_same_operator[odd_y_h2]",), (
        (COMPILED, "if psi.imag.any() or h_psi.imag.any():", "if False:"),)),
    Mutant("blas-row-sums", ONE_SWEEP, (SWEEP + "test_rows_are_numpy_sums",), (
        (COMPILED, "sums.append(products.sum(axis=1))",
         "sums.append(products @ np.ones(products.shape[1]))"),)),
    # each generator keeps only the patterns of its last X mask
    Mutant("dropped-x-mask-group", ONE_ROUTE, (MULTI_MASK,), (
        (COMPILED, "    kept = (t_real != 0) | (t_imag != 0)\n",
         "    kept = (t_real != 0) | (t_imag != 0)\n"
         "    kept &= (np.diff(owner[first], append=-1) != 0)[owned]\n"),)),
    Mutant("first-group-x-for-all", ONE_ROUTE, (MULTI_MASK,), (
        (COMPILED, "support, x = support[group], x[group]",
         "support, x = support[group], x[np.searchsorted(owner, owner[group])]"),)),
    Mutant("no-start-check", ONE_ROUTE,
           ("tests/test_optimizer.py::test_canonical_non_finite_start_raises",
            "tests/test_optimizer.py::test_recycled_non_finite_start_raises"), (
        (OPTIMIZER, '        if not np.isfinite(value).all():\n'
                    '            raise ValueError(f"optimizer start: {name} is not finite")\n',
         "        pass\n"),)),
    Mutant("inverse-hessian-unconverted", ONE_ROUTE,
           ("tests/test_optimizer.py::test_recycled_takes_a_nested_list_inverse_hessian",), (
        (OPTIMIZER, "    h_prev = np.asarray(h_prev, dtype=float)\n", ""),)),
    Mutant("reverse-stops-before-first", FULL_SWEEP, (
        SIM + "TestRealRoute::test_real_problems_run_in_float64",
        SIM + "TestEnergyThenGradient::test_bytes_match_eager_and_reference"), (
        (SIMULATOR, "for j in range(len(generators) - 1, -1, -1):",
         "for j in range(len(generators) - 1, 0, -1):"),)),
    Mutant("sorted-columns", FULL_SWEEP, (
        SIM + "TestGradients::test_gradient_components_match_full_gradient",
        SIM + "TestStackedGradientComponents::test_rows_match_one_call_per_point"), (
        (SIMULATOR, "out[start:start + rows] = grads[:, columns]",
         "out[start:start + rows] = grads[:, np.sort(columns)]"),)),
    Mutant("bool-indices-as-mask", FULL_SWEEP,
           (SIM + "TestGradients::test_gradient_components_match_full_gradient",), (
        (SIMULATOR, "columns = np.asarray(indices, dtype=np.intp)",
         "columns = np.asarray(indices)"),)),
    Mutant("mask-block-without-accumulator", MASK_BLOCKS, MASK_BLOCK_TESTS, (
        (COMPILED, "                rows[0] += out\n", ""),)),
    Mutant("mask-block-accumulator-from-empty", MASK_BLOCKS, MASK_BLOCK_TESTS, (
        (COMPILED, "        out = np.zeros_like(amps)\n", "        out = np.empty_like(amps)\n"),)),
    Mutant("mask-block-rows-reversed", MASK_BLOCKS, MASK_BLOCK_TESTS, (
        (COMPILED, "np.add.reduce(rows, axis=0, out=out)",
         "np.add.reduce(rows[::-1], axis=0, out=out)"),)),
    Mutant("mask-block-bound-off-by-one", MASK_BLOCKS, MASK_BLOCK_TESTS, (
        (COMPILED, "last = min(first + step, stop)", "last = min(first + step - 1, stop)"),)),
    Mutant("rotation-writes-input", IN_PLACE, EXPONENTIAL_BYTES, (
        (COMPILED, "amps = amps * np.cos(w)", "amps *= np.cos(w)"),)),
    Mutant("rotation-without-signs", IN_PLACE, EXPONENTIAL_BYTES, (
        (COMPILED, "                rotated *= signs\n", "                pass\n"),)),
    # each term reads the previous X mask's gather row
    Mutant("term-mask-row-off-by-one", IN_PLACE,
           (SIM + "TestTermTable::test_one_gather_row_per_x_mask",), (
        (COMPILED, "masks = np.repeat(np.arange(len(self._groups)),",
         "masks = -1 + np.repeat(np.arange(len(self._groups)),"),)),
    Mutant("batch-mask-rows-counted-by-terms", IN_PLACE,
           (SIM + "TestTermTable::test_batch_rows_match_apply",), (
        (COMPILED, "start += len(mask_flips)", "start += len(terms)"),)),
    Mutant("support-scatter-at-source", SUPPORT, (SUPPORT_BYTES,), (
        (COMPILED, "reached = support ^ x_masks[first:first + chunk]",
         "reached = support + 0 * x_masks[first:first + chunk]"),)),
    Mutant("support-parity-fold-dropped", SUPPORT, (SUPPORT_CHUNKS + "[masked]",), (
        (COMPILED, "np.where(odd[:, None], -scalars, scalars)", "scalars"),)),
    Mutant("support-chunks-reversed", SUPPORT, (SUPPORT_CHUNKS + "[h6]",), (
        (COMPILED, "for first in range(0, len(folded), chunk):",
         "for first in reversed(range(0, len(folded), chunk)):"),)),
    Mutant("support-chunk-of-no-terms", SUPPORT,
           (SIM + "TestSupportRoute::test_support_wider_than_a_chunk_takes_one_term_at_a_time",), (
        (COMPILED, "chunk = max(1, _STACK_AMPLITUDES // max(support.size, 1))",
         "chunk = _STACK_AMPLITUDES // max(support.size, 1)"),)),
    # a repeated index keeps only its last product
    Mutant("support-buffered-scatter", SUPPORT, (SUPPORT_BYTES,), (
        (COMPILED, "np.add.at(out, reached.ravel(), products.ravel())",
         "out[reached.ravel()] += products.ravel()"),)),
    # a process-wide list keeps every rotation's signs alive
    Mutant("rotation-signs-kept-in-a-module-list", LAYOUT,
           (SIM + "TestSharedSigns::test_rotation_signs_are_freed_with_their_sum",), (
        (COMPILED, "signs = None if not string.z_mask else row.astype(dtype) if cast else row\n",
         "signs = None if not string.z_mask else row.astype(dtype) if cast else row\n"
         "                globals().setdefault('_KEPT', []).append(signs)\n"),)),
)

# Mutants no test can catch yet, each with the CHANGES.md line on it.
SURVIVORS = {
    "apply-sum-without-initial": "FOUND: no test can tell whether `initial=0` is in the "
                                 "term-table sums of `CompiledSum.apply` or "
                                 "`GeneratorBatch.apply_each`",
}


def mutate(text: str, old: str, new: str, where: str) -> str:
    """``text`` with its one ``old`` replaced by ``new``; a missing or
    repeated ``old`` ends the run."""
    count = text.count(old)
    if count != 1:
        raise SystemExit(f"mutants: {where}: old text found {count} times, expected once:\n{old}")
    return text.replace(old, new)


def run_tests(copy: Path, tests: tuple[str, ...]) -> tuple[int, str]:
    """pytest's exit status on ``tests`` in ``copy`` and its first failure."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
        cwd=copy, env=env, capture_output=True, text=True)
    failures = [line for line in proc.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    return proc.returncode, failures[0] if failures else ""


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_mutants.json")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    results = []
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            shutil.copytree(ROOT / name, copy / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        originals = {}
        for mutant in MUTANTS:
            for path, old, new in mutant.edits:
                text = originals.setdefault(path, (copy / path).read_text())
                mutate(text, old, new, f"{mutant.name} ({path})")
        every_test = tuple(dict.fromkeys(t for mutant in MUTANTS for t in mutant.tests))
        status, failure = run_tests(copy, every_test)
        if status != 0:
            raise SystemExit(f"mutants: the unmutated tests fail (pytest status {status}): "
                             f"{failure}")
        for mutant in MUTANTS:
            texts = {}
            for path, old, new in mutant.edits:
                texts[path] = mutate(texts.get(path, originals[path]), old, new, mutant.name)
            began = time.perf_counter()
            try:
                for path, text in texts.items():
                    (copy / path).write_text(text)
                status, failure = run_tests(copy, mutant.tests)
            finally:
                for path in texts:
                    (copy / path).write_text(originals[path])
            killed = status in (1, 2)  # failed tests, or a collection error
            expected = mutant.name not in SURVIVORS
            results.append({
                "name": mutant.name, "recorded": mutant.recorded,
                "edits": [{"file": p, "old": o, "new": n} for p, o, n in mutant.edits],
                "tests": list(mutant.tests), "killed": killed,
                "known_survivor": SURVIVORS.get(mutant.name),
                "pytest_status": status, "first_failure": failure,
                "seconds": round(time.perf_counter() - began, 2)})
            print(f"{'killed  ' if killed else 'SURVIVED'} {mutant.name} "
                  f"({results[-1]['seconds']} s){'' if killed == expected else ' <- unexpected'}",
                  flush=True)
    escaped = [r["name"] for r in results if not r["killed"] and r["known_survivor"] is None]
    payload = {
        "python": platform.python_version(),
        "mutants": len(results),
        "killed": sum(r["killed"] for r in results),
        "known_survivors": sorted(SURVIVORS),
        "unexpected_survivors": escaped,
        "seconds": round(time.perf_counter() - start, 1),
        "results": results,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"{payload['killed']} of {len(results)} mutants killed in {payload['seconds']} s; "
          f"wrote {args.out}")
    if escaped:
        print(f"mutants: not caught by their tests: {', '.join(escaped)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
