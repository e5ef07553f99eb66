"""The repository benchmark: paired canonical + recycling ADAPT runs.

Run from the repository root:

    python3 perfbench/run.py --workload h4-diagnose --seed 0 --seconds 30 --trace 0

Workloads, metric names and units are listed in ``BENCHMARK.json``; the
layer predictions are in ``perfbench/PREDICTIONS.md``.  One run

1. generates the workload's input for the seed (a child process running
   ``tools/generate_fixtures.build_hydrogen_chain``; reported as
   ``input_prep_s``, outside ``setup_s``);
2. times set-up (package import, Hamiltonian load or model build, pool
   build) in ``SETUP_REPEATS`` fresh interpreters and keeps the median;
3. warms the per-mask caches with one growth iteration per mode, then
   repeats the paired run until ``--seconds`` have passed, one run after
   another in this process, checking each pass against the pinned reference
   ledger (counts exactly, energies to 1e-10).  A speed kernel runs beside
   every timed section, and the end-to-end timings are scaled by it (see
   ``workloads.speed_kernel``).  After each ``h4-diagnose`` pass, its
   ``run_adapt`` calls are repeated alone (``DIAGNOSE_RERUNS``), so that
   ``canonical_s`` and ``recycling_s`` have several samples per pass.
   ``wall_s`` is the sum of the medians of a pass's sections (see
   ``end_to_end``);
4. with ``--trace 1``, alternates untraced and traced passes and reports the
   per-layer metrics of the traced ones (see ``tracing.py``) and the tracing
   overhead; the traced ledger must equal the untraced one.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every pass was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import workloads  # imports no numpy, so threads can still be capped first

ROOT = workloads.ROOT
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 7
KERNEL_REFERENCE_S = 0.1
DIAGNOSE_RERUNS = ("canonical", "recycling", "recycling")
REQUIRED_FILES = ("BENCHMARK.json", "src/adaptvqe/__init__.py", "tools/generate_fixtures.py")


def limit_threads() -> int:
    """Cap BLAS/OpenMP threads at ``nproc`` (default 1); call before numpy
    is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            requested = int(os.environ.get(var, "1"))
        except ValueError:
            requested = 1
        os.environ[var] = str(min(max(requested, 1), nproc))
    return nproc


def environment(nproc: int) -> dict:
    import numpy
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": nproc,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def summarize(name: str, values: list[float], unit: str) -> str:
    return (f"  {name} median {statistics.median(values):.6g} {unit} "
            f"(n={len(values)}, min {min(values):.6g}, max {max(values):.6g})")


def status(problems: list[str]) -> str:
    return "ok" if not problems else "MISMATCH " + "; ".join(problems[:5])


class Bench:
    """One workload at one seed: input, set-up, checked passes."""

    def __init__(self, workload, seed: int, tmp: Path):
        self.workload = workload
        self.index = workload.grid_index(seed)
        self.tmp = tmp
        self.input_path = None
        reference = workloads.load_reference()[workload.name]
        self.reference = reference.get(workload.key(self.index))
        self.passes = 0

    def prepare(self) -> None:
        name, index = self.workload.name, str(self.index)
        if self.workload.kind == "chain":
            self.input_path = workloads.input_cache_path(self.workload, self.index)
            if self.input_path.is_file():
                print(f"input_prep_s 0 s (cached {self.input_path.name})")
            else:
                fresh = self.tmp / "hamiltonian.json"
                t0 = time.perf_counter()
                workloads.run_child(["prepare", name, index, str(fresh)])
                self.input_path.parent.mkdir(parents=True, exist_ok=True)
                os.replace(fresh, self.input_path)
                print(f"input_prep_s {time.perf_counter() - t0:.3f} s "
                      f"(tools/generate_fixtures.build_hydrogen_chain, "
                      f"{self.workload.key(self.index)} A; not part of setup_s)")
        path = str(self.input_path or "")
        before = workloads.speed_kernel(self.workload.n_qubits)
        self.setup_times = [workloads.run_child(["setup", name, index, path])["setup_s"]
                            for _ in range(SETUP_REPEATS)]
        self.setup_scale = 2 * KERNEL_REFERENCE_S / (
            before + workloads.speed_kernel(self.workload.n_qubits))
        self.hfile, self.pool = workloads.load_problem(self.workload, self.index,
                                                    self.input_path)
        self.inputs = workloads.input_properties(self.hfile, self.pool)
        print("input", json.dumps(self.inputs))
        workloads.warm_up(self.hfile, self.pool)

    def one_pass(self, reruns: tuple[str, ...] = ()) -> tuple[dict, dict, int, list[str]]:
        """One paired run: timing samples, observed ledger, bytes written.

        On ``h4-diagnose`` the run of each mode in ``reruns`` is then
        repeated alone; the samples join the mode's timing, and the last
        item returned lists how their ledgers differ from the pass's own.
        """
        self.passes += 1
        if not self.workload.diagnose:
            samples, ledger = workloads.run_pair(self.workload, self.hfile, self.pool)
            return samples, {**ledger, "input": self.inputs}, 0, []
        out = self.tmp / f"run{self.passes}"
        try:
            samples, ledger = workloads.run_diagnose(self.workload, self.input_path, out)
            written = sum(p.stat().st_size for p in out.iterdir() if p.is_file())
        finally:
            shutil.rmtree(out, ignore_errors=True)
        problems = []
        for mode in reruns:
            sample, rerun = workloads.rerun_mode(self.workload, self.input_path,
                                                 self.hfile, self.pool, mode)
            samples[f"{mode}_s"].append(sample)
            problems += [f"{mode} rerun {p}" for p in workloads.ledger_mismatches(
                {mode: rerun}, {mode: ledger[mode]})]
        return samples, {**ledger, "input": self.inputs}, written, problems

    def traced_pass(self, tracing, samples: dict, ledger: dict) -> tuple[dict, list[str]]:
        """Set-up and one paired run with the wrappers installed.

        Returns the per-layer metrics and the ways the traced ledger differs
        from the untraced one of the same loop iteration.
        """
        tracer = tracing.Tracer()
        with tracing.instrument(tracer):
            if not self.workload.diagnose:  # run_experiment loads for itself
                workloads.load_problem(self.workload, self.index, self.input_path)
            traced_samples, traced_ledger, written, _ = self.one_pass()
        problems = [] if traced_ledger == ledger else [
            "traced ledger differs from the untraced one"]
        metrics = per_layer(tracing, tracer, self.inputs, traced_ledger, written)
        traced_wall = pass_wall(traced_samples)
        metrics["trace.overhead_s"] = traced_wall - pass_wall(samples)
        print(f"  traced: wall_s={traced_wall:.4f} (scaled) spans={tracer.n_spans} "
              f"ledger {status(problems)}")
        return metrics, problems

    def check(self, ledger: dict) -> list[str]:
        if self.reference is None:
            return [f"no pinned reference for {self.workload.name} at "
                    f"{self.workload.key(self.index)}"]
        return workloads.ledger_mismatches(ledger, self.reference)


def scaled(seconds: float, kernel: float) -> float:
    return seconds * KERNEL_REFERENCE_S / kernel


def pass_wall(samples: dict) -> float:
    """Scaled wall time of one pass: the sum of its sections' first samples."""
    return sum(scaled(*section[0]) for section in samples.values())


def end_to_end(bench: Bench, timings: dict, ledger: dict) -> dict:
    """Each section's timing is the median of its samples, each scaled by
    the speed kernel read around it; ``wall_s`` is the sum of the sections'
    medians, so that the sections repeated alone count toward it."""
    canonical, recycling = ledger["canonical"], ledger["recycling"]
    sections = {key: statistics.median(scaled(*sample) for sample in samples)
                for key, samples in timings.items()}
    return {
        "wall_s": sum(sections.values()),
        "canonical_s": sections["canonical_s"],
        "recycling_s": sections["recycling_s"],
        "setup_s": statistics.median(bench.setup_times) * bench.setup_scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fevals_canonical": canonical["fevals"],
        "fevals_recycling": recycling["fevals"],
        "feval_reduction": 1.0 - recycling["fevals"] / canonical["fevals"],
        "line_searches_canonical": canonical["line_searches"],
        "line_searches_recycling": recycling["line_searches"],
    }


def per_layer(tracing, tracer, inputs: dict, ledger: dict, written: int) -> dict:
    metrics = tracing.layer_metrics(tracer)
    metrics["hamiltonians.terms"] = inputs["terms"]
    metrics["hamiltonians.distinct_x_masks"] = inputs["distinct_x_masks"]
    metrics["pools.size"] = inputs["pool_size"]
    metrics["pools.strings"] = inputs["pool_strings"]
    metrics["diagnostics.shadow_fevals"] = ledger.get("diagnostics", {}).get(
        "shadow_fevals", 0)
    metrics["experiment.bytes_written"] = written
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = limit_threads()
    missing = [p for p in REQUIRED_FILES if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: {ROOT} is not a checkout of the repository "
              f"(missing {', '.join(missing)})", file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    import adaptvqe

    if not Path(adaptvqe.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: imported adaptvqe from {adaptvqe.__file__}, "
              f"not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    import tracing

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"have {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    print("env", json.dumps(environment(nproc)))
    print(f"workload {workload.name} seed {args.seed} grid point "
          f"{workload.key(workload.grid_index(args.seed))} trace {args.trace}")

    workloads.WORK_DIR.mkdir(exist_ok=True)
    attempted = failed = 0
    timings: dict[str, list] = {}
    traced: list[dict] = []
    ledger: dict = {}
    errors = False
    with tempfile.TemporaryDirectory(dir=workloads.WORK_DIR) as tmp:
        bench = Bench(workload, args.seed, Path(tmp))
        try:
            bench.prepare()
        except Exception:
            traceback.print_exc()
            print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                              "metrics": {}}))
            return 1
        deadline = time.perf_counter() + args.seconds
        reruns = () if args.trace else DIAGNOSE_RERUNS
        pass_s = 0.0
        # Stop once another pass would end more than half a pass late, so a
        # run measures about --seconds on average.
        while attempted == 0 or time.perf_counter() + pass_s / 2 < deadline:
            attempted += 1
            started = time.perf_counter()
            try:
                samples, ledger, _, problems = bench.one_pass(reruns)
                problems = bench.check(ledger) + problems
                print(f"pass {attempted}: " + " ".join(
                    f"{key}=" + ",".join(f"{seconds:.4f}/{kernel:.4f}"
                                         for seconds, kernel in samples[key])
                    for key in samples) + " (seconds/kernel) ledger " + status(problems))
                if args.trace:
                    metrics, traced_problems = bench.traced_pass(tracing, samples, ledger)
                    traced.append(metrics)
                    problems += traced_problems
            except Exception:
                traceback.print_exc()
                failed += 1
                errors = True
                break
            for key, values in samples.items():
                timings.setdefault(key, []).extend(values)
            failed += bool(problems)
            pass_s = time.perf_counter() - started

    if not timings:
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed,
                          "metrics": {}}))
        return 1
    e2e = end_to_end(bench, timings, ledger)
    exact = bench.inputs["exact_energy"]
    energy_error = max(abs(ledger[m]["energy"] - exact) for m in workloads.MODES)
    print("summary (raw seconds; the metrics below are scaled by the speed kernel)")
    for key, samples in timings.items():
        print(summarize(key, [seconds for seconds, _ in samples], "s"))
    print(summarize("setup_s", bench.setup_times, "s"))
    print(summarize("scale", [KERNEL_REFERENCE_S / kernel for samples in timings.values()
                              for _, kernel in samples] + [bench.setup_scale], "x"))
    print(f"  energy_error {energy_error:.3e} (max |E - E_exact| over modes; "
          f"checked against the reference, not a bounded metric)")
    print(f"  failed_fraction {failed / attempted:.4f} ({failed} of {attempted} passes)")

    if args.trace:
        values = {name: statistics.median(m[name] for m in traced) for name in traced[0]}
        specs = contract["per_layer"]
    else:
        values, specs = e2e, contract["end_to_end"]
    metrics = {}
    for spec in specs:
        metrics[spec["name"]] = {"value": values[spec["name"]], "unit": spec["unit"]}
        print(f"  {spec['name']} = {values[spec['name']]:.6g} {spec['unit']}")
    correct = failed == 0 and not errors
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
