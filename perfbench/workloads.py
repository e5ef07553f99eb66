"""The benchmark's workloads: inputs drawn from a seed, paired runs, ledgers.

Every workload is a paired canonical + recycling ADAPT run.  Its input is a
point on a small grid of bond lengths (hydrogen chains) or fields (TFIM);
grid point 0 is the geometry the workload is named after, and seed ``s``
selects grid point ``s % len(grid)``.  A reference ledger is pinned for
every grid point in ``reference.json`` (see ``pin_reference.py``), so every
run, whatever its seed, is checked against it.

The molecular inputs are generated by ``tools/generate_fixtures.py`` in a
child process and handed to the program as a Hamiltonian JSON file; the
TFIM input is built by ``adaptvqe.builtin_model``.  The module also runs as
a script for those child processes:

    python3 perfbench/workloads.py prepare <workload> <grid-index> <out.json>
    python3 perfbench/workloads.py setup <workload> <grid-index> <in.json>
"""

from __future__ import annotations

import csv
import hashlib
import json
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
WORK_DIR = Path(__file__).resolve().parent / ".work"
ENERGY_TOL = 1e-10
MODES = ("canonical", "recycling")
CHILD_TIMEOUT_S = 120


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                # "chain" (STO-3G hydrogen chain) or "tfim"
    grid: tuple[float, ...]  # bond lengths in angstrom, or TFIM fields
    n_sites: int             # atoms, or TFIM qubits
    max_iterations: int
    diagnose: bool = False

    @property
    def n_qubits(self) -> int:
        return 2 * self.n_sites if self.kind == "chain" else self.n_sites

    def grid_index(self, seed: int) -> int:
        if seed < 0:
            raise ValueError("seed must be non-negative")
        return seed % len(self.grid)

    def key(self, index: int) -> str:
        return f"{self.grid[index]:.4f}"


def _around(center: float, step: float,
            steps: tuple[int, ...] = (0, -3, -2, -1, 1, 2, 3, 4)) -> tuple[float, ...]:
    return tuple(round(center + k * step, 4) for k in steps)


WORKLOADS = {
    w.name: w for w in (
        Workload("h6-capped", "chain", _around(1.0, 0.001), 6, max_iterations=6),
        Workload("tfim8-nn", "tfim", (1.0, 0.99, 0.9925, 0.995, 0.9975,
                                      1.0025, 1.005, 1.0075), 8, max_iterations=30),
        # 1.005 A is skipped: its recycling run alone takes 10 % more
        # evaluations (2,850 against 2,575-2,586 at every other point).
        Workload("h4-diagnose", "chain", _around(1.0, 0.005, (0, -3, -2, -1, 2, 3, 4, 5)),
                 4, max_iterations=50, diagnose=True),
    )
}

HEATMAP_ITERATIONS = (5, 10)


# ---------------------------------------------------------------- inputs


def prepare_input(workload: Workload, index: int, out: Path) -> dict:
    """Generate a hydrogen-chain Hamiltonian file for one grid point."""
    sys.path.insert(0, str(ROOT / "tools"))
    import generate_fixtures
    from adaptvqe.hamiltonians import save_hamiltonian

    spacing = workload.grid[index]
    name = f"h{workload.n_sites}_sto3g_{spacing:.4f}".replace(".", "p")
    hfile = generate_fixtures.build_hydrogen_chain(name, spacing, workload.n_sites)
    if hfile.exact_ground_energy is None:
        raise RuntimeError(f"{name}: generator recorded no exact ground energy")
    save_hamiltonian(hfile, out)
    return {"exact_energy": hfile.exact_ground_energy}


def input_cache_path(workload: Workload, index: int) -> Path:
    """Where a generated input is kept between runs in this checkout.

    The name carries a hash of the generator and package sources, so a
    change to either generates the input afresh.
    """
    digest = hashlib.sha256()
    sources = [ROOT / "tools" / "generate_fixtures.py",
               *sorted((ROOT / "src" / "adaptvqe").rglob("*.py"))]
    for path in sources:
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    name = f"{workload.name}-{workload.key(index)}-{digest.hexdigest()[:16]}.json"
    return WORK_DIR / "inputs" / name


def run_child(args: list[str]) -> dict:
    """Run this module as a child process and parse its last output line."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *args],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child {args[0]} failed:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_problem(workload: Workload, index: int, input_path: Path | None):
    """The Hamiltonian file and the operator pool, through the public API.

    Module attributes are looked up at call time, so a traced run sees its
    wrappers here.
    """
    import adaptvqe.hamiltonians as hamiltonians
    import adaptvqe.pools as pools

    if workload.kind == "tfim":
        hfile = hamiltonians.builtin_model(
            "tfim", workload.n_sites, field_strength=workload.grid[index])
        pool = pools.build_nearest_neighbor_pool(hfile.n_qubits)
    else:
        hfile = hamiltonians.load_hamiltonian(input_path)
        pool = pools.build_qe_pool(hfile.n_qubits, hfile.n_electrons)
    return hfile, pool


def measure_setup(workload: Workload, index: int, input_path: Path | None) -> dict:
    """Package import plus Hamiltonian load or build plus pool build, timed in
    a fresh interpreter (run as a child process)."""
    t0 = time.perf_counter()
    import adaptvqe  # noqa: F401
    load_problem(workload, index, input_path)
    return {"setup_s": time.perf_counter() - t0}


def input_properties(hfile, pool) -> dict:
    """Input facts recorded in the reference, including what compiled
    operators would exploit (distinct X masks)."""
    return {
        "n_qubits": hfile.n_qubits,
        "terms": hfile.operator.n_terms,
        "distinct_x_masks": len({s.x_mask for s in hfile.operator.strings()}),
        "pool_size": len(pool),
        "pool_strings": sum(op.n_terms for op in pool.operators),
        "exact_energy": hfile.exact_ground_energy,
    }


# ---------------------------------------------------------------- runs


def _mode_ledger(result) -> dict:
    return {
        "fevals": result.ledger.function_evaluations,
        "line_searches": sum(it.line_searches for it in result.iterations),
        "iterations": len(result.iterations),
        "labels": [it.selected_label for it in result.iterations],
        "energy": result.energy,
    }


def warm_up(hfile, pool) -> None:
    """One growth iteration per mode, so per-mask caches are filled."""
    import adaptvqe

    for mode in MODES:
        adaptvqe.run_adapt(hfile.operator, hfile.reference_bitstring, pool,
                           mode=mode, max_iterations=1)


def speed_kernel(n_qubits: int) -> float:
    """Seconds for a fixed amount of statevector arithmetic written here.

    It is the mix of one Pauli-string exponential (phase, gather, rotation,
    overlap) on a state of the workload's size, about 0.1 s on the machine
    the benchmark was defined on.  It uses none of the program's code, so
    only the machine's speed moves it.  The runs below call it before and
    after each timed section, and ``run.py`` reports every section scaled by
    ``KERNEL_REFERENCE_S / mean kernel seconds`` around it.  The shared
    2-core VM the benchmark was defined on drifts by 15-40 % over seconds to
    minutes; a kernel read right beside a section follows that drift, and
    the scaled times spread a half to a quarter as much as the raw ones.
    """
    import numpy as np

    dim = 1 << n_qubits
    index = np.arange(dim)
    flip = (index ^ (1 | dim >> 1)).astype(np.int32)
    signs = (1 - 2 * (np.bitwise_count(index & 0b110) & 1)).astype(np.int8)
    amps = np.full(dim, dim ** -0.5, dtype=complex)
    cos, sin = np.cos(0.1), np.sin(0.1)
    t0 = time.perf_counter()
    for _ in range(12_800_000 // (dim + 1024)):
        rotated = (amps * signs)[flip]
        amps = cos * amps + 1j * sin * rotated
        np.vdot(amps, rotated)
    return time.perf_counter() - t0


def run_pair(workload: Workload, hfile, pool) -> tuple[dict, dict]:
    """Canonical then recycling through ``adaptvqe.run_adapt``.

    The speed kernel runs before the first mode and after each one.  Returns
    the timing samples of the pass's sections, ``{"<mode>_s": [(seconds,
    kernel seconds)]}`` with the mean kernel reading around each section,
    and the ledger per mode.
    """
    import adaptvqe

    kernels = [speed_kernel(workload.n_qubits)]
    samples, ledger = {}, {}
    for mode in MODES:
        t0 = time.perf_counter()
        result = adaptvqe.run_adapt(
            hfile.operator, hfile.reference_bitstring, pool, mode=mode,
            max_iterations=workload.max_iterations,
            exact_energy=hfile.exact_ground_energy,
        )
        seconds = time.perf_counter() - t0
        kernels.append(speed_kernel(workload.n_qubits))
        samples[f"{mode}_s"] = [(seconds, (kernels[-2] + kernels[-1]) / 2)]
        ledger[mode] = _mode_ledger(result)
    return samples, ledger


def diagnose_config(workload: Workload, input_path: Path, **fields):
    import adaptvqe.experiment as experiment

    return experiment.ExperimentConfig(
        hamiltonian_path=str(input_path), modes=MODES,
        max_adapt_iterations=workload.max_iterations, diagnostics=True,
        heatmap_iterations=HEATMAP_ITERATIONS, **fields,
    )


def run_diagnose(workload: Workload, input_path: Path, out_dir: Path) -> tuple[dict, dict]:
    """``adaptvqe.experiment.run_experiment`` with diagnostics and heatmaps.

    The two ``run_adapt`` calls inside it are timed by a thin wrapper at the
    name ``run_experiment`` looks up, which also runs the speed kernel after
    each.  Returns timing samples as ``run_pair`` does, plus ``rest_s``: the
    rest of ``run_experiment`` (load, pool, diagnostics, file output), less
    the kernels' time; and the ledger read back from the files the run wrote.
    """
    import adaptvqe.experiment as experiment

    kernels = [speed_kernel(workload.n_qubits)]
    samples = {f"{mode}_s": [] for mode in MODES}
    kernel_s = 0.0
    inner = experiment.run_adapt

    def timed_run_adapt(*args, **kwargs):
        nonlocal kernel_s
        t0 = time.perf_counter()
        try:
            return inner(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            kernels.append(speed_kernel(workload.n_qubits))
            kernel_s += time.perf_counter() - t1
            samples[f"{kwargs['mode']}_s"].append((t1 - t0, (kernels[-2] + kernels[-1]) / 2))

    config = diagnose_config(workload, input_path, output_dir=str(out_dir))
    experiment.run_adapt = timed_run_adapt
    try:
        t0 = time.perf_counter()
        experiment.run_experiment(config)
        wall = time.perf_counter() - t0 - kernel_s
    finally:
        experiment.run_adapt = inner
    kernels.append(speed_kernel(workload.n_qubits))
    rest = wall - sum(seconds for mode in MODES for seconds, _ in samples[f"{mode}_s"])
    samples["rest_s"] = [(rest, (kernels[-2] + kernels[-1]) / 2)]
    return samples, read_run_directory(out_dir)


def rerun_mode(workload: Workload, input_path: Path, hfile, pool,
               mode: str) -> tuple[tuple[float, float], dict]:
    """One ``run_adapt`` call of ``run_diagnose`` once more, alone.

    It has the arguments ``run_experiment`` passes, so it does the same
    work; it gives ``canonical_s`` and ``recycling_s`` more samples per
    pass than the long diagnose pass allows.  Returns one timing sample,
    bracketed by the speed kernel, and the mode's ledger.
    """
    import adaptvqe

    config = diagnose_config(workload, input_path)
    before = speed_kernel(workload.n_qubits)
    t0 = time.perf_counter()
    result = adaptvqe.run_adapt(
        hfile.operator, hfile.reference_bitstring, pool, mode=mode,
        eps=config.eps, max_iterations=config.max_adapt_iterations,
        opt_grad_tol=config.opt_grad_tol, opt_max_iterations=config.opt_max_iterations,
        exact_energy=hfile.exact_ground_energy,
        record_optimizer_state=config.diagnostics,
    )
    seconds = time.perf_counter() - t0
    after = speed_kernel(workload.n_qubits)
    return (seconds, (before + after) / 2), _mode_ledger(result)


def read_run_directory(out_dir: Path) -> dict:
    summary = json.loads((out_dir / "summary.json").read_text())
    ledger = {}
    for mode in MODES:
        with (out_dir / f"adapt_trace_{mode}.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))[1:]
        ledger[mode] = {
            "fevals": summary["modes"][mode]["function_evaluations"],
            "line_searches": sum(int(r["line_searches"]) for r in rows),
            "iterations": summary["modes"][mode]["iterations"],
            "labels": [r["selected_label"] for r in rows],
            "energy": summary["modes"][mode]["final_energy"],
        }
    shadow = json.loads((out_dir / "diagnostics_ledger.json").read_text())
    ledger["diagnostics"] = {
        "shadow_fevals": shadow["function_evaluations"],
        "files": sorted(p.name for p in out_dir.iterdir() if p.is_file()),
    }
    return ledger


# ---------------------------------------------------------------- checks


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    return json.loads(path.read_text())


def ledger_mismatches(observed: dict, expected: dict) -> list[str]:
    """Differences between a run's ledger and the pinned one.

    Counts, labels and file lists must match exactly; energies to
    ``ENERGY_TOL``.  An empty list means the run is correct.
    """
    problems = []
    for part in sorted(set(observed) | set(expected)):
        if part not in observed or part not in expected:
            problems.append(f"{part}: present on one side only")
            continue
        got, want = observed[part], expected[part]
        for key in sorted(set(got) | set(want)):
            a, b = got.get(key), want.get(key)
            if isinstance(a, float) or isinstance(b, float):
                numbers = all(isinstance(v, (int, float)) for v in (a, b))
                if not numbers or abs(a - b) > ENERGY_TOL:
                    problems.append(f"{part}.{key}: {a!r} != {b!r} (tol {ENERGY_TOL})")
            elif a != b:
                problems.append(f"{part}.{key}: {a!r} != {b!r}")
    return problems


def _main(argv: list[str]) -> None:
    command, name, index = argv[0], argv[1], int(argv[2])
    workload = WORKLOADS[name]
    path = Path(argv[3]) if len(argv) > 3 and argv[3] else None
    sys.path.insert(0, str(ROOT / "src"))
    if command == "prepare":
        out = prepare_input(workload, index, path)
    elif command == "setup":
        out = measure_setup(workload, index, path)
    else:
        raise SystemExit(f"unknown command {command!r}")
    print(json.dumps(out))


if __name__ == "__main__":
    _main(sys.argv[1:])
