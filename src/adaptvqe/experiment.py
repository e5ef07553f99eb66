"""Experiment orchestration: configs, paired-mode runs, and file emission.

A run directory receives, per mode, the growth-loop trace and the companion
per-optimizer-iteration trace as CSV, the cost ledger as JSON, plus a
``summary.json`` comparing modes.  With diagnostics enabled the
inverse-Hessian distance series, element-wise difference heatmaps and a
convergence report for the final optimization are emitted as well.  All
outputs are byte-deterministic for a fixed config, and each file is written
under a temporary name and renamed into place, so an interrupted run never
leaves a truncated file; concurrent runs must use distinct directories,
enforced by a lock file that names the holder's pid and host.  A lock left
on this host by a process that is no longer running is taken over.
:class:`ExperimentConfig` takes each default from the module that owns it
and checks its limits by the same rules as :func:`run_adapt`.
"""

from __future__ import annotations

import csv
import json
import logging
import os
import socket
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .cost import CostLedger
from .diagnostics import convergence_report, exact_ansatz_hessian, hessian_distance_series
from .driver import DEFAULT_EPS, DEFAULT_GROWTH_CAP, MODES, AdaptResult, checked_mode, run_adapt
from .hamiltonians import (
    DEFAULT_COUPLING,
    DEFAULT_FIELD,
    HamiltonianFile,
    builtin_model,
    load_hamiltonian,
    write_atomically,
    write_json,
)
from .optimizer import DEFAULT_GRAD_TOL, DEFAULT_LINE_SEARCH_CAP, OptimizerResult
from .paulis import checked_cap, checked_threshold, finite_float, is_a
from .pools import OperatorPool, build_nearest_neighbor_pool, build_qe_pool, build_qubit_pool
from .simulator import check_qubit_cap

__all__ = [
    "ExperimentConfig",
    "ExperimentError",
    "load_config",
    "resolve_hamiltonian",
    "resolve_pool",
    "run_experiment",
]

ADAPT_TRACE_COLUMNS = (
    "n", "selected_label", "selected_gradient", "pool_grad_norm",
    "energy", "error", "line_searches", "fevals_cumulative",
)
OPT_TRACE_COLUMNS = (
    "n", "k", "f", "grad_norm", "alpha", "fevals_cumulative", "update_skipped",
)

logger = logging.getLogger(__name__)

POOL_CHOICES = ("auto", "qe", "qubit", "nn")
_BUILTIN_REQUIRED = ("kind", "n_qubits")
_BUILTIN_DEFAULTS = {"coupling": DEFAULT_COUPLING, "field": DEFAULT_FIELD}


def _of_kind(name, value, kind, label):
    """``value`` if ``is_a(value, kind)``, else ``ValueError`` naming it."""
    if not is_a(value, kind):
        raise ValueError(f"{name} must be {label}, got {value!r}")
    return value


# (name, check, *args): check(name, value, *args) is the value to keep, or raises
_FIELD_KINDS = (
    ("qe_singles", _of_kind, bool, "a bool"),
    ("diagnostics", _of_kind, bool, "a bool"),
    ("verify_hamiltonian", _of_kind, bool, "a bool"),
    ("max_adapt_iterations", checked_cap),
    ("opt_max_iterations", checked_cap, 1),
    ("eps", checked_threshold),
    ("opt_grad_tol", checked_threshold),
    ("hamiltonian_path", _of_kind, (str, type(None)), "a string"),
    ("output_dir", _of_kind, str, "a string"),
    ("modes", _of_kind, (list, tuple), "a list"),
    ("heatmap_iterations", _of_kind, (list, tuple), "a list"),
)
_BUILTIN_KINDS = (
    ("kind", _of_kind, str, "a string"),
    ("n_qubits", _of_kind, int, "an int"),
    ("coupling", _of_kind, (int, float), "a number"),
    ("field", _of_kind, (int, float), "a number"),
    ("with_exact", _of_kind, bool, "a bool"),
)


class ExperimentError(RuntimeError):
    pass


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce a run; JSON round-trippable."""

    hamiltonian_path: str | None = None
    builtin: dict | None = None
    pool: str = "auto"
    qe_singles: bool = True
    modes: tuple[str, ...] = MODES
    eps: float = DEFAULT_EPS
    max_adapt_iterations: int = DEFAULT_GROWTH_CAP
    opt_grad_tol: float = DEFAULT_GRAD_TOL
    opt_max_iterations: int = DEFAULT_LINE_SEARCH_CAP
    diagnostics: bool = False
    heatmap_iterations: tuple[int, ...] = ()
    output_dir: str = "run_output"
    verify_hamiltonian: bool = False

    def __post_init__(self):
        if (self.hamiltonian_path is None) == (self.builtin is None):
            raise ValueError("exactly one of hamiltonian_path or builtin is required")
        if self.builtin is not None:
            self.builtin = _checked_builtin_spec(self.builtin)
        for name, check, *args in _FIELD_KINDS:
            setattr(self, name, check(name, getattr(self, name), *args))
        bad = [i for i in self.heatmap_iterations if not is_a(i, int)]
        if bad:
            raise ValueError(f"heatmap_iterations must be ints, got {bad!r}")
        if self.pool not in POOL_CHOICES:
            raise ValueError(f"pool must be one of {POOL_CHOICES}")
        low = [i for i in self.heatmap_iterations if i < 1]
        if low:
            raise ValueError(f"heatmap_iterations must be at least 1, got {low!r}")
        if not self.modes:
            raise ValueError("modes must name at least one mode")
        self.modes = tuple(checked_mode(mode) for mode in self.modes)
        if len(set(self.modes)) != len(self.modes):
            raise ValueError(f"modes lists a mode twice: {list(self.modes)}")
        self.heatmap_iterations = tuple(self.heatmap_iterations)

    def to_payload(self) -> dict:
        return asdict(self)

    @classmethod
    def from_payload(cls, payload: dict) -> "ExperimentConfig":
        if not isinstance(payload, dict):
            raise ValueError(f"config must be a JSON object, got {type(payload).__name__}")
        known = {f.name for f in cls.__dataclass_fields__.values()}  # type: ignore[attr-defined]
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**payload)


def _checked_builtin_spec(spec) -> dict:
    """The spec with ``builtin_model``'s ``coupling`` and ``field`` filled in
    when left out, checked by ``_BUILTIN_KINDS``; returns the filled copy."""
    if not isinstance(spec, dict):
        raise ValueError(f"builtin must be an object, got {spec!r}")
    missing = [key for key in _BUILTIN_REQUIRED if key not in spec]
    if missing:
        raise ValueError(f"builtin spec missing fields {missing}")
    spec = {**_BUILTIN_DEFAULTS, **spec}
    unknown = sorted(set(spec) - {name for name, *_ in _BUILTIN_KINDS})
    if unknown:
        raise ValueError(f"unknown builtin spec fields: {unknown}")
    for name, check, *args in _BUILTIN_KINDS:
        if name in spec:
            check(f"builtin {name}", spec[name], *args)
    for key in _BUILTIN_DEFAULTS:
        if finite_float(spec[key]) is None:
            raise ValueError(f"builtin {key} must be finite and fit a float")
    return spec


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except OSError as exc:
        raise ExperimentError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ExperimentError(f"{path}: invalid JSON: {exc}") from exc
    try:
        return ExperimentConfig.from_payload(payload)
    except (TypeError, ValueError) as exc:
        raise ExperimentError(f"{path}: {exc}") from exc


def resolve_hamiltonian(config: ExperimentConfig) -> HamiltonianFile:
    if config.hamiltonian_path is not None:
        return load_hamiltonian(config.hamiltonian_path, verify=config.verify_hamiltonian)
    spec = dict(config.builtin)
    return builtin_model(coupling=float(spec.pop("coupling")),
                         field_strength=float(spec.pop("field")), **spec)


def resolve_pool(config: ExperimentConfig, hfile: HamiltonianFile) -> OperatorPool:
    choice = config.pool
    if choice == "auto":
        choice = "qe" if hfile.n_electrons else "nn"
    if choice in ("qe", "qubit"):
        if not hfile.n_electrons:
            raise ExperimentError(
                "excitation pools need n_electrons in the Hamiltonian metadata"
            )
        qe = build_qe_pool(hfile.n_qubits, hfile.n_electrons, include_singles=config.qe_singles)
        return qe if choice == "qe" else build_qubit_pool(qe)
    return build_nearest_neighbor_pool(hfile.n_qubits)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path: Path, header, rows) -> None:
    def write(fh):
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])

    write_atomically(path, write)


def write_adapt_trace(path: Path, result: AdaptResult) -> None:
    rows = [(0, "", "", "", result.initial_energy,
             None if result.exact_energy is None
             else result.initial_energy - result.exact_energy, 0, 1)]
    for it in result.iterations:
        rows.append((it.n, it.selected_label, it.selected_gradient,
                     it.pool_grad_norm, it.energy, it.error,
                     it.line_searches, it.fevals_cumulative))
    _write_csv(path, ADAPT_TRACE_COLUMNS, rows)


def write_opt_trace(path: Path, result: AdaptResult) -> None:
    rows = []
    for it in result.iterations:
        for rec in it.opt_trace:
            rows.append((it.n, rec.k, rec.f, rec.grad_norm, rec.alpha,
                         rec.fevals_cumulative, rec.update_skipped))
    _write_csv(path, OPT_TRACE_COLUMNS, rows)


def write_ledger(path: Path, result: AdaptResult) -> None:
    ledger = result.ledger
    write_json(path, {
        "function_evaluations": ledger.function_evaluations,
        "pool_gradient_units": ledger.pool_gradient_units,
        "total_units": ledger.total_units,
        "pool_sweeps": result.pool_sweeps,
        "per_iteration": ledger.breakdown,
    })


def _mode_summary(result: AdaptResult) -> dict:
    return {
        "final_energy": result.energy,
        "error_vs_exact": result.error,
        "converged": result.converged,
        "stalled": result.stalled,
        "iterations": len(result.iterations),
        "function_evaluations": result.ledger.function_evaluations,
        "pool_gradient_units": result.ledger.pool_gradient_units,
        "final_pool_grad_norm": result.final_pool_grad_norm,
    }


def _both_modes(config: ExperimentConfig) -> bool:
    """Whether ``config`` runs both modes, which the mode comparisons need."""
    return set(config.modes) == set(MODES)


def _write_diagnostics(out: Path, config: ExperimentConfig, hfile: HamiltonianFile,
                       pool: OperatorPool, results: dict[str, AdaptResult]) -> None:
    shadow = CostLedger()
    recycling_hessian = None  # the series' exact Hessian at the run's last x_star
    if _both_modes(config):
        records, heatmaps = hessian_distance_series(
            results["canonical"], results["recycling"], hfile.operator, pool,
            hfile.reference_bitstring, shadow_ledger=shadow,
            heatmap_iterations=config.heatmap_iterations,
        )
        _write_csv(
            out / f"hessdist_{hfile.name}.csv",
            ("n", "canonical_distance", "recycled_distance",
             "evolution_distance", "excluded"),
            [(r.n, r.canonical_distance, r.recycled_distance,
              r.evolution_distance, r.excluded) for r in records],
        )
        for n, matrices in heatmaps.items():
            for mode, matrix in matrices.items():
                _write_csv(out / f"hm_{mode}_{n}.csv",
                           [f"c{j}" for j in range(matrix.shape[1])],
                           [tuple(float(v) for v in row) for row in matrix])
        for n in config.heatmap_iterations:
            if n > len(records):
                logger.warning("no heatmap for iteration %d: past the end of the "
                               "%d-iteration run", n, len(records))
            elif n not in heatmaps:
                logger.warning("no heatmap for iteration %d of the %d-iteration run: "
                               "excluded (%s)", n, len(records), records[n - 1].reason)
        if records and records[-1].n == len(results["recycling"].iterations):
            recycling_hessian = records[-1].evolution_hessian
    for mode, result in results.items():
        if not result.iterations:
            continue
        it = result.iterations[-1]  # diagnostics runs record optimizer snapshots
        hess_star = recycling_hessian if mode == "recycling" else None
        if hess_star is None:
            hess_star = exact_ansatz_hessian(
                result.ansatz, hfile.operator, it.x_star, shadow_ledger=shadow)
        else:
            shadow.charge_hessian(it.n)
        opt_result = OptimizerResult(
            x_star=it.x_star, f_star=it.energy, grad_star=it.grad_star,
            h_star=it.h_star, line_searches=it.line_searches,
            converged=it.opt_converged, line_search_failed=it.line_search_failed,
            trace=it.opt_trace, initial_fevals=it.opt_initial_fevals,
            snapshots=it.opt_snapshots,
        )
        report = convergence_report(opt_result, hessian_at_xstar=hess_star)
        if report.insufficient:
            continue
        rows = [
            (k, report.step_sizes[k], report.error_ratios[k],
             report.superlinear_markers[k])
            for k in range(len(report.step_sizes))
        ]
        _write_csv(out / f"convergence_{mode}_{it.n}.csv",
                   ("k", "alpha", "error_ratio", "superlinear_marker"), rows)
    write_json(out / "diagnostics_ledger.json", shadow.snapshot())


def _take_lock(lock: Path) -> None:
    """Create ``lock`` holding ``"<pid> <host>"``.

    A lock that names this host and a pid that is not running was left by a
    killed run: it is removed and the lock taken once more.  Any other lock
    raises :class:`ExperimentError` naming its holder.
    """
    host = socket.gethostname()
    for attempt in range(2):
        try:
            with lock.open("x") as handle:
                handle.write(f"{os.getpid()} {host}")
            return
        except FileExistsError:
            pass
        try:
            pid_text, holder_host = lock.read_text().split()
            pid = int(pid_text)
        except (OSError, ValueError):
            pid = 0
        if pid <= 0:
            raise ExperimentError(
                f"output directory {lock.parent} is locked, and {lock} is empty or "
                "unreadable; delete it by hand if no run is using the directory")
        if attempt == 0 and holder_host == host and not _pid_running(pid):
            lock.unlink(missing_ok=True)
            continue
        raise ExperimentError(
            f"output directory {lock.parent} is locked by pid {pid} on {holder_host} "
            f"({lock})")


def _pid_running(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except (ProcessLookupError, OverflowError):
        return False
    except PermissionError:  # running under another user
        pass
    return True


def run_experiment(config: ExperimentConfig) -> dict:
    """Execute every configured mode and write the run directory.

    Returns the summary payload.  Raises :class:`ExperimentError` with the
    growth-loop iteration attached when a run fails mid-flight.  The
    Hamiltonian and the pool are loaded and checked before the output
    directory is created, so bad inputs leave nothing behind; that includes
    a Hamiltonian above the statevector cap, checked before its pool is
    built, and heatmap iterations without diagnostics or without both
    modes, which would write no heatmap.
    """
    if config.heatmap_iterations and not (config.diagnostics and _both_modes(config)):
        raise ExperimentError(
            f"heatmap_iterations {list(config.heatmap_iterations)} are set, but no heatmap is "
            f"written without diagnostics and both modes (modes {list(config.modes)}, "
            f"diagnostics {'on' if config.diagnostics else 'off'})")
    hfile = resolve_hamiltonian(config)
    try:
        check_qubit_cap(hfile.n_qubits)
    except ValueError as exc:
        raise ExperimentError(str(exc)) from exc
    pool = resolve_pool(config, hfile)
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    lock = out / ".lock"
    _take_lock(lock)
    try:
        results: dict[str, AdaptResult] = {}
        for mode in config.modes:
            try:
                results[mode] = run_adapt(
                    hfile.operator, hfile.reference_bitstring, pool, mode=mode,
                    eps=config.eps, max_iterations=config.max_adapt_iterations,
                    opt_grad_tol=config.opt_grad_tol,
                    opt_max_iterations=config.opt_max_iterations,
                    exact_energy=hfile.exact_ground_energy,
                    record_optimizer_state=config.diagnostics,
                )
            except Exception as exc:
                raise ExperimentError(f"{mode} run failed: {exc}") from exc
            write_adapt_trace(out / f"adapt_trace_{mode}.csv", results[mode])
            write_opt_trace(out / f"opt_trace_{mode}.csv", results[mode])
            write_ledger(out / f"ledger_{mode}.json", results[mode])

        summary: dict = {
            "hamiltonian": hfile.name,
            "n_qubits": hfile.n_qubits,
            "pool_kind": pool.kind,
            "pool_size": len(pool),
            "exact_ground_energy": hfile.exact_ground_energy,
            "modes": {mode: _mode_summary(results[mode]) for mode in config.modes},
        }
        if _both_modes(config):
            canonical = results["canonical"].ledger.function_evaluations
            recycling = results["recycling"].ledger.function_evaluations
            summary["feval_ratio"] = recycling / canonical if canonical else None
            summary["final_energy_gap"] = abs(
                results["canonical"].energy - results["recycling"].energy
            )
        write_json(out / "summary.json", summary)
        write_json(out / "config.json", config.to_payload())
        if config.diagnostics:
            _write_diagnostics(out, config, hfile, pool, results)
        return summary
    finally:
        lock.unlink(missing_ok=True)


def diagnose_run(run_dir: str | Path) -> dict:
    """Recompute a finished run with diagnostics enabled.

    The run's own ``config.json`` is replayed (deterministic core), so the
    existing traces are reproduced alongside the diagnostic series.
    """
    run_dir = Path(run_dir)
    config_path = run_dir / "config.json"
    if not config_path.is_file():
        raise ExperimentError(f"{run_dir} has no config.json to replay")
    config = load_config(config_path)
    config = replace(config, diagnostics=True, output_dir=str(run_dir))
    return run_experiment(config)
