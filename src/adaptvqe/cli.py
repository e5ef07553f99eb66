"""Command-line interface.

Subcommands:

* ``run``: execute an experiment (paired modes by default) and write traces,
  ledgers and a summary into an output directory.
* ``pool``: export an operator pool as JSON.
* ``model``: emit a built-in model Hamiltonian file.
* ``diagnose``: replay a finished run with diagnostics enabled.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .experiment import (
    ExperimentConfig,
    ExperimentError,
    diagnose_run,
    load_config,
    resolve_hamiltonian,
    resolve_pool,
    run_experiment,
)
from .hamiltonians import HamiltonianFormatError, builtin_model, save_hamiltonian

_UNSET = object()


def _add_hamiltonian_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--hamiltonian", help="path to a Hamiltonian JSON file")
    parser.add_argument("--model", choices=("tfim", "heisenberg"),
                        help="use a built-in model instead of a file")
    parser.add_argument("--n-qubits", type=int, default=None,
                        help="qubit count for --model")
    parser.add_argument("--coupling", type=float, default=1.0,
                        help="model coupling J (default 1.0)")
    parser.add_argument("--field", type=float, default=1.0,
                        help="model transverse field h (default 1.0)")


def _add_pool_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--pool", choices=("auto", "qe", "qubit", "nn"),
                        default="auto", help="operator pool (default: auto)")
    parser.add_argument("--qe-singles", choices=("on", "off"), default="on",
                        help="include single excitations in the QE pool")


def _add_run_args(parser: argparse.ArgumentParser) -> None:
    _add_hamiltonian_args(parser)
    _add_pool_args(parser)
    parser.add_argument("--config", help="JSON config file; no other run flag but --out")
    parser.add_argument("--modes", default="canonical,recycling",
                        help="comma-separated mode list (default both)")
    parser.add_argument("--eps", type=float, default=1e-6,
                        help="pool-gradient-norm stop threshold")
    parser.add_argument("--max-iterations", type=int, default=50,
                        help="growth-iteration cap")
    parser.add_argument("--opt-eps", type=float, default=1e-6,
                        help="optimizer gradient-norm threshold")
    parser.add_argument("--opt-max-iterations", type=int, default=10000,
                        help="optimizer line-search cap")
    parser.add_argument("--diagnostics", action="store_true",
                        help="emit Hessian-distance and convergence diagnostics")
    parser.add_argument("--heatmaps", default="",
                        help="comma-separated iterations for heatmap export")
    parser.add_argument("--verify", action="store_true",
                        help="re-verify recorded exact energies on load")
    parser.add_argument("--out", help="output directory")


def _flags_beside_config(argv: list[str]) -> list[str]:
    """The run flags on the command line besides ``--config`` and ``--out``,
    as the run parser resolves them: the config file holds every other
    setting, so such a flag would be dropped."""
    probe = argparse.ArgumentParser(add_help=False)
    _add_run_args(probe)
    probe.set_defaults(**dict.fromkeys(vars(probe.parse_args([])), _UNSET))
    given = vars(probe.parse_known_args(argv)[0])
    return [f"--{dest.replace('_', '-')}" for dest, value in given.items()
            if value is not _UNSET and dest not in ("config", "out")]


def _builtin_spec(args) -> dict | None:
    if args.model is None:
        return None
    if args.n_qubits is None:
        raise ExperimentError("--model requires --n-qubits")
    return {"kind": args.model, "n_qubits": args.n_qubits,
            "coupling": args.coupling, "field": args.field}


def _config_from_args(args) -> ExperimentConfig:
    if args.config:
        config = load_config(args.config)
        if args.out:
            from dataclasses import replace
            config = replace(config, output_dir=args.out)
        return config
    if (args.hamiltonian is None) == (args.model is None):
        raise ExperimentError("provide exactly one of --hamiltonian or --model")
    return ExperimentConfig(
        hamiltonian_path=args.hamiltonian,
        builtin=_builtin_spec(args),
        pool=args.pool,
        qe_singles=args.qe_singles == "on",
        modes=tuple(args.modes.split(",")),
        eps=args.eps,
        max_adapt_iterations=args.max_iterations,
        opt_grad_tol=args.opt_eps,
        opt_max_iterations=args.opt_max_iterations,
        diagnostics=args.diagnostics,
        heatmap_iterations=tuple(int(n) for n in args.heatmaps.split(",") if n),
        output_dir=args.out or "run_output",
        verify_hamiltonian=args.verify,
    )


def _cmd_run(args) -> int:
    summary = run_experiment(_config_from_args(args))
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def _cmd_pool(args) -> int:
    if (args.hamiltonian is None) == (args.model is None):
        raise ExperimentError("provide exactly one of --hamiltonian or --model")
    spec = _builtin_spec(args)
    config = ExperimentConfig(
        hamiltonian_path=args.hamiltonian,
        builtin=None if spec is None else {**spec, "with_exact": False},
        pool=args.pool, qe_singles=args.qe_singles == "on",
    )
    pool = resolve_pool(config, resolve_hamiltonian(config))
    payload = pool.to_payload()
    if args.out:
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {len(payload)} operators to {args.out}")
    else:
        print(json.dumps(payload, indent=2))
    return 0


def _cmd_model(args) -> int:
    hfile = builtin_model(args.kind, args.n_qubits, args.coupling, args.field,
                          with_exact=not args.no_exact)
    save_hamiltonian(hfile, args.out)
    print(f"wrote {hfile.name} ({hfile.operator.n_terms} terms) to {args.out}")
    return 0


def _cmd_diagnose(args) -> int:
    summary = diagnose_run(args.run_dir)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adaptvqe",
        description="Adaptive VQE with an inverse-Hessian-recycling optimizer",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment")
    _add_run_args(run)
    run.set_defaults(func=_cmd_run)

    pool = sub.add_parser("pool", help="export an operator pool as JSON")
    _add_hamiltonian_args(pool)
    _add_pool_args(pool)
    pool.add_argument("--out", help="output file (stdout when omitted)")
    pool.set_defaults(func=_cmd_pool)

    model = sub.add_parser("model", help="emit a built-in model Hamiltonian")
    model.add_argument("--kind", choices=("tfim", "heisenberg"), required=True)
    model.add_argument("--n-qubits", type=int, required=True)
    model.add_argument("--coupling", type=float, default=1.0)
    model.add_argument("--field", type=float, default=1.0)
    model.add_argument("--no-exact", action="store_true",
                       help="skip the exact ground-energy diagonalization")
    model.add_argument("--out", required=True, help="output file")
    model.set_defaults(func=_cmd_model)

    diagnose = sub.add_parser("diagnose", help="replay a run with diagnostics")
    diagnose.add_argument("run_dir", help="finished run directory")
    diagnose.set_defaults(func=_cmd_diagnose)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            beside = _flags_beside_config(sys.argv[1:] if argv is None else argv)
            if beside:
                raise ExperimentError(
                    f"--config takes no other run flag but --out; got {', '.join(beside)}")
        return args.func(args)
    except (ExperimentError, HamiltonianFormatError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
