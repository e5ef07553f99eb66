"""Command-line interface.

Subcommands:

* ``run``: execute an experiment (paired modes by default) and write traces,
  ledgers and a summary into an output directory.
* ``pool``: export an operator pool as JSON.
* ``model``: emit a built-in model Hamiltonian file.
* ``diagnose``: replay a finished run with diagnostics enabled.

``run``, ``pool`` and ``model`` record only the flags given.  Each flag's
``dest`` names the :class:`~adaptvqe.experiment.ExperimentConfig` field, the
builtin-spec key or the ``builtin_model`` parameter it sets, so every
default comes from those and none is restated here.  ``--n-qubits``,
``--coupling`` and ``--field`` describe a ``--model``, and are an error
without one; ``run --heatmaps`` needs ``--diagnostics`` and both modes.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from functools import partial

from .experiment import (
    POOL_CHOICES,
    ExperimentConfig,
    ExperimentError,
    diagnose_run,
    load_config,
    resolve_hamiltonian,
    resolve_pool,
    run_experiment,
)
from .hamiltonians import (MODEL_KINDS, HamiltonianFormatError, builtin_model,
                           save_hamiltonian, write_atomically)

_SPEC_KEYS = ("kind", "n_qubits", "coupling", "field")


def _add_source_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--hamiltonian", dest="hamiltonian_path",
                        help="path to a Hamiltonian JSON file")
    parser.add_argument("--model", dest="kind", choices=MODEL_KINDS,
                        help="use a built-in model instead of a file")
    parser.add_argument("--n-qubits", type=int, help="qubit count for --model")
    parser.add_argument("--coupling", type=float, help="coupling J for --model")
    parser.add_argument("--field", type=float, help="transverse field h for --model")
    parser.add_argument("--pool", choices=POOL_CHOICES, help="operator pool")
    parser.add_argument("--qe-singles", choices=("on", "off"),
                        help="include single excitations in the QE pool")


def _experiment_config(given: dict, **spec_extra) -> ExperimentConfig:
    """The config that the given ``run`` or ``pool`` flags describe;
    ``spec_extra`` joins a builtin spec."""
    spec = {key: given.pop(key) for key in _SPEC_KEYS if key in given}
    if spec and "kind" not in spec:
        flags = ", ".join("--" + key.replace("_", "-") for key in spec)
        raise ExperimentError(f"model flags without --model: {flags}")
    if "qe_singles" in given:
        given["qe_singles"] = given["qe_singles"] == "on"
    if "modes" in given:
        given["modes"] = tuple(given["modes"].split(","))
    if "heatmap_iterations" in given:
        given["heatmap_iterations"] = tuple(
            int(n) for n in given["heatmap_iterations"].split(",") if n)
    return ExperimentConfig(builtin={**spec, **spec_extra} if spec else None, **given)


def _cmd_run(parser: argparse.ArgumentParser, given: dict) -> int:
    if "config" in given:
        # the config file holds every other setting, so such a flag would be dropped
        beside = [action.option_strings[0] for action in parser._actions
                  if action.dest in given and action.dest not in ("config", "output_dir")]
        if beside:
            raise ExperimentError(
                f"--config takes no other run flag but --out; got {', '.join(beside)}")
        config = load_config(given["config"])
        if "output_dir" in given:
            config = replace(config, output_dir=given["output_dir"])
    else:
        config = _experiment_config(given)
    summary = run_experiment(config)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def _cmd_pool(given: dict) -> int:
    out = given.pop("out", None)
    config = _experiment_config(given, with_exact=False)
    payload = resolve_pool(config, resolve_hamiltonian(config)).to_payload()
    text = json.dumps(payload, indent=2)
    if out:
        write_atomically(out, lambda fh: fh.write(text + "\n"))
        print(f"wrote {len(payload)} operators to {out}")
    else:
        print(text)
    return 0


def _cmd_model(given: dict) -> int:
    out = given.pop("out")
    hfile = builtin_model(**given)
    save_hamiltonian(hfile, out)
    print(f"wrote {hfile.name} ({hfile.operator.n_terms} terms) to {out}")
    return 0


def _cmd_diagnose(given: dict) -> int:
    summary = diagnose_run(given["run_dir"])
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adaptvqe",
        description="Adaptive VQE with an inverse-Hessian-recycling optimizer",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    given_only = dict(argument_default=argparse.SUPPRESS)

    run = sub.add_parser("run", help="run an experiment", **given_only)
    _add_source_args(run)
    run.add_argument("--config", help="JSON config file; no other run flag but --out")
    run.add_argument("--modes", help="comma-separated mode list")
    run.add_argument("--eps", type=float, help="pool-gradient-norm stop threshold")
    run.add_argument("--max-iterations", dest="max_adapt_iterations", type=int,
                     help="growth-iteration cap")
    run.add_argument("--opt-eps", dest="opt_grad_tol", type=float,
                     help="optimizer gradient-norm threshold")
    run.add_argument("--opt-max-iterations", type=int, help="optimizer line-search cap")
    run.add_argument("--diagnostics", action="store_true",
                     help="emit Hessian-distance and convergence diagnostics")
    run.add_argument("--heatmaps", dest="heatmap_iterations",
                     help="heatmap iterations, comma-separated; needs --diagnostics and both modes")
    run.add_argument("--verify", dest="verify_hamiltonian", action="store_true",
                     help="re-verify recorded exact energies on load")
    run.add_argument("--out", dest="output_dir", help="output directory")
    run.set_defaults(func=partial(_cmd_run, run))

    pool = sub.add_parser("pool", help="export an operator pool as JSON", **given_only)
    _add_source_args(pool)
    pool.add_argument("--out", help="output file (stdout when omitted)")
    pool.set_defaults(func=_cmd_pool)

    model = sub.add_parser("model", help="emit a built-in model Hamiltonian", **given_only)
    model.add_argument("--kind", choices=MODEL_KINDS, required=True)
    model.add_argument("--n-qubits", type=int, required=True)
    model.add_argument("--coupling", type=float)
    model.add_argument("--field", dest="field_strength", type=float)
    model.add_argument("--no-exact", dest="with_exact", action="store_false",
                       help="skip the exact ground-energy diagonalization")
    model.add_argument("--out", required=True, help="output file")
    model.set_defaults(func=_cmd_model)

    diagnose = sub.add_parser("diagnose", help="replay a run with diagnostics")
    diagnose.add_argument("run_dir", help="finished run directory")
    diagnose.set_defaults(func=_cmd_diagnose)

    return parser


def main(argv: list[str] | None = None) -> int:
    given = vars(build_parser().parse_args(argv))
    del given["command"]
    command = given.pop("func")
    try:
        return command(given)
    except (ExperimentError, HamiltonianFormatError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
