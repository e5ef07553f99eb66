"""Tests for the benchmark itself.

Run from the repository root with ``PYTHONPATH=src python -m pytest
perfbench``.  The ledger-equality test uses each workload with fewer growth
iterations, and H4 in place of H6, to stay fast; the full workloads are
compared traced against untraced on every ``--trace 1`` run.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import adaptvqe  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

CONTRACT = json.loads((HERE.parent / "BENCHMARK.json").read_text())
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


def reduced(name: str) -> workloads.Workload:
    workload = workloads.WORKLOADS[name]
    n_sites = 4 if workload.kind == "chain" else workload.n_sites
    return dataclasses.replace(workload, max_iterations=3, n_sites=n_sites)


def one_pass(workload, tmp: Path, tag: str):
    """(ledger, bytes written) for one paired run of a workload's grid point 0."""
    input_path = None
    if workload.kind == "chain":
        input_path = tmp / "hamiltonian.json"
        if not input_path.exists():
            workloads.prepare_input(workload, 0, input_path)
    hfile, pool = workloads.load_problem(workload, 0, input_path)
    if workload.diagnose:
        out = tmp / tag
        _, ledger = workloads.run_diagnose(workload, input_path, out)
        return ledger, sum(p.stat().st_size for p in out.iterdir())
    return workloads.run_pair(workload, hfile, pool)[1], 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_ledger_matches_untraced(name, tmp_path):
    workload = reduced(name)
    untraced, _ = one_pass(workload, tmp_path, "untraced")
    originals = (adaptvqe.run_adapt, adaptvqe.paulis.PauliSum.is_hermitian)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        traced, written = one_pass(workload, tmp_path, "traced")
    assert traced == untraced
    assert (adaptvqe.run_adapt, adaptvqe.paulis.PauliSum.is_hermitian) == originals
    metrics = tracing.layer_metrics(tracer)
    assert metrics["simulator.energy_and_gradient_calls"] > 0
    assert metrics["optimizer.line_searches"] > 0
    assert metrics["paulis.validation_calls"] > 0
    assert metrics["simulator.string_applies"] > 0
    if workload.diagnose:
        assert written > 0
        assert metrics["diagnostics.exact_hessians"] > 0
        assert metrics["experiment.write_s"] > 0


def test_rerun_repeats_the_diagnose_run(tmp_path):
    workload = reduced("h4-diagnose")
    ledger, _ = one_pass(workload, tmp_path, "run")
    input_path = tmp_path / "hamiltonian.json"
    hfile, pool = workloads.load_problem(workload, 0, input_path)
    for mode in workloads.MODES:
        (seconds, kernel), rerun = workloads.rerun_mode(workload, input_path, hfile,
                                                        pool, mode)
        assert seconds > 0 and kernel > 0
        assert not workloads.ledger_mismatches({mode: rerun}, {mode: ledger[mode]})


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    inner = tracer.wrap(lambda: sum(range(20000)), "b.inner")
    outer = tracer.wrap(lambda: [inner() for _ in range(3)], "a.outer")
    outer()
    totals = tracer.span_totals()
    assert totals["b.inner"]["calls"] == 3
    assert totals["a.outer"]["self_s"] == pytest.approx(
        totals["a.outer"]["inclusive_s"] - totals["b.inner"]["inclusive_s"])


def test_reference_accepts_run_and_rejects_tampering():
    workload = workloads.WORKLOADS["tfim8-nn"]
    hfile, pool = workloads.load_problem(workload, 0, None)
    _, ledger = workloads.run_pair(workload, hfile, pool)
    observed = {**ledger, "input": workloads.input_properties(hfile, pool)}
    reference = workloads.load_reference()[workload.name][workload.key(0)]
    assert workloads.ledger_mismatches(observed, reference) == []

    within_tolerance = copy.deepcopy(reference)
    within_tolerance["canonical"]["energy"] += 1e-12
    assert workloads.ledger_mismatches(observed, within_tolerance) == []

    def tampered(edit):
        ref = copy.deepcopy(reference)
        edit(ref)
        return workloads.ledger_mismatches(observed, ref)

    assert tampered(lambda r: r["canonical"].update(fevals=r["canonical"]["fevals"] + 1))
    assert tampered(lambda r: r["recycling"].update(
        line_searches=r["recycling"]["line_searches"] - 1))
    assert tampered(lambda r: r["recycling"]["labels"].reverse())
    assert tampered(lambda r: r["canonical"].update(energy=r["canonical"]["energy"] + 1e-9))
    assert tampered(lambda r: r["input"].update(terms=r["input"]["terms"] + 1))
    assert tampered(lambda r: r.pop("recycling"))


def test_tampered_reference_fails_the_run(monkeypatch, capsys):
    for var in run.THREAD_VARS:
        monkeypatch.setenv(var, "1")
    pinned = workloads.load_reference()
    tampered = copy.deepcopy(pinned)
    entry = tampered["tfim8-nn"][workloads.WORKLOADS["tfim8-nn"].key(0)]
    entry["recycling"]["fevals"] += 2
    monkeypatch.setattr(workloads, "load_reference", lambda: tampered)
    code = run.main(["--workload", "tfim8-nn", "--seed", "0", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False
    assert result["attempted"] == 1 and result["failed"] == 1
    assert set(result["metrics"]) == {m["name"] for m in CONTRACT["end_to_end"]}


def test_metric_names_are_well_formed():
    names = [m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]]
    names += [w["name"] for w in CONTRACT["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert METRIC_NAME.fullmatch(name), name
    assert {w["name"] for w in CONTRACT["workloads"]} == set(workloads.WORKLOADS)


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    workload = reduced("tfim8-nn")
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        hfile, pool = workloads.load_problem(workload, 0, None)
        workloads.run_pair(workload, hfile, pool)
    inputs = workloads.input_properties(hfile, pool)
    metrics = run.per_layer(tracing, tracer, inputs, {}, 0)
    metrics["trace.overhead_s"] = 0.0
    assert set(metrics) == {m["name"] for m in CONTRACT["per_layer"]}
    assert metrics["hamiltonians.load_s"] > 0 and metrics["pools.build_s"] > 0
