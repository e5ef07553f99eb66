import argparse
import csv
import dataclasses
import inspect
import json
import logging
import os
import socket
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from adaptvqe.cli import build_parser
from adaptvqe.cli import main as cli_main
from adaptvqe.driver import run_adapt
from adaptvqe.experiment import (
    ExperimentConfig,
    ExperimentError,
    diagnose_run,
    load_config,
    resolve_hamiltonian,
    resolve_pool,
    run_experiment,
)
from adaptvqe.hamiltonians import (
    HamiltonianFile,
    HamiltonianFormatError,
    builtin_model,
    bundled_fixture_path,
    dense_matrix,
    ground_state_energy,
    load_hamiltonian,
    save_hamiltonian,
)
from adaptvqe.optimizer import minimize_canonical, minimize_recycled
from adaptvqe.paulis import PauliSum
from adaptvqe.pools import build_nearest_neighbor_pool

from oracles import dense_pauli_sum

BUNDLED_FIXTURES = sorted(bundled_fixture_path("h2_sto3g_0p7414.json").parent.glob("*.json"))


def minimal_payload(**overrides):
    payload = {
        "n_qubits": 2,
        "terms": [{"pauli": "IZ", "re": 0.5, "im": 0.0},
                  {"pauli": "ZI", "re": 0.5, "im": 0.0}],
        "metadata": {"name": "toy", "reference_bitstring": "10",
                     "units": "dimensionless"},
    }
    payload.update(overrides)
    return payload


class TestHamiltonianFiles:
    def test_minimal_file_loads(self, tmp_path):
        path = tmp_path / "toy.json"
        path.write_text(json.dumps(minimal_payload()))
        hfile = load_hamiltonian(path)
        assert hfile.n_qubits == 2 and hfile.operator.n_terms == 2
        assert hfile.reference_bitstring == "10"

    def test_imaginary_coefficient_rejected(self, tmp_path):
        payload = minimal_payload()
        payload["terms"][0]["im"] = 1e-3
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(HamiltonianFormatError, match="not Hermitian"):
            load_hamiltonian(path)

    def test_parse_errors_carry_context(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(HamiltonianFormatError, match="line 1"):
            load_hamiltonian(path)
        path2 = tmp_path / "badterm.json"
        payload = minimal_payload()
        payload["terms"][1]["pauli"] = "QQ"
        path2.write_text(json.dumps(payload))
        with pytest.raises(HamiltonianFormatError, match="term 1"):
            load_hamiltonian(path2)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_coefficient_names_the_term(self, tmp_path, value):
        payload = minimal_payload()
        payload["terms"].append({"pauli": "ZZ", "re": value})
        path = tmp_path / "nonfinite.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(HamiltonianFormatError, match="term 2: coefficient .* not finite"):
            load_hamiltonian(path)

    @pytest.mark.parametrize("key", ["exact_ground_energy", "hf_energy"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_metadata_number_rejected(self, tmp_path, key, value):
        payload = minimal_payload()
        payload["metadata"][key] = value
        path = tmp_path / "nonfinite.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(HamiltonianFormatError, match=f"metadata.{key} must be a finite"):
            load_hamiltonian(path)

    @pytest.mark.parametrize("where, key, message", [
        (("terms", 0), "re", "term 0: re is too large for a float"),
        (("terms", 1), "im", "term 1: im is too large for a float"),
        (("metadata",), "exact_ground_energy", "metadata.exact_ground_energy must be a finite"),
        (("metadata",), "hf_energy", "metadata.hf_energy must be a finite"),
    ], ids=["re", "im", "exact_ground_energy", "hf_energy"])
    def test_integer_too_large_for_a_float_rejected(self, tmp_path, where, key, message):
        payload = minimal_payload()
        target = payload
        for step in where:
            target = target[step]
        target[key] = 10**400
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(HamiltonianFormatError, match=message):
            load_hamiltonian(path)

    @pytest.mark.parametrize("where, key, value, message", [
        ((), "n_qubits", True, "n_qubits must be a positive integer"),
        (("metadata",), "n_electrons", True, "n_electrons must be"),
        (("terms", 0), "re", True, "term 0: re/im must be numbers"),
        (("terms", 1), "im", False, "term 1: re/im must be numbers"),
        (("terms", 0), "re", "0.5", "term 0: re/im must be numbers"),
        (("metadata",), "exact_ground_energy", True,
         "exact_ground_energy must be a finite number"),
        (("metadata",), "hf_energy", False, "hf_energy must be a finite number"),
    ], ids=["n_qubits", "n_electrons", "re", "im", "re-string",
            "exact_ground_energy", "hf_energy"])
    def test_json_booleans_and_strings_are_not_numbers(self, tmp_path, where, key, value, message):
        payload = minimal_payload()
        target = payload
        for step in where:
            target = target[step]
        target[key] = value
        path = tmp_path / "bool.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(HamiltonianFormatError, match=message):
            load_hamiltonian(path)

    @pytest.mark.parametrize("name", ["a/b", "a\\b", "a\0b", ".", "..", 12345, None],
                             ids=["slash", "backslash", "nul", "dot", "dotdot", "int", "null"])
    def test_name_must_be_usable_in_a_file_name(self, tmp_path, name):
        # the name becomes part of output file names (hessdist_<name>.csv)
        payload = minimal_payload()
        payload["metadata"]["name"] = name
        path = tmp_path / "named.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(HamiltonianFormatError, match="metadata.name must be a string"):
            load_hamiltonian(path)

    def test_reference_bitstring_validated(self, tmp_path):
        payload = minimal_payload()
        payload["metadata"]["reference_bitstring"] = "101"
        path = tmp_path / "ref.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(HamiltonianFormatError, match="reference_bitstring"):
            load_hamiltonian(path)

    def test_round_trip_is_byte_identical(self, tmp_path):
        for source in BUNDLED_FIXTURES:
            hfile = load_hamiltonian(source)
            copy = tmp_path / source.name
            save_hamiltonian(hfile, copy)
            assert copy.read_bytes() == source.read_bytes()

    def test_interrupted_save_keeps_the_old_file_whole(self, tmp_path, monkeypatch):
        target = tmp_path / "h2.json"
        save_hamiltonian(load_hamiltonian(BUNDLED_FIXTURES[0]), target)
        before = target.read_bytes()
        real_open = Path.open

        class HalfWrite:
            """A handle that writes half of its text, then fails."""

            def __init__(self, handle):
                self.handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.handle.close()

            def write(self, text):
                self.handle.write(text[:len(text) // 2])
                raise OSError("interrupted")

        def failing_open(self, mode="r", *args, **kwargs):
            handle = real_open(self, mode, *args, **kwargs)
            return HalfWrite(handle) if "w" in mode else handle

        monkeypatch.setattr(Path, "open", failing_open)
        with pytest.raises(OSError, match="interrupted"):
            save_hamiltonian(builtin_model("tfim", 4, with_exact=False), target)
        monkeypatch.undo()
        assert target.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["h2.json"]

    def test_bundled_exact_energies_verify(self):
        for source in BUNDLED_FIXTURES:
            load_hamiltonian(source, verify=True)

    def test_bundled_exact_energy_matches_independent_diagonalization(self, h2_fixture):
        dense = dense_pauli_sum(h2_fixture.operator)
        eigenvalues = np.linalg.eigvalsh(dense)
        assert h2_fixture.exact_ground_energy == pytest.approx(
            float(eigenvalues[0]), abs=1e-9)

    def test_bundled_exact_energies_are_reproduced_exactly(self):
        for source in BUNDLED_FIXTURES:
            hfile = load_hamiltonian(source)
            assert ground_state_energy(hfile.operator) == hfile.exact_ground_energy, source.name

    def test_verify_flag_catches_tampered_energy(self, tmp_path, h2_fixture):
        tampered = HamiltonianFile(
            n_qubits=h2_fixture.n_qubits, operator=h2_fixture.operator,
            name="tampered", reference_bitstring=h2_fixture.reference_bitstring,
            n_electrons=2, exact_ground_energy=h2_fixture.exact_ground_energy + 1e-3)
        path = tmp_path / "tampered.json"
        save_hamiltonian(tampered, path)
        with pytest.raises(HamiltonianFormatError, match="disagrees"):
            load_hamiltonian(path, verify=True)

    def test_missing_file(self, tmp_path):
        with pytest.raises(HamiltonianFormatError, match="cannot read"):
            load_hamiltonian(tmp_path / "nope.json")


class TestBuiltinModels:
    def test_tfim_decoupled_fields(self):
        model = builtin_model("tfim", 2, coupling=0.0, field_strength=1.0)
        assert model.exact_ground_energy == pytest.approx(-2.0, abs=1e-10)

    def test_tfim_single_classical_bond(self):
        model = builtin_model("tfim", 2, coupling=1.0, field_strength=0.0)
        assert model.exact_ground_energy == pytest.approx(-1.0, abs=1e-10)

    def test_heisenberg_ground_energy_matches_dense_oracle(self):
        model = builtin_model("heisenberg", 4)
        oracle = float(np.linalg.eigvalsh(dense_pauli_sum(model.operator))[0])
        assert model.exact_ground_energy == pytest.approx(oracle, abs=1e-10)
        # frozen from the oracle at first implementation
        assert model.exact_ground_energy == pytest.approx(-6.464101615137755,
                                                          abs=1e-9)

    def test_minimum_size_and_unknown_kind(self):
        with pytest.raises(ValueError, match="at least 2"):
            builtin_model("tfim", 1)
        with pytest.raises(ValueError, match="unknown builtin"):
            builtin_model("xy", 4)

    def test_diagonalization_cap(self):
        with pytest.raises(ValueError, match="cap"):
            builtin_model("tfim", 14, with_exact=True)
        model = builtin_model("tfim", 14, with_exact=False)
        assert model.exact_ground_energy is None

    def test_sparse_diagonalization_path_at_twelve_qubits(self):
        # 12 qubits exceeds the dense cutoff; cross-check the sparse route
        # against an independently assembled sparse-kron matrix
        import scipy.sparse
        import scipy.sparse.linalg
        from oracles import PAULI_MATRICES

        model = builtin_model("tfim", 12, coupling=1.0, field_strength=0.7)
        oracle = None
        for string, coeff in model.operator:
            factor = scipy.sparse.identity(1, format="csr", dtype=complex)
            for letter in reversed(string.text()):
                factor = scipy.sparse.kron(
                    factor, scipy.sparse.csr_matrix(PAULI_MATRICES[letter]),
                    format="csr")
            term = coeff * factor
            oracle = term if oracle is None else oracle + term
        reference = scipy.sparse.linalg.eigsh(
            oracle, k=1, which="SA", return_eigenvectors=False)[0]
        assert model.exact_ground_energy == pytest.approx(float(reference),
                                                          abs=1e-8)
        # the sparse route starts ARPACK from a fixed vector, so it repeats
        assert ground_state_energy(model.operator) == model.exact_ground_energy

    def test_dense_matrix_matches_oracle_bytes(self):
        operators = [load_hamiltonian(source).operator for source in BUNDLED_FIXTURES]
        operators += [builtin_model(kind, n, with_exact=False).operator
                      for kind in ("tfim", "heisenberg") for n in range(2, 11)]
        # above 8 qubits the compiled form holds int8 signs, not complex ones
        for operator in operators:
            assert dense_matrix(operator).tobytes() == dense_pauli_sum(operator).tobytes()

    def test_dense_matrix_of_an_empty_sum_is_zero(self):
        zero = PauliSum.from_text_terms([("XZ", 1e-15)])
        assert zero.n_terms == 0
        assert dense_matrix(zero).tobytes() == np.zeros((4, 4), dtype=complex).tobytes()
        assert ground_state_energy(zero) == 0.0

    def test_ground_state_energy_requires_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            ground_state_energy(PauliSum.from_text_terms([("X", 1j)]))


class TestExperimentConfig:
    def test_requires_exactly_one_source(self):
        with pytest.raises(ValueError, match="exactly one"):
            ExperimentConfig()
        with pytest.raises(ValueError, match="exactly one"):
            ExperimentConfig(hamiltonian_path="x.json",
                             builtin={"kind": "tfim", "n_qubits": 4})

    def test_round_trips_through_json(self, tmp_path):
        config = ExperimentConfig(builtin={"kind": "tfim", "n_qubits": 4},
                                  pool="nn", modes=("canonical",),
                                  output_dir=str(tmp_path / "out"))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config.to_payload()))
        assert load_config(path) == config

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"builtin": {"kind": "tfim", "n_qubits": 4},
                                    "typo_field": 1}))
        with pytest.raises(ExperimentError, match="typo_field"):
            load_config(path)

    def test_retired_pool_scale_field_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"builtin": {"kind": "tfim", "n_qubits": 4},
                                    "pool_scale": 1.0}))
        with pytest.raises(ExperimentError, match=r"unknown config fields: \['pool_scale'\]"):
            load_config(path)

    @pytest.mark.parametrize("builtin, message", [
        (5, "builtin must be an object"),
        ({"n_qubits": 4}, r"missing fields \['kind'\]"),
        ({"kind": "tfim", "n_qubits": 4, "bogus": 1}, r"unknown builtin spec fields: \['bogus'\]"),
        ({"kind": 1, "n_qubits": 4}, "kind must be a string"),
        ({"kind": "tfim", "n_qubits": 4.7}, "n_qubits must be an int"),
        ({"kind": "tfim", "n_qubits": True}, "n_qubits must be an int"),
        ({"kind": "tfim", "n_qubits": 4, "coupling": "1"}, "coupling must be a number"),
        ({"kind": "tfim", "n_qubits": 4, "field": None}, "field must be a number"),
        ({"kind": "tfim", "n_qubits": 4, "with_exact": "false"}, "with_exact must be a bool"),
        ({"kind": "tfim", "n_qubits": 4, "coupling": 10**400}, "coupling must be finite"),
        ({"kind": "tfim", "n_qubits": 4, "field": float("nan")}, "field must be finite"),
    ])
    def test_builtin_spec_checked(self, builtin, message):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(builtin=builtin)

    def test_builtin_spec_with_every_field_accepted(self):
        spec = {"kind": "tfim", "n_qubits": 4, "coupling": 1, "field": 0.5,
                "with_exact": False}
        assert ExperimentConfig(builtin=spec).builtin == spec

    def test_builtin_spec_defaults_filled_in(self):
        spec = {"kind": "tfim", "n_qubits": 4}
        assert ExperimentConfig(builtin=spec).builtin == {
            "kind": "tfim", "n_qubits": 4, "coupling": 1.0, "field": 1.0}
        assert spec == {"kind": "tfim", "n_qubits": 4}  # the caller's dict is left alone

    @pytest.mark.parametrize("field, value, message", [
        ("qe_singles", "false", "qe_singles must be a bool"),
        ("diagnostics", 1, "diagnostics must be a bool"),
        ("verify_hamiltonian", "no", "verify_hamiltonian must be a bool"),
        ("max_adapt_iterations", 2.5, "max_adapt_iterations must be an int"),
        ("opt_max_iterations", True, "opt_max_iterations must be an int"),
        ("eps", "1e-6", "eps must be a number"),
        ("opt_grad_tol", None, "opt_grad_tol must be a number"),
        ("output_dir", 5, "output_dir must be a string"),
        ("modes", "canonical", "modes must be a list"),
        ("heatmap_iterations", (3.7,), r"heatmap_iterations must be ints, got \[3.7\]"),
        ("heatmap_iterations", (2, True), r"heatmap_iterations must be ints, got \[True\]"),
        ("heatmap_iterations", (0, -2), r"heatmap_iterations must be at least 1, got \[0, -2\]"),
    ])
    def test_field_types_checked(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(builtin={"kind": "tfim", "n_qubits": 4}, **{field: value})

    def test_hamiltonian_path_must_be_a_string(self):
        with pytest.raises(ValueError, match="hamiltonian_path must be a string"):
            ExperimentConfig(hamiltonian_path=5)

    @pytest.mark.parametrize("field", ["eps", "opt_grad_tol"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1e-6,
                                       pytest.param(10**400, id="int-too-large")])
    def test_thresholds_finite_and_positive(self, field, value):
        with pytest.raises(ValueError, match=f"finite and positive, {field} is not"):
            ExperimentConfig(builtin={"kind": "tfim", "n_qubits": 4}, **{field: value})

    def test_defaults_match_the_library_signatures(self):
        def defaults(function):
            return {name: parameter.default
                    for name, parameter in inspect.signature(function).parameters.items()}

        config = {field.name: field.default for field in dataclasses.fields(ExperimentConfig)}
        adapt = defaults(run_adapt)
        assert config["eps"] == adapt["eps"]
        assert config["max_adapt_iterations"] == adapt["max_iterations"]
        for minimizer in (defaults(minimize_canonical), defaults(minimize_recycled)):
            assert config["opt_grad_tol"] == adapt["opt_grad_tol"] == minimizer["grad_tol"]
            assert (config["opt_max_iterations"] == adapt["opt_max_iterations"]
                    == minimizer["max_iterations"])
        model = defaults(builtin_model)
        spec = ExperimentConfig(builtin={"kind": "tfim", "n_qubits": 4}).builtin
        assert (spec["coupling"], spec["field"]) == (model["coupling"], model["field_strength"])

    def test_loose_config_file_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"builtin": {"kind": "tfim", "n_qubits": 4},
                                    "qe_singles": "false"}))
        with pytest.raises(ExperimentError, match="qe_singles must be a bool"):
            load_config(path)

    def test_duplicate_modes_rejected(self):
        with pytest.raises(ValueError, match="twice"):
            ExperimentConfig(builtin={"kind": "tfim", "n_qubits": 4},
                             modes=("canonical", "canonical"))


class TestRunExperiment:
    def run_small(self, tmp_path, **overrides):
        options = dict(builtin={"kind": "tfim", "n_qubits": 4}, pool="nn",
                       max_adapt_iterations=6,
                       output_dir=str(tmp_path / "out"))
        options.update(overrides)
        config = ExperimentConfig(**options)
        return config, run_experiment(config)

    def test_paired_run_emits_files_and_ratio(self, tmp_path):
        config, summary = self.run_small(tmp_path)
        out = Path(config.output_dir)
        for mode in ("canonical", "recycling"):
            assert (out / f"adapt_trace_{mode}.csv").is_file()
            assert (out / f"opt_trace_{mode}.csv").is_file()
            assert (out / f"ledger_{mode}.json").is_file()
        assert (out / "summary.json").is_file()
        assert summary["feval_ratio"] < 1.0
        assert summary["final_energy_gap"] < 1e-6

    def test_molecular_fixture_feval_ratio_below_one(self, tmp_path):
        config = ExperimentConfig(
            hamiltonian_path=str(bundled_fixture_path("h2_sto3g_0p7414.json")),
            output_dir=str(tmp_path / "h2"))
        summary = run_experiment(config)
        assert summary["feval_ratio"] <= 1.0
        assert summary["modes"]["recycling"]["error_vs_exact"] < 1.6e-3

    @pytest.mark.parametrize("fixture, size, ratio_below_one", [
        ("h2_sto3g_0p7414.json", 12, False), ("h4_sto3g_1p00.json", 328, True)])
    def test_qubit_pool_runs_end_to_end(self, tmp_path, fixture, size, ratio_below_one):
        """The qubit pool, one ``i P`` per distinct string of the QE pool,
        grows an ansatz in both modes; recycling converges within the cap.
        H2 needs one operator, where the two modes make the same queries."""
        config = ExperimentConfig(hamiltonian_path=str(bundled_fixture_path(fixture)),
                                  pool="qubit", max_adapt_iterations=40,
                                  output_dir=str(tmp_path / "qubit"))
        summary = run_experiment(config)
        assert summary["pool_kind"] == "Qubit" and summary["pool_size"] == size
        assert summary["modes"]["recycling"]["converged"]
        assert (summary["feval_ratio"] < 1.0) == ratio_below_one
        assert summary["feval_ratio"] <= 1.0
        labels = set(resolve_pool(config, resolve_hamiltonian(config)).labels)
        for mode in ("canonical", "recycling"):
            assert abs(summary["modes"][mode]["error_vs_exact"]) < 1.6e-3
            with open(Path(config.output_dir) / f"adapt_trace_{mode}.csv", newline="") as fh:
                selected = [row["selected_label"] for row in csv.DictReader(fh)][1:]
            assert selected and set(selected) <= labels

    def test_zero_iteration_budget_writes_reference_row_only(self, tmp_path):
        config, _ = self.run_small(tmp_path, max_adapt_iterations=0,
                                   modes=("canonical",))
        trace = (Path(config.output_dir) / "adapt_trace_canonical.csv").read_text()
        lines = trace.strip().splitlines()
        assert len(lines) == 2  # header + reference row
        assert lines[1].startswith("0,")

    def test_deterministic_bytes(self, tmp_path):
        common = dict(builtin={"kind": "heisenberg", "n_qubits": 4}, pool="nn",
                      max_adapt_iterations=4)
        run_experiment(ExperimentConfig(output_dir=str(tmp_path / "a"), **common))
        run_experiment(ExperimentConfig(output_dir=str(tmp_path / "b"), **common))
        for name in ("adapt_trace_canonical.csv", "opt_trace_recycling.csv",
                     "summary.json"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())

    def test_interrupted_rewrite_keeps_old_files_whole(self, tmp_path, monkeypatch):
        import adaptvqe.experiment as experiment

        config, _ = self.run_small(tmp_path, modes=("canonical",),
                                   max_adapt_iterations=3)
        out = Path(config.output_dir)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        fmt = experiment._fmt
        calls = 0

        def failing_fmt(value):
            nonlocal calls
            calls += 1
            if calls == 12:  # in the second row of the first CSV
                raise RuntimeError("interrupted")
            return fmt(value)

        monkeypatch.setattr(experiment, "_fmt", failing_fmt)
        with pytest.raises(RuntimeError, match="interrupted"):
            run_experiment(config)
        # the old files are whole, and no temporary file is left behind
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_lock_file_blocks_concurrent_use(self, tmp_path):
        out = tmp_path / "locked"
        out.mkdir()
        (out / ".lock").touch()
        config = ExperimentConfig(builtin={"kind": "tfim", "n_qubits": 4},
                                  pool="nn", output_dir=str(out))
        with pytest.raises(ExperimentError, match="locked"):
            run_experiment(config)

    def test_lock_of_a_dead_process_is_taken_over(self, tmp_path):
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()
        config, _ = self.run_small(tmp_path / "first", max_adapt_iterations=1)
        out = Path(config.output_dir)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        (out / ".lock").write_text(f"{child.pid} {socket.gethostname()}")
        run_experiment(config)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_lock_of_a_running_process_names_it(self, tmp_path):
        out = tmp_path / "locked"
        out.mkdir()
        (out / ".lock").write_text(f"{os.getpid()} {socket.gethostname()}")
        config = ExperimentConfig(builtin={"kind": "tfim", "n_qubits": 4},
                                  pool="nn", output_dir=str(out))
        with pytest.raises(ExperimentError, match=f"locked by pid {os.getpid()} "):
            run_experiment(config)
        assert (out / ".lock").read_text() == f"{os.getpid()} {socket.gethostname()}"

    def test_bad_inputs_create_no_output_directory(self, tmp_path):
        payload = json.loads(bundled_fixture_path("h2_sto3g_0p7414.json").read_text())
        payload["metadata"]["name"] = "a/b"
        path = tmp_path / "h2bad.json"
        path.write_text(json.dumps(payload))
        bad_name = ExperimentConfig(hamiltonian_path=str(path),
                                    output_dir=str(tmp_path / "name"))
        with pytest.raises(HamiltonianFormatError, match="metadata.name"):
            run_experiment(bad_name)
        bad_pool = ExperimentConfig(builtin={"kind": "tfim", "n_qubits": 4}, pool="qe",
                                    output_dir=str(tmp_path / "pool"))
        with pytest.raises(ExperimentError, match="n_electrons"):
            run_experiment(bad_pool)
        too_big = ExperimentConfig(builtin={"kind": "tfim", "n_qubits": 21, "with_exact": False},
                                   pool="nn", output_dir=str(tmp_path / "big"))
        with pytest.raises(ExperimentError, match="21 qubits exceeds the dense-statevector cap"):
            run_experiment(too_big)
        assert not any((tmp_path / name).exists() for name in ("name", "pool", "big"))

    def test_diagnostics_outputs(self, tmp_path):
        config, _ = self.run_small(tmp_path, diagnostics=True,
                                   heatmap_iterations=(2,),
                                   max_adapt_iterations=5)
        out = Path(config.output_dir)
        assert (out / "hessdist_tfim_n4_j1_h1.csv").is_file()
        assert (out / "hm_canonical_2.csv").is_file()
        assert (out / "hm_recycling_2.csv").is_file()
        assert (out / "diagnostics_ledger.json").is_file()
        for csv_path in out.glob("*.csv"):
            assert "np.float64" not in csv_path.read_text(), csv_path.name

    def test_heatmaps_without_diagnostics_rejected_but_replayed(self, tmp_path):
        with pytest.raises(ExperimentError,
                           match=r"heatmap_iterations \[2\] are set, but no heatmap"):
            self.run_small(tmp_path, heatmap_iterations=(2,))
        assert not (tmp_path / "out").exists()
        # a run directory that already records the pair still replays
        config, _ = self.run_small(tmp_path, max_adapt_iterations=3)
        config_path = Path(config.output_dir) / "config.json"
        payload = json.loads(config_path.read_text())
        config_path.write_text(json.dumps({**payload, "heatmap_iterations": [2]}))
        diagnose_run(config.output_dir)
        assert (Path(config.output_dir) / "hm_canonical_2.csv").is_file()

    @pytest.mark.parametrize("mode", ["canonical", "recycling"])
    def test_heatmaps_of_a_single_mode_rejected(self, tmp_path, mode):
        message = (r"heatmap_iterations \[2\] are set, but no heatmap is written without "
                   rf"diagnostics and both modes \(modes \['{mode}'\], diagnostics on\)")
        with pytest.raises(ExperimentError, match=message):
            self.run_small(tmp_path, modes=(mode,), diagnostics=True, heatmap_iterations=(2,))
        assert not (tmp_path / "out").exists()
        # a run directory whose config records such a request replays to the same error
        config, _ = self.run_small(tmp_path, modes=(mode,), max_adapt_iterations=3)
        config_path = Path(config.output_dir) / "config.json"
        payload = json.loads(config_path.read_text())
        config_path.write_text(json.dumps({**payload, "heatmap_iterations": [2]}))
        with pytest.raises(ExperimentError, match=message):
            diagnose_run(config.output_dir)
        assert not list(Path(config.output_dir).glob("hm_*"))

    def test_heatmap_past_the_end_of_the_run_is_warned(self, tmp_path, caplog):
        kept, _ = self.run_small(tmp_path / "kept", diagnostics=True,
                                 heatmap_iterations=(2,), max_adapt_iterations=5)
        with caplog.at_level(logging.WARNING, logger="adaptvqe.experiment"):
            config, _ = self.run_small(tmp_path / "past", diagnostics=True,
                                       heatmap_iterations=(2, 99), max_adapt_iterations=5)
        assert "no heatmap for iteration 99: past the end of the 5-iteration run" in caplog.text

        def files(out):
            return {p.name: p.read_bytes() for p in Path(out).iterdir() if p.name != "config.json"}

        assert files(config.output_dir) == files(kept.output_dir)

    def test_heatmap_of_an_excluded_iteration_is_warned(self, tmp_path, caplog, monkeypatch):
        import adaptvqe.experiment as experiment

        series = experiment.hessian_distance_series

        def diverged_at_two(*args, **kwargs):
            records, heatmaps = series(*args, **kwargs)
            records[1] = dataclasses.replace(records[1], excluded=True,
                                             reason="operator selection diverged")
            del heatmaps[2]
            return records, heatmaps

        monkeypatch.setattr(experiment, "hessian_distance_series", diverged_at_two)
        with caplog.at_level(logging.WARNING, logger="adaptvqe.experiment"):
            config, _ = self.run_small(tmp_path, diagnostics=True, heatmap_iterations=(2,),
                                       max_adapt_iterations=5)
        assert ("no heatmap for iteration 2 of the 5-iteration run: excluded "
                "(operator selection diverged)") in caplog.text
        assert not list(Path(config.output_dir).glob("hm_*"))

    def test_diagnose_replays_a_run(self, tmp_path):
        config, _ = self.run_small(tmp_path, max_adapt_iterations=4, diagnostics=True,
                                   heatmap_iterations=(2,))
        out = Path(config.output_dir)

        def contents():
            return {path.relative_to(out): path.read_bytes()
                    for path in sorted(out.rglob("*")) if path.is_file()}

        before = contents()
        summary = diagnose_run(config.output_dir)
        assert (out / "hessdist_tfim_n4_j1_h1.csv").is_file()
        assert (out / "hm_recycling_2.csv").is_file()
        assert "feval_ratio" in summary
        # the replay rewrites every file of the run, byte for byte
        assert contents() == before


class TestCli:
    def test_model_then_run_then_pool(self, tmp_path, capsys):
        model_path = tmp_path / "tfim.json"
        assert cli_main(["model", "--kind", "tfim", "--n-qubits", "4",
                         "--out", str(model_path)]) == 0
        assert model_path.is_file()
        out_dir = tmp_path / "run"
        code = cli_main(["run", "--hamiltonian", str(model_path), "--pool", "nn",
                         "--max-iterations", "3", "--out", str(out_dir)])
        assert code == 0
        assert (out_dir / "summary.json").is_file()
        pool_path = tmp_path / "pool.json"
        assert cli_main(["pool", "--hamiltonian",
                         str(bundled_fixture_path("h2_sto3g_0p7414.json")),
                         "--pool", "qe", "--out", str(pool_path)]) == 0
        payload = json.loads(pool_path.read_text())
        assert len(payload) == 4

    def test_pool_of_a_builtin_model(self, tmp_path):
        pool_path = tmp_path / "pool.json"
        assert cli_main(["pool", "--model", "tfim", "--n-qubits", "4",
                         "--out", str(pool_path)]) == 0
        payload = json.loads(pool_path.read_text())
        assert payload == build_nearest_neighbor_pool(4).to_payload()

    @pytest.mark.parametrize("flag, value", [("--eps", "nan"), ("--opt-eps", "inf")])
    def test_non_finite_threshold_is_a_clean_error(self, tmp_path, capsys, flag, value):
        code = cli_main(["run", "--model", "tfim", "--n-qubits", "4", flag, value,
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert "error: convergence thresholds must be finite and positive" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_hamiltonian_is_a_clean_error(self, tmp_path, capsys):
        code = cli_main(["run", "--hamiltonian", str(tmp_path / "missing.json"),
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("payload, kind", [
        ("abc", "str"), ([1, 2], "list"), (42, "int"), (None, "NoneType"),
    ], ids=["string", "list", "int", "null"])
    def test_config_that_is_not_an_object_is_a_clean_error(self, tmp_path, capsys,
                                                            payload, kind):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        code = cli_main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"config must be a JSON object, got {kind}\n" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bad_builtin_in_config_is_a_clean_error(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"builtin": 5}))
        code = cli_main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "builtin must be an object" in capsys.readouterr().err

    @pytest.mark.parametrize("fields, message", [
        ({"eps": 10**400}, "eps is not"),
        ({"opt_grad_tol": 10**400}, "opt_grad_tol is not"),
        ({"builtin": {"kind": "tfim", "n_qubits": 4, "coupling": 10**400}},
         "coupling must be finite"),
    ], ids=["eps", "opt_grad_tol", "coupling"])
    def test_huge_integer_in_config_is_a_clean_error(self, tmp_path, capsys, fields, message):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"builtin": {"kind": "tfim", "n_qubits": 4}, **fields}))
        code = cli_main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags, named", [
        (["--eps", "0.5", "--modes", "recycling"], "--modes, --eps"),
        (["--eps", "1e-6"], "--eps"),
        (["--diag"], "--diagnostics"),
        (["--model", "heisenberg", "--n-qubits", "4"], "--model, --n-qubits"),
    ], ids=["two-flags", "default-value", "abbreviated", "source"])
    def test_config_takes_no_other_run_flag(self, tmp_path, capsys, flags, named):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"builtin": {"kind": "tfim", "n_qubits": 4}}))
        code = cli_main(["run", "--config", str(path), *flags,
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"error: --config takes no other run flag but --out; got {named}" \
            in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bad_name_fails_before_any_run(self, tmp_path, capsys):
        payload = json.loads(bundled_fixture_path("h2_sto3g_0p7414.json").read_text())
        payload["metadata"]["name"] = "a/b"
        path = tmp_path / "h2bad.json"
        path.write_text(json.dumps(payload))
        code = cli_main(["run", "--hamiltonian", str(path), "--diagnostics",
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert "metadata.name must be a string" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()  # nothing was created

    def test_conflicting_sources_rejected(self, tmp_path, capsys):
        code = cli_main(["run", "--out", str(tmp_path / "out")])
        assert code == 2

    @pytest.mark.parametrize("command", ["run", "pool"])
    def test_model_flags_without_model_rejected(self, tmp_path, capsys, command):
        code = cli_main([command, "--hamiltonian",
                         str(bundled_fixture_path("h2_sto3g_0p7414.json")),
                         "--n-qubits", "9", "--coupling", "3", "--field", "7",
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert "error: model flags without --model: --n-qubits, --coupling, --field" \
            in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_flags_name_library_settings_and_restate_no_default(self):
        commands = next(a for a in build_parser()._actions if a.dest == "command").choices
        settings = ({field.name for field in dataclasses.fields(ExperimentConfig)}
                    | {"kind", "n_qubits", "coupling", "field", "with_exact"}
                    | set(inspect.signature(builtin_model).parameters))
        files = {"run": {"config"}, "pool": {"out"}, "model": {"out"}}  # read or written
        for name, other in files.items():
            for action in commands[name]._actions:
                if action.dest != "help":
                    assert action.dest in settings | other, (name, action.dest)
                    assert action.default is argparse.SUPPRESS, (name, action.dest)

    def test_run_records_the_library_defaults(self, tmp_path):
        out = tmp_path / "out"
        assert cli_main(["run", "--model", "tfim", "--n-qubits", "4",
                         "--max-iterations", "2", "--out", str(out)]) == 0
        expected = ExperimentConfig(builtin={"kind": "tfim", "n_qubits": 4},
                                    max_adapt_iterations=2, output_dir=str(out)).to_payload()
        assert json.loads((out / "config.json").read_text()) == json.loads(json.dumps(expected))

    def test_model_flags_reach_builtin_model(self, tmp_path):
        path = tmp_path / "model.json"
        assert cli_main(["model", "--kind", "tfim", "--n-qubits", "4", "--coupling", "2",
                         "--field", "0.5", "--no-exact", "--out", str(path)]) == 0
        save_hamiltonian(builtin_model("tfim", 4, 2.0, 0.5, with_exact=False),
                         tmp_path / "expected.json")
        assert path.read_bytes() == (tmp_path / "expected.json").read_bytes()
