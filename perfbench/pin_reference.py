"""Regenerate ``reference.json``: the ledger of every workload at every grid point.

Run from the repository root, on the commit whose behaviour is the contract:

    python3 perfbench/pin_reference.py [workload ...]

Each entry holds, per mode, the function evaluations, line searches, growth
iterations, selected operator labels and final energy, plus the input's
properties (terms, distinct X masks, pool size, exact energy) and, for
``h4-diagnose``, the diagnostics shadow ledger and the files written.
Workloads not named keep their existing entries.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import workloads


def pin(workload, index: int, tmp: Path) -> dict:
    input_path = None
    if workload.kind == "chain":
        input_path = tmp / f"{workload.name}-{index}.json"
        workloads.run_child(["prepare", workload.name, str(index), str(input_path)])
    hfile, pool = workloads.load_problem(workload, index, input_path)
    if workload.diagnose:
        _, ledger = workloads.run_diagnose(workload, input_path, tmp / f"run-{index}")
    else:
        _, ledger = workloads.run_pair(workload, hfile, pool)
    return {**ledger, "input": workloads.input_properties(hfile, pool)}


def main(argv: list[str]) -> None:
    run.limit_threads()
    sys.path.insert(0, str(workloads.ROOT / "src"))
    names = argv or list(workloads.WORKLOADS)
    pinned = {}
    workloads.WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workloads.WORK_DIR) as tmp:
        for name in names:
            workload = workloads.WORKLOADS[name]
            pinned[name] = entries = {}
            for index in range(len(workload.grid)):
                entries[workload.key(index)] = entry = pin(workload, index, Path(tmp))
                print(name, workload.key(index), {
                    mode: (entry[mode]["fevals"], entry[mode]["line_searches"],
                           entry[mode]["iterations"]) for mode in workloads.MODES
                }, flush=True)
    path = workloads.REFERENCE_PATH
    reference = json.loads(path.read_text()) if path.is_file() else {}
    reference.update(pinned)
    reference["source_commit"] = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=workloads.ROOT, capture_output=True, text=True,
    ).stdout.strip()
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
