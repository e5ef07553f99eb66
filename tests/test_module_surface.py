"""Static checks on the package's module surface, read with ``ast``.

Modules talk to each other through public names only, import each other
at module level only (so no import cycle hides inside a function), every
name a module lists in ``__all__`` exists in it, and every private name a
module defines at its top level is read somewhere in that module.  Every public
name, and every public method or property of a public class, is read by
the pipeline itself: a package module other than ``__init__.py``,
``tools/``, ``perfbench/`` or the acceptance suite, not only by the unit
tests.  Importing the package and running it below 12 qubits loads no scipy.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "adaptvqe"


def defined_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def declared_all(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return [ast.literal_eval(e) for e in node.value.elts]
    return []


def test_modules_import_public_names_and_export_defined_ones():
    problems = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level > 0 or (node.module or "").startswith("adaptvqe")):
                problems += [f"{path.name} imports private {node.module}.{alias.name}"
                             for alias in node.names if alias.name.startswith("_")]
        problems += [f"{path.name} exports undefined {name}"
                     for name in sorted(set(declared_all(tree)) - defined_names(tree))]
    assert not problems


def imports_package(node: ast.AST) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == "adaptvqe"
    return isinstance(node, ast.Import) and any(
        alias.name.split(".")[0] == "adaptvqe" for alias in node.names)


def test_package_modules_import_each_other_at_module_level():
    """Only at the top of a module or in its top-level ``if TYPE_CHECKING:``
    block."""
    problems = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = set(tree.body)
        for node in tree.body:
            if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
                allowed.update(node.body)
        problems += [f"{path.name}:{node.lineno} imports a package module inside a block"
                     for node in ast.walk(tree)
                     if imports_package(node) and node not in allowed]
    assert not problems


def private_definitions(tree: ast.Module) -> list[str]:
    """Top-level ``_x = ...``, ``def _x`` and ``class _X`` names, dunders
    excluded."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def test_private_names_are_read_by_their_module():
    problems = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        problems += [f"{path.name} never reads {name}"
                     for name in private_definitions(tree) if name not in read]
    assert not problems


def names_read(paths) -> set[str]:
    """Every name the files read as a ``Name``, an ``Attribute`` or an
    ``ImportFrom`` alias."""
    read = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return read


def public_members(tree: ast.Module) -> list[tuple[str, str]]:
    """``(class, member)`` for each public method and property of each
    public top-level class; dataclass fields are not listed."""
    return [(node.name, member.name)
            for node in tree.body
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
            for member in node.body
            if isinstance(member, ast.FunctionDef) and not member.name.startswith("_")]


def test_public_names_are_read_by_the_pipeline():
    """A member counts as read when any attribute of its name is, so a
    common name such as ``norm`` can slip through; a top-level name cannot."""
    readers = ([p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
               + sorted((ROOT / "tools").rglob("*.py"))
               + sorted((ROOT / "perfbench").rglob("*.py"))
               + [ROOT / "tests" / "test_acceptance.py"])
    read = names_read(readers)
    problems = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        problems += [f"{path.name} exports {name}, which only unit tests read"
                     for name in declared_all(tree) if name not in read]
        problems += [f"{path.name} defines {cls}.{member}, which only unit tests read"
                     for cls, member in public_members(tree) if member not in read]
    assert not problems


NO_SCIPY_SCRIPT = """
import sys
from adaptvqe import build_qe_pool, builtin_model
from adaptvqe.driver import run_adapt
from adaptvqe.hamiltonians import bundled_fixture_path, load_hamiltonian

assert builtin_model("tfim", 8).exact_ground_energy is not None
hfile = load_hamiltonian(bundled_fixture_path("h4_sto3g_1p00.json"))
pool = build_qe_pool(8, 4)
result = run_adapt(hfile.operator, hfile.reference_bitstring, pool, max_iterations=1)
assert len(result.iterations) == 1
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_scipy_is_loaded_only_for_twelve_qubit_energies():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"
