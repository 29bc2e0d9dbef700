"""The package imports only the standard library and numpy, and keeps
only what it reaches.

scipy, mpmath, sympy and hypothesis are test-time dependencies at most
(pyproject declares only numpy for the package), so every import statement
in ``src/ellpoisson`` is checked, including those inside functions.  Every
public top-level function and class is named somewhere in the package
outside its own definition, or exported by ``ellpoisson/__init__.py``.
Every public method of a public top-level class is named by an attribute
access in the package outside its own body, or listed in ``TEST_ONLY``
with the test that calls it.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ellpoisson"
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def imported_roots(path):
    """(line, top-level module) of every absolute import in one file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_imports_are_stdlib_numpy_or_relative(path):
    foreign = [f"{path.name}:{line} {root}"
               for line, root in imported_roots(path) if root not in ALLOWED]
    assert not foreign


def test_checker_sees_a_foreign_import(tmp_path):
    # power control: the walk reaches imports nested in functions
    probe = tmp_path / "probe.py"
    probe.write_text("from . import x\n"
                     "def f():\n    import scipy.linalg\n")
    assert [r for _, r in imported_roots(probe)] == ["scipy"]


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def public(body, kinds):
    """The definitions of ``kinds`` in ``body`` whose names do not start
    with an underscore."""
    return [node for node in body
            if isinstance(node, kinds) and not node.name.startswith("_")]


def unreached(paths):
    """``file:name`` of every public top-level function or class in
    ``paths`` that no other top-level statement of ``paths`` names (as a
    name, an attribute or an imported name) and that ``__init__.py``, if
    among them, does not import, and ``file:Class.name`` of every public
    method of a public top-level class that no attribute access ``x.name``
    outside the method's own body names.  Methods are matched by attribute
    only, so a local variable that shares a method's name does not reach
    it."""
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in paths}
    named = {}
    attributes = {}
    exported = set()
    for path, tree in trees.items():
        for statement in tree.body:
            for node in ast.walk(statement):
                if isinstance(node, ast.Name):
                    names = [node.id]
                elif isinstance(node, ast.Attribute):
                    names = [node.attr]
                    attributes.setdefault(node.attr, []).append(node)
                elif isinstance(node, ast.ImportFrom):
                    names = [alias.name for alias in node.names]
                    if path.name == "__init__.py":
                        exported.update(names)
                else:
                    continue
                for name in names:
                    named.setdefault(name, []).append(statement)
    found = []
    for path, tree in trees.items():
        for node in public(tree.body, FUNCTIONS + (ast.ClassDef,)):
            if (node.name not in exported
                    and all(s is node for s in named.get(node.name, ()))):
                found.append(f"{path.name}:{node.name}")
            if isinstance(node, ast.ClassDef):
                for method in public(node.body, FUNCTIONS):
                    own = set(map(id, ast.walk(method)))
                    if all(id(a) in own
                           for a in attributes.get(method.name, ())):
                        found.append(f"{path.name}:{node.name}.{method.name}")
    return found


# methods that only tests call, each with the test that calls it; a row
# that the package reaches, or that names no method, fails the guard
TEST_ONLY = {
    "cech.py:ResidueSystem.pairing_matrix":
        "test_acceptance.py::test_criterion_2_duality",
    "cech.py:ResidueSystem.verify_p_plus":
        "test_acceptance.py::test_criterion_3_principal_part_projection",
    "cech.py:ResidueSystem.verify_p_plus_zero_sum":
        "test_acceptance.py::test_criterion_3_principal_part_projection",
    "cech.py:ResidueSystem.verify_trace_identity":
        "test_acceptance.py::test_criterion_4_trace_identity",
    # until a reported check of the foliation calls it
    "cech.py:ResidueSystem.pi_t_class": "test_cech.py::TestPiT",
    "exact.py:Mat.entry": "test_homology.py::TestExactMat",
    # perfbench/spans.py wraps it, and no longer sees a call from the package
    "exact.py:Mat.kron": "test_homology.py::TestExactMat",
}


def test_every_public_name_is_reached():
    assert sorted(unreached(sorted(SRC.glob("*.py")))) == sorted(TEST_ONLY)


def test_checker_sees_an_unreached_name(tmp_path):
    # power control: a name used only inside its own definition, and one
    # named nowhere, are both reported; exported and called ones are not.
    # A method is reported unless an attribute access outside its body
    # names it: a local variable of the same name does not count
    (tmp_path / "__init__.py").write_text("from .a import exported\n")
    (tmp_path / "a.py").write_text(
        "def exported():\n    entry = called()\n"
        "    return Used().called_method(entry)\n"
        "def called():\n    return 1\n"
        "def recursive(k):\n    return recursive(k - 1)\n"
        "class Orphan:\n    pass\n"
        "class Used:\n"
        "    def called_method(self, x):\n        return x\n"
        "    def entry(self):\n        return self.entry()\n"
        "    def _private(self):\n        pass\n"
        "def _private():\n    pass\n")
    assert unreached(sorted(tmp_path.glob("*.py"))) == ["a.py:recursive",
                                                        "a.py:Orphan",
                                                        "a.py:Used.entry"]


BLAS_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("preset", [None, "3"])
def test_blas_threads_pinned_unless_set(preset):
    # a fresh interpreter: BLAS reads the variables when numpy is first
    # imported, which importing the package does after setting them
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARIABLES}
    env["PYTHONPATH"] = str(SRC.parent)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    code = ("import os, ellpoisson; "
            f"print(*(os.environ[v] for v in {BLAS_VARIABLES!r}))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=60).stdout.split()
    assert out == ["1", preset or "1", "1"]
