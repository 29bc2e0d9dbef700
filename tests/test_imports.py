"""The package imports only the standard library and numpy, and keeps
only what it reaches.

scipy, mpmath, sympy and hypothesis are test-time dependencies at most
(pyproject declares only numpy for the package), so every import statement
in ``src/ellpoisson`` is checked, including those inside functions.  Every
public top-level function and class is named somewhere in the package
outside its own definition and outside ``ellpoisson/__init__.py``, and
every public method of a public top-level class is named by an attribute
access in the package outside its own body, or the name is listed in
``TEST_ONLY`` with the test that calls it.  An imported name reaches its
definition only where the importing module uses it; the imports that
nothing in their module uses are listed in ``PERFBENCH_ONLY``.
"""

import ast
import importlib.util
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


def loaded_names(tree):
    """Every name that a module reads as a plain name."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def imported_names(tree):
    """(name imported, name bound) of every ``from ... import`` in a
    module but ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.name, alias.asname or alias.name


def unused_imports(paths):
    """``file:name`` of every name imported by ``from ... import`` in
    ``paths`` that nothing else in the importing module reads."""
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        loaded = loaded_names(tree)
        found += [f"{path.name}:{name}" for name, bound in imported_names(tree)
                  if bound not in loaded]
    return found


def unreached(paths):
    """``file:name`` of every public top-level function or class in
    ``paths`` that no other top-level statement of ``paths`` names (as a
    name, or a name imported into a module that reads it), and
    ``file:Class.name`` of every public method of a public top-level class
    that no attribute access ``x.name`` outside the method's own body
    names.  An attribute access reaches only a method, so ``np.hstack``
    does not reach a function ``hstack``, and a local variable that shares
    a method's name does not reach the method.  No statement of an
    ``__init__.py`` reaches a name, so a re-export cannot hide one that
    nothing calls, and neither does an import that nothing in its module
    reads."""
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in paths}
    named = {}
    attributes = {}
    for path, tree in trees.items():
        if path.name == "__init__.py":
            continue
        loaded = loaded_names(tree)
        for statement in tree.body:
            for node in ast.walk(statement):
                if isinstance(node, ast.Name):
                    names = [node.id]
                elif isinstance(node, ast.Attribute):
                    attributes.setdefault(node.attr, []).append(node)
                    continue
                elif isinstance(node, ast.ImportFrom):
                    names = [alias.name for alias in node.names
                             if (alias.asname or alias.name) in loaded]
                else:
                    continue
                for name in names:
                    named.setdefault(name, []).append(statement)
    found = []
    for path, tree in trees.items():
        for node in public(tree.body, FUNCTIONS + (ast.ClassDef,)):
            if all(s is node for s in named.get(node.name, ())):
                found.append(f"{path.name}:{node.name}")
            if isinstance(node, ast.ClassDef):
                for method in public(node.body, FUNCTIONS):
                    own = set(map(id, ast.walk(method)))
                    if all(id(a) in own
                           for a in attributes.get(method.name, ())):
                        found.append(f"{path.name}:{node.name}.{method.name}")
    return found


# names that only tests call, each with the test that calls it; a row
# that the package reaches, or that names no public function, class or
# method, fails the guard
TEST_ONLY = {
    # these two stay because perfbench/spans.py wraps them
    "cech.py:laurent_coeffs": "test_cech.py::TestLaurent",
    "fo.py:fo_relations": "test_fo.py::TestRelations",
    # until a reported check of the divisor-class constraint calls it
    "leaves.py:divisor_constraint":
        "test_acceptance.py::test_criterion_10_divisor_constraint",
    # until a reported check of the foliation calls it
    "cech.py:ResidueSystem.pi_t_class": "test_cech.py::TestPiT",
    # perfbench/spans.py wraps it, and no longer sees a call from the package
    "exact.py:Mat.kron": "test_homology.py::TestExactMat",
    # reached only by an import in PERFBENCH_ONLY
    "fo.py:single_eta_bracket": "test_fo.py::TestSemiclassical",
    "leaves.py:end_dim_sheaf": "test_leaves.py::TestEndDim",
    # the dense oracles of tests/oracles.py, dense_hom_differential and
    # dense_cone_iso_check, stack with these; perfbench/spans.py wraps
    # ellpoisson.homology.hstack and vstack, imports in PERFBENCH_ONLY
    "exact.py:hstack": "test_homology.py::TestAssembledDifferentials",
    "exact.py:vstack": "test_homology.py::TestConeIsoOracle",
}

# imports that nothing in the importing module reads, each with the
# perfbench/spans.py TARGETS row that wraps the module attribute it makes
PERFBENCH_ONLY = {
    "cli.py:single_eta_bracket": "fo.single_eta",
    "cli.py:QuadraticBracket": "poisson.bracket",
    "cli.py:end_dim_sheaf": "leaves.end_dim",
    "cech.py:theta_alpha_eval": "theta.eval",
    "cech.py:theta_alpha_deriv": "theta.eval",
    "homology.py:hstack": "exact.stack",
    "homology.py:vstack": "exact.stack",
}


def test_every_public_name_is_reached():
    assert sorted(unreached(sorted(SRC.glob("*.py")))) == sorted(TEST_ONLY)


def test_unused_imports_are_the_perfbench_only_table():
    assert sorted(unused_imports(sorted(SRC.glob("*.py")))) == sorted(
        PERFBENCH_ONLY)


def test_perfbench_only_rows_name_their_targets():
    # each row is a TARGETS row: the importing module, the name and the
    # span name
    path = SRC.parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = {(module, attr, span) for module, attr, span, _ in spans.TARGETS}
    for row, span in PERFBENCH_ONLY.items():
        file, name = row.split(":")
        assert (f"ellpoisson.{file[:-3]}", name, span) in targets, row


def test_checker_sees_an_unreached_name(tmp_path):
    # power control: a name used only inside its own definition, one named
    # nowhere, one only ``__init__.py`` imports and one named only by an
    # attribute of another module (``np.stacked``) are all reported; a
    # called one is not.  A method is reported unless an attribute access
    # outside its body names it: a local variable of the same name does
    # not count
    (tmp_path / "__init__.py").write_text("from .a import exported\n")
    (tmp_path / "a.py").write_text(
        "import numpy as np\n"
        "def exported():\n    entry = called()\n"
        "    np.stacked(entry)\n"
        "    return Used().called_method(entry)\n"
        "def called():\n    return 1\n"
        "def stacked(parts):\n    return parts\n"
        "def recursive(k):\n    return recursive(k - 1)\n"
        "class Orphan:\n    pass\n"
        "class Used:\n"
        "    def called_method(self, x):\n        return x\n"
        "    def entry(self):\n        return self.entry()\n"
        "    def _private(self):\n        pass\n"
        "def _private():\n    pass\n")
    assert unreached(sorted(tmp_path.glob("*.py"))) == ["a.py:exported",
                                                        "a.py:stacked",
                                                        "a.py:recursive",
                                                        "a.py:Orphan",
                                                        "a.py:Used.entry"]



def test_checker_sees_an_unused_import(tmp_path):
    # power control: a name that only an unread import names is reported
    # by both checks; read, under its own name or an alias, the import
    # reaches it.  ``from __future__`` binds nothing to read
    (tmp_path / "a.py").write_text("def wrapped():\n    return 1\n")
    importer = tmp_path / "b.py"
    paths = [tmp_path / "a.py", importer]
    importer.write_text("from __future__ import annotations\n"
                        "from .a import wrapped\n")
    assert unused_imports(paths) == ["b.py:wrapped"]
    assert unreached(paths) == ["a.py:wrapped"]
    for text in ("from .a import wrapped\nVALUE = wrapped()\n",
                 "from .a import wrapped as w\nVALUE = w()\n"):
        importer.write_text(text)
        assert unused_imports(paths) == [] and unreached(paths) == []


BLAS_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("preset", [None, "3"])
def test_blas_threads_pinned_unless_set(preset):
    # a fresh interpreter: BLAS reads the variables when numpy is first
    # imported, so importing the package sets them before any of its
    # modules can import numpy
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


def test_package_import_loads_no_module():
    # a fresh interpreter: importing the package sets the BLAS variables and
    # loads neither numpy nor any module of the package
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARIABLES}
    env["PYTHONPATH"] = str(SRC.parent)
    code = ("import os, sys, ellpoisson; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith(('ellpoisson.', 'numpy'))), "
            f"all(v in os.environ for v in {BLAS_VARIABLES!r}))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=60).stdout
    assert out == "[] True\n"
