"""The package imports only the standard library and numpy.

scipy, mpmath, sympy and hypothesis are test-time dependencies at most
(pyproject declares only numpy for the package), so every import statement
in ``src/ellpoisson`` is checked, including those inside functions.
"""

import ast
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
