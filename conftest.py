"""Import the package before any test module imports numpy, and start every
test with an empty lattice memo.

Importing ellpoisson pins the BLAS thread pools to one thread unless the
environment sets them, and BLAS reads them only when numpy is first
imported; the test modules import numpy before the package.

The command line shares each lattice's basis, residue system and bracket
between the jobs of a process (``ellpoisson.cli``); a test that replaces a
library name or constant must not be served an object an earlier test
built.
"""

import pytest

import ellpoisson  # noqa: F401
from ellpoisson import cli


@pytest.fixture(autouse=True)
def _cold_lattice_memo():
    cli._clear_memo()
