"""Import the package before any test module imports numpy, and start every
test with an empty lattice memo.

Importing ellpoisson pins the BLAS thread pools to one thread unless the
environment sets them, and BLAS reads them only when numpy is first
imported; the test modules import numpy before the package.

The command line caches each lattice's basis, residue system and bracket,
keyed by their build functions and the lattice or the basis they are built
from (``ellpoisson.cli``); clearing the caches
keeps a test from being served an object an earlier test built.
"""

import pytest

import ellpoisson  # noqa: F401
from ellpoisson import cli


@pytest.fixture(autouse=True)
def _cold_lattice_memo():
    cli._clear_memo()
