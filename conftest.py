"""Import the package before any test module imports numpy, and start every
test with an empty lattice cache.

Importing ellpoisson pins the BLAS thread pools to one thread unless the
environment sets them, and BLAS reads them only when numpy is first
imported; the test modules import numpy before the package.

The command line shares each lattice's basis, residue system and bracket
through one cache, keyed by the build function and its arguments
(``ellpoisson.cli._shared``); clearing it keeps a test from being served an
object an earlier test built.
"""

import pytest

import ellpoisson  # noqa: F401
from ellpoisson import cli


@pytest.fixture(autouse=True)
def _cold_lattice_memo():
    cli._shared.cache_clear()
