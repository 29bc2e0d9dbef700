"""Import the package before any test module imports numpy.

Importing ellpoisson pins the BLAS thread pools to one thread unless the
environment sets them, and BLAS reads them only when numpy is first
imported; the test modules import numpy before the package.
"""

import ellpoisson  # noqa: F401
