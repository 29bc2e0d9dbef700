"""Theta bases, elliptic quadratic Poisson brackets and residue calculus.

Each object has one name, in the module that defines it: import
``ellpoisson.theta``, ``ellpoisson.cli`` and the rest by name (README's
Layout table says what each holds).  Importing the package itself loads
none of them; it only pins the BLAS thread pools to one thread, and only
if it comes before numpy's first import.  A basis built without the pin
can differ in its last bits: at n = 63, tau = 0.025 + 6.235507341273925e-7i
the sha256 of its tables at 0 begins 38bca5847f42797a with the pin and
2dbc378d216432f4 with numpy imported first.
"""

import os

# BLAS reads its thread count when numpy is first imported; one thread
# spares the exact layer's many small float64 products the pool's start-up
# and contention.  A value the caller sets is kept.
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
