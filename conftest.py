"""Pin the BLAS thread pools to one thread for the whole test suite.

numpy reads these variables when it is first imported, which is after this
file loads.  The exact layer multiplies its matrices as float64 on BLAS,
and many small products otherwise pay thread start-up and contention on
every call.  A value set in the environment is kept.
"""

import os

for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
