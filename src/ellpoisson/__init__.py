"""Theta bases, elliptic quadratic Poisson brackets and residue calculus.

The package has seven building blocks: ``theta`` (the order-n section
basis, each value one theta series at n*tau and defined up to one constant
common to the whole basis, its constants at 0 from one series pass over
two rows of (point, alpha) pairs, and the one trapezoid rule every circle
is sampled on, a fixed node count at a quarter of the pole distance),
``poisson`` (a Z/n-graded quadratic bracket as one n^3 coefficient table,
Jacobi certification as entrywise products of that table with itself,
Heisenberg canonical form, projective descent of any graded table by the
chart rule), ``fo`` (elliptic quadratic relations, the F table as a plain
array, the semiclassical bracket and its finite-parameter oracle, the mean
of the single-eta estimate over a circle around eta = 0, read with the
single-eta tables at the slope values from one relation tensor, all as
graded tables),
``cech`` (one table of samples on the contours around the divisor, filled
from one theta jet on the circle around 0 by the exact 1/n shift, from
which the dual pairing, the trace tables and both routes to the
extension-moduli bracket are read, each route one array evaluation for
the whole matrix, with one expansion of the principal-part projection
that is certified pair by pair and projects every cotangent vector of the
trace route in one product),
``exact`` (exact rational matrices on int64 numerators, promoted to Python
ints only where a proven bound fails, products on float64 BLAS below 2^53
and on float64 limbs past it, and one fraction-free elimination for rank
and nullspace), ``homology`` (exact chain algebra for the endomorphism
complex, itself a complex that forms each product of two of its matrices
once and writes each differential in place, the bivector, the cone
identification on Kronecker pairs A (x) X by the mixed-product rule, and
the trace pairing as one signed permutation that gathers columns) and
``leaves`` (torsion-type combinatorics and the divisor-class
constraint).  ``cli`` drives batch verification runs.
``cech.laurent_coeffs``, ``fo.fo_relations``, ``fo.single_eta_bracket``
and ``exact.Mat.kron`` have no caller in the package, ``homology`` no
longer uses its imports ``hstack`` and ``vstack``, and ``cli`` no longer
uses its imports ``QuadraticBracket``, ``single_eta_bracket`` and
``end_dim_sheaf``; they stay because ``perfbench/spans.py`` wraps them.
"""

import os

# BLAS reads its thread count when numpy is first imported; one thread
# spares the exact layer's many small float64 products the pool's start-up
# and contention.  A value the caller sets is kept.
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

from .theta import (
    CurveParams,
    ThetaBasis,
    theta_alpha_deriv,
    theta_alpha_eval,
    theta_alpha_jet,
    verify_automorphy,
)
from .poisson import (
    QuadraticBracket,
    hn_canonical_extract,
    jacobi_defect,
    projective_matrix,
)
from .fo import (
    f_constants,
    fo_relations,
    semiclassical_from_relations,
    single_eta_bracket,
    sklyanin_bracket,
)
from .cech import (
    ResidueSystem,
    laurent_coeffs,
)
from .homology import (
    VSComplex,
    cone_iso_check,
    hom_complex,
    pi_bivector,
    random_kronecker_complex,
    trace_pairing,
)
from .leaves import (
    DivisorDatum,
    LeafRecord,
    TorsionType,
    divisor_constraint,
    end_dim_local,
    end_dim_sheaf,
    enumerate_strata,
)

__version__ = "0.1.0"
