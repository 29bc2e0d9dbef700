"""Theta bases, elliptic quadratic Poisson brackets and residue calculus.

The package has seven building blocks: ``theta`` (the series, the order-n
section basis and the circle nodes every disc is sampled on), ``poisson``
(a Z/n-graded quadratic bracket as one n^3 coefficient table, Jacobi
certification as entrywise products of that table with itself, Heisenberg
canonical form, projective descent), ``fo`` (elliptic quadratic
relations, the F table, the semiclassical bracket and its finite-parameter
oracle, the mean of the single-eta estimate over a circle around eta = 0,
all as graded tables),
``cech`` (one table of samples on the contours around the divisor,
filled from one circle by the exact 1/n shift, from which the dual
pairing, the trace tables and both routes to the extension-moduli bracket
are read, with one expansion of the principal-part projection that is
certified pair by pair and run by the bracket),
``exact`` (exact rational matrices on int64 numerators, promoted to Python
ints only where a proven bound fails, products on float64 BLAS below 2^53,
and one fraction-free elimination for rank and nullspace), ``homology`` (exact
chain algebra for the endomorphism complex, the bivector and the cone
identification) and ``leaves`` (torsion-type combinatorics and the
divisor-class constraint).  ``cli`` drives batch verification runs.
``cech.laurent_coeffs`` and ``fo.fo_relations`` have no caller in the
package; they stay because ``perfbench/spans.py`` wraps them.
"""

from .theta import (
    CurveParams,
    ThetaBasis,
    ThetaSection,
    heisenberg_act,
    theta_alpha_deriv,
    theta_alpha_eval,
    theta_alpha_jet,
    theta_eval,
    verify_automorphy,
)
from .poisson import (
    HnBracket,
    QuadraticBracket,
    hn_canonical_extract,
    jacobi_defect,
    projective_bracket,
)
from .fo import (
    FConstants,
    eta_circle,
    f_constants,
    fo_relations,
    semiclassical_from_relations,
    single_eta_bracket,
    sklyanin_bracket,
)
from .cech import (
    QuadratureConfig,
    ResidueSystem,
    laurent_coeffs,
)
from .homology import (
    VSComplex,
    ad_map,
    cone_iso_check,
    duality_t,
    hom_complex,
    pi_bivector,
    random_kronecker_complex,
)
from .leaves import (
    DivisorDatum,
    LeafRecord,
    TorsionType,
    divisor_constraint,
    end_dim_local,
    end_dim_sheaf,
    enumerate_strata,
    kronecker_dims,
    leaf_dimension,
)

__version__ = "0.1.0"
