"""Theta bases, elliptic quadratic Poisson brackets and residue calculus.

The package has seven building blocks: ``theta`` (the series and the order-n
section basis), ``poisson`` (a quadratic bracket as one coefficient tensor,
Jacobi certification as a contraction of that tensor with itself,
Heisenberg canonical form, projective descent; sparse polynomials and
Leibniz brackets serve only as test oracles), ``fo`` (elliptic quadratic
relations, the F table, the semiclassical bracket and its finite-parameter
oracle, all as tensors), ``cech`` (one table of samples on the contours
around the divisor, filled from one circle by the exact 1/n shift, from
which the dual pairing, the principal-part projection checks, the trace
tables and both routes to the extension-moduli bracket are read),
``exact`` (exact rational matrices on int64 numerators, promoted to Python
ints only where a proven bound fails, products on float64 BLAS below 2^53,
and one fraction-free elimination for rank and nullspace), ``homology`` (exact
chain algebra for the endomorphism complex, the bivector and the cone
identification) and ``leaves`` (torsion-type combinatorics and the
divisor-class constraint).  ``cli`` drives batch verification runs.
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
    FORelationTensor,
    f_constants,
    fo_relations,
    semiclassical_from_relations,
    single_eta_bracket,
    sklyanin_bracket,
)
from .cech import (
    GlobalSection,
    QuadratureConfig,
    ResidueSystem,
    laurent_coeffs,
    p_plus,
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
