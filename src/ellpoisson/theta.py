"""Theta functions on C/(Z + Z*tau) and the order-n section basis.

The building block is the entire function

    theta(z) = sum_m (-1)^m exp(2*pi*i*(m*z + m*(m-1)*tau/2)),

a section of the degree-1 line bundle (simple zero on the lattice).  The
degree-n basis indexed by ``alpha`` in Z/n is the product

    theta_alpha(z) = prod_{m=0}^{n-1} theta(z + m/n + alpha*tau/n)
          * exp(2*pi*i*(alpha*z + alpha*(alpha-n)*tau/(2n) + alpha/(2n)))

which diagonalises the shift-by-1/n operator and is exactly n-periodic in
the index.  Values and derivatives are read off one object, the truncated
Taylor jet (f, f', f''/2, ...) on a leading array axis, which
``theta_alpha_jet`` returns whole: the series yields it from one matmul,
and the quasi-periodicity multiplier, the n shifted factors and the
exponential factor are combined by one truncated Taylor product,
``_jet_mul``.  The index alpha may be an integer or a 1-D integer array;
an array puts theta_alpha for every listed alpha on a trailing axis, so the
whole basis on a point grid is one evaluation of the (alpha, m) grid of
shifted factors, taken in chunks of bounded size.  Evaluators accept
scalars or numpy arrays of points and are pure functions of their
arguments; a constructed :class:`ThetaBasis` is immutable.  A point where
the value may leave double-precision range (large |Im z| / Im tau) raises
:class:`ThetaRangeError` before anything is evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateTauError, ThetaRangeError

TWO_PI_I = 2j * math.pi
# exp() overflows above exp(709.78); the rest is headroom for the series sums
# and the derivative factors.
LOG_LIMIT = 650.0

# largest a priori relative rounding error of a basis value at 0; from about
# here on the basis checks at their default tolerance 1e-8 fail from
# rounding in the series alone
ROUNDING_LIMIT = 1e-8

# largest number of series terms one matmul holds; longer point arrays are
# evaluated in chunks, which keeps the working memory flat
_CHUNK_TERMS = 2 ** 16

T_ONE_OVER_N = "T_one_over_n"
T_TAU_OVER_N = "T_tau_over_n"


@dataclass(frozen=True)
class CurveParams:
    """Lattice parameter, basis order and the derived root of unity."""

    tau: complex
    n: int

    def __post_init__(self):
        if self.tau.imag <= 0:
            raise ValueError("Im(tau) must be positive")
        if self.n < 2:
            raise ValueError("order n must be at least 2")

    @property
    def omega(self) -> complex:
        return np.exp(TWO_PI_I / self.n)

    @property
    def q(self) -> complex:
        return np.exp(TWO_PI_I * self.tau)


def series_bound_for(tau: complex, eps: float) -> int:
    """Smallest M with |q|^(M(M-1)/2) < eps/10, q = exp(2*pi*i*tau)."""
    log_q = -2.0 * math.pi * tau.imag  # log|q| < 0
    target = math.log(eps / 10.0)
    m = 2
    while log_q * (m * (m - 1) / 2.0) >= target:
        m += 1
    return m


def _reduce_to_cell(z, tau):
    """Split z = z0 + a + b*tau with z0 in the fundamental cell.

    Returns (z0, b); the period-1 part needs no multiplier.
    """
    b = np.floor(z.imag / tau.imag)
    z1 = z - b * tau
    a = np.floor(z1.real)
    return z1 - a, b


def _check_range(z, height, factors=1, alphas=None):
    """Raise ThetaRangeError unless every partial product of theta_alpha(z)
    (``factors`` theta factors) stays in double range for each alpha in
    ``alphas``, or of theta itself when ``alphas`` is None; ``height`` is
    Im(tau) and z an array.

    The factors sit at z + m/n + alpha*tau/n and share one reduced lattice
    index b = floor(Im z / Im tau + alpha/n) per point, so their product is
    at most exp(n pi Im(tau) |b|(|b|+1)) times the size of the exponential
    factor of theta_alpha.  b is monotone in Im z, so the two extreme points
    bound it; non-finite points fail.  The message names the first failing
    alpha.
    """
    if not z.size:
        return
    low, high = float(z.imag.min()), float(z.imag.max())
    finite = math.isfinite(low) and math.isfinite(high)
    for alpha in (0,) if alphas is None else alphas:
        log_size = math.inf
        if finite:
            offset = (alpha * height) / factors
            top = max(abs(math.floor((low + offset) / height)),
                      abs(math.floor((high + offset) / height)))
            log_size = (factors * math.pi * height * top * (top + 1.0)
                        + max(0.0, -2.0 * math.pi * alpha * low,
                              -2.0 * math.pi * alpha * high)
                        + math.pi * alpha * (factors - alpha) * height
                        / factors)
        if not log_size <= LOG_LIMIT:
            what = "theta" if alphas is None else f"theta_{alpha}"
            size = np.abs(np.ravel(z).imag)
            worst = complex(np.ravel(z)[np.argmax(np.where(np.isnan(size),
                                                           np.inf, size))])
            raise ThetaRangeError(
                f"{what} at z = {worst} is out of double range: the value "
                f"may reach exp({log_size:.0f}), beyond the limit "
                f"exp({LOG_LIMIT:.0f}) (|Im z| / Im tau too large, or z not "
                "finite)")


def _series_terms(z0, tau, bound, order):
    """Terms of the basic series at reduced points and their weights.

    The term-wise derivatives j = 0..order, each divided by j!, are the
    columns of a (terms x order+1) weight matrix.
    """
    m = np.arange(-bound, bound + 2)
    # exponent m(m-1)/2 is an exact integer; identical for the pair (m, 1-m)
    quad = (m * (m - 1)) // 2
    terms = np.exp(TWO_PI_I * (np.multiply.outer(z0, m) + tau * quad))
    signs = np.where(m % 2 == 0, 1.0, -1.0)
    weights = np.stack([signs * (TWO_PI_I * m) ** j / math.factorial(j)
                        for j in range(order + 1)], axis=-1)
    return terms, weights


def _series(z0, tau, bound, order):
    """Jet of the basic series at reduced points, from one matmul."""
    terms, weights = _series_terms(z0, tau, bound, order)
    return np.moveaxis(terms @ weights, -1, 0)


def _exp_jet(value, rate, order):
    """Jet of value * exp(rate * h) in h at h = 0."""
    jet = [value]
    for j in range(1, order + 1):
        jet.append(jet[-1] * rate / j)
    return np.stack(jet)


def _jet_mul(a, b):
    """Truncated Taylor product: the jet of f*g from the jets of f and g."""
    return np.stack([sum(a[i] * b[k - i] for i in range(k + 1))
                     for k in range(len(a))])


def _theta_jet(z, tau, bound, order):
    """Jet of theta at z: the reduced series times the multiplier's jet."""
    z0, b = _reduce_to_cell(z, tau)
    # theta(z0 + b*tau) = (-1)^b exp(-2 pi i (b z0 + tau b(b-1)/2)) theta(z0)
    g = np.where(b % 2 == 0, 1.0, -1.0) * np.exp(
        -TWO_PI_I * (b * z0 + tau * b * (b - 1) / 2.0))
    return _jet_mul(_exp_jet(g, -TWO_PI_I * b, order),
                    _series(z0, tau, bound, order))


def theta_eval(params: CurveParams | complex, z, *, eps: float = 1e-12,
               series_bound: int | None = None, order: int = 0):
    """Evaluate theta (or its order-th z-derivative) at z.

    ``params`` may be a :class:`CurveParams` or a bare lattice parameter tau.
    z is reduced into the fundamental cell first, so the truncation bound is
    sound for arbitrary arguments; values and derivatives are restored
    through the jet of the exact quasi-periodicity multiplier.
    """
    tau = params.tau if isinstance(params, CurveParams) else complex(params)
    if tau.imag <= 0:
        raise ValueError("Im(tau) must be positive")
    bound = series_bound if series_bound is not None else series_bound_for(tau, eps)
    z = np.asarray(z, dtype=complex)
    _check_range(z, tau.imag)
    if order not in (0, 1, 2):
        raise ValueError("derivative order must be 0, 1 or 2")
    out = math.factorial(order) * _theta_jet(z, tau, bound, order)[order]
    return complex(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class ThetaSection:
    """Coordinates of a holomorphic section in the basis (theta_alpha)."""

    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=complex))
        if self.coeffs.ndim != 1:
            raise ValueError("coefficient vector must be one-dimensional")


@dataclass(frozen=True)
class ThetaBasis:
    """Precomputed data for the basis theta_0, ..., theta_{n-1}.

    ``theta_at_zero`` and ``dtheta_at_zero`` hold theta_alpha(0) and
    theta_alpha'(0); theta_0(0) is an exact zero (the series terms cancel in
    pairs), so it is stored as 0.
    """

    params: CurveParams
    truncation_eps: float = 1e-12
    series_bound: int = field(init=False)
    theta_at_zero: np.ndarray = field(init=False)
    dtheta_at_zero: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.truncation_eps <= 0:
            raise ValueError("truncation_eps must be positive")
        bound = series_bound_for(self.params.tau, self.truncation_eps)
        object.__setattr__(self, "series_bound", bound)
        vals, ders = theta_alpha_jet(self, np.arange(self.n), 0.0, 1)
        vals[0] = 0.0
        object.__setattr__(self, "theta_at_zero", vals)
        object.__setattr__(self, "dtheta_at_zero", ders)
        self._check_tables()

    def _check_tables(self):
        """Refuse a basis whose values at 0 are lost in rounding.

        theta_0'(0) and theta_alpha(0), alpha != 0, are nonzero for every
        tau; only a small Im(tau) makes them numerically zero.  The a priori
        bound of ``_rounding_bound`` is tested first, because the relative
        tests below can pass on noise (n = 2, tau = 1e-6 i).  Each value
        at 0 is then compared without its exponential factor E_alpha,
        |E_alpha(0)| = exp(pi alpha (n - alpha) Im(tau) / n), which at large
        n spreads the raw values over many orders of magnitude.
        """
        n = self.params.n
        rounding = self._rounding_bound()
        if not rounding <= ROUNDING_LIMIT:
            raise DegenerateTauError(
                f"Im tau = {self.params.tau.imag:g} is out of numerical range "
                f"at n = {n}: rounding in the theta series may reach "
                f"{rounding:.1e} of a basis value at 0, beyond "
                f"{ROUNDING_LIMIT:g}")
        alpha = np.arange(n)
        size = np.exp(np.pi * alpha * (n - alpha) * self.params.tau.imag / n)
        vals = np.abs(self.theta_at_zero) / size
        ders = np.abs(self.dtheta_at_zero) / size
        scale = float(np.max(ders))
        d0 = theta_alpha_deriv(self, 0, np.arange(n) / n, 1)
        for lost, what in (
                (ders[0] < 1e-10 * max(scale, 1.0),
                 "theta_0'(0) is below 1e-10 of the largest theta_alpha'(0)"),
                (np.min(vals[1:]) < 1e-10 * scale,
                 "theta_alpha(0) is below 1e-10 of the largest "
                 "theta_alpha'(0) for some alpha != 0"),
                (np.max(np.abs(d0 - self.dtheta_at_zero[0])) > 1e-8 * scale,
                 "theta_0'(k/n) differs from theta_0'(0)")):
            if lost:
                raise DegenerateTauError(
                    f"Im tau = {self.params.tau.imag:g} is out of numerical "
                    f"range at n = {n}: {what}, each taken without its "
                    "exponential factor")

    def _rounding_bound(self) -> float:
        """A priori relative rounding error of the values at 0.

        A series sum carries a rounding error of about 2^-53 sum|terms|,
        so each factor theta(m/n + alpha*tau/n) of theta_alpha(0) has
        relative error 2^-53 sum|terms| / |value|, and the product the sum
        of its factors' errors.  The zero factor of theta_0 enters through
        its derivative, as in theta_0'(0).  Returns the largest over alpha;
        the factors are summed in chunks of at most 2^16 terms.
        """
        n, tau, bound = self.n, self.params.tau, self.series_bound
        # row alpha holds the n factors of theta_alpha
        points = np.arange(n) / n + np.arange(n)[:, None] * tau / n
        z0, _ = _reduce_to_cell(points.ravel(), tau)
        order = (np.arange(n * n) == 0).astype(int)
        ratio = np.empty(n * n)
        step = max(1, _CHUNK_TERMS // (2 * bound + 2))
        for i in range(0, n * n, step):
            terms, weights = _series_terms(z0[i:i + step], tau, bound, 1)
            pick = (np.arange(len(terms)), order[i:i + step])
            size = (np.abs(terms) @ np.abs(weights))[pick]
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio[i:i + step] = size / np.abs((terms @ weights)[pick])
        return 2.0 ** -53 * float(np.max(ratio.reshape(n, n).sum(axis=1)))

    @property
    def n(self) -> int:
        return self.params.n

    @property
    def omega(self) -> complex:
        return self.params.omega

    def theta(self, z, order: int = 0):
        return theta_eval(self.params, z, series_bound=self.series_bound, order=order)

    def ratio_dtheta(self, alpha: int) -> complex:
        """theta_alpha'(0) / theta_alpha(0) for alpha != 0 mod n."""
        alpha %= self.n
        if alpha == 0:
            raise ValueError("theta_0(0) = 0; the logarithmic value is undefined")
        return self.dtheta_at_zero[alpha] / self.theta_at_zero[alpha]


def theta_alpha_jet(basis: ThetaBasis, alpha: int | np.ndarray, z,
                    order: int):
    """Jet of the defining product of theta_alpha at integer indices alpha.

    ``alpha`` is an integer or a 1-D integer array; an array appends a
    trailing axis with one entry per index, so one call evaluates the whole
    basis.  Entry j of the leading axis holds the j-th derivative divided
    by j!, so one order-1 call yields values and first derivatives
    together.  The factors theta(z + m/n + alpha*tau/n) of every alpha are
    evaluated in one call on two trailing axes (alpha, m) and multiplied
    along m, with the jet of the exponential factor, by the truncated
    Taylor product, which needs no division and so stays exact at the
    zeros of single factors.  The points are taken in chunks so that no
    series matmul holds more than 2^16 terms.
    """
    n = basis.n
    tau = basis.params.tau
    bound = basis.series_bound
    z = np.asarray(z, dtype=complex)
    index = np.asarray(alpha)
    if index.ndim > 1 or index.dtype.kind not in "iu":
        raise ValueError("alpha must be an integer or a 1-D integer array")
    a = np.atleast_1d(index)
    _check_range(z, tau.imag, n, a.tolist())
    # offsets[i, m]: the shift of factor m of theta_{a[i]}
    offsets = np.arange(n) / n + a[:, None] * tau / n
    flat = z.ravel()
    prod = np.empty((order + 1, flat.size, a.size), dtype=complex)
    step = max(1, _CHUNK_TERMS // (offsets.size * (2 * bound + 2)))
    for i in range(0, flat.size, step):
        factors = _theta_jet(flat[i:i + step, None, None] + offsets, tau,
                             bound, order)
        jet = factors[..., 0]
        for m in range(1, n):
            jet = _jet_mul(jet, factors[..., m])
        prod[:, i:i + step] = jet
    ex = np.exp(TWO_PI_I * (np.multiply.outer(z, a)
                            + a * (a - n) * tau / (2.0 * n) + a / (2.0 * n)))
    out = _jet_mul(_exp_jet(ex, TWO_PI_I * a, order),
                   prod.reshape((order + 1,) + z.shape + (a.size,)))
    return out if index.ndim else out[..., 0]


def theta_alpha_raw(basis: ThetaBasis, alpha: int | np.ndarray, z):
    """The defining product formula at unreduced integer indices.

    Exactly n-periodic in alpha; ``theta_alpha_eval`` evaluates it on the
    stored representatives in [0, n).  An array alpha appends a trailing
    axis, as in ``theta_alpha_jet``.
    """
    return theta_alpha_jet(basis, alpha, z, 0)[0]


def theta_alpha_eval(basis: ThetaBasis, alpha: int | np.ndarray, z):
    """theta_alpha(z) for the representative of alpha in [0, n); an integer
    array alpha appends a trailing axis."""
    out = theta_alpha_raw(basis, np.mod(alpha, basis.n), z)
    return complex(out) if out.ndim == 0 else out


def theta_alpha_deriv(basis: ThetaBasis, alpha: int | np.ndarray, z,
                      order: int = 1):
    """order-th derivative of theta_alpha, read off the product's jet.

    The jet is exact term-wise differentiation; finite differences are
    never used here.  An integer array alpha appends a trailing axis.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    jet = theta_alpha_jet(basis, np.mod(alpha, basis.n), z, order)
    out = math.factorial(order) * jet[order]
    return complex(out) if out.ndim == 0 else out


def zeta_multiplier(basis: ThetaBasis, z):
    """The G_m-multiplier zeta(z) entering the tau/n-shift operator.

    zeta(z) = -exp(-2*pi*i*(z - b)) with b = (n-1)*tau/(2n) + c/n, c = (n-1)/2.
    b is fixed only modulo (1/n)Z; this representative makes the shift act as
    the exact index shift alpha -> alpha + 1 on the basis.
    """
    n = basis.n
    tau = basis.params.tau
    b = (n - 1) * tau / (2.0 * n) + (n - 1) / (2.0 * n)
    return -np.exp(-TWO_PI_I * (np.asarray(z, dtype=complex) - b))


def heisenberg_act(basis: ThetaBasis, generator: str,
                   section: ThetaSection) -> ThetaSection:
    """Action of the two Heisenberg generators on basis coordinates.

    T_{1/n} scales coefficient alpha by omega^alpha; T_{tau/n} shifts the
    index cyclically.  The commutation T_{1/n} T_{tau/n} = omega T_{tau/n}
    T_{1/n} holds exactly on coefficient vectors.
    """
    n = basis.n
    if len(section.coeffs) != n:
        raise ValueError("section has wrong number of coefficients")
    if generator == T_ONE_OVER_N:
        return ThetaSection(section.coeffs * basis.omega ** np.arange(n))
    if generator == T_TAU_OVER_N:
        return ThetaSection(np.roll(section.coeffs, 1))
    raise ValueError(f"unknown generator {generator!r}")


def section_eval(basis: ThetaBasis, section: ThetaSection, z):
    vals = sum(c * theta_alpha_eval(basis, a, z)
               for a, c in enumerate(section.coeffs) if c != 0)
    if isinstance(vals, int):  # all coefficients zero
        vals = np.zeros(np.asarray(z).shape, dtype=complex) if np.ndim(z) else 0j
    return vals


def _sample_grid(tau: complex, count: int):
    """Deterministic low-discrepancy points in the fundamental cell."""
    k = np.arange(count)
    u = (0.5 + k * (math.sqrt(5.0) - 1.0) / 2.0) % 1.0
    v = (0.25 + k * (math.sqrt(2.0) - 1.0)) % 1.0
    return u + v * tau


def verify_automorphy(basis: ThetaBasis, c, f, *, weight: int | None = None,
                      samples: int = 60) -> float:
    """Largest normalized automorphy residual of f for the character c.

    Checks f(z+1) = f(z) and f(z+tau) = (-1)^w exp(-2*pi*i*(w*z - c)) f(z)
    on a deterministic sample grid, normalized by max |f|.  ``weight``
    defaults to the basis order n; pass 1 to test the basic theta function.
    """
    tau = basis.params.tau
    w = basis.n if weight is None else weight
    z = _sample_grid(tau, samples)
    fz = np.asarray(f(z), dtype=complex)
    f1 = np.asarray(f(z + 1.0), dtype=complex)
    ft = np.asarray(f(z + tau), dtype=complex)
    if not (np.all(np.isfinite(fz)) and np.all(np.isfinite(f1))
            and np.all(np.isfinite(ft))):
        raise ValueError("non-finite sample while checking automorphy")
    mult = (-1.0) ** w * np.exp(-TWO_PI_I * (w * z - complex(c)))
    scale = max(float(np.max(np.abs(fz))), float(np.max(np.abs(f1))),
                float(np.max(np.abs(ft))))
    if scale == 0.0:
        return 0.0
    r1 = float(np.max(np.abs(f1 - fz)))
    r2 = float(np.max(np.abs(ft - mult * fz)))
    return max(r1, r2) / scale
