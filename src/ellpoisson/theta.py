"""Theta functions on C/(Z + Z*tau) and the order-n section basis.

The building block is the entire function

    theta(z) = sum_m (-1)^m exp(2*pi*i*(m*z + m*(m-1)*tau/2)),

a section of the degree-1 line bundle (simple zero on the lattice).  The
degree-n basis indexed by ``alpha`` in Z/n is the product

    theta_alpha(z) = prod_{m=0}^{n-1} theta(z + m/n + alpha*tau/n)
          * exp(2*pi*i*(alpha*z + alpha*(alpha-n)*tau/(2n) + alpha/(2n)))

which diagonalises the shift-by-1/n operator and is exactly n-periodic in
the index.  Evaluators accept scalars or
numpy arrays of points and are pure functions of their arguments; a
constructed :class:`ThetaBasis` is immutable.  A point where the value may
leave double-precision range (large |Im z| / Im tau) raises
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
    z = np.asarray(z, dtype=complex)
    b = np.floor(z.imag / tau.imag)
    z1 = z - b * tau
    a = np.floor(z1.real)
    return z1 - a, b


def _check_range(what, z, height, factors=1, alpha=0):
    """Raise ThetaRangeError unless every partial product of theta_alpha(z)
    (``factors`` theta factors; theta itself for factors=1, alpha=0) stays
    in double range; ``height`` is Im(tau) and z an array.

    The factors sit at z + m/n + alpha*tau/n and share one reduced lattice
    index b = floor(Im z / Im tau + alpha/n) per point, so their product is
    at most exp(n pi Im(tau) |b|(|b|+1)) times the size of the exponential
    factor of theta_alpha.  b is monotone in Im z, so the two extreme points
    bound it; non-finite points fail.
    """
    if not z.size:
        return
    low, high = float(z.imag.min()), float(z.imag.max())
    log_size = math.inf
    if math.isfinite(low) and math.isfinite(high):
        offset = (alpha * height) / factors
        top = max(abs(math.floor((low + offset) / height)),
                  abs(math.floor((high + offset) / height)))
        log_size = (factors * math.pi * height * top * (top + 1.0)
                    + max(0.0, -2.0 * math.pi * alpha * low,
                          -2.0 * math.pi * alpha * high)
                    + math.pi * alpha * (factors - alpha) * height / factors)
    if not log_size <= LOG_LIMIT:
        size = np.abs(np.ravel(z).imag)
        worst = complex(np.ravel(z)[np.argmax(np.where(np.isnan(size),
                                                       np.inf, size))])
        raise ThetaRangeError(
            f"{what} at z = {worst} is out of double range: the value may "
            f"reach exp({log_size:.0f}), beyond the limit exp({LOG_LIMIT:.0f})"
            " (|Im z| / Im tau too large, or z not finite)")


def _series(z0, tau, bound, order):
    """order-th term-wise derivative of the basic series at reduced points."""
    z0 = np.asarray(z0, dtype=complex)
    m = np.arange(-bound, bound + 2)
    # exponent m(m-1)/2 is an exact integer; identical for the pair (m, 1-m)
    quad = (m * (m - 1)) // 2
    terms = np.exp(TWO_PI_I * (np.multiply.outer(z0, m) + tau * quad))
    signs = np.where(m % 2 == 0, 1.0, -1.0)
    if order:
        signs = signs * (TWO_PI_I * m) ** order
    return terms @ signs


def theta_eval(params: CurveParams | complex, z, *, eps: float = 1e-12,
               series_bound: int | None = None, order: int = 0):
    """Evaluate theta (or its order-th z-derivative) at z.

    ``params`` may be a :class:`CurveParams` or a bare lattice parameter tau.
    z is reduced into the fundamental cell first, so the truncation bound is
    sound for arbitrary arguments; values are restored through the exact
    quasi-periodicity multiplier.
    """
    tau = params.tau if isinstance(params, CurveParams) else complex(params)
    if tau.imag <= 0:
        raise ValueError("Im(tau) must be positive")
    bound = series_bound if series_bound is not None else series_bound_for(tau, eps)
    z = np.asarray(z, dtype=complex)
    _check_range("theta", z, tau.imag)
    out = _theta_reduced(*_reduce_to_cell(z, tau), tau, bound, order)
    return complex(out) if z.ndim == 0 else out


def _theta_reduced(z0, b, tau, bound, order):
    """theta or its order-th derivative at z0 + b*tau, z0 in the cell."""
    # theta(z0 + b*tau) = (-1)^b exp(-2 pi i (b z0 + tau b(b-1)/2)) theta(z0)
    g = np.where(b % 2 == 0, 1.0, -1.0) * np.exp(
        -TWO_PI_I * (b * z0 + tau * b * (b - 1) / 2.0))
    if order == 0:
        out = g * _series(z0, tau, bound, 0)
    elif order == 1:
        s0 = _series(z0, tau, bound, 0)
        s1 = _series(z0, tau, bound, 1)
        out = g * (s1 - TWO_PI_I * b * s0)
    elif order == 2:
        s0 = _series(z0, tau, bound, 0)
        s1 = _series(z0, tau, bound, 1)
        s2 = _series(z0, tau, bound, 2)
        c = -TWO_PI_I * b
        out = g * (s2 + 2.0 * c * s1 + c * c * s0)
    else:
        raise ValueError("derivative order must be 0, 1 or 2")
    return out


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
        n = self.params.n
        vals = np.array([theta_alpha_eval(self, a, 0.0) for a in range(n)])
        vals[0] = 0.0
        ders = np.array([theta_alpha_deriv(self, a, 0.0, 1) for a in range(n)])
        object.__setattr__(self, "theta_at_zero", vals)
        object.__setattr__(self, "dtheta_at_zero", ders)
        self._check_tables()

    def _check_tables(self):
        n = self.params.n
        scale = float(np.max(np.abs(self.dtheta_at_zero)))
        if abs(self.dtheta_at_zero[0]) < 1e-10 * max(scale, 1.0):
            raise DegenerateTauError("theta_0'(0) vanished")
        if float(np.min(np.abs(self.theta_at_zero[1:]))) < 1e-10 * scale:
            raise DegenerateTauError("theta_alpha(0) vanished for some alpha != 0")
        d0 = np.array([theta_alpha_deriv(self, 0, k / n, 1) for k in range(n)])
        if np.max(np.abs(d0 - self.dtheta_at_zero[0])) > 1e-8 * scale:
            raise DegenerateTauError("theta_0'(k/n) differs from theta_0'(0)")

    @property
    def n(self) -> int:
        return self.params.n

    @property
    def omega(self) -> complex:
        return self.params.omega

    def theta(self, z, order: int = 0):
        return theta_eval(self.params, z, series_bound=self.series_bound, order=order)

    def _factor(self, z, order: int = 0):
        """``theta`` without its range check, for the theta_alpha
        evaluators, which check all their factors at once."""
        tau = self.params.tau
        return _theta_reduced(*_reduce_to_cell(z, tau), tau,
                              self.series_bound, order)

    def ratio_dtheta(self, alpha: int) -> complex:
        """theta_alpha'(0) / theta_alpha(0) for alpha != 0 mod n."""
        alpha %= self.n
        if alpha == 0:
            raise ValueError("theta_0(0) = 0; the logarithmic value is undefined")
        return self.dtheta_at_zero[alpha] / self.theta_at_zero[alpha]


def _alpha_offsets(basis: ThetaBasis, alpha: int):
    n = basis.n
    tau = basis.params.tau
    return [m / n + alpha * tau / n for m in range(n)]


def _alpha_exponent(basis: ThetaBasis, alpha: int, z):
    n = basis.n
    tau = basis.params.tau
    return np.exp(TWO_PI_I * (alpha * np.asarray(z, dtype=complex)
                              + alpha * (alpha - n) * tau / (2.0 * n)
                              + alpha / (2.0 * n)))


def theta_alpha_raw(basis: ThetaBasis, alpha: int, z):
    """The defining product formula at an unreduced integer index.

    Exactly n-periodic in alpha; ``theta_alpha_eval`` evaluates it on the
    stored representative in [0, n).
    """
    z = np.asarray(z, dtype=complex)
    _check_range(f"theta_{alpha}", z, basis.params.tau.imag, basis.n, alpha)
    prod = np.ones_like(z)
    for s in _alpha_offsets(basis, alpha):
        prod = prod * basis._factor(z + s)
    return _alpha_exponent(basis, alpha, z) * prod


def theta_alpha_eval(basis: ThetaBasis, alpha: int, z):
    """theta_alpha(z) for the representative of alpha in [0, n)."""
    alpha %= basis.n
    z = np.asarray(z, dtype=complex)
    scalar = z.ndim == 0
    out = theta_alpha_raw(basis, alpha, z)
    return complex(out) if scalar else out


def theta_alpha_deriv(basis: ThetaBasis, alpha: int, z, order: int = 1):
    """Derivative of theta_alpha by term-wise differentiation of the product.

    Uses the explicit product rule (prefix/suffix partial products), which
    stays valid at the zeros of individual factors; finite differences are
    never used here.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    alpha %= basis.n
    z = np.asarray(z, dtype=complex)
    scalar = z.ndim == 0
    _check_range(f"theta_{alpha}", z, basis.params.tau.imag, basis.n, alpha)
    offsets = _alpha_offsets(basis, alpha)
    n = len(offsets)
    f = [basis._factor(z + s) for s in offsets]
    f1 = [basis._factor(z + s, order=1) for s in offsets]
    shape = np.broadcast(z, f[0]).shape
    pre = [np.ones(shape, dtype=complex)]
    for k in range(n):
        pre.append(pre[-1] * f[k])
    suf = [np.ones(shape, dtype=complex)]
    for k in range(n - 1, -1, -1):
        suf.append(suf[-1] * f[k])
    suf = suf[::-1]  # suf[k] = product of f[k:]
    p0 = pre[n]
    p1 = sum(pre[k] * f1[k] * suf[k + 1] for k in range(n))
    a = TWO_PI_I * alpha
    ex = _alpha_exponent(basis, alpha, z)
    if order == 1:
        out = ex * (a * p0 + p1)
    else:
        f2 = [basis._factor(z + s, order=2) for s in offsets]
        p2 = sum(pre[k] * f2[k] * suf[k + 1] for k in range(n))
        # pair terms f'_k f'_l * (product of the other factors)
        pair = np.zeros(shape, dtype=complex)
        for k in range(n):
            for l in range(k + 1, n):
                rest = pre[k] * suf[l + 1]
                for m in range(k + 1, l):
                    rest = rest * f[m]
                pair = pair + f1[k] * f1[l] * rest
        p2 = p2 + 2.0 * pair
        out = ex * (a * a * p0 + 2.0 * a * p1 + p2)
    return complex(out) if scalar else out


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
