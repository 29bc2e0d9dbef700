"""Theta functions on C/(Z + Z*tau) and the order-n section basis.

The building block is the entire function

    theta(z) = sum_m (-1)^m exp(2*pi*i*(m*z + m*(m-1)*tau/2)),

a section of the degree-1 line bundle (simple zero on the lattice).  The
degree-n basis indexed by ``alpha`` in Z/n is one series at n*tau,

    theta_alpha(z) = theta(n*z + alpha*tau; n*tau) * E_alpha(z),
    E_alpha(z) = exp(2*pi*i*(alpha*z + alpha*(alpha-n)*tau/(2n) + alpha/(2n))),

which diagonalises the shift-by-1/n operator and is exactly n-periodic in
the index.  By the Jacobi triple product theta(z) = (Q;Q) (x;Q) (Q/x;Q),
x = exp(2*pi*i*z), Q = exp(2*pi*i*tau), it is the product
prod_{m=0}^{n-1} theta(z + m/n + alpha*tau/n) * E_alpha(z) divided by
C = (Q;Q)^n / (Q^n;Q^n), one constant for every alpha.  So the basis is
defined up to that common factor, and C is never evaluated: no quantity
read from the basis (the phi ratios, the F table, the bracket, the shift
checks) changes when every basis value is multiplied by one constant.

Values and derivatives are read off one object, the truncated Taylor jet
(f, f', f''/2, ...) on a leading array axis, which ``theta_alpha_jet``
returns whole: the series yields it from one matmul, and the
quasi-periodicity multiplier and the exponential factor are combined with it
by truncated Taylor products, ``_jet_mul``.  The index alpha may be an
integer or a 1-D integer array; an array puts theta_alpha for every listed
alpha on a trailing axis, so the whole basis on a point grid is one series
evaluation on a grid of (point, alpha) pairs, one row per point.
One kernel computes every basis value: ``_series_sums`` reduces the points
and sums the series, as many whole rows per call as ``_rows_per_call``
allows and each row by its own matmul; ``_basis_jet`` applies the
multiplier, n^j and E_alpha, each Taylor product written into one
preallocated jet.  What depends on the truncation and the jet order alone,
the exponents m, m(m-1)/2 and the weight matrix, is built once per
(bound, order) and shared read-only (``_series_table``); nothing is keyed
by a lattice or a basis, so any object with ``n``, ``params`` and
``series_bound`` evaluates.  A :class:`ThetaBasis` runs it once, on two
rows of n pairs (0 for every alpha, the divisor k/n for alpha = 0), for
its constants at 0; every other value, the residue circle of ``cech``
among them, is read off ``theta_alpha_jet``.
Evaluators accept scalars or numpy arrays of points and are pure functions
of their arguments; a constructed :class:`ThetaBasis` is immutable.  A point
where the value may leave double-precision range (large |Im z| / Im tau)
raises :class:`ThetaRangeError` before anything is evaluated.  Every disc
is sampled on the ``CIRCLE_POINTS`` trapezoid nodes of ``circle_nodes`` at
a quarter of its pole distance, which ``shortest_period`` gives.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateTauError, ThetaRangeError, UsageError

TWO_PI_I = 2j * math.pi
# exp() overflows above exp(709.78); the rest is headroom for the series sums
# and the derivative factors.
LOG_LIMIT = 650.0

# largest a priori relative rounding error of a basis value at 0; from about
# here on the basis checks at their tolerance 1e-8 fail from rounding in the
# series alone
ROUNDING_LIMIT = 1e-8

# the series is truncated where its omitted terms fall below a tenth of this
TRUNCATION_EPS = 1e-12

AUTOMORPHY_SAMPLES = 60

# trapezoid nodes on every circle; at radius d/4, a quarter of the distance
# to the nearest other singularity, the rule's aliasing error falls like
# 4^-P (Trefethen & Weideman, SIAM Rev. 56, 2014), whatever tau and n are:
# 4^-32 is about 5e-20
CIRCLE_POINTS = 32

# largest series truncation M a basis is built with; a lattice that needs
# more is refused before any series is summed.  Over n = 2..13 and 31, 41
# values of Re tau in [0, 1] and 50 of Im tau in [1e-8, 0.05], the rounding
# bound accepts no basis with M above 565 (n = 3, tau = 0.025 + 1e-5 i);
# n = 2, Im tau = 1e-6 (M = 2183) is still refused by that bound
MAX_SERIES_TERMS = 4096

# largest number of series terms one call forms, unless one grid row alone
# holds more: a grid is summed in chunks of whole rows, which keeps the
# working memory flat: the theta command's 400 points at n = 11 take four
# chunks, whose arrays stay as small as those of four separate 100-point
# calls.  The pass of a basis at Im tau >= 0.5 and n <= 31 fits one chunk
# (6324 terms at n = 31)
_CHUNK_TERMS = 2 ** 13


@dataclass(frozen=True)
class CurveParams:
    """Lattice parameter, basis order and the derived root of unity.

    Re(tau) is stored modulo 2n by the exact ``math.fmod``: no basis value
    changes, theta_alpha(z; tau + 2n) = theta_alpha(z; tau), and
    |Re(tau)| < 2n is kept bit for bit.  A non-finite tau, Im(tau) <= 0
    or n < 2 raises :class:`UsageError`.
    """

    tau: complex
    n: int

    def __post_init__(self):
        if not (math.isfinite(self.tau.real) and math.isfinite(self.tau.imag)):
            raise UsageError("tau must be finite")
        if self.tau.imag <= 0:
            raise UsageError("Im(tau) must be positive")
        if self.n < 2:
            raise UsageError("order n must be at least 2")
        object.__setattr__(self, "tau", complex(
            math.fmod(self.tau.real, 2 * self.n), self.tau.imag))

    @property
    def omega(self) -> complex:
        return np.exp(TWO_PI_I / self.n)


def series_bound_for(tau: complex, eps: float):
    """Smallest M >= 2 with |q|^(M(M-1)/2) < eps/10, q = exp(2*pi*i*tau).

    The condition reads M(M-1)/2 > log(eps/10) / log|q|; the root of the
    quadratic places M within one, and the comparison itself settles it.
    Past 2^53 the rounded-up root is returned, and math.inf past double
    range, where no integer M is worth counting to.
    """
    log_q = -2.0 * math.pi * tau.imag  # log|q| < 0
    target = math.log(eps / 10.0)
    root = 0.5 + math.sqrt(0.25 + 2.0 * target / log_q)
    if not root < 2.0 ** 53:
        return math.ceil(root) if math.isfinite(root) else math.inf
    m = max(2, math.floor(root) - 1)
    while log_q * (m * (m - 1) / 2.0) >= target:
        m += 1
    return m


def shortest_period(n: int, tau: complex) -> float:
    """Length of the shortest nonzero vector of the lattice (1/n)Z + Z*tau,
    by Lagrange-Gauss reduction; n = 1 gives the periods Z + Z*tau."""
    u, v = complex(1.0 / n), complex(tau)
    if abs(u) > abs(v):
        u, v = v, u
    while True:
        v -= round((v / u).real) * u
        if abs(v) >= abs(u):
            return abs(u)
        u, v = v, u


def circle_nodes(d: float) -> np.ndarray:
    """The trapezoid nodes (d/4) exp(2 pi i p / P), P = ``CIRCLE_POINTS``,
    around a point whose nearest other singularity is at distance d."""
    return d / 4 * np.exp(TWO_PI_I * np.arange(CIRCLE_POINTS) / CIRCLE_POINTS)


def _reduce_to_cell(z, tau):
    """Split z = z0 + a + b*tau with z0 in the fundamental cell.

    Returns (z0, b); the period-1 part needs no multiplier.
    """
    b = np.floor(z.imag / tau.imag)
    z1 = z - b * tau
    a = np.floor(z1.real)
    return z1 - a, b


def _check_range(z, height, n, alphas):
    """Raise ThetaRangeError unless theta_alpha(z) stays in double range for
    each alpha in ``alphas``; ``height`` is Im(tau), n the order and z an
    array.

    theta_alpha sums one series at w = n z + alpha tau on Z + Z n tau.  Its
    reduction uses the lattice index b = floor(Im z / Im tau + alpha/n), the
    index the n factors theta(z + m/n + alpha tau/n) of the defining product
    share, so the series' multiplier is at most exp(n pi Im(tau) |b|(|b|+1))
    as their product is, times the size of the exponential factor E_alpha.
    b is monotone in Im z, so the two extreme points bound it; non-finite
    points fail.  The message names the first failing alpha and the
    extreme point whose |b| gives the bound, or the point of largest
    |Im z| where both give it or a point is not finite.
    """
    if not z.size:
        return
    low, high = float(z.imag.min()), float(z.imag.max())
    finite = math.isfinite(low) and math.isfinite(high)
    for alpha in alphas:
        log_size = math.inf
        if finite:
            offset = (alpha * height) / n
            b_low = abs(math.floor((low + offset) / height))
            b_high = abs(math.floor((high + offset) / height))
            top = max(b_low, b_high)
            log_size = (n * math.pi * height * top * (top + 1.0)
                        + max(0.0, -2.0 * math.pi * alpha * low,
                              -2.0 * math.pi * alpha * high)
                        + math.pi * alpha * (n - alpha) * height / n)
        if not log_size <= LOG_LIMIT:
            flat = np.ravel(z)
            size = np.abs(flat.imag)
            if finite and b_low != b_high:
                size = -flat.imag if b_low > b_high else flat.imag
            worst = complex(flat[np.argmax(np.where(np.isnan(size),
                                                    np.inf, size))])
            shown = f"{log_size:.0f}" if log_size < 1e15 else f"{log_size:.3g}"
            raise ThetaRangeError(
                f"theta_{alpha} at z = {worst} is out of double range: the "
                f"value may reach exp({shown}), beyond the limit "
                f"exp({LOG_LIMIT:.0f}) (|Im z| / Im tau too large, or z not "
                "finite)")


@functools.lru_cache(maxsize=16)
def _series_table(bound, order):
    """The exponents m = -bound..bound+1 of the truncated series, the exact
    integers m(m-1)/2, and the (terms x order+1) weight matrix whose column
    j holds the term-wise derivative factor (-1)^m (2 pi i m)^j / j!.

    They depend on the truncation and the jet order alone, so each
    (bound, order) builds them once and every basis that truncates there
    shares them; they are read-only.  An entry holds 16 (order + 2) bytes
    a term: 384 bytes at order 2 for n = 63, tau = i (bound 2), and 0.5 MB
    at ``MAX_SERIES_TERMS``, so the 16 kept entries stay below 8.4 MB.
    """
    m = np.arange(-bound, bound + 2)
    # exponent m(m-1)/2 is an exact integer; identical for the pair (m, 1-m)
    quad = (m * (m - 1)) // 2
    signs = np.where(m % 2 == 0, 1.0, -1.0)
    weights = np.stack([signs * (TWO_PI_I * m) ** j / math.factorial(j)
                        for j in range(order + 1)], axis=-1)
    for table in (m, quad, weights):
        table.setflags(write=False)
    return m, quad, weights


def _series_terms(z0, tau, bound, order):
    """Terms of the basic series at reduced points and their weights.

    The term-wise derivatives j = 0..order, each divided by j!, are the
    columns of a (terms x order+1) weight matrix, shared by every call with
    the same (bound, order) (:func:`_series_table`).
    """
    m, quad, weights = _series_table(bound, order)
    # exp(2 pi i (m z0 + tau m(m-1)/2)), formed in place: the terms are the
    # largest array of a chunk, and one copy of them bounds its memory
    terms = np.multiply.outer(z0, m)
    terms += tau * quad
    np.multiply(TWO_PI_I, terms, out=terms)
    np.exp(terms, out=terms)
    return terms, weights


def _rows_per_call(cols, bound):
    """Rows of ``cols`` series each that one ``_series_terms`` call takes:
    as many whole rows as fit in ``_CHUNK_TERMS`` terms, at least one."""
    return max(1, _CHUNK_TERMS // (cols * (2 * bound + 2)))


def _series_sums(w, cols, tau, bound, order):
    """Sums of the basic series at tau at the points w, the first half of
    the kernel every basis value goes through.

    w holds one grid row by row, ``cols`` points a row; a basis grid holds
    n z + alpha tau, one (point, alpha) pair per entry.  Each point is
    reduced, w = z0 + a + b*tau.  Each ``_series_terms`` call takes the
    whole rows ``_rows_per_call`` allows, and each row is summed by its own
    matmul, so no sum depends on the calls.  Returns z0 and b in the shape
    of w, the sums with the jet on an appended trailing axis, and the sums
    of the absolute terms over row 0.
    """
    z0, b = _reduce_to_cell(w, tau)
    rows = z0.reshape(-1, cols)
    sums = np.empty(rows.shape + (order + 1,), dtype=complex)
    step = _rows_per_call(cols, bound)
    for i in range(0, len(rows), step):
        terms, weights = _series_terms(rows[i:i + step], tau, bound, order)
        np.matmul(terms, weights, out=sums[i:i + step])
        if i == 0:
            size = np.abs(terms[0]) @ np.abs(weights)
    return z0, b, sums.reshape(w.shape + (order + 1,)), size


def _exp_jet(value, rate, order):
    """Jet of value * exp(rate * h) in h at h = 0."""
    jet = np.empty((order + 1,) + value.shape, dtype=complex)
    jet[0] = value
    for j in range(1, order + 1):
        np.multiply(jet[j - 1], rate, out=jet[j])
        jet[j] /= j
    return jet


def _jet_mul(a, b, out=None):
    """Truncated Taylor product: the jet of f*g from the jets a and b of f
    and g, of one shape, in ``out`` if given.  Entry k is summed from 0 as
    Python's ``sum`` would, 0 + a[0] b[k] + a[1] b[k-1] + ..., so that an
    entry -0.0 comes out as +0.0."""
    if out is None:
        out = np.zeros(b.shape, dtype=complex)
    else:
        out[...] = 0.0
    for k in range(len(out)):
        for i in range(k + 1):
            out[k] += a[i] * b[k - i]
    return out


def _basis_jet(basis, z, a, z0, b, sums, out=None):
    """Jet of theta_alpha at the (point, index) pairs that z and a
    broadcast to, from the ``_series_sums`` output z0, b and sums of its
    series at n*tau: the quasi-periodicity multiplier, the factor n^j that
    the inner argument n z puts on entry j, and E_alpha, each by a
    truncated Taylor product; the second half of the kernel.  The jet is
    written to ``out`` if given."""
    n, tau = basis.n, basis.params.tau
    order = sums.shape[-1] - 1
    # theta(z0 + b n tau) = (-1)^b exp(-2 pi i (b z0 + n tau b(b-1)/2))
    # theta(z0) on the lattice Z + Z n tau
    g = np.where(b % 2 == 0, 1.0, -1.0) * np.exp(
        -TWO_PI_I * (b * z0 + n * tau * b * (b - 1) / 2.0))
    series = _jet_mul(_exp_jet(g, -TWO_PI_I * b, order),
                      sums.transpose((-1,) + tuple(range(z0.ndim))))
    for j in range(order + 1):
        series[j] *= float(n) ** j
    ex = np.exp(TWO_PI_I * (z * a + a * (a - n) * tau / (2.0 * n)
                            + a / (2.0 * n)))
    return _jet_mul(_exp_jet(ex, TWO_PI_I * a, order), series, out)


@dataclass(frozen=True, eq=False)
class ThetaBasis:
    """Precomputed data for the basis theta_0, ..., theta_{n-1}.

    Every basis value is one series at n*tau times E_alpha (module
    docstring); ``series_bound`` is the truncation ``TRUNCATION_EPS`` gives
    at n*tau.  Its constants come from one pass of the kernel over two
    rows of n (point, alpha) pairs: z = 0 for every alpha, then z = k/n
    for alpha = 0.
    ``theta_at_zero`` and ``dtheta_at_zero`` hold theta_alpha(0) and
    theta_alpha'(0); theta_0(0) is an exact zero (the series terms cancel
    in pairs), so it is stored as 0.  A lattice where n Im(tau) is not
    finite, or whose truncation exceeds ``MAX_SERIES_TERMS``, is
    refused before any series is summed; one whose values at 0 are lost in
    rounding is refused by the a priori bound ``rounding_bound``, read off
    the terms at 0 before any multiplier or exponential factor is applied.
    A basis compares and hashes by identity, so it can key the objects
    built from it.
    """

    params: CurveParams
    series_bound: int = field(init=False)
    rounding_bound: float = field(init=False)
    theta_at_zero: np.ndarray = field(init=False)
    dtheta_at_zero: np.ndarray = field(init=False)

    def __post_init__(self):
        n, tau = self.n, self.params.tau
        bound = series_bound_for(n * tau, TRUNCATION_EPS)
        finite = math.isfinite(n * tau.imag)
        if not (finite and bound <= MAX_SERIES_TERMS):
            why = (f"the theta series at n*tau needs {bound:.3g} terms, "
                   f"beyond the limit {MAX_SERIES_TERMS}" if finite
                   else "n Im tau is not finite")
            raise DegenerateTauError(f"Im tau = {tau.imag:g} is out of "
                                     f"numerical range at n = {n}: {why}")
        object.__setattr__(self, "series_bound", bound)
        alpha = np.arange(n)
        # the (point, alpha) pairs of the pass, in rows of n: 0 for every
        # alpha, then k/n for alpha = 0
        z = np.concatenate([np.zeros(n), alpha / n])
        a = np.concatenate([alpha, 0 * alpha])
        z0, b, sums, size = _series_sums(n * z + a * tau, n, n * tau, bound, 1)
        # theta_alpha(0) is the series at alpha*tau, whose lattice index is
        # 0, times E_alpha(0).  The sum carries a rounding error of about
        # 2^-53 sum|terms|, against the value, or against the derivative
        # for the zero of theta_0; the bound is the largest over alpha
        pick = (alpha, (alpha == 0).astype(int))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = size[pick] / np.abs(sums[pick])
        object.__setattr__(self, "rounding_bound",
                           2.0 ** -53 * float(np.max(ratio)))
        self.require_rounding(ROUNDING_LIMIT)
        _check_range(z[:1], tau.imag, n, alpha.tolist())
        jet = _basis_jet(self, z, a, z0, b, sums)
        vals, ders = jet[:, :n]
        vals[0] = 0.0
        object.__setattr__(self, "theta_at_zero", vals)
        object.__setattr__(self, "dtheta_at_zero", ders)
        self._check_tables(jet[1, n:])

    def _check_tables(self, d0):
        """Refuse a basis whose values at 0 are numerically zero; ``d0``
        holds theta_0'(k/n), k = 0..n-1.

        theta_0'(0) and theta_alpha(0), alpha != 0, are nonzero for every
        tau; only a small Im(tau) makes them numerically zero.  These
        relative tests can pass on noise (n = 2, tau = 1e-6 i), which is why
        the rounding bound is tested first.  Each value at 0 is compared
        without its exponential factor E_alpha,
        |E_alpha(0)| = exp(pi alpha (n - alpha) Im(tau) / n), which at large
        n spreads the raw values over many orders of magnitude.  No value
        at 0 can underflow: the rounding bound keeps each, without E_alpha,
        above 2^-53 / ROUNDING_LIMIT times the sum of the absolute series
        terms, and the m = 0 term (m = 1 for theta_0') alone makes that sum
        at least 1.
        """
        n = self.params.n
        alpha = np.arange(n)
        size = np.exp(np.pi * alpha * (n - alpha) * self.params.tau.imag / n)
        vals = np.abs(self.theta_at_zero) / size
        ders = np.abs(self.dtheta_at_zero) / size
        scale = float(np.max(ders))
        for lost, what in (
                (ders[0] < 1e-10 * scale,
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

    def require_rounding(self, limit: float, purpose: str = ""):
        """Raise DegenerateTauError unless ``rounding_bound`` <= limit."""
        if not self.rounding_bound <= limit:
            raise DegenerateTauError(
                f"Im tau = {self.params.tau.imag:g} is out of numerical range"
                f"{purpose} at n = {self.n}: rounding in the theta series may "
                f"reach {self.rounding_bound:.1e} of a basis value at 0, "
                f"beyond {limit:g}")

    @property
    def n(self) -> int:
        return self.params.n

    @property
    def omega(self) -> complex:
        return self.params.omega


def theta_alpha_jet(basis: ThetaBasis, alpha: int | np.ndarray, z,
                    order: int):
    """Jet of theta_alpha = theta(n z + alpha tau; n tau) E_alpha(z) at
    integer indices alpha.

    ``alpha`` is an integer or a 1-D integer array; an array appends a
    trailing axis with one entry per index, so one call evaluates the whole
    basis.  Entry j of the leading axis holds the j-th derivative divided
    by j!, so one order-1 call yields values and first derivatives
    together.  One series at n*tau is summed per point and index, on the
    (point, alpha) grid, one row of len(alpha) pairs per point, by the
    kernel the basis builds its tables with: ``_series_sums``, in chunks of
    the whole rows ``_rows_per_call`` allows, then ``_basis_jet``.
    """
    n, tau = basis.n, basis.params.tau
    z = np.asarray(z, dtype=complex)
    index = np.asarray(alpha)
    if index.ndim > 1 or index.dtype.kind not in "iu":
        raise ValueError("alpha must be an integer or a 1-D integer array")
    a = np.atleast_1d(index)
    _check_range(z, tau.imag, n, a.tolist())
    flat = z.reshape(-1, 1)
    out = np.empty((order + 1, len(flat), a.size), dtype=complex)
    step = _rows_per_call(a.size, basis.series_bound)
    for i in range(0, len(flat), step):
        part = flat[i:i + step]
        z0, b, sums, _ = _series_sums(n * part + a * tau, a.size, n * tau,
                                      basis.series_bound, order)
        _basis_jet(basis, part, a, z0, b, sums, out[:, i:i + step])
    out = out.reshape((order + 1,) + z.shape + (a.size,))
    return out if index.ndim else out[..., 0]


def theta_alpha_eval(basis: ThetaBasis, alpha: int | np.ndarray, z):
    """theta_alpha(z) for the representative of alpha in [0, n); an integer
    array alpha appends a trailing axis."""
    out = theta_alpha_jet(basis, np.mod(alpha, basis.n), z, 0)[0]
    return complex(out) if out.ndim == 0 else out


def theta_alpha_deriv(basis: ThetaBasis, alpha: int | np.ndarray, z,
                      order: int = 1):
    """order-th derivative of theta_alpha, read off its jet.

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


def _sample_grid(tau: complex, count: int):
    """Deterministic low-discrepancy points in the fundamental cell."""
    k = np.arange(count)
    u = (0.5 + k * (math.sqrt(5.0) - 1.0) / 2.0) % 1.0
    v = (0.25 + k * (math.sqrt(2.0) - 1.0)) % 1.0
    return u + v * tau


def verify_automorphy(basis: ThetaBasis, c, f) -> float:
    """Largest normalized automorphy residual of f for the character c.

    Checks f(z+1) = f(z) and f(z+tau) = (-1)^n exp(-2*pi*i*(n*z - c)) f(z),
    n the basis order, on a deterministic grid of ``AUTOMORPHY_SAMPLES``
    points, normalized by max |f|.  f is called once, on the grid, the grid
    shifted by 1 and the grid shifted by tau, concatenated, and must return
    one value per point.
    """
    tau = basis.params.tau
    n = basis.n
    z = _sample_grid(tau, AUTOMORPHY_SAMPLES)
    values = np.asarray(f(np.concatenate([z, z + 1.0, z + tau])),
                        dtype=complex)
    if not np.all(np.isfinite(values)):
        raise ValueError("non-finite sample while checking automorphy")
    fz, f1, ft = values.reshape(3, len(z))
    mult = (-1.0) ** n * np.exp(-TWO_PI_I * (n * z - complex(c)))
    scale = float(np.max(np.abs(values)))
    if scale == 0.0:
        return 0.0
    r1 = float(np.max(np.abs(f1 - fz)))
    r2 = float(np.max(np.abs(ft - mult * fz)))
    return max(r1, r2) / scale
