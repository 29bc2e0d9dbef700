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
returns whole.  The index alpha may be an integer or a 1-D integer array;
an array puts theta_alpha for every listed alpha on a trailing axis.  At a
point, alpha enters the series only through the factor e(m alpha tau) of
its term m, e(x) = exp(2*pi*i*x), so the whole basis at a point is one
series: ``_block_sums`` reduces n z + alpha0 tau into the cell of
Z + Z*n*tau once, ``_series_terms`` forms its 2M + 3 terms, and one product
of those terms with the table of ``_index_table``, the weights times
e(m delta tau), gives the jets of the series of every alpha = alpha0 +
delta of a block; ``_basis_jet`` then applies one factor a (point, alpha)
pair, the quasi-periodicity multiplier times E_alpha, by a truncated
Taylor product.  The indices are cut into blocks of ``_block_width``, so
that e(m delta tau) stays in double range; one block holds the whole basis
unless (M + 1) n Im tau is large.  What depends on the truncation and the
jet order alone, the exponents m, m(m-1)/2 and the weight matrix, is built
once per (bound, order) and shared read-only (``_series_table``); each
call forms its own table e(m delta tau), and nothing is keyed by a lattice
or a basis, so any object with ``n``, ``params`` and ``series_bound``
evaluates.  ``theta_alpha_jet`` is the kernel's one entry point, in the
chunks of ``chunks``: a :class:`ThetaBasis` reads its tables off one call
on the divisor k/n, whose first point is 0, and every other value, the
residue circle of ``cech`` among them, off calls of its own.
Evaluators accept scalars or numpy arrays of points and are pure functions
of their arguments; a constructed :class:`ThetaBasis` rebinds no attribute,
and its arrays are read-only from its own construction.
A point where the value may leave double-precision range (large |Im z| /
Im tau) raises :class:`ThetaRangeError` before anything is evaluated.  Every disc
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

# the one working-memory budget: the most complex entries a temporary of a
# chunk holds (2^13, 128 KiB, a core's L2 cache), unless one item alone holds
# more.  The points of ``theta_alpha_jet`` (2M + 3 + (order + 1) n entries
# each), the chart points of ``poisson.map_stack``, the triples of
# ``poisson.jacobi_defect`` and the trace tables of ``cech.ResidueSystem``
# run in the chunks of ``chunks``
CHUNK_ENTRIES = 2 ** 13


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


def chunks(count: int, entries: int) -> list[slice]:
    """Slices of whole items over ``count`` items of ``entries`` entries
    each, as many items a slice as fit in ``CHUNK_ENTRIES`` entries, at
    least one.  No items give one empty slice, so a loop over the slices
    still runs once and keeps the shape of an empty input."""
    step = max(1, CHUNK_ENTRIES // entries)
    return [slice(lo, lo + step) for lo in range(0, max(count, 1), step)]


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
    """The exponents m = -bound-1..bound+1 of the truncated series, the
    exact integers m(m-1)/2, and the (terms x order+1) weight matrix whose
    column j holds the term-wise derivative factor (-1)^m (2 pi i m)^j / j!.
    The term m = -bound-1 keeps the truncation of the cell for every index
    of a block, whose points u0 + delta tau lie up to delta Im tau above
    the cell.

    They depend on the truncation and the jet order alone, so each
    (bound, order) builds them once and every basis that truncates there
    shares them; they are read-only.  An entry holds 16 (order + 2) bytes
    a term: 448 bytes at order 2 for n = 63, tau = i (bound 2), and 0.5 MB
    at ``MAX_SERIES_TERMS``, so the 16 kept entries stay below 8.4 MB.
    """
    m = np.arange(-bound - 1, bound + 2)
    # exponent m(m-1)/2 is an exact integer; identical for the pair (m, 1-m)
    quad = (m * (m - 1)) // 2
    signs = np.where(m % 2 == 0, 1.0, -1.0)
    weights = np.stack([signs * (TWO_PI_I * m) ** j / math.factorial(j)
                        for j in range(order + 1)], axis=-1)
    for table in (m, quad, weights):
        table.setflags(write=False)
    return m, quad, weights


def _block_width(n, tau, bound):
    """The number w of indices alpha0 + delta, delta = 0..w-1, a block
    holds: w = 1 + floor(LOG_LIMIT / (2 pi (M + 1) Im tau)), at most n,
    for the truncation M = ``bound``.

    theta_alpha, alpha = alpha0 + delta, is read off the series terms of
    its block's base point u0 times e(m delta tau), |m| <= M + 1, whose
    modulus exp(-2 pi m delta Im tau) lies within exp(+-LOG_LIMIT) at
    this w.  u0 lies in the cell of Z + Z n tau, so each of its terms has
    modulus at most 1, and each product is a term of the series at
    u0 + delta tau, at most exp(2 pi delta Im tau) <= exp(LOG_LIMIT / 3):
    no product overflows, and a term lost to underflow at u0 is below
    exp(-745 + LOG_LIMIT), about 1e-41, of the m = 0 term 1.  One block
    holds the whole basis where (M + 1) Im tau <= LOG_LIMIT / (2 pi (n - 1)),
    1.67 at n = 63, which every benchmark lattice meets; at n = 63,
    tau = i (M = 2) a block holds 35 indices, and in one block e(-3 * 62 tau)
    would be exp(1169).
    """
    span = LOG_LIMIT / (2.0 * math.pi * (bound + 1) * tau.imag)
    return int(min(n, 1.0 + span))


def _index_table(basis, order):
    """The (terms x (order+1) w) table weights[m, j] n^j e(m delta tau),
    column j w + delta, of a block of w = :func:`_block_width` indices.

    A block's jets at a point are one product of its series terms with
    this table; the factor n^j is the inner derivative of n z.  It costs
    (2M + 3) w exponentials, so every call forms its own."""
    n, tau, bound = basis.n, basis.params.tau, basis.series_bound
    m, _, weights = _series_table(bound, order)
    delta = np.arange(_block_width(n, tau, bound))
    shift = np.exp(np.multiply.outer(m, (TWO_PI_I * tau) * delta))
    table = weights[:, :, None] * shift[:, None]
    for j in range(1, order + 1):
        table[:, j] *= float(n) ** j
    return table.reshape(len(m), -1)


def _series_terms(u0, tau, bound):
    """The terms exp(2 pi i (m u0 + tau m(m-1)/2)) of the basic series at
    lattice parameter tau, on a trailing axis of the reduced points u0;
    the signs (-1)^m are in the weights."""
    m, quad, _ = _series_table(bound, 0)
    # formed in place: the terms are a chunk's largest array of points
    # times terms, and one copy of them bounds its memory
    terms = np.multiply.outer(TWO_PI_I * u0, m)
    terms += (TWO_PI_I * tau) * quad
    return np.exp(terms, out=terms)


def _block_sums(basis, z, alpha0, table):
    """The block at base index alpha0 at the flat points z: the reduction
    n z + alpha0 tau = u0 + a + b n tau, u0 in the cell of Z + Z n tau,
    the series terms at u0 and their sums, each point's row of terms times
    ``table`` (:func:`_index_table`), one product a point, so that a
    value's bits do not depend on the other points of a call.  Returns
    (u0, b, terms, sums), sums[p, j w + delta] the j-th Taylor coefficient
    of theta(n z + alpha tau; n tau) at alpha = alpha0 + delta, before the
    multiplier."""
    n, tau = basis.n, basis.params.tau
    u0, b = _reduce_to_cell(n * z + alpha0 * tau, n * tau)
    terms = _series_terms(u0, n * tau, basis.series_bound)
    return u0, b, terms, (terms[:, None] @ table)[:, 0]


def _basis_jet(basis, z, a, alpha0, u0, b, sums):
    """Jet of theta_alpha, on the leading axis, at the flat points z and
    the indices a (an array) of the block at base alpha0, from that
    block's reduction u0, b of the points and its sums
    (:func:`_block_sums`); the second half of the kernel.

    With n z + alpha tau = u0 + (alpha - alpha0) tau + a' + b n tau, the
    quasi-periodicity multiplier of theta at n tau and E_alpha are one
    factor a pair,

        F = e(alpha (z - b tau) + alpha (alpha - n) tau / (2n) + alpha / (2n)
              + b (alpha0 tau - u0 + 1/2) - n tau b (b - 1) / 2),

    the sign (-1)^b as e(b/2), whose jet is F (2 pi i (alpha - b n))^j / j!,
    so one truncated Taylor product gives the jet of theta_alpha."""
    n, tau = basis.n, basis.params.tau
    width = _block_width(n, tau, basis.series_bound)
    sums = sums.reshape(len(u0), -1, width)[..., a - alpha0].transpose(1, 0, 2)
    z, u0, b = z[:, None], u0[:, None], b[:, None]
    # the exponent of F: the product alpha (z - b tau), a part of the index
    # and a part of the point; the exact integer alpha (alpha - n), the
    # same for n - alpha, keeps the bracket's wrapped pairs agreeing to
    # rounding
    half = TWO_PI_I * n * tau / 2.0
    factor = (TWO_PI_I * a) * (z - b * tau)
    factor += ((a * (a - n)) * (TWO_PI_I * tau / (2.0 * n))
               + a * (TWO_PI_I / (2.0 * n)))
    factor += b * (TWO_PI_I * (alpha0 * tau + 0.5) + half
                   - TWO_PI_I * u0 - half * b)
    np.exp(factor, out=factor)
    jet = np.empty(sums.shape, dtype=complex)
    if len(sums) > 1:
        rate = TWO_PI_I * (a - b * n)
    for j in range(len(sums)):
        term, acc = 1.0, sums[j]
        for i in range(1, j + 1):
            term = term * rate / i
            acc = acc + term * sums[j - i]
        np.multiply(factor, acc, out=jet[j])
    return jet


@dataclass(frozen=True, eq=False)
class ThetaBasis:
    """Precomputed data for the basis theta_0, ..., theta_{n-1}.

    Every basis value is one series at n*tau times E_alpha (module
    docstring); ``series_bound`` is the truncation ``TRUNCATION_EPS`` gives
    at n*tau.  Its tables come from one ``theta_alpha_jet`` call of every
    alpha on the divisor z = k/n, read-only and each its own array:
    ``theta_at_zero`` and ``dtheta_at_zero`` hold theta_alpha(0) and
    theta_alpha'(0), and ``dtheta0_at_divisor`` holds theta_0'(k/n);
    theta_0(0) is an exact zero (the series terms cancel in pairs), so it
    is stored as 0.  A lattice where n Im(tau) is not finite, or whose
    truncation exceeds ``MAX_SERIES_TERMS``, is refused before any series
    is summed; one whose values at 0 are lost in rounding is refused by the
    a priori bound ``rounding_bound``, read off the terms at 0 of each
    block of indices before any multiplier or exponential factor is
    applied.  A basis compares and hashes by identity, so it can key the
    objects built from it.
    """

    params: CurveParams
    series_bound: int = field(init=False)
    rounding_bound: float = field(init=False)
    theta_at_zero: np.ndarray = field(init=False)
    dtheta_at_zero: np.ndarray = field(init=False)
    dtheta0_at_divisor: np.ndarray = field(init=False)

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
        width = _block_width(n, tau, bound)
        table = _index_table(self, 1)
        # theta_alpha(0) is the series at alpha*tau, whose lattice index is
        # 0, times E_alpha(0).  The sum carries a rounding error of about
        # 2^-53 sum|terms|, against the value, or against the derivative
        # for the zero of theta_0; the bound is the largest over alpha
        ratio = []
        for alpha0 in range(0, n, width):
            _, _, terms, sums = _block_sums(self, np.zeros(1), alpha0, table)
            a = np.arange(alpha0, min(n, alpha0 + width))
            pick = (a == 0) * width + a - alpha0
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio.append((np.abs(terms[0]) @ np.abs(table))[pick]
                             / np.abs(sums[0, pick]))
        # one index table at a time: the call below forms its own
        del table, terms, sums
        object.__setattr__(self, "rounding_bound",
                           2.0 ** -53 * float(np.max(np.concatenate(ratio))))
        self.require_rounding(ROUNDING_LIMIT)
        jet = theta_alpha_jet(self, np.arange(n), np.arange(n) / n, 1)
        vals, ders = jet[:, 0].copy()
        vals[0] = 0.0
        for name, table in (("theta_at_zero", vals), ("dtheta_at_zero", ders),
                            ("dtheta0_at_divisor", jet[1, :, 0].copy())):
            table.setflags(write=False)
            object.__setattr__(self, name, table)
        self._check_tables()

    def _check_tables(self):
        """Refuse a basis whose values at 0 are numerically zero, or whose
        theta_0'(k/n), k = 0..n-1, differs from theta_0'(0).

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
                (np.max(np.abs(self.dtheta0_at_divisor
                               - self.dtheta_at_zero[0])) > 1e-8 * scale,
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
    together.  theta_alpha is n-periodic in the index, so alpha is read
    modulo n; the range check reads it as given.  The indices are cut into
    blocks of :func:`_block_width`; a point sums one series of 2M + 3
    terms a block that holds an index of the call, and every block's jets
    come out of one product of those terms with the table of
    :func:`_index_table`, which each call forms once.  Then one factor a
    (point, index) pair, :func:`_basis_jet`, gives the jet.  Points run in
    the chunks of :func:`chunks` for 2M + 3 + (order + 1) n entries a
    point.
    """
    n, tau = basis.n, basis.params.tau
    z = np.asarray(z, dtype=complex)
    index = np.asarray(alpha)
    if index.ndim > 1 or index.dtype.kind not in "iu":
        raise ValueError("alpha must be an integer or a 1-D integer array")
    a = np.atleast_1d(index)
    _check_range(z, tau.imag, n, a.tolist())
    a = np.mod(a, n)
    width = _block_width(n, tau, basis.series_bound)
    table = _index_table(basis, order)
    # the blocks of the call's indices, each its base alpha0 and columns;
    # one block, as at every benchmark lattice, takes all by a slice
    blocks = [(0, slice(None))]
    if width < n:
        blocks = [(alpha0, np.flatnonzero(a // width == alpha0 // width))
                  for alpha0 in range(0, n, width)]
        blocks = [(alpha0, cols) for alpha0, cols in blocks if cols.size]
    flat = z.ravel()
    out = np.empty((order + 1, flat.size, a.size), dtype=complex)
    for rows in chunks(flat.size, len(table) + (order + 1) * n):
        for alpha0, cols in blocks:
            u0, b, _, sums = _block_sums(basis, flat[rows], alpha0, table)
            out[:, rows, cols] = _basis_jet(basis, flat[rows], a[cols],
                                            alpha0, u0, b, sums)
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
    one value per point.  A non-finite sample makes the residual read NaN,
    which fails any tolerance.
    """
    tau = basis.params.tau
    n = basis.n
    z = _sample_grid(tau, AUTOMORPHY_SAMPLES)
    values = np.asarray(f(np.concatenate([z, z + 1.0, z + tau])),
                        dtype=complex)
    fz, f1, ft = values.reshape(3, len(z))
    mult = (-1.0) ** n * np.exp(-TWO_PI_I * (n * z - complex(c)))
    scale = float(np.max(np.abs(values)))
    if scale == 0.0:
        return 0.0
    r1 = float(np.max(np.abs(f1 - fz)))
    r2 = float(np.max(np.abs(ft - mult * fz)))
    return max(r1, r2) / scale
