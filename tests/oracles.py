"""Independent oracles for the order-n theta basis of ``ellpoisson.theta``,
the bracket row table of ``ellpoisson.poisson``, the sample tables of
``ellpoisson.cech`` and the leaf records of ``ellpoisson.leaves``.

Sparse polynomials, the Leibniz extension of the generator brackets, the
bivector contraction, and the dense n^4 coefficient tensor with its Jacobi
contraction.  They expand the (n, n, n) coefficient table of
:func:`coefficient_table` into monomials with their own loops and share no
formulas with the package, which never calls them.
:func:`coefficient_table` forms that table from a word table by index
arithmetic on ``np.indices``, where the package gathers it from the row
table of ``QuadraticBracket`` at offsets built once per n.
:func:`pairwise_jacobi_defect` is the exception: it repeats the package's
Jacobi arithmetic per entry in a loop over generator pairs, so that the
gathered triples of ``jacobi_defect`` can be compared with it bit for
bit on the pairs (0, j); over every pair i < j it reads the full-triple
defect.  :func:`phi` evaluates phi_alpha = theta_alpha / theta_0
pointwise, without the 1/n shift that fills the ``ResidueSystem`` tables.
:func:`theta_alpha_product` evaluates theta_alpha by its defining product
of n shifted theta factors, each summed directly by :func:`theta_series`;
the package sums one series at n*tau instead, which is that product
divided by the constant :func:`product_constant`.
:func:`three_sum_basis` and :func:`three_sum_tables` repeat the
construction that summed the series four times per lattice (for the
rounding bound, the values at 0, theta_0'(k/n) and the residue circle),
against which ``ThetaBasis``, whose tables come from one
``theta_alpha_jet`` call, is compared byte for byte.
:func:`chart_points_loop` draws the ``moduli-compare`` chart points by
one rejection loop per coordinate, where the package draws arrays.
:func:`dense_cone_iso_check` checks the cone identification of
``ellpoisson.homology`` on dense 2 dim C^0 matrices, with the comparison
map written out, where the package reads the five identities that can
fail off the integer factors A of maps A (x) X, and can compare the
homology of the cone and the sum by exact rank (:func:`homology_dims`).
:func:`dense_hom_differential` builds each differential of the
endomorphism complex as dense Kronecker products stacked block by block,
where the package writes every block in place into one array.
:func:`dense_duality_t`, :func:`dense_kappa_inverse_deg_minus1` and
:func:`dense_trace_pairing` write the trace pairing out as dense signed
permutation matrices, entry by entry, where the package gathers columns
by ``trace_pairing``.
:func:`canonical_bracket` builds the bracket of a Heisenberg-invariant
table C(alpha, beta), the table that ``hn_canonical_extract`` reads back.
:func:`leaf_dimension` computes one leaf record from any torsion type
through ``end_dim_sheaf``, where ``enumerate_strata`` sums per-partition
values.  :func:`stratum_counts` counts the records by length and torsion
end_dim from a generating function, with e(lambda) = sum_i (2i - 1)
lambda_i per partition, where ``leaves`` sums min(i, j) r_i r_j.
:func:`mat_entry` and :func:`phi_psi_pairing` are readers that only the
tests need: an exact entry as a Python int, and the duality pairing of a
``ResidueSystem``'s tables by its trace form.  :func:`verify_p_plus`,
:func:`verify_p_plus_zero_sum` and :func:`verify_trace_identity` check the
closed forms of a ``ResidueSystem`` against its sample tables, with
:func:`ratio_dtheta` reading a basis' logarithmic derivatives at 0.
:func:`closed_form_grid` is the fully expanded closed residue route as it
was written before it read a coefficient table, term1 - term2
- t_i conv_j + t_j conv_i + t_{i+j} (TD[i, j] - TD[j, i]), and
:func:`closed_route_table` fills that coefficient table entry by entry in
Python loops; both read only F, T3 and TD of a ``ResidueSystem``.
:func:`entrywise_trace_grid` is the trace route as it was written before
it became one contraction per point: the entrywise products of every
cocycle with every sample table, (n-1)^2 n P entries a point, each summed
over its nodes by the system's trace pairing.
"""

import itertools
import math

import numpy as np

from types import SimpleNamespace

from ellpoisson import theta
from ellpoisson.cech import _node_coeffs
from ellpoisson.exact import Mat, hstack, vstack
from ellpoisson.fo import f_constants
from ellpoisson.leaves import LeafRecord, TorsionType, end_dim_sheaf
from ellpoisson.poisson import QuadraticBracket, pair_tensor
from ellpoisson.theta import ThetaBasis, theta_alpha_eval, theta_alpha_jet


def theta_series(z, tau, terms=50, order=0):
    """order-th z-derivative of theta(z) = sum_m (-1)^m exp(2 pi i (m z +
    m (m-1) tau / 2)), summed term by term over |m| <= terms, with no
    reduction of z into the fundamental cell."""
    z = np.asarray(z, dtype=complex)
    m = np.arange(-terms, terms + 1)
    phase = 2j * math.pi * (np.multiply.outer(z, m) + m * (m - 1) * tau / 2)
    return np.sum((-1.0) ** m * (2j * math.pi * m) ** order * np.exp(phase),
                  axis=-1)


def product_constant(n: int, tau: complex) -> complex:
    """C = (Q;Q)^n / (Q^n;Q^n), Q = exp(2 pi i tau), as a direct Euler
    product over the factors 1 - Q^k with |Q|^k above 2^-60."""
    count = math.floor(60 * math.log(2) / (2 * math.pi * tau.imag)) + 1
    factors = 1.0 - np.exp(2j * math.pi * (tau * np.arange(1, count + 1)))
    return complex(np.prod(factors) ** n / np.prod(factors[n - 1::n]))


def theta_alpha_product(basis: ThetaBasis, alpha: int, z, order: int = 0):
    """Jet (f, f', f''/2)[:order + 1] of the defining product

        prod_{m<n} theta(z + m/n + alpha tau/n) * E_alpha(z),

    from n :func:`theta_series` factors per derivative order and a Leibniz
    loop over the Taylor coefficients.  It is C theta_alpha(z), C the
    :func:`product_constant` of the basis.
    """
    n, tau = basis.n, basis.params.tau
    z = np.asarray(z, dtype=complex)
    rate = 2j * math.pi * alpha
    e = np.exp(rate * z + 2j * math.pi * (alpha * (alpha - n) * tau / (2 * n)
                                          + alpha / (2 * n)))
    jet = [e * rate ** j / math.factorial(j) for j in range(order + 1)]
    for m in range(n):
        w = z + m / n + alpha * tau / n
        factor = [theta_series(w, tau, order=j) / math.factorial(j)
                  for j in range(order + 1)]
        jet = [sum(jet[i] * factor[k - i] for i in range(k + 1))
               for k in range(order + 1)]
    return np.stack(jet)


def phi(basis: ThetaBasis, alpha: int):
    """Evaluator of phi_alpha = theta_alpha / theta_0 (phi_0 = 1)."""
    alpha %= basis.n
    if alpha == 0:
        return lambda z: np.ones_like(np.asarray(z, dtype=complex))
    return lambda z: (theta_alpha_eval(basis, alpha, z)
                      / theta_alpha_eval(basis, 0, z))


def three_sum_basis(params):
    """The basis tables as three separate sums of the series at n*tau: the
    rounding bound from the terms at 0 of each block of indices, then
    ``theta_alpha_jet`` at 0 for every alpha and at k/n for alpha = 0.
    Refuses as the basis does, through its own ``require_rounding`` and
    ``_check_tables``; returns a namespace with the basis's three table
    attributes.  The truncation must be within ``MAX_SERIES_TERMS``."""
    n, tau = params.n, params.tau
    b = SimpleNamespace(params=params, n=n, series_bound=theta.series_bound_for(
        n * tau, theta.TRUNCATION_EPS))
    width = theta._block_width(n, tau, b.series_bound)
    table = theta._index_table(b, 1)
    ratio = []
    for alpha0 in range(0, n, width):
        _, _, terms, sums = theta._block_sums(b, np.zeros(1), alpha0, table)
        a = np.arange(alpha0, min(n, alpha0 + width))
        pick = (a == 0) * width + a - alpha0
        size = (np.abs(terms) @ np.abs(table))[0, pick]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio.append(size / np.abs(sums[0, pick]))
    b.rounding_bound = 2.0 ** -53 * float(np.max(np.concatenate(ratio)))
    ThetaBasis.require_rounding(b, theta.ROUNDING_LIMIT)
    b.theta_at_zero, b.dtheta_at_zero = theta_alpha_jet(b, np.arange(n),
                                                        0.0, 1)
    b.theta_at_zero[0] = 0.0
    b.dtheta0_at_divisor = theta_alpha_jet(b, 0, np.arange(n) / n, 1)[1]
    ThetaBasis._check_tables(b)
    return b


def three_sum_tables(b) -> dict:
    """The residue tables phi, dphi, psi, T3 and TD of a
    :func:`three_sum_basis` namespace, as ``ResidueSystem`` forms them:
    from ``theta_alpha_jet`` on the circle around 0, with the disc-k values
    of psi_alpha from the values at 0 by the 1/n shift."""
    n = b.n
    omega = np.exp(2j * math.pi / n)
    shift = omega ** (np.multiply.outer(np.arange(n), np.arange(n)) % n)
    offsets = theta.circle_nodes(theta.shortest_period(n, b.params.tau))
    th, dth = theta_alpha_jet(b, np.arange(n), offsets, 1).swapaxes(1, 2)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        phi0 = th / th[0]
        dphi0 = (dth * th[0] - th * dth[0]) / th[0] ** 2
    out = {"phi": shift[:, :, None] * phi0[:, None],
           "dphi": shift[:, :, None] * dphi0[:, None]}
    out["phi"][0] = 1.0
    out["dphi"][0] = 0.0
    psi = np.empty_like(out["phi"])
    psi[0] = 1.0 / offsets
    for a in range(1, n):
        psi[a] = (b.dtheta_at_zero[0] * omega ** (-(a * np.arange(n)) % n)
                  / b.theta_at_zero[a])[:, None]
    psi_sum = psi[(np.arange(n)[:, None] + np.arange(n)) % n]
    trace = lambda f: (f.sum(axis=-2) @ offsets / (n * len(offsets)))
    out.update(psi=psi, f=f_constants(b),
               t3=trace(out["phi"][:, None] * out["phi"] * psi_sum),
               td=trace(out["dphi"][:, None] * out["phi"] * psi_sum))
    return out


def chart_points_loop(n, count, seed):
    """Chart points with t_0 = 1, the others drawn pair by pair from one
    ``default_rng(seed)`` stream on [-1, 1]^2 until one falls in the unit
    disc."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        t = np.ones(n, dtype=complex)
        for i in range(1, n):
            while True:
                u, v = rng.uniform(-1.0, 1.0, size=2)
                if u * u + v * v <= 1.0:
                    t[i] = complex(u, v)
                    break
        out.append(t)
    return out


class Polynomial:
    """Sparse polynomial in n commuting variables with complex coefficients.

    Terms map exponent tuples to coefficients; zero coefficients are never
    stored.  Instances are treated as immutable.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        self.n = n
        clean = {}
        for expo, coeff in (terms or {}).items():
            if coeff != 0:
                if len(expo) != n or any(e < 0 for e in expo):
                    raise ValueError(f"bad exponent tuple {expo!r}")
                clean[tuple(expo)] = complex(coeff)
        self.terms = clean

    @classmethod
    def zero(cls, n):
        return cls(n)

    @classmethod
    def constant(cls, n, value):
        return cls(n, {(0,) * n: value})

    @classmethod
    def variable(cls, n, i):
        expo = [0] * n
        expo[i % n] = 1
        return cls(n, {tuple(expo): 1.0})

    @classmethod
    def monomial(cls, n, indices, coeff=1.0):
        expo = [0] * n
        for i in indices:
            expo[i % n] += 1
        return cls(n, {tuple(expo): coeff})

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for expo, c in other.terms.items():
            out[expo] = out.get(expo, 0j) + c
        return Polynomial(self.n, out)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return Polynomial(self.n, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return Polynomial(self.n, {e: c * other for e, c in self.terms.items()})
        other = self._coerce(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                expo = tuple(a + b for a, b in zip(e1, e2))
                out[expo] = out.get(expo, 0j) + c1 * c2
        return Polynomial(self.n, out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.n != self.n:
                raise ValueError("variable counts differ")
            return other
        if isinstance(other, (int, float, complex)):
            return Polynomial.constant(self.n, other)
        raise TypeError(f"cannot combine Polynomial with {type(other)!r}")

    def diff(self, i):
        out = {}
        for expo, c in self.terms.items():
            if expo[i]:
                new = list(expo)
                new[i] -= 1
                out[tuple(new)] = out.get(tuple(new), 0j) + c * expo[i]
        return Polynomial(self.n, out)

    def eval(self, point):
        point = np.asarray(point, dtype=complex)
        total = 0j
        for expo, c in self.terms.items():
            val = c
            for i, e in enumerate(expo):
                if e:
                    val *= point[i] ** e
            total += val
        return total

    def max_abs(self):
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def coefficient(self, indices):
        expo = [0] * self.n
        for i in indices:
            expo[i % self.n] += 1
        return self.terms.get(tuple(expo), 0j)

    def is_zero(self, tol=0.0):
        return all(abs(c) <= tol for c in self.terms.values())

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "Polynomial(0)"
        bits = []
        for expo, c in sorted(self.terms.items()):
            mono = "*".join(f"x{i}^{e}" if e > 1 else f"x{i}"
                            for i, e in enumerate(expo) if e)
            bits.append(f"({c:.6g})*{mono}" if mono else f"({c:.6g})")
        return " + ".join(bits)


def canonical_bracket(table) -> QuadraticBracket:
    """The Heisenberg-invariant bracket of the n x n table C(alpha, beta):
    {x_i, x_j} = sum_r C(r, j-i-r) x_{i+r} x_{j-r}, built for i < j, so
    the monomial x_{i+a} x_{i+b} gets C(a, b) + C(b, a)."""
    table = np.asarray(table, dtype=complex)
    n = len(table)
    d, r = np.indices((n, n))
    return QuadraticBracket(n, pair_tensor(table[(d - r) % n, r]))


def coefficient_table(words) -> np.ndarray:
    """The coefficient table G[i, j, k] of x_k x_{i+j-k} in {x_i, x_j}
    for the bracket whose {x_i, x_j}, i < j, is
    sum_r words[j-i, r] x_{j-r} x_{i+r}: each entry is the mean of the
    words hi-k and k-lo of row hi-lo (lo, hi = min, max of i, j), signed
    by sign(j - i).  A row table of ``QuadraticBracket`` is its own word
    table.  Leading axes of words are kept."""
    words = np.asarray(words)
    n = words.shape[-1]
    i, j, k = np.indices((n,) * 3)
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    out = words[..., hi - lo, (hi - k) % n]
    out += words[..., hi - lo, (k - lo) % n]
    out *= np.sign(j - i)
    out /= 2.0
    return out


def pair_coeffs(b: QuadraticBracket, i, j):
    """Monomial table {(k, l): c, k <= l} of {x_i, x_j}."""
    n = b.n
    i, j = int(i) % n, int(j) % n
    g = coefficient_table(b.rows)[i, j]
    out = {}
    for k in range(n):
        l = (i + j - k) % n
        if k <= l and g[k] != 0:
            out[(k, l)] = complex(g[k] * (1.0 if k == l else 2.0))
    return out


def pair_poly(b: QuadraticBracket, i, j) -> Polynomial:
    return sum((Polynomial.monomial(b.n, kl, c)
                for kl, c in pair_coeffs(b, i, j).items()),
               Polynomial.zero(b.n))


def pairs(b: QuadraticBracket):
    """The pairs i < j with {x_i, x_j} != 0, in order."""
    g = coefficient_table(b.rows)
    return [(i, j) for i in range(b.n) for j in range(i + 1, b.n)
            if np.any(g[i, j] != 0)]


def dense_tensor(b: QuadraticBracket) -> np.ndarray:
    """Q[i, j, k, l] with {x_i, x_j} = sum_{k,l} Q[i, j, k, l] x_k x_l,
    symmetric in (k, l) and zero off the grading k + l = i + j mod n."""
    n = b.n
    g = coefficient_table(b.rows)
    q = np.zeros((n,) * 4, dtype=complex)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                q[i, j, k, (i + j - k) % n] = g[i, j, k]
    return q


def _bracket_mono(b: QuadraticBracket, e1, e2):
    """{m1, m2} for monomials given as exponent tuples, by Leibniz recursion."""
    d1 = sum(e1)
    d2 = sum(e2)
    if d1 == 0 or d2 == 0:
        return Polynomial.zero(b.n)
    if d1 == 1 and d2 == 1:
        i = next(k for k, e in enumerate(e1) if e)
        j = next(k for k, e in enumerate(e2) if e)
        return pair_poly(b, i, j)
    if d2 > 1:
        # split m2 = x_k * m2'; {f, x_k m2'} = {f, x_k} m2' + x_k {f, m2'}
        k = next(idx for idx, e in enumerate(e2) if e)
        rest = list(e2)
        rest[k] -= 1
        rest = tuple(rest)
        xk = tuple(1 if idx == k else 0 for idx in range(b.n))
        return (_bracket_mono(b, e1, xk) * Polynomial(b.n, {rest: 1.0})
                + Polynomial(b.n, {xk: 1.0}) * _bracket_mono(b, e1, rest))
    # d1 > 1, d2 == 1: split on the left
    k = next(idx for idx, e in enumerate(e1) if e)
    rest = list(e1)
    rest[k] -= 1
    rest = tuple(rest)
    xk = tuple(1 if idx == k else 0 for idx in range(b.n))
    return (Polynomial(b.n, {xk: 1.0}) * _bracket_mono(b, rest, e2)
            + _bracket_mono(b, xk, e2) * Polynomial(b.n, {rest: 1.0}))


def bracket_poly(b: QuadraticBracket, f: Polynomial, g: Polynomial) -> Polynomial:
    """Leibniz extension of the generator brackets to polynomials."""
    if f.n != b.n or g.n != b.n:
        raise ValueError("variable counts differ")
    out = Polynomial.zero(b.n)
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            out = out + (c1 * c2) * _bracket_mono(b, e1, e2)
    return out


def bracket_contraction_oracle(b: QuadraticBracket, f: Polynomial,
                               g: Polynomial) -> Polynomial:
    """Independent bivector-contraction form sum {x_i,x_j} df/dx_i dg/dx_j."""
    out = Polynomial.zero(b.n)
    for i in range(b.n):
        dfi = f.diff(i)
        if not dfi.terms:
            continue
        for j in range(b.n):
            if i == j:
                continue
            dgj = g.diff(j)
            if not dgj.terms:
                continue
            out = out + pair_poly(b, i, j) * dfi * dgj
    return out


def pairwise_jacobi_defect(b: QuadraticBracket, orbit=False) -> float:
    """Largest coefficient of the cyclic Jacobi sum over generator triples,
    divided by the square of the largest monomial coefficient, so that the
    result does not change when the bracket is rescaled; with ``orbit``,
    over the triples (0, j, k) alone.

    With G = ``coefficient_table(b.rows)``, {x_i, {x_j, x_k}} =
    2 sum_{a,p} G[j,k,a] G[i,a,p] x_p x_s x_l with s = i+a-p and
    l = j+k-a.  Indexed by (p, s), a = p+s-i is fixed, so each cyclic term
    is an entrywise product t[p, s], symmetric in (p, s), with
    l = i+j+k-p-s.  For each pair i < j the three terms are formed for all
    k > j at once; the coefficient of x_p x_s x_l is the sum over the
    orderings of (p, s, l) divided by the order of the stabilizer of the
    index triple.

    With ``orbit``, this is ``ellpoisson.poisson.jacobi_defect`` as a loop
    over the pairs (0, j), with the same arithmetic per entry: the package
    gathers every triple (0, j, k) from flat offsets instead, and must
    match it bit for bit.  Without it, every i < j < k is read.
    """
    scale = b.max_abs()
    if scale == 0.0:
        return 0.0
    n = b.n
    g = coefficient_table(b.rows)
    p, s = np.indices((n, n))
    x = np.arange(n)[:, None, None]
    # a term {x_x, x_a x_l} reaches x_p x_s through a = inner[x]; the
    # monomials of weight w are x_p x_s x_l with l = third[w]
    inner = (p + s - x) % n
    third = (x - p - s) % n
    lead = g[x, inner, p]  # lead[x, p, s] = G[x, p+s-x, p]
    # 1 / |stabilizer of (p, s, l)| by the number of equal pairs, 0, 1 or 3
    equal = (p == s).astype(int) + (s == third) + (p == third)
    inv_stab = np.array([1.0, 0.5, 0.0, 1.0 / 6.0])[equal]
    worst = 0.0
    for i in range(1 if orbit else n):
        for j in range(i + 1, n - 1):
            ks = slice(j + 1, n)
            w = (i + j + np.arange(j + 1, n)) % n
            # t[k, p, s]: the Jacobi sum is 2 sum_{p,s} t x_p x_s x_l
            t = g[j, ks][:, inner[i]] * lead[i]
            t -= g[i, ks][:, inner[j]] * lead[j]
            t += g[i, j, inner[ks]] * lead[ks]
            # the six orderings of (p, s, l) give t twice at each of three
            # placements of l; u[k, p, s] = t[k, p, l] = t[k, l, p]
            u = t[np.arange(len(w))[:, None, None], p, third[w]]
            total = t + u + u.transpose(0, 2, 1)
            worst = max(worst, 4.0 * float(
                np.max(np.abs(total) * inv_stab[w])))
    return worst / scale ** 2


def dense_jacobi_defect(b: QuadraticBracket) -> float:
    """Largest coefficient of the cyclic Jacobi sum over generator triples,
    divided by the square of the largest monomial coefficient.

    With Q the dense tensor, {x_i, {x_j, x_k}} = 2 sum Q[j,k,a,l] Q[i,a,p,s]
    x_p x_s x_l; for each pair i < j the three cyclic terms are contracted
    over a for all k > j at once, and the coefficient of the monomial
    x_p x_s x_l is read off as the sum over the orderings of (p, s, l)
    divided by the order of the stabilizer of the index triple.
    """
    n = b.n
    q = dense_tensor(b)
    scale = float(np.max(np.abs(q * (2.0 - np.eye(n))), initial=0.0))
    if scale == 0.0:
        return 0.0
    idx = np.arange(n)
    p, s, l = np.ix_(idx, idx, idx)
    equal = (p == s).astype(int) + (s == l) + (p == l)  # 0, 1 or 3
    inv_stab = np.where(equal == 3, 1.0 / 6.0, np.where(equal == 1, 0.5, 1.0))
    worst = 0.0
    for i in range(n):
        for j in range(i + 1, n - 1):
            ks = slice(j + 1, n)
            # t[k, l, p, s]: the Jacobi sum is 2 sum_{l,p,s} t x_p x_s x_l
            t = np.tensordot(q[j, ks], q[i], axes=(1, 0))
            t -= np.tensordot(q[i, ks], q[j], axes=(1, 0))
            t += np.tensordot(q[ks], q[i, j], axes=(1, 0)).transpose(0, 3, 1, 2)
            # t is symmetric in (p, s): the six orderings of (l, p, s)
            # give t twice at each of three placements of l
            total = t + t.transpose(0, 2, 1, 3)
            total += t.transpose(0, 2, 3, 1)
            worst = max(worst, 4.0 * float(np.max(np.abs(total) * inv_stab)))
    return worst / scale ** 2


def _transpose_perm(m: int) -> Mat:
    out = np.zeros((m * m, m * m), dtype=np.int64)
    for a in range(m):
        for b in range(m):
            # column-major: entry (row, col) of a matrix sits at col*m + row
            out[b * m + a, a * m + b] = 1
    return Mat(out)


def dense_duality_t(H) -> Mat:
    """(C^0)^dual -> C^0: blockwise (-1)^i times the trace-pairing duality."""
    dim0 = H.dim(0)
    out = np.zeros((dim0, dim0), dtype=np.int64)
    for (i, rows, cols, off) in H.blocks(0):
        perm = _transpose_perm(rows)
        piece = perm.num if i % 2 == 0 else -perm.num
        out[off:off + rows * cols, off:off + rows * cols] = piece
    return Mat(out)


def dense_kappa_inverse_deg_minus1(H) -> Mat:
    """(C^1)^dual -> C^{-1} inverting the trace pairing between C^{+-1}."""
    rows = H.dim(-1)
    cols = H.dim(1)
    out = np.zeros((rows, cols), dtype=np.int64)
    plus_off = {i: (r, c, off) for (i, r, c, off) in H.blocks(1)}
    for (i, r_m, c_m, off_m) in H.blocks(-1):
        # block i of C^{-1}: E^i -> E^{i-1}; pairs with block i-1 of C^1
        if (i - 1) not in plus_off:
            continue
        r_p, c_p, off_p = plus_off[i - 1]
        sign = 1 if i % 2 == 0 else -1
        # elementary (a, b) in the minus block pairs with (b, a) in the plus
        for a in range(r_m):
            for b in range(c_m):
                out[off_m + b * r_m + a, off_p + a * r_p + b] = sign
    return Mat(out)


def dense_trace_pairing(H, d: int) -> Mat:
    """C^d -> C^{-d}, entry by entry from the trace: entry (a, b) of block i
    of C^d, Hom(E^i, E^{i+d}), goes to (-1)^i times entry (b, a) of block
    i + d of C^{-d}, Hom(E^{i+d}, E^i), both column-major."""
    out = np.zeros((H.dim(-d), H.dim(d)), dtype=np.int64)
    dual = {i: (r, off) for (i, r, _, off) in H.blocks(-d)}
    for (i, rows, cols, off) in H.blocks(d):
        dual_rows, dual_off = dual[i + d]
        for a in range(rows):
            for b in range(cols):
                out[dual_off + a * dual_rows + b, off + b * rows + a] = (
                    -1 if i % 2 else 1)
    return Mat(out)


def homology_dims(dims: dict, diffs: dict, ranks: dict | None = None) -> dict:
    """Homology dimensions by exact rank; calls that share ``ranks`` (rank
    by id of the differential) rank a shared differential once."""
    ranks = {} if ranks is None else ranks
    for m in diffs.values():
        if id(m) not in ranks:
            ranks[id(m)] = m.rank()
    rank = {d: ranks[id(m)] for d, m in diffs.items()}
    return {d: dims[d] - rank.get(d, 0) - rank.get(d - 1, 0)
            for d in sorted(dims)}


def identity(n: int) -> Mat:
    return Mat(np.eye(n, dtype=np.int64))


def mat_entry(m: Mat, i: int, j: int) -> int:
    """Entry (i, j) of an exact matrix as a Python int."""
    return int(m.num[i, j])


def phi_psi_pairing(system) -> np.ndarray:
    """<phi_a, psi_b> by the trace form of a ``ResidueSystem``; equals the
    identity within quadrature error."""
    return system.tr(system.phi[:, None] * system.psi)


def ratio_dtheta(basis: ThetaBasis, alpha: int) -> complex:
    """theta_alpha'(0) / theta_alpha(0) for alpha != 0 mod n."""
    alpha %= basis.n
    if alpha == 0:
        raise ValueError("theta_0(0) = 0; the logarithmic value is undefined")
    return basis.dtheta_at_zero[alpha] / basis.theta_at_zero[alpha]


def _principal_part(system, samples) -> float:
    """Largest |c_-2|, |c_-1| over the discs of an (n, P) sample table of a
    ``ResidueSystem``."""
    return float(np.max(np.abs(_node_coeffs(samples, system.offsets,
                                            (-2, -1)))))


def verify_p_plus(system, alpha: int, beta: int,
                  coeff_scale: float = 1.0) -> float:
    """Largest principal-part coefficient of psi_a phi_b - P_+(psi_a phi_b).

    P_+(psi_a phi_b) is ``system.projection_coeffs`` at t = e_a,
    phi = phi_b.  A small value certifies the closed form; ``coeff_scale``
    != 1 rescales the closed form to demonstrate the check has power.  The
    diagonal alpha = beta is defined only inside zero-sum combinations
    (:func:`verify_p_plus_zero_sum`) and is rejected here.
    """
    n = system.basis.n
    alpha %= n
    beta %= n
    if alpha == beta:
        raise ValueError("psi_a phi_a has nonzero residues; only zero-sum "
                         "combinations of such products are projectable")
    unit = np.eye(n, dtype=complex)
    phi_c, dphi_c = system.projection_coeffs(unit[alpha], unit[beta])
    projected = system._combine(coeff_scale * phi_c, coeff_scale * dphi_c)
    return _principal_part(system,
                           system.psi[alpha] * system.phi[beta] - projected)


def verify_p_plus_zero_sum(system, coeffs) -> float:
    """Principal-part residual of sum_a c_a psi_a phi_a when sum c_a = 0.

    The projection of such a combination vanishes, so the combination
    itself must be regular near every point of D.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    if len(coeffs) != system.basis.n:
        raise ValueError("need one coefficient per index")
    if abs(np.sum(coeffs)) > 1e-12 * max(1.0, float(np.max(np.abs(coeffs)))):
        raise ValueError("coefficients must sum to zero")
    return _principal_part(system,
                           system._samples(coeffs, system.psi * system.phi))


def verify_trace_identity(system, i: int, j: int) -> float:
    """|F(i,j-i) tr(phi_{j-i} phi_i psi_j) - (th'_i/th_i + th'_{j-i}/th_{j-i}
    - 2 pi i n)| for i, j, i-j nonzero mod n."""
    basis = system.basis
    n = basis.n
    if i % n == 0 or j % n == 0 or (i - j) % n == 0:
        raise ValueError("need i, j and i - j nonzero mod n")
    lhs = system.f[i % n, (j - i) % n] * system.t3[(j - i) % n, i % n]
    rhs = (ratio_dtheta(basis, i) + ratio_dtheta(basis, j - i)
           - 2j * math.pi * n)
    return float(abs(lhs - rhs))


def closed_form_grid(system, t) -> np.ndarray:
    """The grid of {t_i, t_j}, i, j = 1..n-1, of the closed residue route
    at a chart point t (n,) or a stack (..., n), by its fully expanded
    formula

        term1 - term2 - t_i conv_j + t_j conv_i
        + t_{i+j} (TD[i, j] - TD[j, i]),

    term1 = sum_r t_{i+r} t_{j-r} F(j-r, r) T3[r, i],
    term2 = sum_r t_{i+r} t_{j-r} F(i+r, -r) T3[-r, j] (r = 1..n-1) and
    conv_m = sum_{r != m} t_r t_{m-r} F(r, m-r), reading only ``f``,
    ``t3`` and ``td`` of ``system``."""
    f, t3, td = system.f, system.t3, system.td
    n = len(f)
    t = np.asarray(t, dtype=complex)
    k, r = np.arange(n), np.arange(1, n)
    i, j = r[:, None], r[None, :]
    ir, jr = (i[..., None] + r) % n, (j[..., None] - r) % n
    mr = (k[:, None] - k) % n
    words = t.take(ir, axis=-1) * t.take(jr, axis=-1)
    term1 = (words * f[jr, r] * t3[r, i[..., None]]).sum(axis=-1)
    term2 = (words * f[ir, -r] * t3[-r, j[..., None]]).sum(axis=-1)
    terms = t[..., None, :] * t.take(mr, axis=-1) * f[k, mr]
    terms[..., k, k] = 0.0  # r = m
    conv = terms.sum(axis=-1)
    return (term1 - term2 - t.take(i, axis=-1) * conv.take(j, axis=-1)
            + t.take(j, axis=-1) * conv.take(i, axis=-1)
            + t.take((i + j) % n, axis=-1) * (td[i, j] - td[j, i]))


def entrywise_trace_grid(system, t) -> np.ndarray:
    """The grid of {t_i, t_j}, i, j = 1..n-1, of the trace route at a
    chart point t (n,) or a stack (..., n), entry by entry:
    tr(cocycle_j samples_i - cocycle_i samples_j), with samples_i the
    samples of phi_i - t_i phi_0 and cocycle_j = psi_t P_+(psi_t (phi_j -
    t_j phi_0)), each difference formed over all n P nodes and then traced
    by ``system.tr``."""
    n = system.basis.n
    t = np.asarray(t, dtype=complex)
    # row i: the cotangent vector phi_i - t_i phi_0, and its samples
    dt = np.zeros(t.shape + (n,), dtype=complex)
    dt.reshape(-1, n * n)[:, ::n + 1] = 1.0
    dt[..., 0] -= t
    samples = system.phi - t[..., None, None]
    psi_t = t[..., None, :] @ system.psi.reshape(n, -1)
    cocycle = (system._combine(*system.projection_coeffs(t, dt))
               * psi_t.reshape(t.shape[:-1] + (1,) + system.psi.shape[1:]))
    # entry (i, j) of cocycle_j samples_i is entry (j, i) of the term
    # subtracted
    row = t.ndim - 1
    r = np.arange(1, n)
    prod = (cocycle.take(r[None, :], axis=row)
            * samples.take(r[:, None], axis=row))
    return system.tr(prod - prod.swapaxes(row, row + 1))


def closed_route_table(system) -> np.ndarray:
    """The coefficient table G[i, j, k] of x_k x_{i+j-k} in {x_i, x_j}
    that the closed residue route descends to the chart, one entry at a
    time: G[0, j, k] = F(k, j-k) for k != j, G[i, 0] = -G[0, i], and for
    i, j >= 1 with r = k - i, F(j-r, r) T3[r, i] - F(k, -r) T3[-r, j] for
    r != 0, plus TD[i, j] - TD[j, i] at k = i + j (indices mod n)."""
    f, t3, td = system.f.tolist(), system.t3.tolist(), system.td.tolist()
    n = len(f)
    g = np.zeros((n, n, n), dtype=complex)
    for i, j, k in itertools.product(range(n), repeat=3):
        value = 0j
        if i == 0:
            if k != j:
                value = f[k][(j - k) % n]
        elif j == 0:
            if k != i:
                value = -f[k][(i - k) % n]
        else:
            r = (k - i) % n
            if r:
                value = (f[(j - r) % n][r] * t3[r][i]
                         - f[k][-r % n] * t3[-r % n][j])
            if k == (i + j) % n:
                value += td[i][j] - td[j][i]
        g[i, j, k] = value
    return g


def dense_hom_differential(H, d: int) -> Mat:
    """The differential C^d -> C^{d+1} of the endomorphism complex H,
    block by block from its definition: I (x) phi_{i+d} from Hom(E^i,
    E^{i+d}) and -(-1)^d phi_i^T (x) I from Hom(E^{i+1}, E^{i+d+1}), each a
    dense Kronecker product (``Mat.kron``), zero blocks elsewhere, the
    block rows joined by ``hstack`` and stacked by ``vstack``."""
    E = H.source
    shape = (H.dim(d + 1), H.dim(d))
    if not all(shape):
        return Mat.zeros(*shape)
    rows = []
    for (ti, trows, tcols, _) in H.blocks(d + 1):
        row = []
        for (si, srows, scols, _) in H.blocks(d):
            if si == ti:
                piece = identity(scols).kron(E.diff(ti + d))
            elif si == ti + 1:
                piece = E.diff(ti).T.kron(identity(trows))
                if d % 2 == 0:
                    piece = -piece
            else:
                piece = Mat.zeros(trows * tcols, srows * scols)
            row.append(piece)
        rows.append(hstack(row))
    return vstack(rows)


def dense_cone_and_sum(H, sign_flip: bool):
    """Degree data and dense differentials of the two printed complexes.

    Returns (dims, d_cone, d_sum, change) where degree 0 of both complexes
    is C^0 + C^0; in the cone the first summand is the shifted target copy,
    in the direct sum it is the untruncated complex.  The two complexes
    share one differential object in every degree but -1.
    """
    dims = {d: H.dim(d) for d in range(H.deg_min, H.deg_max + 1)}
    dims[0] = 2 * H.dim(0)
    d_cone = {}
    d_sum = {}
    for d in range(H.deg_min, H.deg_max):
        if d == -1:
            d_cone[d] = vstack([H.diff(-1), H.diff(-1)])
            d_sum[d] = vstack([H.diff(-1), Mat.zeros(H.dim(0), H.dim(-1))])
        elif d == 0:
            d_cone[d] = d_sum[d] = hstack([H.diff(0),
                                           Mat.zeros(H.dim(1), H.dim(0))])
        else:
            d_cone[d] = d_sum[d] = H.diff(d)
    ident = identity(H.dim(0))
    change = vstack([hstack([ident, Mat.zeros(H.dim(0), H.dim(0))]),
                     hstack([-ident if sign_flip else ident, -ident])])
    return dims, d_cone, d_sum, change


def dense_cone_iso_check(H, sign_flip: bool = False,
                         with_homology: bool = False):
    """``cone_iso_check`` on dense matrices: the same checks in the same
    order with the same failure messages.  Returns (ok, failures)."""
    dims, d_cone, d_sum, change = dense_cone_and_sum(H, sign_flip)
    failures = []
    for d in sorted(d_cone):
        nxt = d_cone.get(d + 1)
        if nxt is not None and not (nxt @ d_cone[d]).is_zero():
            failures.append(f"cone differential squares to zero at degree {d}")
        nxt = d_sum.get(d + 1)
        if nxt is not None and not (nxt @ d_sum[d]).is_zero():
            failures.append(f"sum differential squares to zero at degree {d}")
    # chain-map squares; the comparison map is the identity off degree 0
    for d in sorted(d_cone):
        lhs = change @ d_cone[d] if d + 1 == 0 else d_cone[d]
        rhs = d_sum[d] @ change if d == 0 else d_sum[d]
        if not lhs == rhs:
            failures.append(f"chain-map square at degrees ({d}, {d + 1})")
    if not (change @ change == identity(change.shape[0])):
        failures.append("degree-0 comparison block is not an involution")
    # commuting square with the inclusion of C^{>=0}: through the cone and
    # the comparison map, a section lands as (y, y) in degree 0
    dim0 = H.dim(0)
    incl = vstack([identity(dim0), Mat.zeros(dim0, dim0)])
    delta = vstack([identity(dim0), identity(dim0)])
    if not (change @ incl == delta):
        failures.append("square with the truncation inclusion does not commute")
    if H.dim(1) and not (d_cone[0] @ incl == H.diff(0)):
        failures.append("truncation inclusion is not a chain map into the cone")
    if with_homology and not failures:
        ranks = {}
        if homology_dims(dims, d_cone, ranks) != homology_dims(dims, d_sum,
                                                               ranks):
            failures.append("homology dimensions differ")
    return (not failures), failures


def leaf_dimension(n: int, t: TorsionType) -> LeafRecord:
    """Expected leaf dimension 2n + 1 - end_dim_sheaf over the type t."""
    l = t.length
    if l > n:
        raise ValueError("torsion length exceeds n")
    end_t = end_dim_sheaf(t) - 1 - l
    expected = 2 * n - l - end_t
    return LeafRecord(t, l, end_t, expected, expected >= 0)


def _descending_partitions(m: int, largest: int):
    if m == 0:
        yield ()
        return
    for first in range(min(m, largest), 0, -1):
        for rest in _descending_partitions(m - first, first):
            yield (first,) + rest


def stratum_counts(n: int) -> np.ndarray:
    """counts[l, e]: the number of torsion types of length l and torsion
    end_dim e, for l <= n, as the coefficient of x^l y^e in
    prod_lambda (1 - x^|lambda| y^e(lambda))^-1 over the partitions lambda
    of 1..n, with e(lambda) = sum_i (2i - 1) lambda_i for lambda descending.
    Each factor is a geometric series, multiplied in by integer
    convolution."""
    counts = np.zeros((n + 1, n * n + 1), dtype=np.int64)
    counts[0, 0] = 1
    for size in range(1, n + 1):
        for parts in _descending_partitions(size, size):
            e = sum((2 * i + 1) * part for i, part in enumerate(parts))
            # times 1 / (1 - x^size y^e), ascending in l so that each
            # type can repeat
            for l in range(size, n + 1):
                counts[l, e:] += counts[l - size, :counts.shape[1] - e]
    return counts

