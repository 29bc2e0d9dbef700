"""Quadratic Poisson brackets on n variables and their canonical form.

Every bracket here is Z/n-graded, so it is one complex table G[i, j, k]
with {x_i, x_j} = sum_k G[i, j, k] x_k x_{i+j-k}, antisymmetric in (i, j)
and unchanged under k -> i+j-k; Jacobi certification multiplies entries of
G pairwise.  For brackets invariant under the order-n Heisenberg group the
whole table collapses to a single symmetric table
C(alpha, beta) = G[0, alpha+beta, alpha] with

    {x_i, x_j} = sum_r C(r, j-i-r) x_{i+r} x_{j-r},
    C(beta, alpha) = C(alpha, beta) = -C(-alpha, -beta).

Any graded bracket descends to the chart t_i = x_i / x_0 of projective
space by the chart rule {t_i, t_j} = {x_i, x_j} - t_i {x_0, x_j}
- t_j {x_i, x_0} at x = t, which :func:`projective_matrix` reads off G.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvarianceError

# canonical-table checks, relative to the largest coefficient
CANONICAL_TOL = 1e-8

# largest number of entries in one temporary of jacobi_defect: a chunk's
# few complex temporaries of 2^12 entries stay in a core's L2 cache and keep
# the working memory of a call under 0.5 MB at n = 13; chunks of 2^15
# entries ran slower at n = 13 and n = 31
_JACOBI_CHUNK = 2 ** 12


class QuadraticBracket:
    """A graded quadratic bracket held as one coefficient table.

    ``coeffs[i, j, k]`` is the coefficient of x_k x_l, l = i+j-k mod n, in
    {x_i, x_j} = sum_k coeffs[i, j, k] x_k x_l.  It must be antisymmetric
    in (i, j) and equal at k and l, and both are checked exactly.  The
    coefficient of the monomial x_k x_l is therefore 2 coeffs[i, j, k] for
    k != l and coeffs[i, j, k] on the squares 2k = i+j mod n (one k for
    odd n, two or none for even n).  Omitting ``coeffs`` gives the zero
    bracket.  Only exact zeros are absent terms.
    """

    __slots__ = ("n", "coeffs")

    def __init__(self, n, coeffs=None):
        shape = (n,) * 3
        g = (np.zeros(shape, dtype=complex) if coeffs is None
             else np.asarray(coeffs, dtype=complex))
        if g.shape != shape:
            raise ValueError(f"coefficient table must have shape {shape}")
        i, j, k = np.indices(shape)
        if not (np.array_equal(g, -g.transpose(1, 0, 2))
                and np.array_equal(g, g[i, j, (i + j - k) % n])):
            raise ValueError("coefficient table must be antisymmetric in "
                             "(i, j) and equal at k and i+j-k")
        self.n = n
        self.coeffs = g

    def _weights(self) -> np.ndarray:
        """The factor, 2 or 1 on the squares, that takes a table entry at
        [i, j, k] to the coefficient of the monomial x_k x_{i+j-k}."""
        i, j, k = np.indices(self.coeffs.shape)
        return np.where((2 * k - i - j) % self.n, 2.0, 1.0)

    def monomials(self) -> np.ndarray:
        """Coefficient of the monomial x_k x_{i+j-k} in {x_i, x_j} at
        [i, j, k]."""
        return self.coeffs * self._weights()

    def max_abs(self):
        return float(np.max(np.abs(self.monomials()), initial=0.0))

    def max_difference(self, other):
        """Largest monomial-coefficient difference to ``other``."""
        return float(other.max_differences(self.coeffs[None])[0])

    def max_differences(self, tables) -> np.ndarray:
        """Largest monomial-coefficient difference of each coefficient
        table of a stack on the leading axis to this bracket; the tables
        are taken unchecked."""
        diff = np.asarray(tables) * self._weights() - self.monomials()
        return np.max(np.abs(diff), axis=(-3, -2, -1), initial=0.0)


@dataclass(frozen=True)
class HnBracket:
    """Canonical table C(alpha, beta) of a Heisenberg-invariant bracket."""

    n: int
    table: np.ndarray

    def __post_init__(self):
        tab = np.asarray(self.table, dtype=complex)
        if tab.shape != (self.n, self.n):
            raise ValueError("table must be n x n")
        object.__setattr__(self, "table", tab)
        scale = max(float(np.max(np.abs(tab))), 1e-30)
        sym = np.max(np.abs(tab - tab.T))
        idx = np.arange(self.n)
        neg = tab[np.ix_((-idx) % self.n, (-idx) % self.n)]
        skew = np.max(np.abs(tab + neg))
        if max(sym, skew, abs(tab[0, 0])) > CANONICAL_TOL * scale:
            raise ValueError("table violates the symmetries "
                             "C(b,a)=C(a,b)=-C(-a,-b), C(0,0)=0")

    def to_quadratic(self) -> QuadraticBracket:
        """{x_i, x_j} = sum_r C(r, j-i-r) x_{i+r} x_{j-r}, built for i < j.

        The monomial x_{i+a} x_{i+b} gets C(a, b) + C(b, a).
        """
        n = self.n
        d, r = np.indices((n, n))
        return QuadraticBracket(n, pair_tensor(self.table[(d - r) % n, r]))


def pair_tensor(g) -> np.ndarray:
    """Coefficient table of the bracket whose {x_i, x_j}, i < j, is
    sum_r g[j-i, r] x_{j-r} x_{i+r}.

    The words r and j-i-r name the same monomial, so each entry is the
    mean of the two; the entries for i > j are their exact negatives, and
    row g[0] (i = j) is multiplied by zero.  Leading axes of g are kept,
    so a stack of word tables gives a stack of coefficient tables.
    """
    n = g.shape[-1]
    i, j, k = np.indices((n, n, n))
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    out = g[..., hi - lo, (hi - k) % n] + g[..., hi - lo, (k - lo) % n]
    out *= np.sign(j - i)
    out /= 2.0
    return out


def jacobi_defect(b: QuadraticBracket) -> float:
    """Largest coefficient of the cyclic Jacobi sum over generator triples,
    divided by the square of the largest monomial coefficient, so that the
    result does not change when the bracket is rescaled.

    With G = ``b.coeffs``, {x_i, {x_j, x_k}} = 2 sum_{a,p} G[j,k,a]
    G[i,a,p] x_p x_s x_l with s = i+a-p and l = j+k-a.  Indexed by (p, s),
    a = p+s-i is fixed, so each cyclic term is an entrywise product
    t[p, s], symmetric in (p, s), with l = i+j+k-p-s; the coefficient of
    x_p x_s x_l is the sum over the orderings of (p, s, l) divided by the
    order of the stabilizer of the index triple.  Every factor is gathered
    from ``G.ravel()`` at flat offsets, whose tables are built once per
    call, and the triples i < j < k run in lexicographic chunks of at most
    ``_JACOBI_CHUNK`` entries per temporary.
    """
    scale = b.max_abs()
    if scale == 0.0:
        return 0.0
    n = b.n
    g = b.coeffs
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
    # u[p, s] = t[p, l] at offset swap[w] of an n x n block
    swap = p * n + third
    # the triples i < j < k in lexicographic order, and their weights
    idx = np.arange(n)
    i, j, k = np.nonzero((idx[:, None, None] < idx[:, None])
                         & (idx[:, None] < idx))
    w = (i + j + k) % n
    # offsets of the rows G[j, k], G[i, k] and G[i, j] of each triple
    jk, ik, ij = (((a * n + c) * n)[:, None, None]
                  for a, c in ((j, k), (i, k), (i, j)))
    step = max(1, _JACOBI_CHUNK // (n * n))
    block = np.arange(0, step * n * n, n * n)[:, None, None]
    flat = g.ravel()
    worst = 0.0
    for lo in range(0, len(i), step):
        c = slice(lo, lo + step)
        ci, cj, ck, cw = i[c], j[c], k[c], w[c]
        # t[., p, s]: the Jacobi sum is 2 sum_{p,s} t x_p x_s x_l
        t = flat[jk[c] + inner[ci]]
        t *= lead[ci]
        v = flat[ik[c] + inner[cj]]
        v *= lead[cj]
        t -= v
        v = flat[ij[c] + inner[ck]]
        v *= lead[ck]
        t += v
        # the six orderings of (p, s, l) give t twice at each of three
        # placements of l; u[., p, s] = t[., p, l] = t[., l, p]
        u = t.ravel()[block[:len(cw)] + swap[cw]]
        v = t + u
        v += u.transpose(0, 2, 1)
        size = np.abs(v)
        size *= inv_stab[cw]
        worst = max(worst, 4.0 * float(size.max()))
    return worst / scale ** 2


def hn_canonical_extract(b: QuadraticBracket) -> HnBracket:
    """Recover the unique C(alpha, beta) of a Heisenberg-invariant bracket.

    C(alpha, beta) is the table entry of x_{i+alpha} x_{i+beta} in
    {x_i, x_{i+alpha+beta}}, and candidates must agree for every base
    point i; the layout of the table already forces
    C(alpha, beta) = C(beta, alpha).  Raises :class:`InvarianceError` when
    the candidates disagree, or C(-alpha, -beta) != -C(alpha, beta), beyond
    ``CANONICAL_TOL`` relative to the largest coefficient.
    """
    n = b.n
    scale = max(b.max_abs(), 1e-30)
    # candidates[i, alpha, beta]; alpha + beta = 0 reads G[i, i] = 0
    i, alpha, beta = np.indices((n, n, n))
    candidates = b.coeffs[i, (i + alpha + beta) % n, (i + alpha) % n]
    table = candidates[0]
    idx = np.arange(n)
    spread = np.max(np.abs(candidates - table), initial=0.0)
    skew = np.max(np.abs(table + table[np.ix_((-idx) % n, (-idx) % n)]),
                  initial=0.0)
    violation = max(float(spread), float(skew))
    if violation > CANONICAL_TOL * scale:
        raise InvarianceError(
            f"bracket is not Heisenberg-invariant: violation {violation:.3e} "
            f"(scale {scale:.3e})")
    return HnBracket(n, table)


def chart_point(n: int, t) -> np.ndarray:
    """t as a complex point t_i = x_i / x_0 of the chart x_0 = 1 of
    P^{n-1}; ValueError unless t has length n and t[0] = 1."""
    t = np.asarray(t, dtype=complex)
    if len(t) != n or t[0] != 1:
        raise ValueError("t must have length n with t[0] = 1")
    return t


def projective_matrix(b: QuadraticBracket, t) -> np.ndarray:
    """All {t_i, t_j} on the chart x_0 = 1 as an n x n array whose row and
    column 0 are zero, by the chart rule

        {t_i, t_j} = {x_i, x_j} - t_i {x_0, x_j} - t_j {x_i, x_0}  at x = t.
    """
    n = b.n
    t = chart_point(n, t)
    k = np.arange(n)
    # words[i, j, k] = t_k t_l, l = i+j-k: the monomials of {x_i, x_j}
    words = t * t[((k[:, None] + k)[..., None] - k) % n]
    x = (b.coeffs * words).sum(axis=-1)
    return x - t[:, None] * x[0] - t * x[:, :1]
