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

Every index table these functions gather with depends on n alone, so it is
built once per n, read-only, and shared by every bracket of that order
(:func:`_layout`, :func:`_jacobi_layout`).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import InvarianceError

# canonical-table checks, relative to the largest coefficient
CANONICAL_TOL = 1e-8

# largest number of entries in one temporary of jacobi_defect: a chunk's
# few complex temporaries of 2^12 entries stay in a core's L2 cache and keep
# the working memory of a call under 0.5 MB at n = 13; chunks of 2^15
# entries ran slower at n = 13 and n = 31
_JACOBI_CHUNK = 2 ** 12

# largest number of entries per temporary of a stacked bracket route
# (projective_matrix and ResidueSystem.bracket_matrix): a stack of chart
# points runs in chunks of whole points under this budget.  Complex
# temporaries of 2^13 entries (128 KiB) keep a chunk's working set in a
# core's L2 cache; on the trace route 2^12 ran slower at n = 5, and 2^14
# and 2^15 at n = 3
_STACK_CHUNK = 2 ** 13


class QuadraticBracket:
    """A graded quadratic bracket held as one coefficient table.

    ``coeffs[i, j, k]`` is the coefficient of x_k x_l, l = i+j-k mod n, in
    {x_i, x_j} = sum_k coeffs[i, j, k] x_k x_l.  It must be antisymmetric
    in (i, j) and equal at k and l, and both are checked exactly.  The
    coefficient of the monomial x_k x_l is therefore 2 coeffs[i, j, k] for
    k != l and coeffs[i, j, k] on the squares 2k = i+j mod n (one k for
    odd n, two or none for even n); ``weights`` holds that factor, 2 or 1,
    for every entry, and is the read-only table every bracket of order n
    shares (:func:`_layout`).  Omitting ``coeffs`` gives the zero bracket.
    Only exact zeros are absent terms.
    """

    __slots__ = ("n", "coeffs", "weights")

    def __init__(self, n, coeffs=None):
        shape = (n,) * 3
        g = (np.zeros(shape, dtype=complex) if coeffs is None
             else np.asarray(coeffs, dtype=complex))
        if g.shape != shape:
            raise ValueError(f"coefficient table must have shape {shape}")
        layout = _layout(n)
        if not (np.array_equal(g, -g.transpose(1, 0, 2))
                and np.array_equal(g, g.take(layout.mirror))):
            raise ValueError("coefficient table must be antisymmetric in "
                             "(i, j) and equal at k and i+j-k")
        self.n = n
        self.coeffs = g
        self.weights = layout.weights

    def monomials(self) -> np.ndarray:
        """Coefficient of the monomial x_k x_{i+j-k} in {x_i, x_j} at
        [i, j, k]."""
        return self.coeffs * self.weights

    def max_abs(self):
        return float(np.max(np.abs(self.monomials()), initial=0.0))

    def max_difference(self, other):
        """Largest monomial-coefficient difference to ``other``."""
        return float(other.max_differences(self.coeffs[None])[0])

    def max_differences(self, tables) -> np.ndarray:
        """Largest monomial-coefficient difference of each coefficient
        table of a stack on the leading axis to this bracket; the tables
        are taken unchecked."""
        diff = np.asarray(tables) * self.weights - self.monomials()
        return np.max(np.abs(diff), axis=(-3, -2, -1), initial=0.0)


def pair_tensor(g) -> np.ndarray:
    """Coefficient table of the bracket whose {x_i, x_j}, i < j, is
    sum_r g[j-i, r] x_{j-r} x_{i+r}.

    The words r and j-i-r name the same monomial, so each entry is the
    mean of the two; the entries for i > j are their exact negatives, and
    row g[0] (i = j) is multiplied by zero.  Leading axes of g are kept,
    so a stack of word tables gives a stack of coefficient tables.  Both
    words are gathered from the flattened n x n table at the offsets of
    :func:`_layout`.
    """
    n = g.shape[-1]
    layout = _layout(n)
    words = g.reshape(g.shape[:-2] + (n * n,))
    out = words.take(layout.word, axis=-1)
    out += words.take(layout.partner, axis=-1)
    out *= layout.sign
    out /= 2.0
    return out


class _Layout:
    """The read-only n x n x n index tables of the coefficient tables of
    order n: ``third`` holds i+j-k mod n at [i, j, k] (the chart words of
    :func:`projective_matrix`), ``mirror`` the flat offset of [i, j, i+j-k]
    and ``weights`` the monomial factor of :class:`QuadraticBracket`;
    ``word`` and ``partner`` are the flat offsets into an n x n word table
    of the words hi-k and k-lo of row hi-lo (lo, hi = min, max of i, j)
    that :func:`pair_tensor` averages, and ``sign`` is sign(j - i).  12.0 MB
    at n = 63.
    """

    __slots__ = ("third", "mirror", "weights", "word", "partner", "sign")

    def __init__(self, n):
        i, j, k = np.indices((n,) * 3)
        lo, hi = np.minimum(i, j), np.maximum(i, j)
        self.third = (i + j - k) % n
        self.mirror = (i * n + j) * n + self.third
        # the factor, 2 or 1 on the squares, that takes a table entry at
        # [i, j, k] to the coefficient of the monomial x_k x_{i+j-k}
        self.weights = np.where((2 * k - i - j) % n, 2.0, 1.0)
        self.word = (hi - lo) * n + (hi - k) % n
        self.partner = (hi - lo) * n + (k - lo) % n
        self.sign = np.sign(j - i)
        for name in self.__slots__:
            getattr(self, name).setflags(write=False)


# a bracket round of the benchmark reads 8 orders n, n = 5..13, whose
# tables retain 0.4 MB here and 0.3 MB in _jacobi_layout; eight orders at
# n = 56..63 would retain 81 MB and 69 MB
@functools.lru_cache(maxsize=8)
def _layout(n) -> _Layout:
    return _Layout(n)


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
    from ``G.ravel()`` at flat offsets, whose tables are built once per n
    (:func:`_jacobi_layout`), and the triples i < j < k run in
    lexicographic chunks of at most ``_JACOBI_CHUNK`` entries per
    temporary.  A NaN chunk, an infinite coefficient or a scale whose
    square is not finite reads NaN.
    """
    scale = b.max_abs()
    if scale == 0.0:
        return 0.0
    # an infinite coefficient, or a scale whose square leaves double range
    # (where ``scale ** 2`` raises), has no defect to read: NaN, which
    # fails every tolerance
    if not math.isfinite(scale * scale):
        return math.nan
    n = b.n
    layout = _jacobi_layout(n)
    flat = b.coeffs.ravel()
    lead = flat.take(layout.lead)
    step = max(1, _JACOBI_CHUNK // (n * n))
    block = np.arange(0, step * n * n, n * n)[:, None, None]
    worst = 0.0
    for lo in range(0, len(layout.i), step):
        c = slice(lo, lo + step)
        ci, cj, ck, cw = layout.i[c], layout.j[c], layout.k[c], layout.w[c]
        # t[., p, s]: the Jacobi sum is 2 sum_{p,s} t x_p x_s x_l
        t = flat[layout.jk[c] + layout.inner[ci]]
        t *= lead[ci]
        v = flat[layout.ik[c] + layout.inner[cj]]
        v *= lead[cj]
        t -= v
        v = flat[layout.ij[c] + layout.inner[ck]]
        v *= lead[ck]
        t += v
        # the six orderings of (p, s, l) give t twice at each of three
        # placements of l; u[., p, s] = t[., p, l] = t[., l, p]
        u = t.ravel()[block[:len(cw)] + layout.swap[cw]]
        v = t + u
        v += u.transpose(0, 2, 1)
        size = np.abs(v)
        size *= layout.inv_stab[cw]
        # np.maximum keeps a NaN chunk, which Python's max would drop
        worst = np.maximum(worst, 4.0 * float(size.max()))
    return float(worst / scale ** 2)


class _JacobiLayout:
    """The read-only index tables of :func:`jacobi_defect` at order n.

    A term {x_x, x_a x_l} reaches x_p x_s through a = ``inner[x, p, s]``,
    and ``lead`` is the flat offset of G[x, p+s-x, p]; the monomials of
    weight w are x_p x_s x_l with l = (w - p - s) mod n, ``swap[w]`` is the
    offset of t[p, l] in an n x n block and ``inv_stab[w]`` is
    1 / |stabilizer of (p, s, l)|.  ``i``, ``j``, ``k`` list the triples
    i < j < k in lexicographic order, ``w`` their weights, and ``jk``,
    ``ik``, ``ij`` the flat offsets of the rows G[j, k], G[i, k] and
    G[i, j].  10.2 MB at n = 63.
    """

    __slots__ = ("inner", "lead", "swap", "inv_stab", "i", "j", "k", "w",
                 "jk", "ik", "ij")

    def __init__(self, n):
        p, s = np.indices((n, n))
        x = np.arange(n)[:, None, None]
        self.inner = (p + s - x) % n
        third = (x - p - s) % n
        self.lead = (x * n + self.inner) * n + p
        # 1 / |stabilizer of (p, s, l)| by the number of equal pairs, 0, 1
        # or 3
        equal = (p == s).astype(int) + (s == third) + (p == third)
        self.inv_stab = np.array([1.0, 0.5, 0.0, 1.0 / 6.0])[equal]
        self.swap = p * n + third
        idx = np.arange(n)
        self.i, self.j, self.k = np.nonzero(
            (idx[:, None, None] < idx[:, None]) & (idx[:, None] < idx))
        self.w = (self.i + self.j + self.k) % n
        self.jk, self.ik, self.ij = (
            ((a * n + c) * n)[:, None, None]
            for a, c in ((self.j, self.k), (self.i, self.k),
                         (self.i, self.j)))
        for name in self.__slots__:
            getattr(self, name).setflags(write=False)


@functools.lru_cache(maxsize=8)
def _jacobi_layout(n) -> _JacobiLayout:
    return _JacobiLayout(n)


def hn_canonical_extract(b: QuadraticBracket) -> np.ndarray:
    """The n x n table C[alpha, beta] of a Heisenberg-invariant bracket.

    C(alpha, beta) is the table entry of x_{i+alpha} x_{i+beta} in
    {x_i, x_{i+alpha+beta}}, and candidates must agree for every base
    point i; the layout of the table already forces
    C(alpha, beta) = C(beta, alpha) and C(0, 0) = 0.  Raises
    :class:`InvarianceError` when the candidates disagree, or
    C(-alpha, -beta) != -C(alpha, beta), beyond ``CANONICAL_TOL`` relative
    to the largest monomial coefficient, or when either test reads NaN.
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
    # np.maximum and the negated test keep a NaN, which fails
    violation = float(np.maximum(spread, skew))
    if not violation <= CANONICAL_TOL * scale:
        raise InvarianceError(
            f"bracket is not Heisenberg-invariant: violation {violation:.3e} "
            f"(scale {scale:.3e})")
    return table


def chart_point(n: int, t) -> np.ndarray:
    """t as complex points t_i = x_i / x_0 of the chart x_0 = 1 of
    P^{n-1}, one point per row of any leading stack axes; ValueError
    unless every row has length n and t[..., 0] = 1."""
    try:
        t = np.asarray(t, dtype=complex)
    except ValueError:  # rows of different lengths
        t = None
    if (t is None or t.ndim == 0 or t.shape[-1] != n
            or np.count_nonzero(t[..., 0] != 1)):
        raise ValueError("t must have length n with t[0] = 1")
    return t


def map_stack(route, t, entries: int) -> np.ndarray:
    """``route`` on a chart point t (n,) or a stack t (..., n), whose
    largest temporary holds ``entries`` entries per point.  The route
    always sees a 2-D stack (S, n), of at most ``_STACK_CHUNK // entries``
    points unless one point alone is larger, and returns one result per
    point on its leading axis; the results keep the axes of the stack."""
    flat = t.reshape(-1, t.shape[-1])
    step = max(1, _STACK_CHUNK // entries)
    if len(flat) <= step:
        out = route(flat)
    else:
        out = np.concatenate([route(flat[lo:lo + step])
                              for lo in range(0, len(flat), step)])
    return out.reshape(t.shape[:-1] + out.shape[1:])


def projective_matrix(b: QuadraticBracket, t) -> np.ndarray:
    """All {t_i, t_j} on the chart x_0 = 1 as an n x n array whose row and
    column 0 are zero, by the chart rule

        {t_i, t_j} = {x_i, x_j} - t_i {x_0, x_j} - t_j {x_i, x_0}  at x = t.

    A stack of points t (..., n) gives a stack of matrices (..., n, n),
    each bit for bit the matrix of its point alone (:func:`map_stack`).
    """
    n = b.n
    # words[..., i, j, k] = t_k t_l, l = i+j-k: the monomials of {x_i, x_j}
    pairs = _layout(n).third

    def route(t):
        # take keeps the stack axis outermost in memory, so the sum runs
        # over a contiguous last axis, in the order it takes for one point
        words = t[:, None, None, :] * t.take(pairs, axis=-1)
        x = (b.coeffs * words).sum(axis=-1)
        return x - t[:, :, None] * x[:, :1, :] - t[:, None, :] * x[:, :, :1]

    return map_stack(route, chart_point(n, t), n ** 3)
