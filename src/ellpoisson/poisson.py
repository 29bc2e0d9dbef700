"""Quadratic Poisson brackets on n variables and their canonical form.

Every bracket here is one n x n row table R[d, r]: for i < i+d < n,
{x_i, x_{i+d}} = sum_r R[d, r] x_{i+r} x_{i+d-r} (indices mod n), with
R[d, r] = R[d, d-r], row 0 zero and {x_j, x_i} = -{x_i, x_j}.  So every
bracket is graded and unchanged by the shifts x_i -> x_{i+s} that do not
wrap past n - 1.  It is invariant under the whole order-n Heisenberg group
when the wrapped pairs agree too (:func:`heisenberg_violation` reads how
far they disagree); then it is one symmetric table
C(alpha, beta) = R[alpha+beta, alpha] with

    {x_i, x_j} = sum_r C(r, j-i-r) x_{i+r} x_{j-r},
    C(beta, alpha) = C(alpha, beta) = -C(-alpha, -beta).

Jacobi certification, on the triples of one shift orbit, and
:func:`projective_matrix` read the coefficient table G[i, j, k] of
x_k x_{i+j-k} in {x_i, x_j}, G[i, j, k] = sign(j-i)
R[|j-i|, k-min(i, j)], which each call forms once (:func:`_coefficients`);
:func:`chart_rule` descends any such table, a bracket's or the one of the
closed residue route of ``cech``, to the chart t_i = x_i / x_0.  Every
index table depends on n alone, so it is built once per n, read-only, and
shared by every bracket of that order (:func:`_layout`,
:func:`_jacobi_layout`).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .theta import chunks

# C of: full-triple Jacobi defect <= orbit defect + C * heisenberg_violation
# (derived in :func:`jacobi_defect`)
ORBIT_CONSTANT = 72.0


class QuadraticBracket:
    """A quadratic bracket held as its row table ``rows`` = R (module
    docstring), a read-only copy of the table it is given, whose zero row
    0 and R[d, r] = R[d, d-r] are checked exactly; NaN equals NaN there,
    so a NaN table reaches the checks that fail it.  The monomial
    x_{i+r} x_{i+d-r} of {x_i, x_{i+d}} has the coefficient 2 R[d, r], or
    R[d, r] on the squares 2r = d mod n (one r for odd n, two or none for
    even n); ``weights`` holds that factor for every entry, and is the
    read-only table every bracket of order n shares (:func:`_layout`).
    Omitting ``rows`` gives the zero bracket.  Only exact zeros are absent
    terms.
    """

    __slots__ = ("n", "rows", "weights")

    def __init__(self, n, rows=None):
        shape = (n, n)
        r = (np.zeros(shape, dtype=complex) if rows is None
             else np.array(rows, dtype=complex))
        if r.shape != shape:
            raise ValueError(f"row table must have shape {shape}")
        layout = _layout(n)
        if (np.count_nonzero(r[0])
                or not np.array_equal(r, r.take(layout.mirror),
                                      equal_nan=True)):
            raise ValueError("row table must be zero on row 0 and equal at "
                             "r and d-r")
        r.setflags(write=False)
        self.n = n
        self.rows = r
        self.weights = layout.weights

    def monomials(self) -> np.ndarray:
        """Coefficient of the monomial x_{i+r} x_{i+d-r} in
        {x_i, x_{i+d}} at [d, r]."""
        return self.rows * self.weights

    def max_abs(self):
        return float(np.max(np.abs(self.monomials()), initial=0.0))

    def max_difference(self, other):
        """Largest monomial-coefficient difference to ``other``."""
        return float(other.max_differences(self.rows[None])[0])

    def max_differences(self, tables) -> np.ndarray:
        """Largest monomial-coefficient difference of each row table of a
        stack on the leading axis to this bracket; the tables are taken
        unchecked."""
        diff = np.asarray(tables) * self.weights - self.monomials()
        return np.max(np.abs(diff), axis=(-2, -1), initial=0.0)


def pair_tensor(g) -> np.ndarray:
    """Row table of the bracket whose {x_i, x_j}, i < j, is
    sum_r g[j-i, r] x_{j-r} x_{i+r}.

    The words r and d-r name the same monomial, so each entry is the mean
    of the two, and row 0 (i = j) is zero.  Leading axes of g are
    kept, so a stack of word tables gives a stack of row tables.
    """
    n = g.shape[-1]
    out = g.reshape(g.shape[:-2] + (n * n,)).take(_layout(n).mirror, axis=-1)
    out += g
    out[..., 0, :] = 0.0
    out /= 2.0
    return out


def _coefficients(b: QuadraticBracket) -> np.ndarray:
    """The coefficient table G[i, j, k] of ``b`` (module docstring)."""
    layout = _layout(b.n)
    g = b.rows.ravel().take(layout.offset)
    g *= layout.sign
    return g


class _Layout:
    """The read-only index tables of the brackets of order n: ``mirror``
    holds the flat offset of [d, d-r] at [d, r] and ``weights`` the
    monomial factor of :class:`QuadraticBracket`; :func:`_coefficients`
    forms G from the flat offset ``offset`` of R[|j-i|, k-min(i, j)] and
    ``sign`` = sign(j - i) at [i, j], and ``third`` holds i+j-k mod n, the
    index of the second factor of the chart words t_k t_{i+j-k} of
    :func:`chart_rule`.  4.1 MB at n = 63.
    """

    __slots__ = ("mirror", "weights", "offset", "sign", "third")

    def __init__(self, n):
        d, r = np.indices((n, n))
        self.mirror = d * n + (d - r) % n
        # the factor, 2 or 1 on the squares, that takes a row entry at
        # [d, r] to the coefficient of its monomial
        self.weights = np.where((2 * r - d) % n, 2.0, 1.0)
        i, j, k = np.indices((n,) * 3)
        self.offset = abs(j - i) * n + (k - np.minimum(i, j)) % n
        self.sign = np.sign(j[..., :1] - i[..., :1])
        self.third = (i + j - k) % n
        for name in self.__slots__:
            getattr(self, name).setflags(write=False)


# a bracket round of the benchmark reads 8 orders n, n = 5..13, whose
# tables retain 0.15 MB here and 0.27 MB in _jacobi_layout; eight orders
# at n = 56..63 would retain 28 MB and 55 MB
@functools.lru_cache(maxsize=8)
def _layout(n) -> _Layout:
    return _Layout(n)


def jacobi_defect(b: QuadraticBracket) -> float:
    """Largest coefficient of the cyclic Jacobi sum over the generator
    triples (0, j, k), 0 < j < k, divided by the square of the largest
    monomial coefficient, so that the result does not change when the
    bracket is rescaled.

    With G the coefficient table of b, formed once per call,
    {x_i, {x_j, x_k}} = 2 sum_{a,p} G[j,k,a] G[i,a,p] x_p x_s x_l with
    s = i+a-p and l = j+k-a.  Indexed by (p, s), a = p+s-i is fixed, so
    each cyclic term is an entrywise product t[p, s], symmetric in (p, s),
    with l = i+j+k-p-s; the coefficient of x_p x_s x_l is the sum over the
    orderings of (p, s, l) divided by the order of the stabilizer of the
    index triple.  Every factor is gathered from ``G.ravel()`` at flat
    offsets, whose tables are built once per n (:func:`_jacobi_layout`),
    and the triples, n^2 entries each, run in the lexicographic chunks of
    :func:`theta.chunks`.  A NaN chunk, an infinite coefficient or a scale
    whose square is not finite reads NaN.

    One orbit suffices.  The shift x -> x - i takes a triple i < j < k to
    (0, j - i, k - i), each monomial to a monomial, and G[a, b, c] to
    G[a - i, b - i, c - i].  That is the same row entry R[d, r] (d = b - a,
    r = c - a) unless the pair (a, b) changes order, i.e. wraps past
    n - 1, where it is -R[n-d, -r]; so with v = :func:`heisenberg_violation`
    each entry of G moves by at most v * scale, and each Jacobi coefficient
    of (i, j, k) is that of (0, j - i, k - i) with every factor so moved.
    A coefficient, before division by scale^2, is 4 * inv_stab |sum of 9
    products G G|, inv_stab <= 1 (three cyclic terms, each at the three
    placements of l); both factors have modulus <= scale (|R| is at most a
    monomial coefficient), so a product moves by at most
    |dG| |G'| + |G| |dG'| <= 2 v scale^2.  Hence

        full-triple defect <= orbit defect + 72 v

    (:data:`ORBIT_CONSTANT`), up to the rounding of the sums; at v = 0 each
    shifted triple repeats the gathered products of its representative
    entry for entry, so the two read the same bits.
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
    flat = _coefficients(b).ravel()
    lead = flat.take(layout.lead)
    worst = 0.0
    for c in chunks(len(layout.j), n * n):
        cj, ck, cw = layout.j[c], layout.k[c], layout.w[c]
        # t[., p, s]: the Jacobi sum is 2 sum_{p,s} t x_p x_s x_l
        t = flat[layout.jk[c] + layout.inner[0]]
        t *= lead[0]
        v = flat[layout.ik[c] + layout.inner[cj]]
        v *= lead[cj]
        t -= v
        v = flat[layout.ij[c] + layout.inner[ck]]
        v *= lead[ck]
        t += v
        # the six orderings of (p, s, l) give t twice at each of three
        # placements of l; u[., p, s] = t[., p, l] = t[., l, p]
        block = np.arange(0, t.size, n * n)[:, None, None]
        u = t.ravel()[block + layout.swap[cw]]
        v = t + u
        v += u.transpose(0, 2, 1)
        size = np.abs(v)
        size *= layout.inv_stab[cw]
        # np.maximum keeps a NaN chunk, which Python's max would drop; the
        # one empty chunk of n = 2, which has no triple, reads 0
        worst = np.maximum(worst, 4.0 * float(size.max(initial=0.0)))
    return float(worst / scale ** 2)


class _JacobiLayout:
    """The read-only index tables of :func:`jacobi_defect` at order n.

    A term {x_x, x_a x_l} reaches x_p x_s through a = ``inner[x, p, s]``,
    and ``lead`` is the flat offset of G[x, p+s-x, p]; the monomials of
    weight w are x_p x_s x_l with l = (w - p - s) mod n, ``swap[w]`` is the
    offset of t[p, l] in an n x n block and ``inv_stab[w]`` is
    1 / |stabilizer of (p, s, l)|.  ``j``, ``k`` list the C(n - 1, 2)
    triples (0, j, k), 0 < j < k, in lexicographic order, ``w`` their
    weights, and ``jk``, ``ik``, ``ij`` the flat offsets of the rows
    G[j, k], G[0, k] and G[0, j].  8.1 MB at n = 63, 8.0 MB of it the
    four n^3 tables.
    """

    __slots__ = ("inner", "lead", "swap", "inv_stab", "j", "k", "w",
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
        self.j, self.k = np.nonzero((0 < idx[:, None]) & (idx[:, None] < idx))
        self.w = (self.j + self.k) % n
        self.jk, self.ik, self.ij = (
            (a * n)[:, None, None]
            for a in (self.j * n + self.k, self.k, self.j))
        for name in self.__slots__:
            getattr(self, name).setflags(write=False)


@functools.lru_cache(maxsize=8)
def _jacobi_layout(n) -> _JacobiLayout:
    return _JacobiLayout(n)


def hn_canonical_extract(b: QuadraticBracket) -> np.ndarray:
    """The n x n table C[alpha, beta] = R[alpha+beta, alpha] of a
    Heisenberg-invariant bracket.

    C(alpha, beta) is the row entry of x_{i+alpha} x_{i+beta} in
    {x_i, x_{i+alpha+beta}}; the row table already forces
    C(alpha, beta) = C(beta, alpha), C(0, 0) = 0 and one table for every
    base point i that does not wrap.  A base point that wraps reads
    -R[n-d, -beta] = -R[n-d, -alpha] = -C(-alpha, -beta), d = alpha+beta,
    so the bracket is invariant exactly when C(-alpha, -beta) =
    -C(alpha, beta), which :func:`heisenberg_violation` reads.
    """
    idx = np.arange(b.n)
    return b.rows[(idx[:, None] + idx) % b.n, idx[:, None]]


def heisenberg_violation(b: QuadraticBracket) -> float:
    """max |C(alpha, beta) + C(-alpha, -beta)| of the table of
    :func:`hn_canonical_extract`, over the largest monomial coefficient:
    the agreement of the pairs that wrap past n - 1, 0.0 exactly when the
    bracket is invariant under the whole Heisenberg group.  A NaN entry or
    an infinite coefficient reads NaN, which fails every tolerance."""
    scale = b.max_abs()
    if scale == 0.0:
        return 0.0
    table = hn_canonical_extract(b)
    neg = (-np.arange(b.n)) % b.n
    skew = np.abs(table + table[np.ix_(neg, neg)])
    return float(np.max(skew, initial=0.0) / scale)


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
    always sees a 2-D stack (S, n), a chunk of whole points
    (:func:`theta.chunks`), and returns one result per point on its
    leading axis; the results keep the axes of the stack, an empty stack
    among them."""
    flat = t.reshape(-1, t.shape[-1])
    out = np.concatenate([route(flat[c]) for c in chunks(len(flat), entries)])
    return out.reshape(t.shape[:-1] + out.shape[1:])


def chart_rule(g, t) -> np.ndarray:
    """All {t_i, t_j} on the chart x_0 = 1, as an n x n array, of the
    bracket with the coefficient table g (module docstring), by the rule

        {t_i, t_j} = {x_i, x_j} - t_i {x_0, x_j} - t_j {x_i, x_0}  at x = t.

    A stack of points t (..., n) gives a stack of matrices (..., n, n),
    each bit for bit the matrix of its point alone (:func:`map_stack`).
    """
    n = len(g)
    # words[..., i, j, k] = t_k t_l, l = i+j-k: the monomials of {x_i, x_j}
    pairs = _layout(n).third

    def route(t):
        # take keeps the stack axis outermost in memory, so the sum runs
        # over a contiguous last axis, in the order it takes for one point,
        # and both products reuse its array: one temporary beside g
        words = t.take(pairs, axis=-1)
        np.multiply(t[:, None, None, :], words, out=words)
        x = np.multiply(g, words, out=words).sum(axis=-1)
        return x - t[:, :, None] * x[:, :1, :] - t[:, None, :] * x[:, :, :1]

    return map_stack(route, chart_point(n, t), n ** 3)


def projective_matrix(b: QuadraticBracket, t) -> np.ndarray:
    """:func:`chart_rule` of ``b``; row and column 0 are zero."""
    return chart_rule(_coefficients(b), t)
