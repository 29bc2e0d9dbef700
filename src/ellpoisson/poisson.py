"""Quadratic Poisson brackets on n variables and their canonical form.

A bracket is one complex tensor Q[i, j, k, l] with
{x_i, x_j} = sum_{k,l} Q[i, j, k, l] x_k x_l, antisymmetric in (i, j) and
symmetric in (k, l); Jacobi certification contracts Q with itself.  For
brackets invariant under the order-n Heisenberg group the whole tensor
collapses to a single symmetric table C(alpha, beta) with

    {x_i, x_j} = sum_r C(r, j-i-r) x_{i+r} x_{j-r},
    C(beta, alpha) = C(alpha, beta) = -C(-alpha, -beta),

and the induced bracket on the chart t_i = x_i / x_0 of projective space
has the closed three-group form implemented in :func:`projective_bracket`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvarianceError


class Polynomial:
    """Sparse polynomial in n commuting variables with complex coefficients.

    Terms map exponent tuples to coefficients; zero coefficients are never
    stored.  Instances are treated as immutable.  Polynomials and the
    Leibniz brackets built on them are the tests' independent oracle for
    the tensor code.
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


class QuadraticBracket:
    """A quadratic bracket held as one coefficient tensor.

    ``coeffs[i, j, k, l]`` is the coefficient of x_k x_l in
    {x_i, x_j} = sum_{k,l} coeffs[i, j, k, l] x_k x_l, antisymmetric in
    (i, j) and symmetric in (k, l); the coefficient of the monomial x_k x_l
    is therefore 2 coeffs[i, j, k, l] for k != l and coeffs[i, j, k, k] on
    the squares.  Omitting ``coeffs`` gives the zero bracket.  Only exact
    zeros are absent terms.
    """

    __slots__ = ("n", "coeffs")

    def __init__(self, n, coeffs=None):
        shape = (n,) * 4
        q = (np.zeros(shape, dtype=complex) if coeffs is None
             else np.asarray(coeffs, dtype=complex))
        if q.shape != shape:
            raise ValueError(f"coefficient tensor must have shape {shape}")
        if not (np.array_equal(q, -q.transpose(1, 0, 2, 3))
                and np.array_equal(q, q.transpose(0, 1, 3, 2))):
            raise ValueError("coefficient tensor must be antisymmetric in "
                             "(i, j) and symmetric in (k, l)")
        self.n = n
        self.coeffs = q

    def monomials(self) -> np.ndarray:
        """Coefficient of the monomial x_k x_l in {x_i, x_j} at [i, j, k, l]."""
        return self.coeffs * (2.0 - np.eye(self.n))

    def pair_coeffs(self, i, j):
        """Monomial table {(k, l): c, k <= l} of {x_i, x_j}."""
        mono = np.triu(self.monomials()[i % self.n, j % self.n])
        return {(int(k), int(l)): complex(mono[k, l])
                for k, l in zip(*np.nonzero(mono))}

    def pair_poly(self, i, j) -> Polynomial:
        return sum((Polynomial.monomial(self.n, kl, c)
                    for kl, c in self.pair_coeffs(i, j).items()),
                   Polynomial.zero(self.n))

    def max_abs(self):
        return float(np.max(np.abs(self.monomials()), initial=0.0))

    def pairs(self):
        """The pairs i < j with {x_i, x_j} != 0, in order."""
        nonzero = np.triu(np.any(self.coeffs != 0, axis=(2, 3)), 1)
        return [(int(i), int(j)) for i, j in zip(*np.nonzero(nonzero))]

    def max_difference(self, other):
        """Largest monomial-coefficient difference to ``other``."""
        diff = self.coeffs - other.coeffs
        diff *= 2.0 - np.eye(self.n)
        return float(np.max(np.abs(diff), initial=0.0))


@dataclass(frozen=True)
class HnBracket:
    """Canonical table C(alpha, beta) of a Heisenberg-invariant bracket."""

    n: int
    table: np.ndarray
    check_tol: float = 1e-8

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
        if max(sym, skew) > self.check_tol * scale or abs(tab[0, 0]) > self.check_tol * scale:
            raise ValueError("table violates the symmetries "
                             "C(b,a)=C(a,b)=-C(-a,-b), C(0,0)=0")

    def c(self, alpha, beta):
        return self.table[alpha % self.n, beta % self.n]

    def to_quadratic(self) -> QuadraticBracket:
        """{x_i, x_j} = sum_r C(r, j-i-r) x_{i+r} x_{j-r}, built for i < j.

        The monomial x_{i+a} x_{i+b} gets C(a, b) + C(b, a).
        """
        n = self.n
        d, r = np.indices((n, n))
        return QuadraticBracket(n, pair_tensor(self.table[(d - r) % n, r]))


def pair_tensor(g) -> np.ndarray:
    """Coefficient tensor of the bracket whose {x_i, x_j}, i < j, is
    sum_r g[j-i, r] x_{j-r} x_{i+r}.

    The words r and j-i-r name the same monomial, so each tensor entry is
    the mean of the two; the entries for i > j are their exact negatives,
    and row g[0] (i = j) is multiplied by zero.
    """
    n = len(g)
    i, j, k = np.indices((n, n, n))
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    q = np.zeros((n,) * 4, dtype=complex)
    q[i, j, k, (i + j - k) % n] = np.sign(j - i) * (
        g[hi - lo, (hi - k) % n] + g[hi - lo, (k - lo) % n]) / 2.0
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
        return b.pair_poly(i, j)
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
    """Leibniz extension of the generator brackets to polynomials.

    A test oracle for the tensor code; nothing else in the package calls it.
    """
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
            out = out + b.pair_poly(i, j) * dfi * dgj
    return out


def jacobi_defect(b: QuadraticBracket) -> float:
    """Largest coefficient of the cyclic Jacobi sum over generator triples.

    The Jacobi sum is quadratic in the bracket, so it is divided by the
    square of the largest coefficient magnitude of the tensor: the result
    does not change when the bracket is rescaled.

    With Q = ``b.coeffs``, {x_i, {x_j, x_k}} = 2 sum Q[j,k,a,l] Q[i,a,p,s]
    x_p x_s x_l; for each pair i < j the three cyclic terms are contracted
    over a for all k > j at once, and the coefficient of the monomial
    x_p x_s x_l is read off as the sum over the orderings of (p, s, l)
    divided by the order of the stabilizer of the index triple.
    """
    scale = b.max_abs()
    if scale == 0.0:
        return 0.0
    n = b.n
    q = b.coeffs
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


def hn_canonical_extract(b: QuadraticBracket, tol: float = 1e-8) -> HnBracket:
    """Recover the unique C(alpha, beta) of a Heisenberg-invariant bracket.

    The coefficient of the unordered monomial x_{i+alpha} x_{i+beta} in
    {x_i, x_{i+alpha+beta}} is 2 C(alpha, beta) for alpha != beta and
    C(alpha, alpha) on the square terms; candidates must agree for every
    base point i, and every monomial must have total weight i + j mod n.
    Raises :class:`InvarianceError` when the pattern fails beyond ``tol``
    relative to the largest coefficient.
    """
    n = b.n
    q = b.coeffs
    scale = max(b.max_abs(), 1e-30)
    idx = np.arange(n)
    # weight support check: {x_i, x_j} may only involve x_k x_l, k+l = i+j
    weight = (idx[None, None, :, None] + idx[None, None, None, :]
              - idx[:, None, None, None] - idx[None, :, None, None]) % n
    violation = float(np.max(np.abs(b.monomials()[weight != 0]), initial=0.0))
    # candidates[i, alpha, beta]: the tensor entry of x_{i+alpha} x_{i+beta}
    # in {x_i, x_{i+alpha+beta}}, which is C(alpha, beta) in either case
    i, alpha, beta = np.indices((n, n, n))
    candidates = q[i, (i + alpha + beta) % n, (i + alpha) % n, (i + beta) % n]
    # alpha + beta = 0 is forced to zero by the symmetries; such monomials
    # could only appear in {x_i, x_i} = 0, so nothing is read off
    free = (idx[:, None] + idx[None, :]) % n != 0
    spread = np.abs(candidates - candidates[0])[:, free]
    violation = max(violation, float(np.max(spread, initial=0.0)))
    table = np.where(free, candidates[0], 0.0)
    sym = np.max(np.abs(table - table.T))
    skew = np.max(np.abs(table + table[np.ix_((-idx) % n, (-idx) % n)]))
    violation = max(violation, float(sym), float(skew))
    if violation > tol * scale:
        raise InvarianceError(
            f"bracket is not Heisenberg-invariant: violation {violation:.3e} "
            f"(scale {scale:.3e})")
    return HnBracket(n, table)


def projective_bracket(h: HnBracket, t, i: int, j: int) -> complex:
    """{t_i, t_j} on the chart x_0 != 0 for an invariant bracket.

    ``t`` is the full coordinate vector with t[0] = 1 and indices read
    modulo n; i and j must be nonzero chart indices.
    """
    n = h.n
    t = np.asarray(t, dtype=complex)
    if len(t) != n or t[0] != 1:
        raise ValueError("t must have length n with t[0] = 1")
    i %= n
    j %= n
    if i == 0 or j == 0:
        raise IndexError("chart indices must be nonzero")
    if i == j:
        return 0j
    total = 0j
    for r in range(n):
        if r != 0 and r != (j - i) % n:
            total += h.c(r, j - i - r) * t[(i + r) % n] * t[(j - r) % n]
    s1 = sum(h.c(r, j - r) * t[r % n] * t[(j - r) % n]
             for r in range(n) if r != 0 and r != j % n)
    s2 = sum(h.c(r, -i - r) * t[(i + r) % n] * t[(-r) % n]
             for r in range(n) if r != 0 and r != (-i) % n)
    total -= t[i] * s1
    total -= t[j] * s2
    total += 2.0 * (h.c(0, j - i) - h.c(0, j) - h.c(0, -i)) * t[i] * t[j]
    return total


def projective_matrix(h: HnBracket, t) -> np.ndarray:
    """All {t_i, t_j} as an antisymmetric n x n array (row/col 0 zero)."""
    n = h.n
    out = np.zeros((n, n), dtype=complex)
    for i in range(1, n):
        for j in range(i + 1, n):
            val = projective_bracket(h, t, i, j)
            out[i, j] = val
            out[j, i] = -val
    return out
