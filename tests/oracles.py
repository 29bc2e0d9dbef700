"""Independent oracles for the graded bracket table of ``ellpoisson.poisson``
and the sample tables of ``ellpoisson.cech``.

Sparse polynomials, the Leibniz extension of the generator brackets, the
bivector contraction, and the dense n^4 coefficient tensor with its Jacobi
contraction.  They expand ``QuadraticBracket.coeffs`` into monomials with
their own loops and share no formulas with the package, which never calls
them.  :func:`phi` evaluates phi_alpha = theta_alpha / theta_0 pointwise,
without the 1/n shift that fills the ``ResidueSystem`` tables.
"""

import numpy as np

from ellpoisson.poisson import QuadraticBracket
from ellpoisson.theta import ThetaBasis, theta_alpha_eval


def phi(basis: ThetaBasis, alpha: int):
    """Evaluator of phi_alpha = theta_alpha / theta_0 (phi_0 = 1)."""
    alpha %= basis.n
    if alpha == 0:
        return lambda z: np.ones_like(np.asarray(z, dtype=complex))
    return lambda z: (theta_alpha_eval(basis, alpha, z)
                      / theta_alpha_eval(basis, 0, z))


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


def pair_coeffs(b: QuadraticBracket, i, j):
    """Monomial table {(k, l): c, k <= l} of {x_i, x_j}."""
    n = b.n
    i, j = int(i) % n, int(j) % n
    out = {}
    for k in range(n):
        l = (i + j - k) % n
        if k <= l and b.coeffs[i, j, k] != 0:
            out[(k, l)] = complex(b.coeffs[i, j, k] * (1.0 if k == l else 2.0))
    return out


def pair_poly(b: QuadraticBracket, i, j) -> Polynomial:
    return sum((Polynomial.monomial(b.n, kl, c)
                for kl, c in pair_coeffs(b, i, j).items()),
               Polynomial.zero(b.n))


def pairs(b: QuadraticBracket):
    """The pairs i < j with {x_i, x_j} != 0, in order."""
    return [(i, j) for i in range(b.n) for j in range(i + 1, b.n)
            if np.any(b.coeffs[i, j] != 0)]


def dense_tensor(b: QuadraticBracket) -> np.ndarray:
    """Q[i, j, k, l] with {x_i, x_j} = sum_{k,l} Q[i, j, k, l] x_k x_l,
    symmetric in (k, l) and zero off the grading k + l = i + j mod n."""
    n = b.n
    q = np.zeros((n,) * 4, dtype=complex)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                q[i, j, k, (i + j - k) % n] = b.coeffs[i, j, k]
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
