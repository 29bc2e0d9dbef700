"""Elliptic quadratic-algebra relations and their semiclassical bracket.

For coprime 0 < k < n and a translation parameter eta, the algebra on
generators x_i, i in Z/n, is cut out by the relations

    sum_r  theta_{j-i+r(k-1)}(0) / (theta_{kr}(eta) theta_{j-i-r}(-eta))
           * x_{j-r} x_{i+r}         (i != j).

Dividing by the first-order commutator scale and letting eta -> 0 produces
a quadratic Poisson bracket; its closed form (implemented in
:func:`sklyanin_bracket`) has, for i != j,

    {x_i, x_j} = (th'_{j-i}/th_{j-i} + th'_{k(j-i)}/th_{k(j-i)} - 2 pi i n)
                 * x_i x_j
               + sum_{r != 0, j-i} th_{j-i+r(k-1)}(0) th'_0(0) /
                 (th_{kr}(0) th_{j-i-r}(0)) * x_{j-r} x_{i+r},

with all values taken at z = 0.  :func:`semiclassical_from_relations`
recovers the same tensor directly from the finite-eta relations by
Richardson extrapolation and serves as the independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateEtaError, DegenerateTauError, ExtrapolationError
from .poisson import QuadraticBracket, pair_tensor
from .theta import ThetaBasis, theta_alpha_eval


@dataclass(frozen=True)
class FConstants:
    """The symmetric table F(alpha, beta) built from theta values at 0.

    F(a, b) = theta'_0(0) theta_{a+b}(0) / (theta_a(0) theta_b(0)) off the
    axes, F(0, a) = F(a, 0) = theta'_a(0)/theta_a(0) - pi*i*n, F(0,0) = 0.
    """

    n: int
    table: np.ndarray

    def c(self, alpha, beta):
        return self.table[alpha % self.n, beta % self.n]


def f_constants(basis: ThetaBasis) -> FConstants:
    n = basis.n
    th = basis.theta_at_zero
    dth = basis.dtheta_at_zero
    scale = float(np.max(np.abs(dth)))
    if n > 1 and float(np.min(np.abs(th[1:]))) < 1e-12 * scale:
        raise DegenerateTauError("theta_alpha(0) vanished; F table undefined")
    table = np.zeros((n, n), dtype=complex)
    for a in range(1, n):
        table[0, a] = table[a, 0] = dth[a] / th[a] - 1j * math.pi * n
        for b in range(1, n):
            table[a, b] = dth[0] * th[(a + b) % n] / (th[a] * th[b])
    return FConstants(n, table)


@dataclass(frozen=True)
class FORelationTensor:
    """Relation coefficients R[i, j, r] at a fixed translation parameter.

    Rows with i == j are not part of the presentation and are left zero.
    """

    n: int
    k: int
    eta: complex
    coeffs: np.ndarray

    def relation(self, i, j):
        if i % self.n == j % self.n:
            raise IndexError("relations are indexed by pairs i != j")
        return self.coeffs[i % self.n, j % self.n]


def _check_coprime(n: int, k: int):
    if not 0 < k < n:
        raise ValueError("k must satisfy 0 < k < n")
    if math.gcd(n, k) != 1:
        raise ValueError("gcd(n,k) must be 1")


def fo_relations(basis: ThetaBasis, k: int, eta: complex) -> FORelationTensor:
    """The quadratic relation tensor at translation parameter eta."""
    n = basis.n
    _check_coprime(n, k)
    eta = complex(eta)
    floor = 1e-10 * abs(basis.dtheta_at_zero[0] * eta)
    # th[:, 0] = theta_a(eta), th[:, 1] = theta_a(-eta)
    th = theta_alpha_eval(basis, np.arange(n), np.array([eta, -eta])).T
    lost = np.argwhere(np.abs(th) < floor)
    if len(lost):
        a, col = lost[0]
        raise DegenerateEtaError(
            f"theta_{a}({'-' if col else ''}eta) ~ 0 at eta={eta}: "
            "torsion-degenerate")
    th0 = basis.theta_at_zero
    i, j, r = np.indices((n, n, n))
    coeffs = th0[(j - i + r * (k - 1)) % n] / (th[(k * r) % n, 0]
                                               * th[(j - i - r) % n, 1])
    coeffs[i == j] = 0.0
    return FORelationTensor(n, k, eta, coeffs)


def sklyanin_bracket(basis: ThetaBasis, k: int) -> QuadraticBracket:
    """The semiclassical quadratic bracket in closed form."""
    n = basis.n
    _check_coprime(n, k)
    th = basis.theta_at_zero
    dth = basis.dtheta_at_zero
    # g[d, r]: coefficient of the word x_{j-r} x_{i+r} in {x_i, x_j}, d = j-i
    d, r = np.indices((n, n))
    words = (r != 0) & (r != d)
    den = np.where(words, th[(k * r) % n] * th[(d - r) % n], 1.0)
    g = np.where(words, th[(d + r * (k - 1)) % n] * dth[0] / den, 0.0)
    # r = 0 and r = d are both x_i x_j; they share the diagonal term
    dd = np.arange(1, n)
    diag = (dth[dd] / th[dd] + dth[(k * dd) % n] / th[(k * dd) % n]
            - 2j * math.pi * n)
    g[dd, 0] = g[dd, dd] = diag / 2.0
    return QuadraticBracket(n, pair_tensor(g))


def single_eta_bracket(basis: ThetaBasis, k: int, eta: complex) -> np.ndarray:
    """First-order bracket estimate from the relations at one eta.

    Returns the coefficient tensor (the layout of
    :class:`QuadraticBracket`), treating the generators as commuting when
    collecting the commutator at leading order (reordering corrections are
    higher order in eta and are removed by the extrapolation in
    :func:`semiclassical_from_relations`).
    """
    n = basis.n
    eta = complex(eta)
    # relation (i, j) depends on j - i only; rel[d] is the one of (0, d)
    rel = fo_relations(basis, k, eta).coeffs[0]
    # words x_{j-r} x_{i+r}: r = d carries x_i x_j, r = 0 carries x_j x_i;
    # solving for [x_i, x_j]/eta at commutative leading order
    dd = np.arange(1, n)
    c_d = rel[dd, dd][:, None]
    g = np.zeros((n, n), dtype=complex)
    g[1:] = (-rel[1:] / c_d) / eta
    g[dd, 0] = g[dd, dd] = ((-rel[dd, 0] / c_d[:, 0] - 1.0) / eta) / 2.0
    return pair_tensor(g)


def _neville_at_zero(etas, values):
    """Polynomial extrapolation of values(eta) to eta = 0."""
    t = list(values)
    m = len(etas)
    last_correction = None
    for level in range(1, m):
        new = []
        for s in range(m - level):
            num = etas[s] * t[s + 1] - etas[s + level] * t[s]
            new.append(num / (etas[s] - etas[s + level]))
        last_correction = np.abs(new[-1] - t[-1])
        t = new
    return t[0], last_correction


def semiclassical_from_relations(etas, tensors) -> QuadraticBracket:
    """Bracket extrapolated to eta = 0 from the single-eta tensors.

    ``tensors[s]`` is :func:`single_eta_bracket` at ``etas[s]``.  This path
    shares no formulas with :func:`sklyanin_bracket` beyond the relation
    tensor itself and is the numerical oracle for the closed form.  Raises
    :class:`ExtrapolationError` when the largest last correction exceeds
    the largest change between the first and the last eta, which signals an
    unusable eta sequence.
    """
    etas = [complex(e) for e in etas]
    if len(etas) < 2:
        raise ValueError("need at least two eta values to extrapolate")
    if len(tensors) != len(etas):
        raise ValueError("need one tensor per eta value")
    n = tensors[0].shape[0]
    monomial = 2.0 - np.eye(n)
    extrap = np.empty_like(tensors[0])
    worst_first = worst_last = 0.0
    # one generator row {x_i, .} at a time keeps the temporaries at n^3
    for i in range(n):
        rows = [t[i] for t in tensors]
        extrap[i], last = _neville_at_zero(etas, rows)
        worst_first = max(worst_first, float(np.max(
            np.abs(rows[-1] - rows[0]) * monomial)))
        worst_last = max(worst_last, float(np.max(last * monomial)))
    if len(etas) > 2 and worst_last > max(worst_first, 1e-12):
        raise ExtrapolationError(
            f"extrapolation corrections grew: first {worst_first:.3e}, "
            f"last {worst_last:.3e}")
    return QuadraticBracket(n, extrap)
