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
recovers the same bracket directly from the finite-eta relations, as the
mean of the single-eta estimate over a circle around eta = 0, and serves as
the independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateEtaError
from .poisson import QuadraticBracket, pair_tensor
from .theta import ThetaBasis, circle_nodes, shortest_period, theta_alpha_eval

# trapezoid nodes of the eta -> 0 circle mean; at radius d/4 the rule's
# error falls like 4^-P, and P = 16 leaves about 1e-9 of the bracket
ETA_CIRCLE_POINTS = 24


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
    table = np.zeros((n, n), dtype=complex)
    for a in range(1, n):
        table[0, a] = table[a, 0] = dth[a] / th[a] - 1j * math.pi * n
        for b in range(1, n):
            table[a, b] = dth[0] * th[(a + b) % n] / (th[a] * th[b])
    return FConstants(n, table)


def _check_coprime(n: int, k: int):
    if not 0 < k < n:
        raise ValueError("k must satisfy 0 < k < n")
    if math.gcd(n, k) != 1:
        raise ValueError("gcd(n,k) must be 1")


def _relation_rows(basis: ThetaBasis, k: int, etas) -> np.ndarray:
    """rel[p, d, r]: the coefficient of x_{d-r} x_r in relation (0, d) at
    eta = etas[p], and at -etas[p] for p + len(etas).  Relation (i, j) is
    relation (0, j - i) shifted by i; row d = 0 (i == j) is zero.  The
    reflection theta_a(-z) = -omega^a exp(-2 pi i n z) theta_{-a}(z) gives
    theta_a(-eta) from the one evaluation at eta."""
    n = basis.n
    _check_coprime(n, k)
    a = np.arange(n)
    th = theta_alpha_eval(basis, a, etas)
    neg = (-basis.omega ** a * np.exp(-2j * math.pi * n * etas)[:, None]
           * th[:, -a % n])
    th, neg = np.concatenate([th, neg]), np.concatenate([neg, th])
    z = np.concatenate([etas, -etas])
    lost = np.argwhere(np.abs(th) < 1e-10 * np.abs(
        basis.dtheta_at_zero[0] * z)[:, None])
    if len(lost):
        p, alpha = lost[0]
        raise DegenerateEtaError(
            f"theta_{alpha}({z[p]}) ~ 0: eta is torsion-degenerate")
    d, r = np.indices((n, n))
    rel = basis.theta_at_zero[(d + r * (k - 1)) % n] / (
        th[:, (k * r) % n] * neg[:, (d - r) % n])
    rel[:, 0] = 0.0
    return rel


def fo_relations(basis: ThetaBasis, k: int, eta: complex) -> np.ndarray:
    """The quadratic relation tensor R[i, j, r] at translation parameter
    eta: the coefficient of x_{j-r} x_{i+r} in relation (i, j).  Rows with
    i == j are not part of the presentation and are left zero."""
    n = basis.n
    row = _relation_rows(basis, k, np.array([complex(eta)]))[0]
    i, j = np.indices((n, n))
    return row[(j - i) % n]


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


def _first_order(rel, eta) -> np.ndarray:
    """g[..., d, r]: [x_i, x_j]/eta, d = j - i, solved from rel[..., d, r]
    at commutative leading order; the words r = d (x_i x_j) and r = 0
    (x_j x_i) share the diagonal term.  eta broadcasts against rel."""
    n = rel.shape[-1]
    dd = np.arange(1, n)
    g = np.zeros_like(rel)
    g[..., 1:, :] = -rel[..., 1:, :] / rel[..., dd, dd][..., None]
    g[..., dd, 0] = g[..., dd, dd] = (g[..., dd, 0] - 1.0) / 2.0
    return g / eta


def single_eta_bracket(basis: ThetaBasis, k: int, eta: complex) -> np.ndarray:
    """First-order bracket estimate (the coefficient table of
    :class:`QuadraticBracket`) from the relations at one eta, reading the
    generators as commuting at leading order; the error is O(eta)."""
    eta = complex(eta)
    rel = _relation_rows(basis, k, np.array([eta]))[0]
    return pair_tensor(_first_order(rel, eta))


def eta_circle(basis: ThetaBasis) -> tuple[int, float]:
    """Node count and radius d/4 of the circle of the eta -> 0 mean.

    The poles of the single-eta estimate are the zeros of theta_a(+-eta),
    the nonzero points of (1/n)(Z + Z*tau); d is the shortest of them.
    """
    d = shortest_period(1, basis.params.tau) / basis.n
    return ETA_CIRCLE_POINTS, d / 4


def semiclassical_from_relations(basis: ThetaBasis,
                                 k: int) -> QuadraticBracket:
    """The eta -> 0 limit of :func:`single_eta_bracket`, as a circle mean.

    The single-eta estimate g(eta) is analytic on a disc around 0 after
    division by the diagonal relation coefficient, so g(0) is the mean of g
    over a circle in that disc; the trapezoid rule on P nodes converges
    like 4^-P at radius d/4 (Trefethen & Weideman, SIAM Rev. 56, 2014).
    Node p + P/2 is -eta_p, so theta is evaluated on half the circle.
    This path shares no formulas with :func:`sklyanin_bracket` beyond the
    relation tensor itself and is the numerical oracle for the closed form.
    """
    half = circle_nodes(*eta_circle(basis))[:ETA_CIRCLE_POINTS // 2]
    etas = np.concatenate([half, -half])
    g = _first_order(_relation_rows(basis, k, half),
                     etas[:, None, None]).mean(axis=0)
    return QuadraticBracket(basis.n, pair_tensor(g))
