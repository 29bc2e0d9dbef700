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
mean of the single-eta estimate over ``theta.circle_nodes`` around
eta = 0, and serves as the independent cross-check.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateEtaError, ThetaRangeError, UsageError
from .poisson import QuadraticBracket, pair_tensor
from .theta import (CIRCLE_POINTS, LOG_LIMIT, ThetaBasis, circle_nodes,
                    shortest_period, theta_alpha_eval)


def f_constants(basis: ThetaBasis) -> np.ndarray:
    """The symmetric table F[alpha, beta] built from theta values at 0.

    F(a, b) = theta'_0(0) theta_{a+b}(0) / (theta_a(0) theta_b(0)) off the
    axes, F(0, a) = F(a, 0) = theta'_a(0)/theta_a(0) - pi*i*n, F(0,0) = 0.
    It is symmetric to the bit, since each rounded product and sum of
    ``_product`` commutes; ``ResidueSystem`` reads F(a, b) as F(b, a).
    Its products of two theta_alpha(0) are range-checked as in
    :func:`sklyanin_bracket`.
    """
    _check_range(basis)
    n = basis.n
    th = basis.theta_at_zero
    dth = basis.dtheta_at_zero
    a = np.arange(1, n)
    table = np.zeros((n, n), dtype=complex)
    table[0, 1:] = table[1:, 0] = dth[1:] / th[1:] - 1j * math.pi * n
    table[1:, 1:] = (_product(dth[0], th[(a[:, None] + a) % n])
                     / _product(th[1:, None], th[1:]))
    return table


def _product(x, y):
    """x * y with each real product and sum rounded once, as scalar
    complex arithmetic rounds.  numpy's array loop for complex products may
    fuse a product into the sum (FMA), which would make the last bit of F
    depend on the machine's vector instructions."""
    out = (x.real * y.real - x.imag * y.imag).astype(complex)
    out.imag = x.real * y.imag + x.imag * y.real
    return out


def _check_range(basis: ThetaBasis):
    """Raise ThetaRangeError where a product of two theta_alpha(0),
    alpha != 0, may leave double range."""
    log_size = 2.0 * math.log(float(np.max(np.abs(basis.theta_at_zero[1:]))))
    if not log_size <= LOG_LIMIT:
        raise ThetaRangeError(
            f"Im tau = {basis.params.tau.imag:g} is out of double range at "
            f"n = {basis.n}: a product of two theta_alpha(0) may reach "
            f"exp({log_size:.0f}), beyond the limit exp({LOG_LIMIT:.0f})")


def _check_coprime(n: int, k: int):
    """Raise UsageError unless 0 < k < n and gcd(n, k) = 1."""
    if not 0 < k < n:
        raise UsageError("k must satisfy 0 < k < n")
    if math.gcd(n, k) != 1:
        raise UsageError("gcd(n,k) must be 1")


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
    # a NaN basis value is a NaN relation, which its checks fail
    with np.errstate(invalid="ignore"):
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
    """The semiclassical quadratic bracket in closed form.

    Its words divide by products of two values theta_alpha(0), alpha != 0,
    which grow like |E_alpha(0)| = exp(pi alpha (n - alpha) Im(tau) / n);
    where such a product may leave double range, ThetaRangeError is raised
    before it is formed.
    """
    n = basis.n
    _check_coprime(n, k)
    _check_range(basis)
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
    with np.errstate(invalid="ignore"):  # NaN relations stay NaN
        np.divide(-rel[..., 1:, :], rel[..., dd, dd][..., None],
                  out=g[..., 1:, :])
    g[..., dd, 0] = g[..., dd, dd] = (g[..., dd, 0] - 1.0) / 2.0
    g /= eta
    return g


def single_eta_bracket(basis: ThetaBasis, k: int, eta: complex) -> np.ndarray:
    """First-order bracket estimate (the row table of
    :class:`QuadraticBracket`) from the relations at one eta, reading the
    generators as commuting at leading order; the error is O(eta)."""
    eta = complex(eta)
    rel = _relation_rows(basis, k, np.array([eta]))[0]
    return pair_tensor(_first_order(rel, eta))


def pole_distance(basis: ThetaBasis) -> float:
    """Distance from 0 to the nearest nonzero point of (1/n)(Z + Z*tau)."""
    return shortest_period(1, basis.params.tau) / basis.n


def semiclassical_from_relations(basis: ThetaBasis, k: int, etas=()):
    """The eta -> 0 limit of :func:`single_eta_bracket`, as a circle mean,
    and the single-eta tables at ``etas``, from one relation evaluation.

    The single-eta estimate g(eta) is analytic on a disc around 0 after
    division by the diagonal relation coefficient, so g(0) is the mean of g
    over a circle in that disc, sampled on ``circle_nodes(d)``, d the
    distance to its nearest pole, a zero of theta_a(+-eta)
    (:func:`pole_distance`).  Node p + P/2 is -eta_p, so theta is
    evaluated on half the circle, and at ``etas`` in the same call.
    Returns the mean as a :class:`QuadraticBracket` and the row tables of
    :func:`single_eta_bracket` at ``etas``, stacked on a leading axis.
    This path shares no formulas with :func:`sklyanin_bracket` beyond the
    relation tensor itself and is the numerical oracle for the closed form.
    """
    d = pole_distance(basis)
    half = circle_nodes(d)[:CIRCLE_POINTS // 2]
    extra = np.asarray(etas, dtype=complex)
    h, m = len(half), len(half) + len(extra)
    rel = _relation_rows(basis, k, np.concatenate([half, extra]))
    # rows p and m + p hold the relations at +eta_p and -eta_p
    mean = _first_order(np.concatenate([rel[:h], rel[m:m + h]]),
                        np.concatenate([half, -half])[:, None, None]
                        ).mean(axis=0)
    singles = pair_tensor(_first_order(rel[h:m], extra[:, None, None]))
    return QuadraticBracket(basis.n, pair_tensor(mean)), singles
