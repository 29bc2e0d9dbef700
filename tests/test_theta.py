"""Tests for the theta series, the order-n basis and the Heisenberg shift."""

import hashlib
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from ellpoisson import theta
from ellpoisson.cli import main
from ellpoisson.errors import DegenerateTauError, ThetaRangeError
from ellpoisson.theta import (
    ROUNDING_LIMIT,
    TRUNCATION_EPS,
    CurveParams,
    ThetaBasis,
    series_bound_for,
    theta_alpha_deriv,
    theta_alpha_eval,
    theta_alpha_jet,
    verify_automorphy,
    zeta_multiplier,
)
from oracles import product_constant, ratio_dtheta, theta_alpha_product, \
    theta_series, three_sum_basis

TAU_SQUARE = 1j
TAU_GENERIC = 0.3 + 0.8j


def theta_value(tau, z, *, series_bound=None, order=0):
    """order-th derivative of the basic theta series at tau as the basis
    sums it at n*tau: z reduced into the fundamental cell, the multiplier's
    jet restored, truncated where ``TRUNCATION_EPS`` puts it.  The basic
    series is theta_0 of order n = 1, whose factor E_0 is 1."""
    bound = (series_bound if series_bound is not None
             else series_bound_for(tau, TRUNCATION_EPS))
    z = np.asarray(z, dtype=complex)
    order_one = SimpleNamespace(n=1, params=SimpleNamespace(tau=complex(tau)))
    reduced = theta._series_sums(z.ravel(), 1, complex(tau),
                                 bound, order)[:3]
    jet = theta._basis_jet(order_one, z.ravel(), 0, *reduced)
    out = math.factorial(order) * jet[order].reshape(z.shape)
    return complex(out) if out.ndim == 0 else out


def cauchy_derivative(f, z, order, radius, nodes=64):
    """order-th derivative of an entire f at the points z by the trapezoid
    rule for Cauchy's integral on the circle |w - z| = radius.

    Returns the estimate and max |f| on each circle times order!/radius^order,
    the scale of the quadrature's rounding error.
    """
    w = np.exp(2j * math.pi * np.arange(nodes) / nodes)
    vals = f(np.asarray(z)[:, None] + radius * w)
    weight = math.factorial(order) / radius ** order
    return (weight * np.mean(vals * w ** -order, axis=1),
            weight * np.max(np.abs(vals), axis=1))


def mpmath_basis_jet(mp, n, tau, z, order):
    """Jet (f, f', f''/2)[:order + 1] of every theta_alpha at the points z,
    on a trailing alpha axis, from the defining product of n factors
    theta(w) = -i exp(pi i (w - tau/4)) theta_1(pi w, exp(pi i tau)) and
    E_alpha in mpmath at the working precision, divided by
    C = (Q;Q)^n / (Q^n;Q^n), Q = exp(2 pi i tau), from ``mpmath.qp``."""
    t = mp.mpc(tau)
    nome = mp.exp(1j * mp.pi * t)
    q = mp.exp(2j * mp.pi * t)
    c = mp.qp(q, q) ** n / mp.qp(q ** n, q ** n)
    out = np.empty((order + 1, len(z), n), dtype=complex)
    for p, w in enumerate(map(mp.mpc, z)):
        for alpha in range(n):
            e = mp.exp(2j * mp.pi * (alpha * w + alpha * (alpha - n) * t
                                     / (2 * n) + mp.mpf(alpha) / (2 * n)))
            jet = [e * (2j * mp.pi * alpha) ** j / mp.factorial(j)
                   for j in range(order + 1)]
            for m in range(n):
                u = w + mp.mpf(m) / n + alpha * t / n
                f = -1j * mp.exp(1j * mp.pi * (u - t / 4))
                th = [mp.jtheta(1, mp.pi * u, nome, j) * mp.pi ** j
                      for j in range(order + 1)]
                factor = [sum(f * (1j * mp.pi) ** i / mp.factorial(i)
                              * th[k - i] / mp.factorial(k - i)
                              for i in range(k + 1))
                          for k in range(order + 1)]
                jet = [sum(jet[i] * factor[k - i] for i in range(k + 1))
                       for k in range(order + 1)]
            out[:, p, alpha] = [complex(v / c) for v in jet]
    return out


def jet_error(table, ref):
    """Largest deviation of each jet order over points and indices,
    relative to the largest entry of that order."""
    return (np.max(np.abs(table - ref), axis=(1, 2))
            / np.max(np.abs(ref), axis=(1, 2)))


def basis(n, tau):
    return ThetaBasis(CurveParams(tau, n))


def sample_points(tau, count, seed=0):
    rng = np.random.default_rng(seed)
    return rng.random(count) + rng.random(count) * tau


class TestThetaEval:
    """The basic series theta(z; tau) as the kernel sums it, against
    direct summation without reduction and against mpmath."""

    def test_vanishes_at_origin(self):
        for tau in (TAU_SQUARE, TAU_GENERIC):
            assert abs(theta_value(tau, 0.0)) < 1e-12

    def test_periodicity_in_one(self):
        z = 0.31 + 0.22j
        for tau in (TAU_SQUARE, TAU_GENERIC):
            assert abs(theta_value(tau, z + 1) - theta_value(tau, z)) < 1e-12

    def test_matches_brute_force_oracle(self):
        val = theta_value(TAU_SQUARE, 0.5)
        assert abs(val - theta_series(0.5, TAU_SQUARE)) < 1e-12

    def test_matches_oracle_on_random_points(self):
        for tau in (TAU_SQUARE, TAU_GENERIC):
            for z in sample_points(tau, 12, seed=3):
                assert abs(theta_value(tau, z) - theta_series(z, tau)) < 1e-11

    def test_rejects_bad_tau(self):
        # the series is reached only through a basis, whose lattice
        # parameter must have Im(tau) > 0
        with pytest.raises(ValueError, match="Im\\(tau\\) must be positive"):
            ThetaBasis(CurveParams(-1j, 3))

    def test_truncation_soundness(self):
        z = sample_points(TAU_GENERIC, 25, seed=5)
        base = theta_value(TAU_GENERIC, z)
        m = series_bound_for(TAU_GENERIC, 1e-12)
        doubled = theta_value(TAU_GENERIC, z, series_bound=2 * m)
        assert np.max(np.abs(base - doubled)) < 1e-12

    def test_quasi_periodicity_large_shift(self):
        # reduction handles arguments far outside the cell
        z = 0.2 + 0.1j
        tau = TAU_GENERIC
        direct = theta_series(z + 3 * tau - 2, tau, terms=80)
        assert (abs(theta_value(tau, z + 3 * tau - 2) - direct)
                < 1e-9 * abs(direct))

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("tau", [TAU_SQUARE, TAU_GENERIC])
    def test_derivatives_match_termwise_oracle(self, order, tau):
        for z in sample_points(tau, 12, seed=3):
            direct = theta_series(z, tau, order=order)
            assert (abs(theta_value(tau, z, order=order) - direct)
                    < 1e-12 * max(1.0, abs(direct)))
        # far outside the cell the multiplier's jet carries the derivative
        z = 0.2 + 0.1j + 3 * tau - 2
        direct = theta_series(z, tau, terms=80, order=order)
        assert (abs(theta_value(tau, z, order=order) - direct)
                < 1e-12 * abs(direct))

    @pytest.mark.parametrize("tau", [1j, 0.3 + 0.8j, 0.5j, 2j, 0.2j, 0.1j,
                                     0.05j, 0.02j])
    def test_matches_mpmath_jacobi_theta1(self, tau):
        # theta(z) = -i exp(pi i (z - tau/4)) theta_1(pi z, exp(pi i tau)),
        # at 30 digits; the grid includes z = 0.05 + 0.9 tau
        mp = pytest.importorskip("mpmath")
        u = 0.05 + 0.1 * np.arange(10)
        v = 0.1 + 0.2 * np.arange(5)
        z = (u[:, None] + v * tau).ravel()
        with mp.workdps(30):
            t = mp.mpc(tau)
            nome = mp.exp(1j * mp.pi * t)
            ref = np.array([complex(-1j * mp.exp(1j * mp.pi * (w - t / 4))
                                    * mp.jtheta(1, mp.pi * w, nome))
                            for w in map(mp.mpc, z)])
        err = np.abs(theta_value(tau, z) - ref) / np.abs(ref)
        if tau in (1j, 0.3 + 0.8j, 0.5j):
            assert np.max(err) < 1e-14
        # a priori rounding bound of the series sum (the grid lies in the
        # cell, so these are the terms summed): 2^-53 sum_m |t_m| (1 + |x_m|)
        # / |theta| for t_m = exp(x_m); the factor 1 + |x_m| covers the
        # rounding of each exponent, which the cancellation bound
        # 2^-53 sum_m |t_m| / |theta| leaves out
        m = np.arange(-60, 62)
        x = 2j * math.pi * (np.multiply.outer(z, m) + tau * m * (m - 1) / 2)
        bound = (2.0 ** -53 * np.sum(np.abs(np.exp(x)) * (1 + np.abs(x)),
                                     axis=1) / np.abs(ref))
        assert np.all(err < 4 * bound)


class TestThetaAlpha:
    def test_theta0_vanishes_on_divisor(self):
        b = basis(3, TAU_SQUARE)
        for k in range(-3, 4):
            assert abs(theta_alpha_eval(b, 0, k / 3)) < 1e-10

    @pytest.mark.parametrize("n", [3, 5, 7])
    @pytest.mark.parametrize("tau", [TAU_SQUARE, TAU_GENERIC])
    def test_property_one(self, n, tau):
        b = basis(n, tau)
        z = sample_points(tau, 20, seed=1)
        for alpha in range(n):
            lhs = theta_alpha_eval(b, alpha, z + 1.0 / n)
            rhs = b.omega ** alpha * theta_alpha_eval(b, alpha, z)
            scale = np.max(np.abs(rhs))
            assert np.max(np.abs(lhs - rhs)) < 1e-8 * scale

    @pytest.mark.parametrize("n", [3, 5, 7])
    @pytest.mark.parametrize("tau", [TAU_SQUARE, TAU_GENERIC])
    def test_property_two(self, n, tau):
        b = basis(n, tau)
        z = sample_points(tau, 20, seed=2)
        for alpha in range(n):
            lhs = theta_alpha_eval(b, alpha, z + tau / n)
            mult = np.exp(-2j * math.pi * (z + 1 / (2 * n) - (n - 1) * tau / (2 * n)))
            rhs = mult * theta_alpha_eval(b, alpha + 1, z)
            scale = np.max(np.abs(rhs))
            assert np.max(np.abs(lhs - rhs)) < 1e-8 * scale

    @pytest.mark.parametrize("n", [3, 5, 7])
    @pytest.mark.parametrize("tau", [TAU_SQUARE, TAU_GENERIC])
    def test_property_three(self, n, tau):
        b = basis(n, tau)
        z = sample_points(tau, 20, seed=4)
        for alpha in range(n):
            lhs = theta_alpha_eval(b, -alpha, -z)
            rhs = (-np.exp(-2j * math.pi * alpha / n)
                   * np.exp(-2j * math.pi * n * z)
                   * theta_alpha_eval(b, alpha, z))
            scale = np.max(np.abs(rhs))
            assert np.max(np.abs(lhs - rhs)) < 1e-8 * scale

    @pytest.mark.parametrize("n", [3, 5, 7])
    @pytest.mark.parametrize("tau", [TAU_SQUARE, TAU_GENERIC, 0.5j])
    def test_matches_defining_product(self, n, tau):
        # values and order-1 and order-2 jets of the one series at n tau
        # against the n directly summed factors of the defining product,
        # divided by its constant C; measured at most 4.6e-15.  At
        # Im tau <= 0.1 the product itself loses digits (1.5e-10 at
        # tau = 0.05i, n = 7), so mpmath is the reference there
        b = basis(n, tau)
        z = sample_points(tau, 6, seed=8)
        ref = np.stack([theta_alpha_product(b, a, z, 2) for a in range(n)],
                       axis=-1) / product_constant(n, tau)
        assert np.all(jet_error(theta_alpha_jet(b, np.arange(n), z, 2), ref)
                      < 1e-13)

    @pytest.mark.parametrize("tau, n", [
        (tau, n) for tau in (TAU_SQUARE, TAU_GENERIC, 0.5j, 0.1j, 0.05j)
        for n in (3, 5, 7)] + [(0.01j, 7)])
    def test_matches_mpmath_product(self, n, tau):
        # the defining product of theta_1 factors at 30 digits, divided by
        # C; measured at most 1.1e-14 (9.7e-15 at n = 7, 0.01i), where the
        # product of double factors reached 1.5e-10
        mp = pytest.importorskip("mpmath")
        b = basis(n, tau)
        z = sample_points(tau, 4, seed=9)
        with mp.workdps(30):
            ref = mpmath_basis_jet(mp, n, tau, z, 2)
        assert np.all(jet_error(theta_alpha_jet(b, np.arange(n), z, 2), ref)
                      < 1e-13)

    @pytest.mark.parametrize("n", [3, 5, 7])
    @pytest.mark.parametrize("tau", [TAU_SQUARE, TAU_GENERIC, 0.5j, 0.1j,
                                     0.05j])
    def test_product_constant_matches_mpmath(self, n, tau):
        # C = (Q;Q)^n / (Q^n;Q^n) of the triple product, by which the
        # oracle divides its defining product (the basis never evaluates
        # it); measured at most 6.9e-15
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            q = mp.exp(2j * mp.pi * mp.mpc(tau))
            ref = complex(mp.qp(q, q) ** n / mp.qp(q ** n, q ** n))
        assert abs(product_constant(n, tau) - ref) < 1e-14 * abs(ref)

    def test_index_periodicity(self):
        # theta_{alpha+n} at the unreduced index agrees with theta_alpha
        for tau in (TAU_SQUARE, TAU_GENERIC):
            b = basis(5, tau)
            z = sample_points(tau, 10, seed=6)
            for alpha in range(5):
                lhs = theta_alpha_jet(b, alpha + 5, z, 0)[0]
                rhs = theta_alpha_jet(b, alpha, z, 0)[0]
                assert np.max(np.abs(lhs - rhs)) < 1e-8 * np.max(np.abs(rhs))


class TestThetaAlphaDeriv:
    def test_second_log_derivative_identity(self):
        # theta_0''(0)/theta_0'(0) = 2*pi*i*n
        for n in (3, 5, 7):
            for tau in (TAU_SQUARE, TAU_GENERIC):
                b = basis(n, tau)
                ratio = theta_alpha_deriv(b, 0, 0.0, 2) / b.dtheta_at_zero[0]
                assert abs(ratio - 2j * math.pi * n) < 1e-8

    def test_negated_index_log_derivative(self):
        # theta_{-a}'(0)/theta_{-a}(0) = 2*pi*i*n - theta_a'(0)/theta_a(0)
        b = basis(5, TAU_SQUARE)
        for alpha in range(1, 5):
            lhs = ratio_dtheta(b, -alpha % 5)
            rhs = 2j * math.pi * 5 - ratio_dtheta(b, alpha)
            assert abs(lhs - rhs) < 1e-9

    def test_against_finite_differences(self):
        b = basis(3, TAU_SQUARE)
        h = 1e-5
        for alpha in range(3):
            for z in (0.21 + 0.17j, 0.43 + 0.61j):
                fd1 = (theta_alpha_eval(b, alpha, z + h)
                       - theta_alpha_eval(b, alpha, z - h)) / (2 * h)
                an1 = theta_alpha_deriv(b, alpha, z, 1)
                assert abs(an1 - fd1) < 1e-7
                fd2 = (theta_alpha_eval(b, alpha, z + h)
                       - 2 * theta_alpha_eval(b, alpha, z)
                       + theta_alpha_eval(b, alpha, z - h)) / h ** 2
                an2 = theta_alpha_deriv(b, alpha, z, 2)
                assert abs(an2 - fd2) < 1e-5 * max(1.0, abs(an2))

    @pytest.mark.parametrize("n", [3, 7, 13])
    @pytest.mark.parametrize("tau", [TAU_SQUARE, TAU_GENERIC])
    def test_against_cauchy_integral(self, n, tau):
        # the oracle reads only values of theta_alpha; on the divisor
        # z = k/n one factor of theta_0 vanishes
        b = basis(n, tau)
        for alpha in range(n):
            z = sample_points(tau, 3, seed=12)
            if alpha == 0:
                z = np.concatenate([z, np.arange(n) / n])
            for order in (1, 2):
                oracle, scale = cauchy_derivative(
                    lambda w: theta_alpha_eval(b, alpha, w), z, order,
                    1.0 / (4 * n))
                value = theta_alpha_deriv(b, alpha, z, order)
                assert np.all(np.abs(value - oracle) < 1e-12 * scale)

    def test_dtheta0_constant_on_divisor(self):
        for tau in (TAU_SQUARE, TAU_GENERIC):
            b = basis(5, tau)
            ref = b.dtheta_at_zero[0]
            for k in range(5):
                val = theta_alpha_deriv(b, 0, k / 5, 1)
                assert abs(val - ref) < 1e-8 * abs(ref)


class TestDoubleRange:
    def test_large_im_z_is_typed_error(self):
        b = basis(3, TAU_SQUARE)
        with pytest.raises(ThetaRangeError, match=r"0\.1\+20j"):
            theta_alpha_eval(b, 0, 0.1 + 20j)
        with pytest.raises(ThetaRangeError):
            theta_alpha_deriv(b, 1, np.array([0.2, 0.1 - 20j]), 2)
        with pytest.raises(ThetaRangeError):
            theta_alpha_eval(b, 2, complex(0.3, math.nan))

    def test_range_error_names_the_point_of_the_bound(self):
        # at n = 31, tau = 6i, Im z = -0.01 reduces with lattice index -1,
        # beyond range, and Im z = 5.9 with index 0: the message names the
        # lower point, although the upper one has the larger |Im z|
        b = basis(31, 6j)
        with pytest.raises(ThetaRangeError,
                           match=r"^theta_0 at z = \(0\.5-0\.01j\)"):
            theta_alpha_eval(b, 0, np.array([0.5 + 5.9j, 0.5 - 0.01j]))

    @pytest.mark.parametrize("n,tau", [(3, TAU_SQUARE), (13, TAU_GENERIC),
                                       (5, 0.5j)])
    def test_value_is_finite_or_refused(self, n, tau):
        # RuntimeWarnings are errors in this suite: an overflow fails here
        b = basis(n, tau)
        refused = 0
        for y in np.linspace(-30.0, 30.0, 121):
            z = 0.37 + 1j * y
            for alpha in (0, 1, n - 1):
                try:
                    vals = (theta_alpha_eval(b, alpha, z),
                            theta_alpha_deriv(b, alpha, z, 2))
                except ThetaRangeError:
                    refused += 1
                    continue
                assert all(np.isfinite(v) for v in vals)
        assert 0 < refused < 121 * 3


class TestLatticeParameter:
    def test_re_tau_reduced_exactly_modulo_2n(self):
        # |Re tau| < 2n is kept bit for bit; math.fmod is exact beyond
        for tau in (TAU_GENERIC, -9.75 + 0.5j, complex(-0.0, 1.0)):
            assert repr(CurveParams(tau, 5).tau) == repr(complex(tau))
        assert CurveParams(1e7 + 0.3 + 1j, 5).tau == complex(
            math.fmod(1e7 + 0.3, 10), 1.0)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("tau", [TAU_SQUARE, TAU_GENERIC])
    def test_shift_by_n_is_a_sign(self, n, tau):
        # theta_alpha(z; tau + n) = (-1)^(alpha(alpha-n)) theta_alpha(z; tau);
        # tau + n is stored unreduced, so both sides are summed afresh.  Each
        # of the n factors rounds phases of size 2 pi |tau + n|, so the
        # bound is 4 n 2 pi |tau + n| 2^-53; the errors stay below a third
        shifted = basis(n, tau + n)
        assert shifted.params.tau == tau + n
        z = sample_points(tau, 20, seed=4)
        alpha = np.arange(n)
        ref = theta_alpha_eval(basis(n, tau), alpha, z)
        sign = (-1.0) ** (alpha * (alpha - n))
        err = (np.abs(theta_alpha_eval(shifted, alpha, z) - sign * ref)
               / np.max(np.abs(ref), axis=0))
        assert np.max(err) < 4 * n * 2 * math.pi * abs(tau + n) * 2.0 ** -53


class TestAllAlpha:
    """An integer array alpha against the loop of scalar calls."""

    @pytest.mark.parametrize("n", [3, 7, 13])
    @pytest.mark.parametrize("tau", [TAU_SQUARE, TAU_GENERIC, 0.5j])
    def test_array_alpha_matches_scalar_calls(self, n, tau):
        b = basis(n, tau)
        # unreduced indices on both sides of [0, n)
        alphas = np.arange(-1, n + 1)
        rng = np.random.default_rng(11)
        size = 2000 if n == 13 else 200
        line = rng.uniform(-1, 2, size) + rng.uniform(-1, 2, size) * tau
        if n == 13:
            # the line spans several chunks of the all-alpha series, one
            # series per point and index
            assert (line.size * alphas.size * (2 * b.series_bound + 2)
                    > 2 * theta._CHUNK_TERMS)
        calls = [lambda a, z, o=o: theta_alpha_jet(b, a, z, o)
                 for o in (0, 1, 2)]
        calls.append(lambda a, z: theta_alpha_eval(b, a, z))
        calls += [lambda a, z, o=o: theta_alpha_deriv(b, a, z, o)
                  for o in (1, 2)]
        for z in (0.21 + 0.13 * tau, line, line[:20].reshape(4, 5)):
            for call in calls:
                table = call(alphas, z)
                ref = np.stack([call(int(a), z) for a in alphas], axis=-1)
                assert table.shape == ref.shape
                assert (np.max(np.abs(table - ref))
                        <= 1e-14 * np.max(np.abs(ref)))

    def test_one_series_per_point_and_index(self, monkeypatch):
        # a P-point x A-index call sums exactly P A series at n tau, not
        # the n shifted factors of each theta_alpha
        b = basis(7, TAU_GENERIC)
        rows = []

        def counted(z0, tau, bound, order):
            rows.append(np.size(z0))
            return series_terms(z0, tau, bound, order)

        series_terms = theta._series_terms
        monkeypatch.setattr(theta, "_series_terms", counted)
        theta_alpha_jet(b, np.arange(5), sample_points(TAU_GENERIC, 30), 2)
        assert sum(rows) == 30 * 5

    def test_scalar_alpha_keeps_its_shape(self):
        b = basis(5, TAU_SQUARE)
        z = sample_points(TAU_SQUARE, 6).reshape(2, 3)
        assert theta_alpha_jet(b, 2, z, 1).shape == (2, 2, 3)
        assert theta_alpha_jet(b, np.arange(5), z, 1).shape == (2, 2, 3, 5)
        assert isinstance(theta_alpha_eval(b, 2, 0.3), complex)
        assert theta_alpha_eval(b, [1, 2], 0.3).shape == (2,)

    def test_range_error_names_the_failing_alpha(self):
        # at n = 13, tau = i, Im z = 3.5 the factors of theta_alpha share
        # the lattice index floor(3.5 + alpha/13): 3 for alpha < 7, in
        # range, and 4 from alpha = 7 on, out of range
        b = basis(13, TAU_SQUARE)
        z = 0.1 + 3.5j
        assert np.all(np.isfinite(theta_alpha_jet(b, np.arange(7), z, 1)))
        with pytest.raises(ThetaRangeError, match=r"^theta_7 at z"):
            theta_alpha_jet(b, np.arange(13), z, 0)
        with pytest.raises(ThetaRangeError, match=r"^theta_9 at z"):
            theta_alpha_deriv(b, np.array([2, 9, 11]), z, 1)

    def test_alpha_must_be_integer_vector(self):
        b = basis(3, TAU_SQUARE)
        with pytest.raises(ValueError, match="1-D integer array"):
            theta_alpha_jet(b, np.zeros((2, 2), dtype=int), 0.1, 0)
        with pytest.raises(ValueError, match="1-D integer array"):
            theta_alpha_eval(b, 1.0, 0.1)

    @pytest.mark.parametrize("n", [3, 13])
    @pytest.mark.parametrize("tau", [TAU_SQUARE, TAU_GENERIC, 0.05j])
    def test_chunk_size_moves_no_bit(self, n, tau, monkeypatch):
        # whole rows of (point, alpha) pairs per call, each row summed by
        # its own matmul: one row per call, the default and one call for
        # all 400 points give the same bytes
        b = basis(n, tau)
        z = sample_points(tau, 400)
        alphas = np.arange(n)
        whole = [theta_alpha_jet(b, alphas, z, order) for order in (0, 1, 2)]
        for chunk in (64, 2 ** 20):
            monkeypatch.setattr(theta, "_CHUNK_TERMS", chunk)
            for order, ref in enumerate(whole):
                assert (theta_alpha_jet(b, alphas, z, order).tobytes()
                        == ref.tobytes())

    def test_all_alpha_jet_memory_stays_flat(self):
        # one series per point and index: unchunked, 10^4 points x 13
        # alpha peak at 35 MB, chunked at 10 MB
        b = basis(13, TAU_SQUARE)
        z = sample_points(TAU_SQUARE, 10 ** 4)
        tracemalloc.start()
        try:
            out = theta_alpha_jet(b, np.arange(13), z, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (1, 10 ** 4, 13)
        assert np.all(np.isfinite(out))
        assert peak < 16 * 2 ** 20


class TestBasisTables:
    @pytest.mark.parametrize("tau", [TAU_SQUARE, 2j])
    def test_large_order_builds(self, tau):
        # at n = 31 the exponential factor E_alpha alone spreads
        # |theta_alpha'(0)| over more than nine orders of magnitude
        b = basis(31, tau)
        ref = b.dtheta_at_zero[0]
        assert np.max(np.abs(b.dtheta_at_zero)) > 1e9 * abs(ref)
        d0 = [theta_alpha_deriv(b, 0, k / 31, 1) for k in range(31)]
        assert max(abs(v - ref) for v in d0) < 1e-12 * abs(ref)

    @pytest.mark.parametrize("tau", [TAU_SQUARE, TAU_GENERIC, 0.5j])
    def test_moderate_orders_build(self, tau):
        for n in range(2, 14):
            b = basis(n, tau)
            assert b.n == n
            # far below the refusal limit of 1e-8
            assert b.rounding_bound < 1e-13

    def test_series_bound_is_the_smallest_truncation(self):
        # the closed form against the definition, counted term by term,
        # across Im tau and at the edges where M(M-1)/2 log|q| hits the
        # target
        def counted(im, eps):
            log_q, target = -2.0 * math.pi * im, math.log(eps / 10.0)
            m = 2
            while log_q * (m * (m - 1) / 2.0) >= target:
                m += 1
            return m

        ims = list(np.geomspace(1e-5, 1e3, 400))
        for m in range(2, 200):
            edge = -math.log(1e-13) / (math.pi * m * (m - 1))
            ims += [edge, math.nextafter(edge, 0), math.nextafter(edge, 1)]
        for im in ims:
            for eps in (1e-12, 1e-8):
                assert series_bound_for(complex(0.3, im), eps) == counted(
                    im, eps), (im, eps)

    @pytest.mark.parametrize("n, im, message", [
        (5, 1e-10, "the theta series at n*tau needs 1.38e+05 terms, beyond "
                   "the limit 4096"),
        (5, 1e-300, "needs 1.38e+150 terms"),
        (3, 1e-310, "needs inf terms"),
        (3, 1e308, "n Im tau is not finite"),
    ], ids=["im_1e-10", "im_1e-300", "subnormal_im", "infinite_n_im"])
    def test_series_beyond_limit_refused_before_summing(self, n, im, message,
                                                        monkeypatch):
        def summed(*args):
            raise AssertionError("a series was summed")

        monkeypatch.setattr(theta, "_series_terms", summed)
        with pytest.raises(DegenerateTauError) as exc:
            basis(n, 1j * im)
        text = str(exc.value)
        assert text.startswith(
            f"Im tau = {im:g} is out of numerical range at n = {n}: ")
        assert message in text

    def test_largest_accepted_truncation_still_builds(self):
        # the largest M of an accepted basis in the scan behind
        # MAX_SERIES_TERMS
        b = basis(3, 0.025 + 1e-5j)
        assert b.series_bound == 565 < theta.MAX_SERIES_TERMS

    def test_small_im_tau_refused_by_range(self):
        with pytest.raises(DegenerateTauError,
                           match=r"Im tau = 1e-06 is out of numerical range"):
            basis(3, 1e-6j)

    @pytest.mark.parametrize("n, im", [(2, 1e-6), (2, 0.02)])
    def test_series_cancellation_refused(self, n, im):
        # at n = 2, Im tau = 1e-6 the relative checks of the values at 0
        # pass on noise; at Im tau = 0.02 the series at n tau may lose
        # 1.9e-8 of theta_0'(0)
        with pytest.raises(DegenerateTauError,
                           match="rounding in the theta series"):
            basis(n, 1j * im)

    @pytest.mark.parametrize("n, im", [(2, 0.03), (5, 0.04), (7, 0.048),
                                       (5, 0.038), (13, 0.07)])
    def test_series_cancellation_accepted(self, n, im):
        # the product of n shifted factors loses these; at the last three
        # C = 1.4e-12 (n = 7) or less, so the product's values would fail
        # an absolute floor on theta_0'(0) too.  The one series at n tau keeps the
        # values to rounding level (bound 2.7e-11, then 5.2e-16 to
        # 5.9e-15); against mpmath at 30 digits, divided by C, measured at
        # most 6.6e-15
        mp = pytest.importorskip("mpmath")
        b = basis(n, 1j * im)
        assert b.rounding_bound < ROUNDING_LIMIT
        z = sample_points(1j * im, 4, seed=10)
        with mp.workdps(30):
            ref = mpmath_basis_jet(mp, n, 1j * im, z, 1)
        assert np.all(jet_error(theta_alpha_jet(b, np.arange(n), z, 1), ref)
                      < 1e-13)

    @pytest.mark.parametrize("n, im", [(13, 0.009), (31, 0.02)])
    def test_values_without_product_constant_accepted(self, n, im, tmp_path):
        # the defining product carries C = 3.7e-151 and 1.5e-150 here, so a
        # product of two of its values may leave double range; the one
        # series at n tau has no such factor, and the rounding bound reads
        # 1.9e-13 and 1.9e-15
        b = basis(n, 1j * im)
        assert b.rounding_bound < 1e-11
        args = ["--n", str(n), "--tau", "0", str(im)]
        for command in ("theta", "sklyanin"):
            out = tmp_path / f"{command}.json"
            assert main([command] + args + ["--output", str(out)]) == 0, \
                out.read_text()


class TestBasisPass:
    """Every table of a basis comes from one pass over the series terms."""

    @pytest.mark.parametrize("n", list(range(2, 14)) + [31])
    def test_one_series_call_per_build(self, n, monkeypatch):
        calls = []

        def counted(z0, tau, bound, order):
            calls.append(np.size(z0))
            return series_terms(z0, tau, bound, order)

        series_terms = theta._series_terms
        monkeypatch.setattr(theta, "_series_terms", counted)
        for tau in (TAU_SQUARE, TAU_GENERIC, 0.5j):
            calls.clear()
            b = basis(n, tau)
            # 0 for every alpha, k/n for alpha = 0
            assert calls == [2 * n]
            assert b.theta_at_zero.shape == b.dtheta_at_zero.shape == (n,)

    @pytest.mark.parametrize("n, tau", [(3, 0.025 + 1e-5j), (5, TAU_GENERIC),
                                        (13, 0.5j), (31, TAU_SQUARE)])
    def test_chunked_pass_gives_the_same_tables(self, n, tau, monkeypatch):
        # pieces of whole rows, each row summed by its own matmul: the
        # chunk size moves no bit
        whole = basis(n, tau)
        monkeypatch.setattr(theta, "_CHUNK_TERMS", 64)
        calls = []
        series_terms = theta._series_terms
        monkeypatch.setattr(theta, "_series_terms",
                            lambda *args: calls.append(1) or series_terms(
                                *args))
        cut = basis(n, tau)
        # one call per row, the finest cut of the two rows
        assert len(calls) == 2
        assert repr(cut.rounding_bound) == repr(whole.rounding_bound)
        for name in ("theta_at_zero", "dtheta_at_zero"):
            assert getattr(cut, name).tobytes() == getattr(whole,
                                                           name).tobytes()

    def test_rounding_refused_before_any_factor(self, monkeypatch):
        def applied(*args):
            raise AssertionError("a multiplier or E_alpha was applied")

        monkeypatch.setattr(theta, "_basis_jet", applied)
        with pytest.raises(DegenerateTauError,
                           match="rounding in the theta series"):
            basis(3, 1e-6j)


class TestSharedTables:
    """The series tables depend on the truncation and the jet order alone:
    each is built once, shared and read-only."""

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_tables_are_read_only(self, order):
        for table in theta._series_table(3, order):
            with pytest.raises(ValueError, match="read-only"):
                table[...] = 0

    def test_bases_with_one_truncation_share_the_weights(self, monkeypatch):
        one, two = basis(5, TAU_SQUARE), basis(5, 0.3 + 1j)
        assert one.series_bound == two.series_bound
        seen = []

        def recorded(*args):
            terms, weights = series_terms(*args)
            seen.append(weights)
            return terms, weights

        series_terms = theta._series_terms
        monkeypatch.setattr(theta, "_series_terms", recorded)
        theta._series_table.cache_clear()
        for b in (one, two):
            theta_alpha_jet(b, np.arange(5), sample_points(b.params.tau, 7), 1)
        assert len(seen) == 2 and seen[0] is seen[1]
        assert theta._series_table.cache_info().misses == 1

    def test_namespace_basis_evaluates(self):
        # the kernel reads n, params and series_bound off its basis and
        # keys nothing by it: the namespace basis of the three-sum oracle
        # evaluates to the bytes of the basis
        params = CurveParams(0.3 + 0.8j, 7)
        ref, namespace = ThetaBasis(params), three_sum_basis(params)
        assert isinstance(namespace, SimpleNamespace)
        z = sample_points(params.tau, 9).reshape(3, 3)
        for order in (0, 1, 2):
            for alpha in (3, np.arange(7)):
                assert (theta_alpha_jet(namespace, alpha, z, order).tobytes()
                        == theta_alpha_jet(ref, alpha, z, order).tobytes())


class TestHeisenberg:
    def test_shift_operator_pointwise(self):
        # zeta(z)^-1 theta_alpha(z + tau/n) equals theta_{alpha+1}(z)
        n = 3
        b = basis(n, TAU_SQUARE)
        z = sample_points(TAU_SQUARE, 10, seed=9)
        for alpha in range(n):
            lhs = theta_alpha_eval(b, alpha, z + b.params.tau / n) / zeta_multiplier(b, z)
            rhs = theta_alpha_eval(b, alpha + 1, z)
            assert np.max(np.abs(lhs - rhs)) < 1e-8 * np.max(np.abs(rhs))


class TestAutomorphy:
    def test_zero_section(self):
        b = basis(3, TAU_SQUARE)
        res = verify_automorphy(b, 0, lambda z: np.zeros_like(np.asarray(z)))
        assert res == 0.0

    def test_one_call_on_the_shifted_grids(self):
        # the grid, the grid shifted by 1 and by tau, concatenated
        b = basis(3, TAU_SQUARE)
        calls = []

        def f(z):
            calls.append(np.array(z))
            return theta_alpha_eval(b, 1, z)

        assert verify_automorphy(b, 1.0, f) < 1e-8
        assert len(calls) == 1
        z = calls[0].reshape(3, -1)
        assert np.array_equal(z[1], z[0] + 1.0)
        assert np.array_equal(z[2], z[0] + b.params.tau)

    @pytest.mark.parametrize("n", [3, 5])
    def test_character_scan_identifies_constant(self, n):
        # scanning c over m/(2n) certifies the basis character c = (n-1)/2
        b = basis(n, TAU_SQUARE)
        f = lambda z: theta_alpha_eval(b, 1, z)
        cs = [m / (2 * n) for m in range(2 * n)]
        residuals = [verify_automorphy(b, c, f) for c in cs]
        best = min(range(len(cs)), key=lambda i: residuals[i])
        assert abs((cs[best] - (n - 1) / 2) % 1.0) < 1e-12
        assert residuals[best] < 1e-8


PIN_TAUS = (1j, 0.3 + 0.8j, 0.5j)


def kernel_digest(n, tau):
    """sha256 of the basis tables and of ``theta_alpha_jet`` at orders 0-2,
    with alpha scalar (n - 1) or an unreduced array (-1..n) and z scalar or
    a 3 x 4 grid in the fundamental cell."""
    b = basis(n, tau)
    h = hashlib.sha256()
    h.update(f"{b.series_bound} {b.rounding_bound!r}".encode())
    for table in (b.theta_at_zero, b.dtheta_at_zero):
        h.update(table.tobytes())
    k = np.arange(12)
    grid = ((0.37 * k + 0.11) % 1.0 + ((0.61 * k + 0.05) % 1.0) * tau
            ).reshape(3, 4)
    for z in (0.21 + 0.13 * tau, grid):
        for alpha in (n - 1, np.arange(-1, n + 1)):
            for order in (0, 1, 2):
                out = theta_alpha_jet(b, alpha, z, order)
                h.update(repr(out.shape).encode() + out.tobytes())
    return h.hexdigest()[:16]


class TestKernelPins:
    """Digests taken before the series terms, weights and jet products
    were built from shared per-shape tables: no kernel path may move a
    bit of a basis table or a jet."""

    DIGESTS = {
        (2, 1j): "9ebdb318acebb42c",
        (2, 0.3 + 0.8j): "22061a8f693a8d7b",
        (2, 0.5j): "5cdc39139ab9716d",
        (3, 1j): "f5aaeb6c2188157e",
        (3, 0.3 + 0.8j): "fadf5b2ddf94b24f",
        (3, 0.5j): "3ca19af68f151549",
        (5, 1j): "20d06438b5b36532",
        (5, 0.3 + 0.8j): "d13c9f63c503ef9a",
        (5, 0.5j): "9053906dbc2500d6",
        (7, 1j): "756df182b87513fc",
        (7, 0.3 + 0.8j): "885cfd175048f3cb",
        (7, 0.5j): "d50fc815d3a51b5e",
        (11, 1j): "7df6c565f875ffec",
        (11, 0.3 + 0.8j): "c6cdfeb1b9663205",
        (11, 0.5j): "9b1c8a6147c8983e",
        (13, 1j): "d25fa6c2733b16f3",
        (13, 0.3 + 0.8j): "f52a6569d502a8fb",
        (13, 0.5j): "254ba6046cf2c57b",
        (31, 1j): "ee83622f7789e82b",
        (31, 0.3 + 0.8j): "5dba7b6bc6bf619e",
        (31, 0.5j): "0b098d442c74cd01",
    }

    @pytest.mark.parametrize("n", [2, 3, 5, 7, 11, 13, 31])
    @pytest.mark.parametrize("tau", PIN_TAUS, ids=["i", "generic", "half_i"])
    def test_jet_and_tables_pinned(self, n, tau):
        assert kernel_digest(n, tau) == self.DIGESTS[n, tau]
