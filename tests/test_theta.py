"""Tests for the theta evaluators and the Heisenberg action."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest

from ellpoisson import theta
from ellpoisson.errors import DegenerateTauError, ThetaRangeError
from ellpoisson.theta import (
    T_ONE_OVER_N,
    T_TAU_OVER_N,
    CurveParams,
    ThetaBasis,
    ThetaSection,
    heisenberg_act,
    section_eval,
    theta_alpha_deriv,
    theta_alpha_eval,
    theta_alpha_jet,
    theta_eval,
    verify_automorphy,
    zeta_multiplier,
)

TAU_SQUARE = 1j
TAU_GENERIC = 0.3 + 0.8j


def theta_brute(z, tau, terms=50, order=0):
    """Direct high-truncation summation oracle, no reduction tricks; the
    order-th derivative is summed term by term."""
    total = 0j
    for m in range(-terms, terms + 1):
        total += (-1) ** m * (2j * math.pi * m) ** order * cmath.exp(
            2j * math.pi * (m * z + m * (m - 1) * tau / 2.0))
    return total


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


def basis(n, tau):
    return ThetaBasis(CurveParams(tau, n))


def sample_points(tau, count, seed=0):
    rng = np.random.default_rng(seed)
    return rng.random(count) + rng.random(count) * tau


class TestThetaEval:
    def test_vanishes_at_origin(self):
        for tau in (TAU_SQUARE, TAU_GENERIC):
            assert abs(theta_eval(tau, 0.0)) < 1e-12

    def test_periodicity_in_one(self):
        z = 0.31 + 0.22j
        for tau in (TAU_SQUARE, TAU_GENERIC):
            assert abs(theta_eval(tau, z + 1) - theta_eval(tau, z)) < 1e-12

    def test_matches_brute_force_oracle(self):
        val = theta_eval(TAU_SQUARE, 0.5)
        assert abs(val - theta_brute(0.5, TAU_SQUARE)) < 1e-12

    def test_matches_oracle_on_random_points(self):
        for tau in (TAU_SQUARE, TAU_GENERIC):
            for z in sample_points(tau, 12, seed=3):
                assert abs(theta_eval(tau, z) - theta_brute(z, tau)) < 1e-11

    def test_rejects_bad_tau(self):
        with pytest.raises(ValueError):
            theta_eval(-1j, 0.3)

    def test_truncation_soundness(self):
        z = sample_points(TAU_GENERIC, 25, seed=5)
        base = theta_eval(TAU_GENERIC, z)
        from ellpoisson.theta import series_bound_for
        m = series_bound_for(TAU_GENERIC, 1e-12)
        doubled = theta_eval(TAU_GENERIC, z, series_bound=2 * m)
        assert np.max(np.abs(base - doubled)) < 1e-12

    def test_quasi_periodicity_large_shift(self):
        # reduction handles arguments far outside the cell
        z = 0.2 + 0.1j
        tau = TAU_GENERIC
        direct = theta_brute(z + 3 * tau - 2, tau, terms=80)
        assert abs(theta_eval(tau, z + 3 * tau - 2) - direct) < 1e-9 * abs(direct)

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("tau", [TAU_SQUARE, TAU_GENERIC])
    def test_derivatives_match_termwise_oracle(self, order, tau):
        for z in sample_points(tau, 12, seed=3):
            direct = theta_brute(z, tau, order=order)
            assert (abs(theta_eval(tau, z, order=order) - direct)
                    < 1e-12 * max(1.0, abs(direct)))
        # far outside the cell the multiplier's jet carries the derivative
        z = 0.2 + 0.1j + 3 * tau - 2
        direct = theta_brute(z, tau, terms=80, order=order)
        assert abs(theta_eval(tau, z, order=order) - direct) < 1e-12 * abs(direct)

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
        err = np.abs(theta_eval(tau, z) - ref) / np.abs(ref)
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

    def test_index_periodicity(self):
        # theta_{alpha+n} from the defining product agrees with theta_alpha
        from ellpoisson.theta import theta_alpha_raw
        for tau in (TAU_SQUARE, TAU_GENERIC):
            b = basis(5, tau)
            z = sample_points(tau, 10, seed=6)
            for alpha in range(5):
                lhs = theta_alpha_raw(b, alpha + 5, z)
                rhs = theta_alpha_raw(b, alpha, z)
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
            lhs = b.ratio_dtheta(-alpha % 5)
            rhs = 2j * math.pi * 5 - b.ratio_dtheta(alpha)
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
            theta_eval(TAU_SQUARE, 0.3 + 30j)
        with pytest.raises(ThetaRangeError):
            theta_eval(TAU_SQUARE, complex(0.3, math.nan))

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
                            theta_alpha_deriv(b, alpha, z, 2),
                            b.theta(z, order=2))
                except ThetaRangeError:
                    refused += 1
                    continue
                assert all(np.isfinite(v) for v in vals)
        assert 0 < refused < 121 * 3


class TestAllAlpha:
    """An integer array alpha against the loop of scalar calls."""

    @pytest.mark.parametrize("n", [3, 7, 13])
    @pytest.mark.parametrize("tau", [TAU_SQUARE, TAU_GENERIC, 0.5j])
    def test_array_alpha_matches_scalar_calls(self, n, tau):
        b = basis(n, tau)
        # unreduced indices on both sides of [0, n)
        alphas = np.arange(-1, n + 1)
        rng = np.random.default_rng(11)
        line = rng.uniform(-1, 2, 200) + rng.uniform(-1, 2, 200) * tau
        if n == 13:
            # the line spans several chunks of the all-alpha series
            assert (line.size * alphas.size * n * (2 * b.series_bound + 2)
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

    def test_all_alpha_jet_memory_stays_flat(self):
        # unchunked, the series terms of 10^4 points x 13 alpha x 13
        # factors alone would take 270 MB
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
        assert peak < 32 * 2 ** 20


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
            assert b._rounding_bound() < 1e-13

    def test_small_im_tau_refused_by_range(self):
        with pytest.raises(DegenerateTauError,
                           match=r"Im tau = 1e-06 is out of numerical range"):
            basis(3, 1e-6j)

    @pytest.mark.parametrize("n, im", [(2, 1e-6), (2, 0.03), (5, 0.04)])
    def test_series_cancellation_refused(self, n, im):
        # each of these built before; from rounding alone its theta checks
        # failed, or at n = 5, Im tau = 0.04 came within 10% of the default
        # tolerance
        with pytest.raises(DegenerateTauError,
                           match="rounding in the theta series"):
            basis(n, 1j * im)


class TestHeisenberg:
    def test_scaling_generator_fixes_e0(self):
        b = basis(4, TAU_SQUARE)
        e0 = ThetaSection(np.array([1, 0, 0, 0]))
        out = heisenberg_act(b, T_ONE_OVER_N, e0)
        assert np.array_equal(out.coeffs, e0.coeffs)

    def test_shift_has_order_n(self):
        b = basis(5, TAU_GENERIC)
        rng = np.random.default_rng(7)
        sec = ThetaSection(rng.random(5) + 1j * rng.random(5))
        out = sec
        for _ in range(5):
            out = heisenberg_act(b, T_TAU_OVER_N, out)
        assert np.allclose(out.coeffs, sec.coeffs, atol=0)

    def test_commutation_exact(self):
        b = basis(4, TAU_SQUARE)
        rng = np.random.default_rng(8)
        sec = ThetaSection(rng.random(4) + 1j * rng.random(4))
        ab = heisenberg_act(b, T_ONE_OVER_N, heisenberg_act(b, T_TAU_OVER_N, sec))
        ba = heisenberg_act(b, T_TAU_OVER_N, heisenberg_act(b, T_ONE_OVER_N, sec))
        assert np.max(np.abs(ab.coeffs - b.omega * ba.coeffs)) < 1e-15

    def test_shift_operator_pointwise(self):
        # zeta(z)^-1 theta_alpha(z + tau/n) equals theta_{alpha+1}(z)
        n = 3
        b = basis(n, TAU_SQUARE)
        z = sample_points(TAU_SQUARE, 10, seed=9)
        for alpha in range(n):
            lhs = theta_alpha_eval(b, alpha, z + b.params.tau / n) / zeta_multiplier(b, z)
            rhs = theta_alpha_eval(b, alpha + 1, z)
            assert np.max(np.abs(lhs - rhs)) < 1e-8 * np.max(np.abs(rhs))

    def test_section_eval_matches_operator(self):
        n = 3
        b = basis(n, TAU_GENERIC)
        rng = np.random.default_rng(10)
        sec = ThetaSection(rng.random(n) + 1j * rng.random(n))
        z = sample_points(TAU_GENERIC, 8, seed=11)
        shifted = heisenberg_act(b, T_TAU_OVER_N, sec)
        lhs = section_eval(b, sec, z + b.params.tau / n) / zeta_multiplier(b, z)
        rhs = section_eval(b, shifted, z)
        assert np.max(np.abs(lhs - rhs)) < 1e-8 * np.max(np.abs(rhs))


class TestAutomorphy:
    def test_basic_theta_is_weight_one(self):
        b = basis(3, TAU_SQUARE)
        res = verify_automorphy(
            b, 0, lambda z: theta_eval(TAU_SQUARE, z), weight=1)
        assert res < 1e-9

    def test_zero_section(self):
        b = basis(3, TAU_SQUARE)
        res = verify_automorphy(b, 0, lambda z: np.zeros_like(np.asarray(z)))
        assert res == 0.0

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
