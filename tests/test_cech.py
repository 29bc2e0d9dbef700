"""Tests for the residue calculus and the moduli-of-extensions bracket."""

import math

import numpy as np
import pytest

import ellpoisson.theta as theta
from ellpoisson.cech import (
    ResidueSystem,
    laurent_coeffs,
    psi_local_constant,
)
from ellpoisson.errors import (ContourError, DegenerateTauError,
                               EllPoissonError, ThetaRangeError)
from ellpoisson.fo import sklyanin_bracket
from ellpoisson.poisson import projective_matrix
from ellpoisson.theta import (
    CIRCLE_POINTS,
    CurveParams,
    ThetaBasis,
    shortest_period,
    theta_alpha_deriv,
    theta_alpha_eval,
)

from oracles import phi, three_sum_basis, three_sum_tables


def basis(n, tau=1j):
    return ThetaBasis(CurveParams(tau, n))


def system(n, tau=1j):
    return ResidueSystem(basis(n, tau))


def random_chart_point(n, rng):
    t = rng.standard_normal(n) * 0.5 + 1j * rng.standard_normal(n) * 0.5
    t[0] = 1.0
    return t


class TestLaurent:
    def test_simple_pole(self):
        a = 0.2 + 0.1j
        coeffs = laurent_coeffs(lambda z: 1.0 / (z - a), a, (-2, 1), n=1)
        assert abs(coeffs[0]) < 1e-12          # order -2
        assert abs(coeffs[1] - 1.0) < 1e-12    # residue
        assert abs(coeffs[2]) < 1e-12
        assert abs(coeffs[3]) < 1e-12

    def test_phi1_leading_coefficient(self):
        # Laurent expansion of phi_1 near 0 starts theta_1(0)/theta'_0(0)/z
        b = basis(3)
        coeffs = laurent_coeffs(phi(b, 1), 0.0, (-1, -1), n=3)
        expected = b.theta_at_zero[1] / b.dtheta_at_zero[0]
        assert abs(coeffs[0] - expected) < 1e-9

    def test_phi_constant_term_expansion(self):
        # next term: theta_i'(0)/theta_0'(0) - pi*i*n * theta_i(0)/theta_0'(0)
        b = basis(3)
        coeffs = laurent_coeffs(phi(b, 2), 0.0, (0, 0), n=3)
        dth0 = b.dtheta_at_zero[0]
        expected = (b.dtheta_at_zero[2] / dth0
                    - 1j * math.pi * 3 * b.theta_at_zero[2] / dth0)
        assert abs(coeffs[0] - expected) < 1e-9

    def test_doubling_points_stable(self, monkeypatch):
        b = basis(3)
        c1 = laurent_coeffs(phi(b, 1), 0.0, (-1, 2), n=3)
        monkeypatch.setattr(theta, "CIRCLE_POINTS", 2 * CIRCLE_POINTS)
        c2 = laurent_coeffs(phi(b, 1), 0.0, (-1, 2), n=3)
        assert np.max(np.abs(c1 - c2)) < 1e-12

    def test_contour_through_pole_detected(self):
        # the circle for a pole distance of 1 has radius 1/4 and a node at
        # 1/4
        with pytest.raises(ContourError):
            laurent_coeffs(lambda z: 1.0 / (z - 0.25), 0.0, (-1, -1), n=1)


class TestContour:
    def test_shortest_period(self):
        assert shortest_period(3, 1j) == pytest.approx(1 / 3)
        assert shortest_period(3, 0.1j) == pytest.approx(0.1)
        # 1/3 - (0.3 + 0.05i) is shorter than both generators
        assert shortest_period(3, 0.3 + 0.05j) == pytest.approx(
            abs(1 / 3 - 0.3 - 0.05j))

    def test_default_radius_excludes_tau_direction_poles(self):
        s = system(3)
        assert (s.points, s.radius) == (CIRCLE_POINTS, 1 / 12)
        assert np.allclose(np.abs(s.offsets), 1 / 12, rtol=1e-15, atol=0)
        assert system(3, 0.1j).radius == pytest.approx(0.025)


class TestTables:
    def test_shapes(self):
        s = system(3)
        assert s.nodes.shape == (3, 32)
        for table in (s.phi, s.dphi, s.psi):
            assert table.shape == (3, 3, 32)

    def test_tables_match_callable_residues(self):
        # T3 entries by laurent_coeffs on closures, a route sharing no
        # samples with the tables
        b = basis(3, 0.3 + 0.8j)
        s = ResidueSystem(b)
        for a in range(3):
            for c in range(3):
                g = (a + c) % 3
                total = 0j
                for k in range(3):
                    psi = ((lambda z, k=k: 1.0 / (z - k / 3)) if g == 0 else
                           (lambda z, v=psi_local_constant(b, g, k): v))
                    total += laurent_coeffs(
                        lambda z: phi(b, a)(z) * phi(b, c)(z) * psi(z),
                        k / 3, (-1, -1), 3)[0]
                assert abs(total / 3 - s.t3[a, c]) < 1e-10

    @pytest.mark.parametrize("n", [3, 5, 7])
    @pytest.mark.parametrize("tau", [1j, 0.3 + 0.8j, 0.5j])
    def test_tables_match_direct_evaluation(self, n, tau):
        # the tables fill disc k from the circle around 0 by the 1/n shift;
        # the oracle evaluates theta_alpha and theta_alpha' at every node
        s = system(n, tau)
        b = s.basis
        th = np.array([theta_alpha_eval(b, a, s.nodes) for a in range(n)])
        dth = np.array([theta_alpha_deriv(b, a, s.nodes, 1)
                        for a in range(n)])
        phi_direct = th / th[0]
        dphi_direct = (dth * th[0] - th * dth[0]) / th[0] ** 2
        for table, direct in ((s.phi[1:], phi_direct[1:]),
                              (s.dphi[1:], dphi_direct[1:])):
            scale = np.max(np.abs(direct))
            assert np.max(np.abs(table - direct)) <= 1e-12 * scale

    @staticmethod
    def trapezoid_tables(b, nodes, rho):
        """T3 and TD by a trapezoid of ``nodes`` nodes on the circles of
        radius rho around the points of D, from the phi evaluators."""
        n = b.n
        w = rho * np.exp(2j * math.pi * np.arange(nodes) / nodes)
        t3 = np.zeros((n, n), dtype=complex)
        td = np.zeros((n, n), dtype=complex)
        for k in range(n):
            z = k / n + w
            th0 = theta_alpha_eval(b, 0, z)
            dlog0 = theta_alpha_deriv(b, 0, z, 1) / th0
            ph = [phi(b, a)(z) for a in range(n)]
            dph = [np.zeros(nodes)] + [
                theta_alpha_deriv(b, a, z, 1) / th0 - ph[a] * dlog0
                for a in range(1, n)]
            psi = [1.0 / w] + [
                b.dtheta_at_zero[0] / theta_alpha_eval(b, g, k / n)
                for g in range(1, n)]
            for a in range(n):
                for c in range(n):
                    g = psi[(a + c) % n] * w / (n * nodes)
                    t3[a, c] += np.sum(ph[a] * ph[c] * g)
                    td[a, c] += np.sum(dph[a] * ph[c] * g)
        return t3, td

    def test_trace_tables_match_fine_trapezoid(self, monkeypatch):
        # the reference runs 4x the nodes on a wider circle, whose aliasing
        # error 3^-128 is far below rounding; at 8 nodes the rule's own
        # aliasing error shows, so the comparison has power
        for tau in (1j, 0.3 + 0.8j, 0.1j):
            b = basis(3, tau)
            ref3, refd = self.trapezoid_tables(
                b, 4 * CIRCLE_POINTS, shortest_period(3, tau) / 3)
            for nodes, agree in ((CIRCLE_POINTS, True), (8, False)):
                # the basis samples its circle when it is built
                monkeypatch.setattr(theta, "CIRCLE_POINTS", nodes)
                s = ResidueSystem(basis(3, tau))
                assert s.offsets.shape == (nodes,)
                err = max(np.max(np.abs(s.t3 - ref3)) / np.max(np.abs(ref3)),
                          np.max(np.abs(s.td - refd)) / np.max(np.abs(refd)))
                assert (err < 1e-12) == agree, (tau, nodes, err)

    def test_dphi_matches_finite_difference(self):
        s = system(3)
        h = 1e-6
        z = s.nodes[1, :4]
        for a in (1, 2):
            fd = (phi(s.basis, a)(z + h) - phi(s.basis, a)(z - h)) / (2 * h)
            assert np.max(np.abs(fd - s.dphi[a, 1, :4])) < 1e-6 * np.max(
                np.abs(fd))

    def test_non_finite_sample_raises_contour_error(self):
        # a NaN value at one node of the circle around 0 must be refused
        b = basis(3)
        b.circle_jet[0, 0] = np.nan
        with pytest.raises(ContourError):
            ResidueSystem(b)

    def test_vanishing_theta_value_is_degenerate(self):
        b = basis(3)
        vals = b.theta_at_zero.copy()
        vals[1] = 0.0
        object.__setattr__(b, "theta_at_zero", vals)
        with pytest.raises(DegenerateTauError):
            psi_local_constant(b, 1, 0)


class TestTrace:
    def test_psi0_has_unit_trace(self):
        s = system(3)
        assert abs(s.tr(s.psi[0]) - 1.0) < 1e-10

    def test_pole_free_cocycle(self):
        s = system(3)
        assert abs(s.tr(np.cos(s.nodes))) < 1e-12

    def test_psi_constants_match_direct_values(self):
        # the per-disc constants agree with theta'_0(0)/theta_alpha(k/n)
        b = basis(5)
        for alpha in range(1, 5):
            for k in range(5):
                direct = b.dtheta_at_zero[0] / theta_alpha_eval(b, alpha, k / 5)
                assert abs(psi_local_constant(b, alpha, k) - direct) < 1e-10

    @pytest.mark.parametrize("n", [3, 5])
    @pytest.mark.parametrize("tau", [1j, 0.3 + 0.8j])
    def test_duality(self, n, tau):
        system = ResidueSystem(basis(n, tau))
        pairing = system.pairing_matrix()
        assert np.max(np.abs(pairing - np.eye(n))) < 1e-8


class TestGlobalSection:
    def test_coordinates_recovered_by_pairing(self):
        # tr(sec * psi_beta) reads off the coefficients; the section is
        # evaluated by the direct oracle at the table's nodes
        s = system(3)
        coeffs = np.array([0.3, 1.2 - 0.4j, -0.7j])
        values = sum(c * phi(s.basis, a)(s.nodes)
                     for a, c in enumerate(coeffs))
        for beta in range(3):
            assert abs(s.tr(values * s.psi[beta]) - coeffs[beta]) < 1e-9

    def test_covector_cocycle_has_zero_total_residue(self):
        # psi_t (phi_i - t_i) lies in the zero-residue subspace
        s = system(3)
        t = np.array([1.0, 0.4 + 0.2j, -0.3j])
        psi_t = np.tensordot(t, s.psi, 1)
        for i in (1, 2):
            assert abs(3 * s.tr(psi_t * (s.phi[i] - t[i]))) < 1e-9


class TestPPlus:
    def test_psi_j_phi_0_projects_to_zero(self):
        s = system(3)
        for j in (1, 2):
            assert s.verify_p_plus(j, 0) < 1e-8

    def test_coefficient_for_psi1_phi2(self):
        # the expansion at t = e_alpha, phi = phi_beta against the theta
        # values at 0, for every ordered pair alpha != beta at n = 3 and 5
        for n in (3, 5):
            s = system(n)
            th = s.basis.theta_at_zero
            dth = s.basis.dtheta_at_zero
            unit = np.eye(n, dtype=complex)
            for alpha in range(n):
                for beta in range(n):
                    if alpha == beta:
                        continue
                    got_phi, got_dphi = s.projection_coeffs(unit[alpha],
                                                            unit[beta])
                    want_phi = np.zeros(n, dtype=complex)
                    want_dphi = np.zeros(n, dtype=complex)
                    if alpha == 0:
                        want_phi[beta] = (dth[beta] / th[beta]
                                          - 1j * math.pi * n)
                        want_dphi[beta] = -1.0
                    elif beta != 0:
                        want_phi[(beta - alpha) % n] = (
                            dth[0] * th[beta]
                            / (th[alpha] * th[(beta - alpha) % n]))
                    scale = max(1.0, float(np.max(np.abs(want_phi))))
                    assert np.max(np.abs(got_phi - want_phi)) <= 1e-12 * scale
                    assert np.array_equal(got_dphi, want_dphi)

    def test_rows_match_term_by_term_expansion(self):
        # the rows of a 2-D a, each a zero-sum combination with t, against
        # the closed forms summed term by term from the theta values at 0
        n = 5
        s = system(n, 0.3 + 0.8j)
        th = s.basis.theta_at_zero
        dth = s.basis.dtheta_at_zero
        rng = np.random.default_rng(4)
        t = random_chart_point(n, rng)
        a = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
        a[:, 0] -= a @ t
        want = np.zeros((3, n), dtype=complex)
        for row in range(3):
            for c in range(1, n):
                for al in range(n):
                    e = (c - al) % n
                    if al == 0:
                        value = dth[c] / th[c] - 1j * math.pi * n
                    elif al != c:
                        value = dth[0] * th[c] / (th[al] * th[e])
                    else:
                        continue
                    want[row, e] += a[row, c] * t[al] * value
        got_phi, got_dphi = s.projection_coeffs(t, a)
        scale = float(np.max(np.abs(want)))
        assert np.max(np.abs(got_phi - want)) <= 1e-12 * scale
        assert np.array_equal(got_dphi, -t[0] * a)

    @pytest.mark.parametrize("n", [3, 5])
    def test_all_pairs_certified(self, n):
        s = system(n)
        for alpha in range(n):
            for beta in range(n):
                if alpha == beta:
                    continue
                assert s.verify_p_plus(alpha, beta) < 1e-8

    def test_zero_sum_combination(self):
        s = system(3)
        assert s.verify_p_plus_zero_sum([1.0, 1.0, -2.0]) < 1e-8
        assert s.verify_p_plus_zero_sum([0.0, 1.0, -1.0]) < 1e-8
        with pytest.raises(ValueError):
            s.verify_p_plus_zero_sum([1.0, 1.0, 1.0])

    def test_diagonal_rejected_outside_combinations(self):
        s = system(3)
        with pytest.raises(ValueError, match="zero-sum"):
            s.verify_p_plus(1, 1)

    def test_perturbed_constant_detected(self):
        s = system(3)
        assert s.verify_p_plus(1, 2, coeff_scale=1.01) > 1e-4
        assert s.verify_p_plus(0, 2, coeff_scale=1.01) > 1e-4


class TestTraceIdentity:
    @pytest.mark.parametrize("n", [3, 5])
    def test_all_valid_pairs(self, n):
        s = system(n)
        for i in range(1, n):
            for j in range(1, n):
                if i == j:
                    continue
                assert s.verify_trace_identity(i, j) < 1e-8

    def test_generic_tau(self):
        s = system(3, 0.3 + 0.8j)
        for (i, j) in [(1, 2), (2, 1)]:
            assert s.verify_trace_identity(i, j) < 1e-7
        with pytest.raises(ValueError):
            s.verify_trace_identity(1, 1)


class TestModuliBracket:
    def test_origin_chart_point_finite_and_antisymmetric(self):
        s = system(3)
        t = np.array([1.0, 0.0, 0.0], dtype=complex)
        for method in ("closed_form", "trace_form"):
            mat = s.bracket_matrix(t, method)
            assert np.all(np.isfinite(mat))
            assert np.max(np.abs(mat + mat.T)) == 0.0

    @pytest.mark.parametrize("n", [5, 9])
    @pytest.mark.parametrize("method", ["closed_form", "trace_form"])
    def test_entries_on_index_arrays(self, n, method):
        # one call on broadcasting index arrays equals the per-pair calls,
        # and bracket_matrix holds the same entries
        s = system(n, 0.3 + 0.8j)
        entry = getattr(s, method + "_entry")
        t = random_chart_point(n, np.random.default_rng(n))
        idx = np.arange(1, n)
        grid = entry(t, idx[:, None], idx)
        pairs = np.array([[entry(t, i, j) for j in range(1, n)]
                          for i in range(1, n)])
        assert grid.shape == pairs.shape == (n - 1, n - 1)
        scale = float(np.max(np.abs(pairs)))
        assert np.max(np.abs(grid - pairs)) <= 1e-14 * scale
        mat = s.bracket_matrix(t, method)
        upper = np.triu(np.ones((n - 1, n - 1), dtype=bool), 1)
        assert np.array_equal(mat[1:, 1:][upper], grid[upper])
        assert np.array_equal(mat, -mat.T)
        column = entry(t, [1, 2], 3)
        assert np.max(np.abs(column - grid[:2, 2])) <= 1e-14 * scale

    def test_methods_agree(self):
        rng = np.random.default_rng(21)
        system = ResidueSystem(basis(3))
        for _ in range(3):
            t = random_chart_point(3, rng)
            closed = system.bracket_matrix(t, "closed_form")
            traced = system.bracket_matrix(t, "trace_form")
            assert np.max(np.abs(closed - traced)) < 1e-7

    @pytest.mark.parametrize("n", [3, 5])
    @pytest.mark.parametrize("tau", [1j, 0.3 + 0.8j])
    def test_matches_projective_sklyanin(self, n, tau):
        # the moduli bracket equals the projective bracket with C = F
        b = basis(n, tau)
        system = ResidueSystem(b)
        bracket = sklyanin_bracket(b, 1)
        rng = np.random.default_rng(n)
        for _ in range(3):
            t = random_chart_point(n, rng)
            mat = system.bracket_matrix(t, "closed_form")
            ref = projective_matrix(bracket, t)
            scale = max(1.0, float(np.max(np.abs(ref))))
            assert np.max(np.abs(mat - ref)) < 1e-6 * scale

    def test_quadrature_convergence(self, monkeypatch):
        b = basis(3)
        t = np.array([1.0, 0.4 - 0.2j, -0.1 + 0.3j])
        m1 = ResidueSystem(b).bracket_matrix(t)
        monkeypatch.setattr(theta, "CIRCLE_POINTS", 2 * CIRCLE_POINTS)
        s2 = ResidueSystem(basis(3))
        assert s2.offsets.shape == (2 * CIRCLE_POINTS,)
        m2 = s2.bracket_matrix(t)
        assert np.max(np.abs(m1 - m2)) < 1e-10


# 13 lattice parameters from 0.01i to 6i, with Re tau = 1/2 among them
LATTICE_TAUS = (0.01j, 0.02j, 0.05j, 0.1j, 0.2j, 0.5j, 1j, 2j, 6j, 0.3 + 0.8j,
                0.5 + 0.02j, 0.5 + 0.05j, 0.5 + 0.5j)


class TestOnePass:
    """The basis samples 0, the divisor and the residue circle in one pass
    over the series terms; the residue system evaluates no theta."""

    @pytest.mark.parametrize("n", list(range(2, 14)) + [31])
    def test_tables_equal_the_three_sum_construction(self, n):
        for tau in LATTICE_TAUS:
            params = CurveParams(tau, n)
            try:
                ref = three_sum_basis(params)
            except EllPoissonError as exc:
                with pytest.raises(type(exc)) as new:
                    ThetaBasis(params)
                assert str(new.value) == str(exc)
                continue
            b = ThetaBasis(params)
            assert repr(b.rounding_bound) == repr(ref.rounding_bound)
            for name in ("theta_at_zero", "dtheta_at_zero", "circle_offsets"):
                assert getattr(b, name).tobytes() == getattr(ref,
                                                             name).tobytes()
            if ref.circle_jet is None:
                assert b.circle_jet is None
                assert str(b.circle_error) == str(ref.circle_error)
                continue
            assert b.circle_jet.tobytes() == ref.circle_jet.tobytes()
            assert b.circle_error is None
            s = ResidueSystem(b)
            for name, table in three_sum_tables(ref).items():
                assert getattr(s, name).tobytes() == table.tobytes(), (
                    n, tau, name)

    def test_system_evaluates_no_theta(self, monkeypatch):
        import ellpoisson.cech as cech

        def summed(*args):
            raise AssertionError("a theta series was summed")

        b = basis(5, 0.3 + 0.8j)
        monkeypatch.setattr(theta, "_series_terms", summed)
        monkeypatch.setattr(theta, "theta_alpha_jet", summed)
        s = ResidueSystem(b)
        assert s.offsets is b.circle_offsets
        assert not hasattr(cech, "theta_alpha_jet")

    def test_refused_circle_raises_the_basis_error(self):
        # at n = 31, tau = 6i the circle's lower half reduces with lattice
        # index -1, whose multiplier bound exp(1169) is beyond range; the
        # basis itself builds, and only the residue system is refused
        b = basis(31, 6j)
        assert b.circle_jet is None
        with pytest.raises(ThetaRangeError) as exc:
            ResidueSystem(b)
        assert isinstance(b.circle_error, str)
        assert str(exc.value) == b.circle_error
        assert str(exc.value).startswith(
            "theta_0 at z = (-1.4814275796137336e-18-0.008064516129032258j) "
            "is out of double range: the value may reach exp(1169)")


class TestPiT:
    def test_zero_input(self):
        s = system(3)
        t = np.array([1.0, 0.2, -0.4], dtype=complex)
        coords = s.pi_t_class(t, np.zeros(3))
        assert np.max(np.abs(coords)) < 1e-12

    def test_kernel_condition_enforced(self):
        s = system(3)
        t = np.array([1.0, 0.2, -0.4], dtype=complex)
        with pytest.raises(ValueError):
            s.pi_t_class(t, np.array([1.0, 0.0, 0.0]))

    def test_linearity(self):
        b = basis(3)
        system = ResidueSystem(b)
        t = np.array([1.0, 0.3 + 0.2j, -0.5], dtype=complex)
        a1 = np.array([-t[1], 1.0, 0.0], dtype=complex)  # phi_1 - t_1 phi_0
        a2 = np.array([-t[2], 0.0, 1.0], dtype=complex)
        lhs = system.pi_t_class(t, 0.7 * a1 + 2.0j * a2)
        rhs = 0.7 * system.pi_t_class(t, a1) + 2.0j * system.pi_t_class(t, a2)
        assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_assembles_bracket(self):
        # pairing pi_t(dt_i) against dt_j reproduces {t_i, t_j}
        b = basis(3)
        system = ResidueSystem(b)
        t = np.array([1.0, 0.25 - 0.3j, 0.6 + 0.1j], dtype=complex)
        mat = system.bracket_matrix(t, "closed_form")
        n = 3
        for i in range(1, n):
            ai = np.zeros(n, dtype=complex)
            ai[i] = 1.0
            ai[0] = -t[i]
            coords = system.pi_t_class(t, ai)
            for j in range(1, n):
                assembled = coords[j] - t[j] * coords[0]
                assert abs(assembled - mat[i, j]) < 1e-6
