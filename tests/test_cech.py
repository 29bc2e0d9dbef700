"""Tests for the residue calculus and the moduli-of-extensions bracket."""

import copy
import hashlib
import math
import tracemalloc

import numpy as np
import pytest

import ellpoisson.theta as theta
from ellpoisson.cech import ResidueSystem, laurent_coeffs
from ellpoisson.cli import _sample_chart_points
from ellpoisson.errors import (ContourError, DegenerateTauError,
                               EllPoissonError, ThetaRangeError)
from ellpoisson.fo import sklyanin_bracket
from ellpoisson.poisson import chart_rule, projective_matrix
from ellpoisson.theta import (
    CIRCLE_POINTS,
    CurveParams,
    ThetaBasis,
    shortest_period,
    theta_alpha_deriv,
    theta_alpha_eval,
)

from oracles import closed_form_grid, closed_route_table, \
    entrywise_trace_grid, phi, phi_psi_pairing, three_sum_basis, \
    three_sum_tables, verify_p_plus, verify_p_plus_zero_sum, \
    verify_trace_identity


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
        # samples with the tables: psi_g = theta'_0(0) / theta_g(k/n) on
        # disc k, from a direct theta value
        b = basis(3, 0.3 + 0.8j)
        s = ResidueSystem(b)
        for a in range(3):
            for c in range(3):
                g = (a + c) % 3
                total = 0j
                for k in range(3):
                    psi = ((lambda z, k=k: 1.0 / (z - k / 3)) if g == 0 else
                           (lambda z, v=b.dtheta_at_zero[0]
                            / theta_alpha_eval(b, g, k / 3): v))
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
                # the system samples its circle when it is built
                monkeypatch.setattr(theta, "CIRCLE_POINTS", nodes)
                s = ResidueSystem(basis(3, tau))
                assert s.offsets.shape == (nodes,)
                err = max(np.max(np.abs(s.t3 - ref3)) / np.max(np.abs(ref3)),
                          np.max(np.abs(s.td - refd)) / np.max(np.abs(refd)))
                assert (err < 1e-12) == agree, (tau, nodes, err)

    @pytest.mark.parametrize("n", [3, 9, 13])
    @pytest.mark.parametrize("tau", [1j, 0.3 + 0.8j])
    def test_trace_tables_do_not_depend_on_the_budget(self, n, tau,
                                                      monkeypatch):
        # T3, TD and the closed route's table g run in chunks of first
        # indices: one index a chunk, the default and every index at once
        # give the same bytes
        b = basis(n, tau)
        tables = {}
        for budget in (1, 2 ** 13, 2 ** 40):
            monkeypatch.setattr(theta, "CHUNK_ENTRIES", budget)
            s = ResidueSystem(b)
            tables[budget] = s.t3.tobytes() + s.td.tobytes() + s.g.tobytes()
        assert len(set(tables.values())) == 1

    @pytest.mark.parametrize("budget, chunked", [(None, True),
                                                 (2 ** 40, False)])
    def test_build_memory_is_chunked(self, budget, chunked, monkeypatch):
        # at n = 31 the products of the trace tables hold n^3 P entries
        # (31 MiB) in one chunk, and n^2 P (0.5 MiB) a chunk under the
        # default budget; every index at once is the power control
        b = basis(31)
        if budget is not None:
            monkeypatch.setattr(theta, "CHUNK_ENTRIES", budget)
        tracemalloc.start()
        try:
            ResidueSystem(b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak < 8 * 2 ** 20) == chunked, peak

    def test_dphi_matches_finite_difference(self):
        s = system(3)
        h = 1e-6
        z = s.nodes[1, :4]
        for a in (1, 2):
            fd = (phi(s.basis, a)(z + h) - phi(s.basis, a)(z - h)) / (2 * h)
            assert np.max(np.abs(fd - s.dphi[a, 1, :4])) < 1e-6 * np.max(
                np.abs(fd))

    def test_non_finite_sample_raises_contour_error(self, monkeypatch):
        # a NaN value at one node of the circle around 0 must be refused
        import ellpoisson.cech as cech
        jet = cech.theta_alpha_jet

        def poisoned(*args):
            out = jet(*args)
            out[0, 0] = np.nan
            return out

        monkeypatch.setattr(cech, "theta_alpha_jet", poisoned)
        with pytest.raises(ContourError):
            ResidueSystem(basis(3))

    def test_vanishing_theta_value_is_degenerate(self):
        b = basis(3)
        vals = b.theta_at_zero.copy()
        vals[1] = 0.0
        object.__setattr__(b, "theta_at_zero", vals)
        with pytest.raises(DegenerateTauError, match=r"theta_1\(0\) = 0"):
            ResidueSystem(b)


class TestTrace:
    def test_psi0_has_unit_trace(self):
        s = system(3)
        assert abs(s.tr(s.psi[0]) - 1.0) < 1e-10

    def test_pole_free_cocycle(self):
        s = system(3)
        assert abs(s.tr(np.cos(s.nodes))) < 1e-12

    def test_psi_constants_match_direct_values(self):
        # the per-disc constants agree with theta'_0(0)/theta_alpha(k/n)
        s = system(5)
        b = s.basis
        for alpha in range(1, 5):
            for k in range(5):
                direct = b.dtheta_at_zero[0] / theta_alpha_eval(b, alpha, k / 5)
                assert abs(s.psi[alpha, k, 0] - direct) < 1e-10

    @pytest.mark.parametrize("n", [3, 5])
    @pytest.mark.parametrize("tau", [1j, 0.3 + 0.8j])
    def test_duality(self, n, tau):
        system = ResidueSystem(basis(n, tau))
        pairing = phi_psi_pairing(system)
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
            assert verify_p_plus(s, j, 0) < 1e-8

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
                assert verify_p_plus(s, alpha, beta) < 1e-8

    def test_zero_sum_combination(self):
        s = system(3)
        assert verify_p_plus_zero_sum(s, [1.0, 1.0, -2.0]) < 1e-8
        assert verify_p_plus_zero_sum(s, [0.0, 1.0, -1.0]) < 1e-8
        with pytest.raises(ValueError):
            verify_p_plus_zero_sum(s, [1.0, 1.0, 1.0])

    def test_diagonal_rejected_outside_combinations(self):
        s = system(3)
        with pytest.raises(ValueError, match="zero-sum"):
            verify_p_plus(s, 1, 1)

    def test_perturbed_constant_detected(self):
        s = system(3)
        assert verify_p_plus(s, 1, 2, coeff_scale=1.01) > 1e-4
        assert verify_p_plus(s, 0, 2, coeff_scale=1.01) > 1e-4


class TestTraceIdentity:
    @pytest.mark.parametrize("n", [3, 5])
    def test_all_valid_pairs(self, n):
        s = system(n)
        for i in range(1, n):
            for j in range(1, n):
                if i == j:
                    continue
                assert verify_trace_identity(s, i, j) < 1e-8

    def test_generic_tau(self):
        s = system(3, 0.3 + 0.8j)
        for (i, j) in [(1, 2), (2, 1)]:
            assert verify_trace_identity(s, i, j) < 1e-7
        with pytest.raises(ValueError):
            verify_trace_identity(s, 1, 1)


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
        # a route gives the grid over the chart indices 1..n-1, and
        # bracket_matrix holds its upper triangle
        s = system(n, 0.3 + 0.8j)
        entry = getattr(s, method + "_entry")
        t = random_chart_point(n, np.random.default_rng(n))
        grid = entry(t)
        assert grid.shape == (n - 1, n - 1)
        mat = s.bracket_matrix(t, method)
        upper = np.triu(np.ones((n - 1, n - 1), dtype=bool), 1)
        assert np.array_equal(mat[1:, 1:][upper], grid[upper])
        assert np.array_equal(mat, -mat.T)

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



class TestClosedRoute:
    """The closed route is the chart rule of the system's coefficient
    table ``g``; the expanded formula it replaced and a loop over the
    entries of ``g`` are its oracles, both reading only F, T3 and TD."""

    @pytest.mark.parametrize("n", [3, 4, 5, 7])
    @pytest.mark.parametrize("tau", [1j, 0.3 + 0.8j, 0.5j])
    def test_grid_matches_the_expanded_formula(self, n, tau):
        s = system(n, tau)
        t = _sample_chart_points(n, 7, n)
        # the 7-point stack, then each point alone
        for points in [t, *t]:
            ref = closed_form_grid(s, points)
            err = np.max(np.abs(s.closed_form_entry(points) - ref))
            assert err <= 1e-12 * np.max(np.abs(ref)), (n, tau, err)

    def test_expanded_formula_has_power(self):
        # one entry of g moved by 1e-8 of the largest moves the grid past
        # the bound
        s = system(5, 0.3 + 0.8j)
        t = _sample_chart_points(5, 7, 5)
        g = s.g.copy()
        g[1, 2, 3] += 1e-8 * np.max(np.abs(g))
        ref = closed_form_grid(s, t)
        err = np.max(np.abs(chart_rule(g, t)[..., 1:, 1:] - ref))
        assert err > 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [3, 4, 5, 7, 9, 13])
    @pytest.mark.parametrize("tau", [1j, 0.3 + 0.8j, 0.5j])
    def test_table_matches_the_entry_loop(self, n, tau):
        s = system(n, tau)
        ref = closed_route_table(s)
        assert s.g.shape == ref.shape
        err = np.max(np.abs(s.g - ref))
        assert err <= 1e-15 * np.max(np.abs(ref)), (n, tau, err)


class TestTraceRoute:
    """The trace route is one contraction per point; the entrywise
    products it replaced, each difference traced on its own, are its
    oracle.  The two orders of summation differ by rounding, which grows
    with exp(pi n Im(tau) / 2) (ROADMAP item 4): at most 1.1e-11 of the
    largest entry here, at n = 9 and tau = i."""

    BOUND = 5e-11

    @pytest.mark.parametrize("n", [3, 4, 5, 7, 9])
    @pytest.mark.parametrize("tau", [1j, 0.3 + 0.8j, 0.5j])
    def test_grid_matches_the_entrywise_products(self, n, tau):
        s = system(n, tau)
        t = _sample_chart_points(n, 7, n)
        # the 7-point stack, then each point alone
        for points in [t, *t]:
            ref = entrywise_trace_grid(s, points)
            err = np.max(np.abs(s.trace_form_entry(points) - ref))
            assert err <= self.BOUND * np.max(np.abs(ref)), (n, tau, err)

    def test_moved_node_weight_exceeds_the_bound(self):
        # power control: one node weight of the contraction moved by 1e-8
        # of itself moves the grid by about 3e-10 of its largest entry, at
        # the lattice where the two orders differ most
        s = system(9, 1j)
        t = _sample_chart_points(9, 7, 9)
        moved = copy.copy(s)
        moved.offsets = s.offsets.copy()
        moved.offsets[0] *= 1 + 1e-8
        ref = entrywise_trace_grid(s, t)
        err = np.max(np.abs(moved.trace_form_entry(t) - ref))
        assert err > self.BOUND * np.max(np.abs(ref))


def same_bits(stacked, points):
    return (np.array_equal(stacked, points)
            and stacked.dtype == points.dtype
            and stacked.tobytes() == points.tobytes())


class TestStacks:
    """A stack of chart points on leading axes gives, bit for bit, the
    matrices of its points evaluated one at a time, as ``moduli-compare``
    evaluated them before it passed its samples as one stack."""

    @pytest.mark.parametrize("n", [3, 4, 5, 7, 9])
    @pytest.mark.parametrize("tau", [1j, 0.3 + 0.8j, 0.5j])
    def test_stack_equals_points(self, n, tau):
        b = basis(n, tau)
        s = ResidueSystem(b)
        bracket = sklyanin_bracket(b, 1)
        for count in (1, 2, 7):
            t = _sample_chart_points(n, count, n + count)
            for method in ("closed_form", "trace_form"):
                stacked = s.bracket_matrix(t, method)
                assert stacked.shape == (count, n, n)
                points = np.array([s.bracket_matrix(row, method)
                                   for row in t])
                assert same_bits(stacked, points), (n, tau, count, method)
            stacked = projective_matrix(bracket, t)
            points = np.array([projective_matrix(bracket, row) for row in t])
            assert same_bits(stacked, points), (n, tau, count)

    def test_stack_across_chunks(self):
        # 130 points at n = 5 run in several chunks on every route, and two
        # leading stack axes come back as they went in
        n = 5
        b = basis(n, 0.3 + 0.8j)
        s = ResidueSystem(b)
        bracket = sklyanin_bracket(b, 1)
        t = _sample_chart_points(n, 130, 3)
        for entries in (n ** 3, n ** 2 * s.points):
            assert len(t) > theta.CHUNK_ENTRIES // entries
        grid = t.reshape(2, 65, n)
        for method in ("closed_form", "trace_form"):
            stacked = s.bracket_matrix(grid, method)
            assert stacked.shape == (2, 65, n, n)
            points = np.array([s.bracket_matrix(row, method) for row in t])
            assert same_bits(stacked.reshape(130, n, n), points)
        stacked = projective_matrix(bracket, grid)
        assert stacked.shape == (2, 65, n, n)
        points = np.array([projective_matrix(bracket, row) for row in t])
        assert same_bits(stacked.reshape(130, n, n), points)

    def test_empty_stack(self):
        # no points give no matrices, with the shape of the stack, on
        # every route
        n = 5
        s = system(n, 0.3 + 0.8j)
        bracket = sklyanin_bracket(s.basis, 1)
        for t in (np.ones((0, n)), np.ones((2, 0, n))):
            for method in ("closed_form", "trace_form"):
                assert s.bracket_matrix(t, method).shape == t.shape + (n,)
            assert projective_matrix(bracket, t).shape == t.shape + (n,)

    def test_thousand_point_stack(self):
        # the largest stack moduli-compare takes at n = 9 (samples x n^2
        # up to MAX_MODULI_ENTRIES) runs in many chunks on both routes
        n = 9
        s = system(n, 0.3 + 0.8j)
        t = _sample_chart_points(n, 1000, 9)
        for method in ("closed_form", "trace_form"):
            stacked = s.bracket_matrix(t, method)
            assert stacked.shape == (1000, n, n)
            points = np.array([s.bracket_matrix(row, method) for row in t])
            assert same_bits(stacked, points), method

    @pytest.mark.parametrize("method", ["closed_form", "trace_form"])
    def test_entries_of_a_stack(self, method):
        # a stack of points gives the stack axes, then the grid of each
        # point, bit for bit
        n = 5
        s = system(n, 0.3 + 0.8j)
        entry = getattr(s, method + "_entry")
        t = _sample_chart_points(n, 3, 8)
        grid = entry(t)
        assert grid.shape == (3, n - 1, n - 1)
        assert same_bits(grid, np.array([entry(row) for row in t]))

    @pytest.mark.parametrize("change", ["t0", "ragged", "width"])
    def test_row_off_the_chart_refused(self, change):
        n = 3
        s = system(n)
        bracket = sklyanin_bracket(s.basis, 1)
        rows = _sample_chart_points(n, 4, 0).tolist()
        if change == "t0":
            rows[2][0] = 0.5
        elif change == "ragged":
            rows[2].append(0.1)
        else:
            rows = [row + [0.1] for row in rows]
        calls = [lambda t: s.bracket_matrix(t, "closed_form"),
                 lambda t: s.bracket_matrix(t, "trace_form"),
                 lambda t: projective_matrix(bracket, t)]
        message = r"^t must have length n with t\[0\] = 1$"
        for call in calls:
            with pytest.raises(ValueError, match=message):
                call(rows)


# 13 lattice parameters from 0.01i to 6i, with Re tau = 1/2 among them
LATTICE_TAUS = (0.01j, 0.02j, 0.05j, 0.1j, 0.2j, 0.5j, 1j, 2j, 6j, 0.3 + 0.8j,
                0.5 + 0.02j, 0.5 + 0.05j, 0.5 + 0.5j)


def route_digest(n):
    """sha256 of the closed and trace grids of a seeded stack of 7 chart
    points and of its first point alone, of ``bracket_matrix`` on the
    stack, and of ``projection_coeffs`` of a seeded row, at tau = i and
    tau = 0.3 + 0.8i."""
    h = hashlib.sha256()
    for tau in (1j, 0.3 + 0.8j):
        s = system(n, tau)
        t = _sample_chart_points(n, 7, n)
        for method in ("closed_form", "trace_form"):
            entry = getattr(s, method + "_entry")
            for grid in (entry(t), entry(t[0]), s.bracket_matrix(t, method)):
                h.update(repr(grid.shape).encode() + grid.tobytes())
        a = np.random.default_rng(n).standard_normal(n) + 0j
        a[0] = -(t[0, 1:] @ a[1:])
        for coeffs in s.projection_coeffs(t[0], a):
            h.update(coeffs.tobytes())
    return h.hexdigest()[:16]


class TestRoutePins:
    """Digests taken when each point came to sum one theta series for
    every index, which moved the last bits of every basis value and so of
    both routes' grids and the projection coefficients.  numpy's complex
    product may take another loop when an operand's layout changes (see
    ``fo._product``), so the pins also show that no operand order or
    layout moved."""

    DIGESTS = {
        3: "cc686edf0b318615",
        5: "4e2c58602a25422f",
        9: "c35b8e338cca1e53",
    }

    @pytest.mark.parametrize("n", [3, 5, 9])
    def test_grids_pinned(self, n):
        assert route_digest(n) == self.DIGESTS[n]


class TestOnePass:
    """The basis samples 0 and the divisor in one pass over the series
    terms; the residue system samples the circle around 0 by one
    ``theta_alpha_jet`` call."""

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
            for name in ("theta_at_zero", "dtheta_at_zero"):
                assert getattr(b, name).tobytes() == getattr(ref,
                                                             name).tobytes()
            try:
                tables = three_sum_tables(ref)
            except EllPoissonError as exc:
                with pytest.raises(type(exc)) as new:
                    ResidueSystem(b)
                assert str(new.value) == str(exc)
                continue
            s = ResidueSystem(b)
            for name, table in tables.items():
                assert getattr(s, name).tobytes() == table.tobytes(), (
                    n, tau, name)

    def test_refused_circle_raises_the_basis_error(self):
        # at n = 31, tau = 6i the circle's lower half reduces with lattice
        # index -1, whose multiplier bound exp(1169) is beyond range; the
        # basis itself builds, and only the residue system is refused, by
        # the range check of its theta_alpha_jet call
        b = basis(31, 6j)
        with pytest.raises(ThetaRangeError) as exc:
            ResidueSystem(b)
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
