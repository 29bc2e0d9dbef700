"""Tests for the quadratic bracket tensor and its polynomial oracles."""

import math

import numpy as np
import pytest

from ellpoisson.errors import InvarianceError
from ellpoisson.fo import f_constants, sklyanin_bracket
from ellpoisson.poisson import (
    HnBracket,
    Polynomial,
    QuadraticBracket,
    bracket_contraction_oracle,
    bracket_poly,
    hn_canonical_extract,
    jacobi_defect,
    projective_bracket,
)
from ellpoisson.theta import CurveParams, ThetaBasis


def sklyanin(n, k=1, tau=1j):
    return sklyanin_bracket(ThetaBasis(CurveParams(tau, n)), k)


def table_bracket(n, table):
    """The bracket with {x_i, x_j} = sum c x_k x_l over table[(i, j)], i < j."""
    q = np.zeros((n,) * 4, dtype=complex)
    for (i, j), monos in table.items():
        for (k, l), c in monos.items():
            q[i, j, k, l] += c / 2
            q[i, j, l, k] += c / 2
    return QuadraticBracket(n, q - q.transpose(1, 0, 2, 3))


def random_bracket(n, rng):
    """A seeded bracket with every tensor entry nonzero (not invariant)."""
    q = rng.standard_normal((n,) * 4) + 1j * rng.standard_normal((n,) * 4)
    q = q + q.transpose(0, 1, 3, 2)
    return QuadraticBracket(n, q - q.transpose(1, 0, 2, 3))


def leibniz_jacobi(b):
    """Largest coefficient of the cyclic Jacobi sum, from bracket_poly."""
    xs = [Polynomial.variable(b.n, i) for i in range(b.n)]
    worst = 0.0
    for i in range(b.n):
        for j in range(i + 1, b.n):
            for k in range(j + 1, b.n):
                total = (bracket_poly(b, xs[i], b.pair_poly(j, k))
                         + bracket_poly(b, xs[j], b.pair_poly(k, i))
                         + bracket_poly(b, xs[k], b.pair_poly(i, j)))
                worst = max(worst, total.max_abs())
    return worst


def delta_hn(n=3, c=1.0):
    """Minimal symmetric table with C(1,0) = C(0,1) = c completed by skewness."""
    table = np.zeros((n, n), dtype=complex)
    table[1, 0] = table[0, 1] = c
    table[(n - 1) % n, 0] = table[0, (n - 1) % n] = -c
    return HnBracket(n, table)


class TestPolynomial:
    def test_arithmetic_and_eval(self):
        x0 = Polynomial.variable(3, 0)
        x1 = Polynomial.variable(3, 1)
        p = (x0 + 2 * x1) * (x0 - x1)
        assert p.coefficient([0, 0]) == 1
        assert p.coefficient([0, 1]) == 1
        assert p.coefficient([1, 1]) == -2
        assert abs(p.eval([2.0, 0.5, 9.0]) - (2 + 1) * (2 - 0.5)) < 1e-14

    def test_no_zero_terms_stored(self):
        x0 = Polynomial.variable(2, 0)
        assert not (x0 - x0).terms

    def test_diff(self):
        p = Polynomial.monomial(2, [0, 0, 1], 3.0)  # 3 x0^2 x1
        assert p.diff(0) == Polynomial.monomial(2, [0, 1], 6.0)
        assert p.diff(1) == Polynomial.monomial(2, [0, 0], 3.0)

    def test_mismatched_sizes_rejected(self):
        with pytest.raises(ValueError):
            Polynomial.variable(2, 0) + Polynomial.variable(3, 0)


class TestBracketPoly:
    def test_generator_bracket_antisymmetric(self):
        b = delta_hn().to_quadratic()
        p01 = b.pair_poly(0, 1)
        p10 = b.pair_poly(1, 0)
        assert p01 == -p10

    def test_diagonal_is_zero(self):
        b = delta_hn().to_quadratic()
        assert b.pair_poly(1, 1).is_zero()

    def test_delta_table_expansion(self):
        # hand expansion of the canonical sum for n = 3, C(1,0)=C(0,1)=c
        c = 0.75
        b = delta_hn(3, c).to_quadratic()
        for i in range(3):
            p = b.pair_poly(i, (i + 1) % 3)
            assert abs(p.coefficient([i, i + 1]) - 2 * c) < 1e-15
            assert len(p.terms) == 1

    def test_constants_central(self):
        b = sklyanin(3)
        one = Polynomial.constant(3, 1.0)
        f = Polynomial.variable(3, 0) * Polynomial.variable(3, 2)
        assert bracket_poly(b, f, one).is_zero()

    def test_leibniz_exact_by_construction(self):
        b = delta_hn(3, 1.0).to_quadratic()
        x0 = Polynomial.variable(3, 0)
        x1 = Polynomial.variable(3, 1)
        x2 = Polynomial.variable(3, 2)
        lhs = bracket_poly(b, x0, x1 * x2)
        rhs = bracket_poly(b, x0, x1) * x2 + x1 * bracket_poly(b, x0, x2)
        assert (lhs - rhs).is_zero()

    def test_against_contraction_oracle(self):
        b = sklyanin(3)
        rng = np.random.default_rng(12)

        def random_cubic():
            p = Polynomial.zero(3)
            for _ in range(5):
                idx = rng.integers(0, 3, size=3)
                coeff = complex(*rng.standard_normal(2))
                p = p + Polynomial.monomial(3, list(idx), coeff)
            return p

        for _ in range(4):
            f, g = random_cubic(), random_cubic()
            diff = bracket_poly(b, f, g) - bracket_contraction_oracle(b, f, g)
            assert diff.max_abs() < 1e-10


class TestJacobi:
    def test_zero_bracket(self):
        assert jacobi_defect(QuadraticBracket(4)) == 0.0

    @pytest.mark.parametrize("n,k", [(3, 1), (4, 1), (5, 1), (5, 2)])
    def test_sklyanin_is_poisson(self, n, k):
        assert jacobi_defect(sklyanin(n, k)) < 1e-8

    def test_perturbation_detected(self):
        b = sklyanin(3)
        table = {pair: dict(b.pair_coeffs(*pair)) for pair in b.pairs()}
        pair = (0, 1)
        mono = next(iter(table[pair]))
        table[pair][mono] += 0.1
        assert jacobi_defect(table_bracket(3, table)) > 1e-3

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_matches_leibniz_oracle(self, n):
        b = random_bracket(n, np.random.default_rng(40 + n))
        expected = leibniz_jacobi(b) / b.max_abs() ** 2
        assert abs(jacobi_defect(b) - expected) <= 1e-12 * expected

    def test_scale_free(self):
        # one coefficient of a Poisson bracket off by 1%: the defect must
        # not depend on the overall scale of the bracket
        b = sklyanin(7)
        q = b.coeffs.copy()
        q[0, 1, 0, 1] *= 1.01
        q[1, 0, 0, 1] *= 1.01
        q[0, 1, 1, 0] *= 1.01
        q[1, 0, 1, 0] *= 1.01
        ref = jacobi_defect(QuadraticBracket(7, q))
        assert ref > 1e-8
        for s in (1e-10, 1.0, 1e6):
            got = jacobi_defect(QuadraticBracket(7, s * q))
            assert abs(got - ref) <= 1e-9 * ref
            assert got > 1e-8


class TestCanonicalForm:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(3)
        n = 5
        table = np.zeros((n, n), dtype=complex)
        for a in range(n):
            for bb in range(n):
                if (a + bb) % n == 0:
                    continue
                if table[a, bb] == 0:
                    val = complex(*rng.standard_normal(2))
                    na, nb = (-a) % n, (-bb) % n
                    table[a, bb] = table[bb, a] = val
                    table[na, nb] = table[nb, na] = -val
        h = HnBracket(n, table)
        recovered = hn_canonical_extract(h.to_quadratic())
        assert np.array_equal(recovered.table, h.table)
        for n in range(3, 14):
            f = f_constants(ThetaBasis(CurveParams(0.3 + 0.8j, n)))
            recovered = hn_canonical_extract(HnBracket(n, f.table).to_quadratic())
            assert np.array_equal(recovered.table, f.table)

    def test_sklyanin_k1_matches_f_table(self):
        basis = ThetaBasis(CurveParams(1j, 3))
        h = hn_canonical_extract(sklyanin_bracket(basis, 1))
        f = f_constants(basis)
        assert np.max(np.abs(h.table - f.table)) < 1e-10

    def test_non_invariant_rejected(self):
        # {x_0, x_1} = x_0 x_2 alone breaks the weight pattern
        b = table_bracket(3, {(0, 1): {(0, 2): 1.0}})
        with pytest.raises(InvarianceError):
            hn_canonical_extract(b)

    def test_heisenberg_covariance_of_tensor(self):
        # conjugating by either generator action on coordinates fixes the tensor
        basis = ThetaBasis(CurveParams(1j, 5))
        b = sklyanin_bracket(basis, 2)
        n = b.n
        omega = np.exp(2j * math.pi / n)
        scaled = {}
        shifted = {}
        for (i, j) in b.pairs():
            entry = b.pair_coeffs(i, j)
            scaled[(i, j)] = {
                (k, l): c * omega ** ((i + j - k - l) % n)
                for (k, l), c in entry.items()}
            shifted_entry = {}
            for (k, l), c in entry.items():
                kk, ll = sorted(((k + 1) % n, (l + 1) % n))
                shifted_entry[(kk, ll)] = c
            key = tuple(sorted(((i + 1) % n, (j + 1) % n)))
            sign = 1.0 if (i + 1) % n < (j + 1) % n else -1.0
            shifted[key] = {m: sign * c for m, c in shifted_entry.items()}
        assert table_bracket(n, scaled).max_difference(b) < 1e-12
        assert table_bracket(n, shifted).max_difference(b) < 1e-12

    def test_max_difference_against_monomial_loop(self):
        rng = np.random.default_rng(8)
        a, b = random_bracket(4, rng), random_bracket(4, rng)
        worst = 0.0
        for i in range(4):
            for j in range(4):
                pa, pb = a.pair_coeffs(i, j), b.pair_coeffs(i, j)
                for mono in set(pa) | set(pb):
                    worst = max(worst, abs(pa.get(mono, 0j) - pb.get(mono, 0j)))
        assert a.max_difference(b) == worst
        assert a.max_difference(a) == 0.0
        assert a.max_abs() == max(abs(c) for i in range(4) for j in range(4)
                                  for c in a.pair_coeffs(i, j).values())

    def test_small_n_degenerate_cases(self):
        # n = 2 admits only the zero invariant table; n = 1 has no pairs
        h2 = HnBracket(2, np.zeros((2, 2)))
        assert not h2.to_quadratic().pairs()
        b1 = QuadraticBracket(1)
        assert jacobi_defect(b1) == 0.0


class TestProjective:
    def test_diagonal_and_zero_table(self):
        h = delta_hn(4, 0.0)
        t = np.array([1.0, 0.3, 0.1, -0.2], dtype=complex)
        assert projective_bracket(h, t, 1, 1) == 0
        assert projective_bracket(h, t, 1, 2) == 0

    def test_rejects_chart_index_zero(self):
        h = delta_hn(3, 1.0)
        with pytest.raises(IndexError):
            projective_bracket(h, np.array([1.0, 0.2, 0.4]), 0, 1)

    def test_against_chart_rule_oracle(self):
        # {x_i/x_0, x_j/x_0} = ({x_i,x_j} - t_i {x_0,x_j} - t_j {x_i,x_0})/x_0^2
        basis = ThetaBasis(CurveParams(1j, 3))
        h = hn_canonical_extract(sklyanin_bracket(basis, 1))
        b = h.to_quadratic()
        t = np.array([1.0, 0.7 + 0.1j, -0.3], dtype=complex)
        for i in range(1, 3):
            for j in range(1, 3):
                direct = projective_bracket(h, t, i, j)
                xi = Polynomial.variable(3, i)
                xj = Polynomial.variable(3, j)
                x0 = Polynomial.variable(3, 0)
                chart = (bracket_poly(b, xi, xj)
                         - t[i] * bracket_poly(b, x0, xj)
                         - t[j] * bracket_poly(b, xi, x0))
                assert abs(direct - chart.eval(t)) < 1e-9

    def test_chart_rule_many_random_points(self):
        basis = ThetaBasis(CurveParams(0.3 + 0.8j, 5))
        h = hn_canonical_extract(sklyanin_bracket(basis, 1))
        b = h.to_quadratic()
        rng = np.random.default_rng(9)
        polys = {}
        for i in range(5):
            for j in range(5):
                if i != j:
                    polys[(i, j)] = bracket_poly(
                        b, Polynomial.variable(5, i), Polynomial.variable(5, j))
        for _ in range(50):
            t = np.concatenate(
                ([1.0], rng.standard_normal(4) + 1j * rng.standard_normal(4)))
            i, j = rng.integers(1, 5, size=2)
            if i == j:
                continue
            direct = projective_bracket(h, t, int(i), int(j))
            chart = (polys[(int(i), int(j))].eval(t)
                     - t[i] * polys[(0, int(j))].eval(t)
                     - t[j] * polys[(int(i), 0)].eval(t))
            assert abs(direct - chart) < 1e-9 * max(1.0, abs(chart))
