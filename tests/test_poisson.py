"""Tests for the graded bracket table and its polynomial oracles."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from ellpoisson import poisson
from ellpoisson.errors import InvarianceError
from ellpoisson.fo import f_constants, sklyanin_bracket
from ellpoisson.poisson import (
    QuadraticBracket,
    hn_canonical_extract,
    jacobi_defect,
    projective_matrix,
)
from ellpoisson.theta import CurveParams, ThetaBasis
from oracles import (
    Polynomial,
    bracket_contraction_oracle,
    bracket_poly,
    canonical_bracket,
    dense_jacobi_defect,
    pair_coeffs,
    pair_poly,
    pairs,
    pairwise_jacobi_defect,
)


def sklyanin(n, k=1, tau=1j):
    return sklyanin_bracket(ThetaBasis(CurveParams(tau, n)), k)


def table_bracket(n, table):
    """The bracket with {x_i, x_j} = sum c x_k x_l over table[(i, j)], i < j;
    every monomial must have weight k + l = i + j mod n."""
    g = np.zeros((n,) * 3, dtype=complex)
    for (i, j), monos in table.items():
        for (k, l), c in monos.items():
            g[i, j, k] += c / 2
            g[i, j, l] += c / 2
    return QuadraticBracket(n, g - g.transpose(1, 0, 2))


def random_bracket(n, rng):
    """A seeded graded bracket with every table entry off i = j nonzero
    (not invariant)."""
    g = rng.standard_normal((n,) * 3) + 1j * rng.standard_normal((n,) * 3)
    i, j, k = np.indices(g.shape)
    g = g + g[i, j, (i + j - k) % n]
    return QuadraticBracket(n, g - g.transpose(1, 0, 2))


def leibniz_jacobi(b):
    """Largest coefficient of the cyclic Jacobi sum, from bracket_poly."""
    xs = [Polynomial.variable(b.n, i) for i in range(b.n)]
    worst = 0.0
    for i in range(b.n):
        for j in range(i + 1, b.n):
            for k in range(j + 1, b.n):
                total = (bracket_poly(b, xs[i], pair_poly(b, j, k))
                         + bracket_poly(b, xs[j], pair_poly(b, k, i))
                         + bracket_poly(b, xs[k], pair_poly(b, i, j)))
                worst = max(worst, total.max_abs())
    return worst


def one_percent_off(b):
    """b with the monomial x_0 x_1 of {x_0, x_1} scaled by 1.01."""
    g = b.coeffs.copy()
    g[0, 1, :2] *= 1.01
    g[1, 0, :2] *= 1.01
    return QuadraticBracket(b.n, g)


def delta_hn(n=3, c=1.0):
    """Bracket of the minimal symmetric table C(1,0) = C(0,1) = c
    completed by skewness."""
    table = np.zeros((n, n), dtype=complex)
    table[1, 0] = table[0, 1] = c
    table[(n - 1) % n, 0] = table[0, (n - 1) % n] = -c
    return canonical_bracket(table)


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


class TestLayout:
    def test_dense_tensor_refused(self):
        with pytest.raises(ValueError):
            QuadraticBracket(3, np.zeros((3,) * 4))

    def test_broken_antisymmetry_refused(self):
        g = table_bracket(3, {(0, 1): {(0, 1): 1.0}}).coeffs.copy()
        g[0, 1, :2] += 1.0
        with pytest.raises(ValueError):
            QuadraticBracket(3, g)

    def test_broken_partner_symmetry_refused(self):
        # G[0, 1, 0] and G[0, 1, 1] both hold x_0 x_1
        g = table_bracket(3, {(0, 1): {(0, 1): 1.0}}).coeffs.copy()
        g[0, 1, 0] += 1.0
        g[1, 0, 0] -= 1.0
        with pytest.raises(ValueError):
            QuadraticBracket(3, g)


    @pytest.mark.parametrize("n", [3, 4, 7])
    def test_weights_built_once(self, n, monkeypatch):
        b = sklyanin_bracket(ThetaBasis(CurveParams(0.3 + 0.8j, n)), 1)
        for i, j, k in np.ndindex(n, n, n):
            expected = 1.0 if (2 * k - i - j) % n == 0 else 2.0
            assert b.weights[i, j, k] == expected
        # monomials, max_abs, max_difference and max_differences read the
        # table the constructor built
        other = QuadraticBracket(n, 2 * b.coeffs)

        def indices(*args, **kwargs):
            raise AssertionError("np.indices called")

        monkeypatch.setattr(np, "indices", indices)
        assert np.array_equal(b.monomials(), b.coeffs * b.weights)
        assert b.max_abs() == other.max_abs() / 2
        assert b.max_difference(other) == b.max_abs()
        assert b.max_differences(other.coeffs[None])[0] == b.max_abs()


class TestBracketPoly:
    def test_generator_bracket_antisymmetric(self):
        b = delta_hn()
        p01 = pair_poly(b, 0, 1)
        p10 = pair_poly(b, 1, 0)
        assert p01 == -p10

    def test_diagonal_is_zero(self):
        b = delta_hn()
        assert pair_poly(b, 1, 1).is_zero()

    def test_delta_table_expansion(self):
        # hand expansion of the canonical sum for n = 3, C(1,0)=C(0,1)=c
        c = 0.75
        b = delta_hn(3, c)
        for i in range(3):
            p = pair_poly(b, i, (i + 1) % 3)
            assert abs(p.coefficient([i, i + 1]) - 2 * c) < 1e-15
            assert len(p.terms) == 1

    def test_constants_central(self):
        b = sklyanin(3)
        one = Polynomial.constant(3, 1.0)
        f = Polynomial.variable(3, 0) * Polynomial.variable(3, 2)
        assert bracket_poly(b, f, one).is_zero()

    def test_leibniz_exact_by_construction(self):
        b = delta_hn(3, 1.0)
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
        table = {pair: pair_coeffs(b, *pair) for pair in pairs(b)}
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
        q = one_percent_off(sklyanin(7)).coeffs
        ref = jacobi_defect(QuadraticBracket(7, q))
        assert ref > 1e-8
        for s in (1e-10, 1.0, 1e6):
            got = jacobi_defect(QuadraticBracket(7, s * q))
            assert abs(got - ref) <= 1e-9 * ref
            assert got > 1e-8

    @pytest.mark.parametrize("n", range(5, 14))
    def test_matches_dense_contraction(self, n):
        # even n has two squares 2k = i+j in every {x_i, x_j}; the 1%
        # control reads about 5e-3 on both paths
        for tau in (1j, 0.3 + 0.8j):
            for k in (1, n - 1):
                b = sklyanin(n, k, tau)
                for br in (b, one_percent_off(b)):
                    got, ref = jacobi_defect(br), dense_jacobi_defect(br)
                    assert abs(got - ref) <= 1e-15

    @pytest.mark.parametrize("n", list(range(2, 14)) + [31])
    def test_equals_pairwise_loop(self, n):
        # the same arithmetic per entry over gathered triples: the residual
        # is the pair loop's to the bit, on the Sklyanin brackets, their 1%
        # controls and a random table; n = 2 has no triple
        brackets = [random_bracket(n, np.random.default_rng(70 + n))]
        for tau in (1j, 0.3 + 0.8j, 6j):
            for k in sorted({1, n - 1}):
                b = sklyanin(n, k, tau)
                brackets += [b, one_percent_off(b)]
        for b in brackets:
            got = jacobi_defect(b)
            assert got == pairwise_jacobi_defect(b)
            assert got == 0.0 or n > 2

    @pytest.mark.parametrize("size", [math.inf, 1e200],
                             ids=["infinite", "square_overflows"])
    def test_unreadable_scale_reads_nan(self, size):
        # an infinite coefficient read 0.0, and one whose square leaves
        # double range raised OverflowError; NaN fails any tolerance
        g = sklyanin(5).coeffs.copy()
        g[0, 1, :2] = size
        g[1, 0, :2] = -size
        with np.errstate(invalid="ignore"):
            assert math.isnan(jacobi_defect(QuadraticBracket(5, g)))

    @pytest.mark.parametrize("chunk", [1, 200, 2 ** 15])
    def test_chunk_size_does_not_change_the_residual(self, chunk,
                                                     monkeypatch):
        # chunks of one triple, of chunks that split the triples of one i,
        # and of every triple at once
        monkeypatch.setattr(poisson, "_JACOBI_CHUNK", chunk)
        for b in (one_percent_off(sklyanin(7, 3, 0.3 + 0.8j)),
                  random_bracket(9, np.random.default_rng(3))):
            assert jacobi_defect(b) == pairwise_jacobi_defect(b)

    def test_working_memory_is_chunked(self):
        # at n = 31 the 4495 triples hold 4.3e6 entries (69 MB as complex);
        # chunked, a call needs its n^3 tables and a few small temporaries,
        # 2.2 MB in all, where the loop over pairs reached 3.8 MB
        b = sklyanin(31)
        tracemalloc.start()
        try:
            jacobi_defect(b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3e6


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
        recovered = hn_canonical_extract(canonical_bracket(table))
        assert np.array_equal(recovered, table)
        for n in range(3, 14):
            f = f_constants(ThetaBasis(CurveParams(0.3 + 0.8j, n)))
            recovered = hn_canonical_extract(canonical_bracket(f))
            assert np.array_equal(recovered, f)

    def test_sklyanin_k1_matches_f_table(self):
        basis = ThetaBasis(CurveParams(1j, 3))
        h = hn_canonical_extract(sklyanin_bracket(basis, 1))
        f = f_constants(basis)
        assert np.max(np.abs(h - f)) < 1e-10

    def test_non_invariant_rejected(self):
        # {x_0, x_1} = x_0 x_1 alone is graded but not shift-invariant
        b = table_bracket(3, {(0, 1): {(0, 1): 1.0}})
        with pytest.raises(InvarianceError):
            hn_canonical_extract(b)

    def test_nan_violation_rejected(self):
        # the invariant bracket of delta_hn with its coefficients made
        # infinite: both tests read NaN, which the comparison passed over
        g = delta_hn().coeffs
        g = np.where(g.real > 0, math.inf,
                     np.where(g.real < 0, -math.inf, 0.0)).astype(complex)
        with np.errstate(invalid="ignore"):
            b = QuadraticBracket(3, g)
            with pytest.raises(InvarianceError, match="violation nan"):
                hn_canonical_extract(b)

    def test_heisenberg_covariance_of_tensor(self):
        # conjugating by either generator action on coordinates fixes the tensor
        basis = ThetaBasis(CurveParams(1j, 5))
        b = sklyanin_bracket(basis, 2)
        n = b.n
        omega = np.exp(2j * math.pi / n)
        scaled = {}
        shifted = {}
        for (i, j) in pairs(b):
            entry = pair_coeffs(b, i, j)
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
        # magnitudes by np.abs, as in the package: Python's abs(complex)
        # can differ from it in the last bit
        worst = 0.0
        for i in range(4):
            for j in range(4):
                pa, pb = pair_coeffs(a, i, j), pair_coeffs(b, i, j)
                for mono in set(pa) | set(pb):
                    worst = max(worst,
                                np.abs(pa.get(mono, 0j) - pb.get(mono, 0j)))
        assert a.max_difference(b) == worst
        assert a.max_difference(a) == 0.0
        assert a.max_abs() == max(np.abs(c) for i in range(4) for j in range(4)
                                  for c in pair_coeffs(a, i, j).values())

    def test_small_n_degenerate_cases(self):
        # n = 2 admits only the zero invariant table; n = 1 has no pairs
        assert not pairs(canonical_bracket(np.zeros((2, 2))))
        b1 = QuadraticBracket(1)
        assert jacobi_defect(b1) == 0.0


class TestSharedLayout:
    """The index tables of an order n are built once, shared by every
    bracket of that order, and read-only."""

    @pytest.mark.parametrize("n", [2, 5, 6])
    def test_tables_are_read_only(self, n):
        tables = [getattr(layout, name)
                  for layout in (poisson._layout(n), poisson._jacobi_layout(n))
                  for name in layout.__slots__]
        tables.append(QuadraticBracket(n).weights)
        for table in tables:
            with pytest.raises(ValueError, match="read-only"):
                table[...] = 0

    def test_brackets_of_one_order_share_the_weights(self):
        one, two = sklyanin(5), sklyanin(5, 2, 0.3 + 0.8j)
        assert one.weights is two.weights is QuadraticBracket(5).weights
        assert QuadraticBracket(4).weights is not one.weights

    def test_tables_match_the_index_arithmetic(self):
        # the gathers read what np.indices gives: the mirror entry, the
        # factor 2 off the squares and the chart words t_k t_{i+j-k}
        n = 6
        layout = poisson._layout(n)
        i, j, k = np.indices((n,) * 3)
        g = random_bracket(n, np.random.default_rng(5)).coeffs
        assert np.array_equal(g.take(layout.mirror), g[i, j, (i + j - k) % n])
        assert np.array_equal(layout.weights,
                              np.where((2 * k - i - j) % n, 2.0, 1.0))
        assert np.array_equal(layout.third, (i + j - k) % n)


def chart_rule(b, t):
    """{t_i, t_j} = {x_i, x_j} - t_i {x_0, x_j} - t_j {x_i, x_0} at x = t,
    entry by entry on the Leibniz polynomials."""
    xs = [Polynomial.variable(b.n, i) for i in range(b.n)]
    return np.array([[(bracket_poly(b, xi, xj)
                       - t[i] * bracket_poly(b, xs[0], xj)
                       - t[j] * bracket_poly(b, xi, xs[0])).eval(t)
                      for j, xj in enumerate(xs)]
                     for i, xi in enumerate(xs)])


class TestProjective:
    def test_diagonal_and_zero_table(self):
        t = np.array([1.0, 0.3, 0.1, -0.2], dtype=complex)
        assert not np.any(projective_matrix(QuadraticBracket(4), t))
        mat = projective_matrix(random_bracket(4, np.random.default_rng(2)), t)
        assert not np.any(np.diag(mat))
        assert not np.any(mat[0]) and not np.any(mat[:, 0])

    @pytest.mark.parametrize("t", [[1.0, 0.2], [1.0, 0.2, 0.4, 0.1],
                                   [0.5, 0.2, 0.4]])
    def test_rejects_point_off_the_chart(self, t):
        with pytest.raises(ValueError, match="t\\[0\\] = 1"):
            projective_matrix(sklyanin(3), t)

    def test_against_chart_rule_oracle(self):
        # {x_i/x_0, x_j/x_0} = ({x_i,x_j} - t_i {x_0,x_j} - t_j {x_i,x_0})/x_0^2
        b = sklyanin(3)
        t = np.array([1.0, 0.7 + 0.1j, -0.3], dtype=complex)
        direct = projective_matrix(b, t)
        for i in range(1, 3):
            for j in range(1, 3):
                xi = Polynomial.variable(3, i)
                xj = Polynomial.variable(3, j)
                x0 = Polynomial.variable(3, 0)
                chart = (bracket_poly(b, xi, xj)
                         - t[i] * bracket_poly(b, x0, xj)
                         - t[j] * bracket_poly(b, xi, x0))
                assert abs(direct[i, j] - chart.eval(t)) < 1e-9

    def test_chart_rule_many_random_points(self):
        b = sklyanin(5, tau=0.3 + 0.8j)
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
            direct = projective_matrix(b, t)[i, j]
            chart = (polys[(int(i), int(j))].eval(t)
                     - t[i] * polys[(0, int(j))].eval(t)
                     - t[j] * polys[(int(i), 0)].eval(t))
            assert abs(direct - chart) < 1e-9 * max(1.0, abs(chart))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_non_invariant_bracket(self, n):
        # a graded bracket with no Heisenberg symmetry has no canonical
        # table C, and still descends to the chart
        rng = np.random.default_rng(n)
        b = random_bracket(n, rng)
        with pytest.raises(InvarianceError):
            hn_canonical_extract(b)
        for _ in range(3):
            t = np.concatenate(
                ([1.0], rng.standard_normal(n - 1)
                 + 1j * rng.standard_normal(n - 1)))
            ref = chart_rule(b, t)
            scale = max(1.0, float(np.max(np.abs(ref))))
            assert np.max(np.abs(projective_matrix(b, t) - ref)) < 1e-12 * scale


def bracket_digest(n):
    """sha256 of ``pair_tensor`` on a seeded word table and a stack of two,
    the weights and ``repr(jacobi_defect)`` of the bracket it gives and of
    the Sklyanin bracket at k = 1 and 3 (tau = 0.3 + 0.8i), and the
    projective matrices of both brackets at three seeded chart points."""
    rng = np.random.default_rng(n)
    words = rng.standard_normal((3, n, n)) + 1j * rng.standard_normal((3, n, n))
    h = hashlib.sha256()
    h.update(poisson.pair_tensor(words[0]).tobytes())
    h.update(poisson.pair_tensor(words[1:]).tobytes())
    basis = ThetaBasis(CurveParams(0.3 + 0.8j, n))
    t = np.ones((3, n), dtype=complex)
    t[:, 1:] = rng.uniform(-0.7, 0.7, (3, n - 1, 2)).view(complex)[..., 0]
    for b in (QuadraticBracket(n, poisson.pair_tensor(words[0])),
              sklyanin_bracket(basis, 1), sklyanin_bracket(basis, 3)):
        h.update(b.coeffs.tobytes() + b.weights.tobytes())
        h.update(repr(jacobi_defect(b)).encode())
        h.update(projective_matrix(b, t).tobytes())
    return h.hexdigest()[:16]


class TestBracketPins:
    """Digests taken before the gathers of the bracket tables were built
    once per n: no table layout may move a bit."""

    DIGESTS = {5: "45d8494012e61d5b", 10: "686b60d019c25da1",
               13: "0566bc61aee9fbc5"}

    @pytest.mark.parametrize("n", [5, 10, 13])
    def test_tables_pinned(self, n):
        assert bracket_digest(n) == self.DIGESTS[n]
