"""Tests for the bracket row table and its polynomial oracles."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from ellpoisson import poisson, theta
from ellpoisson import fo
from ellpoisson.fo import (f_constants, semiclassical_from_relations,
                           sklyanin_bracket)
from ellpoisson.cli import BRACKET_TOL
from ellpoisson.poisson import (
    ORBIT_CONSTANT,
    QuadraticBracket,
    heisenberg_violation,
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
    coefficient_table,
    dense_jacobi_defect,
    pair_coeffs,
    pair_poly,
    pairs,
    pairwise_jacobi_defect,
)


def sklyanin(n, k=1, tau=1j):
    return sklyanin_bracket(ThetaBasis(CurveParams(tau, n)), k)


def random_bracket(n, rng):
    """A seeded bracket with every row entry off row 0 nonzero; its
    wrapped pairs disagree, so it is not Heisenberg-invariant."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return QuadraticBracket(n, poisson.pair_tensor(g))


def invariant_part(b):
    """The Heisenberg-invariant projection (R[d, r] - R[n-d, -r]) / 2 of
    b: its wrapped pairs agree exactly, so its violation reads 0.0."""
    n = b.n
    d, r = np.indices((n, n))
    return QuadraticBracket(n, (b.rows - b.rows[-d % n, -r % n]) / 2)


def wrapped_row_off(b, error=1e-6):
    """b with its wrapped row R[n - 1], the pairs {x_i, x_{i+n-1}}, scaled
    by 1 + error: one row off its partner R[1]."""
    g = b.rows.copy()
    g[-1] *= 1 + error
    return QuadraticBracket(b.n, g)


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


def one_percent_off(b, wrapped=False):
    """b with the monomial x_i x_{i+1} of every {x_i, x_{i+1}} scaled by
    1.01; with ``wrapped``, also the same monomial of its wrapped partner
    {x_{n-1}, x_0} (row n - 1), which keeps an invariant b invariant."""
    g = b.rows.copy()
    g[1, :2] *= 1.01
    if wrapped:
        g[-1, [0, -1]] *= 1.01
    return QuadraticBracket(b.n, g)


def adjacent_bracket(n):
    """{x_i, x_{i+1}} = x_i x_{i+1} for i < n - 1 and no other term: the
    wrapped pair {x_{n-1}, x_0} is zero, so it is not
    Heisenberg-invariant."""
    g = np.zeros((n, n), dtype=complex)
    g[1, :2] = 0.5
    return QuadraticBracket(n, g)


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
        for shape in ((3,) * 3, (3,) * 4, (3, 4)):
            with pytest.raises(ValueError, match="shape"):
                QuadraticBracket(3, np.zeros(shape))

    def test_broken_antisymmetry_refused(self):
        # row 0 holds {x_i, x_i}, which antisymmetry makes zero
        g = adjacent_bracket(3).rows.copy()
        g[0, 0] = 1.0
        with pytest.raises(ValueError, match="row 0"):
            QuadraticBracket(3, g)

    def test_broken_partner_symmetry_refused(self):
        # R[1, 0] and R[1, 1] both hold x_i x_{i+1}
        g = adjacent_bracket(3).rows.copy()
        g[1, 0] += 1.0
        with pytest.raises(ValueError, match="d-r"):
            QuadraticBracket(3, g)

    def test_nan_pair_is_kept_and_nan_against_a_value_refused(self):
        # a NaN at both partners [d, r] and [d, d-r] is a table the checks
        # downstream fail, and is kept; a NaN against a finite partner
        # breaks the symmetry and is refused (power control)
        g = sklyanin(5).rows.copy()
        g[2, 1] = np.nan  # at d = 2, r = 1 is its own partner
        g[2, 4] = np.nan  # and r = 3 is the partner of r = 4
        with pytest.raises(ValueError, match="d-r"):
            QuadraticBracket(5, g)
        g[2, 3] = np.nan
        b = QuadraticBracket(5, g)
        assert np.isnan(b.max_abs())
        g[2, 3] = 1.0
        with pytest.raises(ValueError, match="d-r"):
            QuadraticBracket(5, g)

    @pytest.mark.parametrize("n", [3, 4, 7])
    def test_weights_built_once(self, n, monkeypatch):
        b = sklyanin_bracket(ThetaBasis(CurveParams(0.3 + 0.8j, n)), 1)
        for d, r in np.ndindex(n, n):
            expected = 1.0 if (2 * r - d) % n == 0 else 2.0
            assert b.weights[d, r] == expected
        # monomials, max_abs, max_difference and max_differences read the
        # table the constructor built
        other = QuadraticBracket(n, 2 * b.rows)

        def indices(*args, **kwargs):
            raise AssertionError("np.indices called")

        monkeypatch.setattr(np, "indices", indices)
        assert np.array_equal(b.monomials(), b.rows * b.weights)
        assert b.max_abs() == other.max_abs() / 2
        assert b.max_difference(other) == b.max_abs()
        assert b.max_differences(other.rows[None])[0] == b.max_abs()


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
        # the monomial x_i x_{i+1} of every {x_i, x_{i+1}} moved by 0.1
        g = sklyanin(3).rows.copy()
        g[1, :2] += 0.05
        assert jacobi_defect(QuadraticBracket(3, g)) > 1e-3

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_matches_leibniz_oracle(self, n):
        # every triple on the invariant projection; the random table itself
        # is bounded by its orbit and its violation
        b = random_bracket(n, np.random.default_rng(40 + n))
        sym = invariant_part(b)
        assert heisenberg_violation(sym) == 0.0
        expected = leibniz_jacobi(sym) / sym.max_abs() ** 2
        assert abs(jacobi_defect(sym) - expected) <= 1e-12 * expected
        full = leibniz_jacobi(b) / b.max_abs() ** 2
        assert full <= jacobi_defect(b) + ORBIT_CONSTANT * \
            heisenberg_violation(b)

    def test_scale_free(self):
        # one coefficient of a Poisson bracket off by 1%: the defect must
        # not depend on the overall scale of the bracket
        q = one_percent_off(sklyanin(7)).rows
        ref = jacobi_defect(QuadraticBracket(7, q))
        assert ref > 1e-8
        for s in (1e-10, 1.0, 1e6):
            got = jacobi_defect(QuadraticBracket(7, s * q))
            assert abs(got - ref) <= 1e-9 * ref
            assert got > 1e-8

    @pytest.mark.parametrize("n", range(5, 14))
    def test_matches_dense_contraction(self, n):
        # even n has two squares 2k = i+j in every {x_i, x_j}; the 1%
        # control, on row 1 and its wrapped partner, reads about 5e-3 on
        # both paths
        for tau in (1j, 0.3 + 0.8j):
            for k in (1, n - 1):
                b = invariant_part(sklyanin(n, k, tau))
                for br in (b, one_percent_off(b, wrapped=True)):
                    assert heisenberg_violation(br) == 0.0
                    got, ref = jacobi_defect(br), dense_jacobi_defect(br)
                    assert abs(got - ref) <= 1e-15

    @pytest.mark.parametrize("n", [3, 4, 5, 7, 9, 13])
    def test_every_triple_is_bounded_by_the_orbit(self, n):
        # full-triple defect <= orbit defect + ORBIT_CONSTANT * violation on
        # brackets whose wrapped pairs disagree, by all three full-triple
        # oracles (the Leibniz expansion only where it is quick)
        rng = np.random.default_rng(90 + n)
        brackets = [random_bracket(n, rng), adjacent_bracket(n)]
        for tau in (1j, 0.3 + 0.8j):
            b = sklyanin(n, 1, tau)
            brackets += [one_percent_off(b), wrapped_row_off(b)]
        for b in brackets:
            bound = jacobi_defect(b) + ORBIT_CONSTANT * heisenberg_violation(b)
            assert heisenberg_violation(b) > 0.0
            assert pairwise_jacobi_defect(b) <= bound
            assert dense_jacobi_defect(b) <= bound
            if n <= 5:
                assert leibniz_jacobi(b) / b.max_abs() ** 2 <= bound
        # the orbit alone can read less than every triple, so the bound
        # needs v: on the random table at n = 9 every triple reads 1.32
        # times the orbit
        if n == 9:
            assert pairwise_jacobi_defect(brackets[0]) > \
                1.3 * jacobi_defect(brackets[0])

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
            assert got == pairwise_jacobi_defect(b, orbit=True)
            assert got == 0.0 or n > 2
            # on an invariant bracket every shifted triple repeats its
            # representative's products: the full loop reads the same bits
            sym = invariant_part(b)
            assert heisenberg_violation(sym) == 0.0
            assert jacobi_defect(sym) == pairwise_jacobi_defect(sym)

    @pytest.mark.parametrize("size", [math.inf, 1e200],
                             ids=["infinite", "square_overflows"])
    def test_unreadable_scale_reads_nan(self, size):
        # an infinite coefficient read 0.0, and one whose square leaves
        # double range raised OverflowError; NaN fails any tolerance
        g = sklyanin(5).rows.copy()
        g[1, :2] = size
        with np.errstate(invalid="ignore"):
            assert math.isnan(jacobi_defect(QuadraticBracket(5, g)))

    @pytest.mark.parametrize("chunk", [1, 200, 2 ** 15])
    def test_chunk_size_does_not_change_the_residual(self, chunk,
                                                     monkeypatch):
        # chunks of one triple, of chunks that split the triples of one j,
        # and of every triple at once
        monkeypatch.setattr(theta, "CHUNK_ENTRIES", chunk)
        for b in (one_percent_off(sklyanin(7, 3, 0.3 + 0.8j)),
                  random_bracket(9, np.random.default_rng(3))):
            assert jacobi_defect(b) == pairwise_jacobi_defect(b, orbit=True)

    def test_working_memory_is_chunked(self):
        # at n = 31 the 435 triples (0, j, k) hold 4.2e5 entries (6.7 MB as
        # complex); chunked, a call needs its n^3 tables, the coefficient
        # table it forms (0.48 MB) and a few small temporaries, 2.6 MB in
        # all with its tables built and 1.6 MB with them kept, where the
        # loop over pairs reached 3.8 MB
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
        # the wrapped pair {x_2, x_0} is zero where its partner {x_0, x_1}
        # is x_0 x_1: R[1, 0] = 0.5 against 0, half the scale 1
        b = adjacent_bracket(3)
        assert np.array_equal(hn_canonical_extract(b) + 0.0,
                              np.array([[0, 0.5, 0], [0.5, 0, 0], [0, 0, 0]]))
        assert heisenberg_violation(b) == 0.5
        assert not heisenberg_violation(b) <= BRACKET_TOL

    def test_nan_violation_rejected(self):
        # the invariant bracket of delta_hn with its coefficients made
        # infinite: the skew test reads NaN, which a comparison passes over
        assert heisenberg_violation(delta_hn()) == 0.0
        g = delta_hn().rows
        g = np.where(g.real > 0, math.inf,
                     np.where(g.real < 0, -math.inf, 0.0)).astype(complex)
        with np.errstate(invalid="ignore"):
            violation = heisenberg_violation(QuadraticBracket(3, g))
        assert math.isnan(violation)
        assert not violation <= BRACKET_TOL

    @pytest.mark.parametrize("n", [3, 5, 13, 63])
    def test_one_wrapped_row_off_is_seen(self, n):
        # R[n - 1] scaled by 1 + 1e-6 against its partner R[1]: the
        # violation reads the relative error times the row's share of the
        # scale, far above BRACKET_TOL, where the bracket reads rounding
        b = sklyanin(n, 1, 0.3 + 0.8j)
        assert heisenberg_violation(b) < 1e-15
        off = heisenberg_violation(wrapped_row_off(b))
        assert 1e-7 < off <= 1e-6
        assert heisenberg_violation(wrapped_row_off(b, -1e-6)) > 1e-7

    def test_heisenberg_covariance_of_tensor(self):
        # conjugating by either generator action on coordinates fixes the
        # bracket, the shifts that wrap past n - 1 among them
        basis = ThetaBasis(CurveParams(1j, 5))
        b = sklyanin_bracket(basis, 2)
        n = b.n
        omega = np.exp(2j * math.pi / n)
        for (i, j) in pairs(b):
            entry = pair_coeffs(b, i, j)
            for (k, l), c in entry.items():
                assert abs(c * omega ** ((i + j - k - l) % n) - c) < 1e-12
            ii, jj = (i + 1) % n, (j + 1) % n
            sign = 1.0 if ii < jj else -1.0
            shifted = pair_coeffs(b, min(ii, jj), max(ii, jj))
            moved = {tuple(sorted(((k + 1) % n, (l + 1) % n))): sign * c
                     for (k, l), c in entry.items()}
            assert moved.keys() == shifted.keys()
            for mono, c in moved.items():
                assert abs(c - shifted[mono]) < 1e-12

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
        # factor 2 off the squares, the entry R[|j-i|, k-min(i, j)] of G
        # with its sign and the chart words t_k t_{i+j-k}
        n = 6
        layout = poisson._layout(n)
        d, r = np.indices((n, n))
        g = random_bracket(n, np.random.default_rng(5)).rows
        assert np.array_equal(g.take(layout.mirror), g[d, (d - r) % n])
        assert np.array_equal(layout.weights,
                              np.where((2 * r - d) % n, 2.0, 1.0))
        i, j, k = np.indices((n,) * 3)
        assert np.array_equal(g.take(layout.offset),
                              g[abs(j - i), (k - np.minimum(i, j)) % n])
        assert np.array_equal(layout.sign, np.sign(j - i)[..., :1])
        assert np.array_equal(layout.third, (i + j - k) % n)

    def test_retained_memory(self):
        # at n = 63 an (n, n, n) coefficient table takes 4.0 MB, and index
        # tables that gather each of its entries 12.0 MB; the row table
        # takes 64 KB, and the order keeps two n^3 index tables, 4.1 MB
        basis = ThetaBasis(CurveParams(1j, 63))
        poisson._layout.cache_clear()
        tracemalloc.start()
        try:
            poisson._layout(63)
            layout = tracemalloc.get_traced_memory()[0]
            b = sklyanin_bracket(basis, 1)
            bracket = tracemalloc.get_traced_memory()[0] - layout
        finally:
            tracemalloc.stop()
        assert layout < 5e6
        assert bracket < 1e5
        assert b.rows.shape == (63, 63)


class TestCoefficientTable:
    """The package forms G from the row table at offsets built once per n
    (``poisson._coefficients``); the oracle forms it by index arithmetic
    from a word table, and the two must hold the same values."""

    @pytest.mark.parametrize("n", [3, 4, 5, 7, 13, 31])
    def test_sklyanin_expansion_equals_the_reference(self, n):
        for tau in (1j, 0.3 + 0.8j, 0.5j):
            basis = ThetaBasis(CurveParams(tau, n))
            for k in sorted({1, 2, 3, n - 2}):
                if 0 < k < n and math.gcd(n, k) == 1:
                    b = sklyanin_bracket(basis, k)
                    assert np.array_equal(poisson._coefficients(b),
                                          coefficient_table(b.rows))

    @pytest.mark.parametrize("n", [3, 4, 5, 7, 13, 31])
    def test_semiclassical_expansion_equals_the_reference(self, n):
        # the circle mean and its single-eta stack; the single-eta word
        # tables themselves go through pair_tensor on the package side
        basis = ThetaBasis(CurveParams(0.3 + 0.8j, n))
        etas = np.array([0.01, 0.001j, 1e-4 + 1e-4j])
        mean, singles = semiclassical_from_relations(basis, 1, etas)
        # the relation rows at +eta come first, then those at -eta
        rel = fo._relation_rows(basis, 1, etas)[:len(etas)]
        words = fo._first_order(rel, etas[:, None, None])
        assert np.array_equal(poisson._coefficients(mean),
                              coefficient_table(mean.rows))
        for row, word in zip(singles, words):
            got = poisson._coefficients(QuadraticBracket(n, row))
            assert np.array_equal(got, coefficient_table(row))
            assert np.array_equal(got, coefficient_table(word))


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
        assert heisenberg_violation(b) > 0.1
        for _ in range(3):
            t = np.concatenate(
                ([1.0], rng.standard_normal(n - 1)
                 + 1j * rng.standard_normal(n - 1)))
            ref = chart_rule(b, t)
            scale = max(1.0, float(np.max(np.abs(ref))))
            assert np.max(np.abs(projective_matrix(b, t) - ref)) < 1e-12 * scale


def bracket_digest(n):
    """sha256 of what three brackets compute: the bracket of a seeded word
    table and the Sklyanin brackets at k = 1 and 3 (tau = 0.3 + 0.8i).
    For each, ``repr(jacobi_defect)``, the projective matrices at three
    seeded chart points, the canonical table (its zeros taken as +0, since
    the sign of a zero is no value), ``repr(heisenberg_violation)``,
    ``repr(max_abs)`` and ``max_differences`` to a seeded stack of two
    word tables."""
    rng = np.random.default_rng(n)
    words = rng.standard_normal((3, n, n)) + 1j * rng.standard_normal((3, n, n))
    basis = ThetaBasis(CurveParams(0.3 + 0.8j, n))
    t = np.ones((3, n), dtype=complex)
    t[:, 1:] = rng.uniform(-0.7, 0.7, (3, n - 1, 2)).view(complex)[..., 0]
    stack = poisson.pair_tensor(words[1:])
    h = hashlib.sha256()
    for b in (QuadraticBracket(n, poisson.pair_tensor(words[0])),
              sklyanin_bracket(basis, 1), sklyanin_bracket(basis, 3)):
        h.update(repr(jacobi_defect(b)).encode())
        h.update(projective_matrix(b, t).tobytes())
        h.update((hn_canonical_extract(b) + 0.0).tobytes())
        h.update(repr(heisenberg_violation(b)).encode())
        h.update(repr(b.max_abs()).encode())
        h.update(b.max_differences(stack).tobytes())
    return h.hexdigest()[:16]


class TestBracketPins:
    """Digests taken when each point came to sum one theta series for
    every index, which moved the last bits of the basis values at 0 the
    brackets are built from; how a bracket is stored may move no bit of
    what it computes."""

    DIGESTS = {5: "a040923652a178fa", 10: "d0a14243874db8a6",
               13: "5dd5f8029c11a94d"}

    @pytest.mark.parametrize("n", [5, 10, 13])
    def test_tables_pinned(self, n):
        assert bracket_digest(n) == self.DIGESTS[n]
