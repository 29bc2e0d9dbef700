"""Exact-arithmetic tests for the endomorphism-complex machinery."""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

from ellpoisson import homology
from ellpoisson.exact import Mat, hstack, vstack
from ellpoisson.homology import (
    HomComplex,
    PiBivector,
    VSComplex,
    cone_iso_check,
    hom_complex,
    pi_bivector,
    random_kronecker_complex,
    trace_pairing,
)
from oracles import (
    dense_cone_iso_check,
    dense_duality_t,
    dense_kappa_inverse_deg_minus1,
    dense_shifted_cone,
    homology_dims,
)


def zero_diff_complex():
    return VSComplex({-1: 2, 0: 3, 1: 2}, {})


def rational_complex():
    return VSComplex({-1: 1, 0: 2, 1: 1},
                     {-1: [[Fraction(1, 2)], [Fraction(1, 3)]],
                      0: [[2, -3]]})


def kronecker(seed=0, r=1, n=3):
    return random_kronecker_complex(r, n, seed)


class TestExactMat:
    def test_matmul_exact_fractions(self):
        a = Mat.from_rows([[Fraction(1, 2), 1], [0, Fraction(1, 3)]])
        b = Mat.from_rows([[2, 0], [1, 6]])
        prod = a @ b
        assert prod.entry(0, 0) == 2
        assert prod.entry(0, 1) == 6
        assert prod.entry(1, 0) == Fraction(1, 3)
        assert prod.entry(1, 1) == 2

    def test_big_integer_path(self):
        big = 2 ** 40
        a = Mat.from_rows([[big, big]])
        b = Mat.from_rows([[big], [big]])
        assert (a @ b).entry(0, 0) == 2 * big * big

    def test_rank(self):
        m = Mat.from_rows([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
        assert m.rank() == 2

    def test_kron_identity(self):
        a = Mat.from_rows([[1, 2], [3, 4]])
        k = Mat.identity(2).kron(a)
        assert k.entry(0, 0) == 1 and k.entry(2, 2) == 1
        assert k.entry(0, 2) == 0


def elimination_cases():
    """Seeded integer and rational matrices of every rank, including zero,
    empty, wide and tall shapes."""
    rng = np.random.default_rng(20)
    mats = [Mat.zeros(3, 4), Mat.zeros(0, 3), Mat.zeros(3, 0),
            Mat.from_rows([[0, 0, 5]]), Mat.identity(4)]
    for rows, cols in ((1, 1), (2, 5), (5, 2), (4, 4), (6, 9), (9, 6)):
        for rank in range(min(rows, cols) + 1):
            left = Mat(rng.integers(-4, 5, size=(rows, rank)))
            right = Mat(rng.integers(-4, 5, size=(rank, cols)))
            rational = Mat.from_rows(
                [[Fraction(int(p), int(q)) for p, q in zip(
                    rng.integers(-5, 6, size=cols),
                    rng.integers(1, 7, size=cols))] for _ in range(rank)],
                (rank, cols))
            mats += [left @ right, left @ rational]
    return mats


class TestElimination:
    def test_nullspace_is_annihilated(self):
        for m in elimination_cases():
            null = m.nullspace()
            assert null.shape[1] == m.shape[1]
            assert (m @ null.T).is_zero()

    def test_nullspace_rows_are_primitive_with_positive_free_entry(self):
        for m in elimination_cases():
            null = m.nullspace().num
            # the free column of a row is its last nonzero entry
            free = [max(np.flatnonzero(row != 0)) for row in null]
            assert len(set(free)) == len(free)
            block = null[:, free]
            assert np.all(block == np.diag(np.diagonal(block)))
            assert all(v > 0 for v in np.diagonal(block))
            assert all(math.gcd(*row) == 1 for row in null)

    def test_rank_plus_nullity_is_column_count(self):
        for m in elimination_cases():
            assert m.rank() + m.nullspace().shape[0] == m.shape[1]

    def test_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        for m in elimination_cases():
            ref = sympy.Matrix(*m.shape, [sympy.Rational(int(v), m.den)
                                          for v in m.num.flat])
            assert m.rank() == ref.rank()
            # sympy puts 1 at the free column; scaled to primitive integers
            # its basis must be ours, row for row
            expect = []
            for vec in ref.nullspace():
                lcm = math.lcm(*(int(v.q) for v in vec))
                ints = [int(v * lcm) for v in vec]
                g = math.gcd(*ints)
                expect.append([v // g for v in ints])
            assert m.nullspace().num.tolist() == expect

    def test_matmul_paths_agree_with_fractions(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies

        @hyp.settings(max_examples=300, deadline=None)
        @hyp.given(k=st.integers(1, 4), rows=st.integers(1, 3),
                   cols=st.integers(1, 3),
                   bits=st.sampled_from((53, 62, 64, 66)),
                   above=st.booleans(),
                   dens=st.tuples(st.integers(1, 6), st.integers(1, 6)),
                   data=st.data())
        def check(k, rows, cols, bits, above, dens, data):
            # entries at most `top` in size, with one entry of A and of B at
            # +-top, so k * top^2 sits just below or just above 2^bits: 2^53
            # bounds the float64 product, and at 64 and 66 bits sums with
            # aligned signs overflow int64; above 2^53 an odd top^2 is not
            # a float64 value
            top = math.isqrt((2 ** bits - 1) // k) + above
            if above and top % 2 == 0:
                top += 1
            entry = st.one_of(st.sampled_from((top, -top)),
                              st.integers(-top, top))
            a = np.array(data.draw(st.lists(entry, min_size=rows * k,
                                            max_size=rows * k)),
                         dtype=object).reshape(rows, k)
            b = np.array(data.draw(st.lists(entry, min_size=k * cols,
                                            max_size=k * cols)),
                         dtype=object).reshape(k, cols)
            a[0, 0] = top * data.draw(st.sampled_from((1, -1)))
            b[-1, -1] = top * data.draw(st.sampled_from((1, -1)))
            A, B = Mat(a, dens[0]), Mat(b, dens[1])
            assert (k * A.bound * B.bound < 2 ** bits) != above
            prod = A @ B
            for i in range(rows):
                for j in range(cols):
                    assert prod.entry(i, j) == sum(
                        A.entry(i, t) * B.entry(t, j) for t in range(k))

        check()

    def test_storage_bound_operations_agree_with_fractions(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        # largest entries at which sums, Kronecker products and
        # denominators up to 4 cross 2^63, and their neighbours
        tops = [v + e for v in (2 ** 62, 2 ** 63 // 3, math.isqrt(2 ** 63))
                for e in (-1, 0, 1)] + [2 ** 63 - 1, 2 ** 61]

        def fractions(m):
            return [[m.entry(i, j) for j in range(m.shape[1])]
                    for i in range(m.shape[0])]

        def stored(m):
            # int64 exactly while every numerator fits
            return m.num.dtype == (object if m.bound >= 2 ** 63 else np.int64)

        @hyp.settings(max_examples=300, deadline=None)
        @hyp.given(rows=st.integers(1, 3), cols=st.integers(1, 3),
                   tops=st.tuples(st.sampled_from(tops),
                                  st.sampled_from(tops)),
                   dens=st.tuples(st.integers(1, 4), st.integers(1, 4)),
                   data=st.data())
        def check(rows, cols, tops, dens, data):
            nums = []
            for top in tops:
                entry = st.one_of(st.sampled_from((top, -top)),
                                  st.integers(-top, top))
                num = np.array(data.draw(st.lists(
                    entry, min_size=rows * cols, max_size=rows * cols)),
                    dtype=object).reshape(rows, cols)
                num[0, 0] = top * data.draw(st.sampled_from((1, -1)))
                nums.append(num)
            A, B = Mat(nums[0], dens[0]), Mat(nums[1], dens[1])
            fa, fb = fractions(A), fractions(B)
            results = [A + B, A.kron(B), -A, hstack([A, B]), vstack([A, B])]
            assert all(stored(m) for m in [A, B] + results)
            assert fractions(results[0]) == [
                [x + y for x, y in zip(ra, rb)] for ra, rb in zip(fa, fb)]
            assert fractions(results[1]) == [
                [x * y for x in ra for y in rb] for ra in fa for rb in fb]
            assert fractions(results[2]) == [[-x for x in r] for r in fa]
            assert fractions(results[3]) == [ra + rb for ra, rb in zip(fa, fb)]
            assert fractions(results[4]) == fa + fb
            # the same values over a larger denominator may need objects
            s = dens[1] + 1
            assert A == Mat(nums[0] * s, dens[0] * s)
            assert (A == B) == (fa == fb)
            assert A + -A == Mat.zeros(rows, cols)

        check()

    def test_small_instances_are_int64(self):
        for r, n, seed in ((1, 3, 0), (2, 5, 1), (1, 7, 3)):
            E = random_kronecker_complex(r, n, seed)
            H = hom_complex(E)
            mats = [E.diff(-1), E.diff(0)] + [H.diff(d) for d in H.degrees()]
            assert all(m.num.dtype == np.int64 for m in mats)


class TestHomComplex:
    def test_zero_differentials(self):
        H = hom_complex(zero_diff_complex())
        for d in range(H.deg_min, H.deg_max):
            assert H.diff(d).is_zero()

    def test_dimension_formula(self):
        E = kronecker(seed=1)
        H = hom_complex(E)
        for d in H.degrees():
            expected = sum(E.dim(i) * E.dim(i + d) for i in E.degrees())
            assert H.dim(d) == expected

    def test_unsigned_differential_fails_d_squared(self, monkeypatch):
        # the sign (-1)^d of f_{i+1} phi_i is the only negation in the
        # assembly; without it the complex's d^2 = 0 check fires
        assemble = HomComplex._assemble_diff

        def unsigned(self, d):
            with monkeypatch.context() as patch:
                patch.setattr(Mat, "__neg__", lambda m: m)
                return assemble(self, d)

        monkeypatch.setattr(HomComplex, "_assemble_diff", unsigned)
        with pytest.raises(ValueError, match="do not compose to zero"):
            hom_complex(random_kronecker_complex(1, 3, 0))

    def test_composition_validated(self):
        with pytest.raises(ValueError):
            VSComplex({0: 1, 1: 1, 2: 1}, {0: [[1]], 1: [[1]]})

    def test_two_term_identity_complex(self):
        # 0 -> Q -> Q -> 0 with the identity map is contractible, so its
        # endomorphism complex is acyclic: the identity chain map is a
        # boundary (of the obvious degree -1 homotopy), like every cycle
        E = VSComplex({0: 1, 1: 1}, {0: [[1]]})
        H = hom_complex(E)
        dims = {d: H.dim(d) for d in range(H.deg_min, H.deg_max + 1)}
        diffs = {d: H.diff(d) for d in range(H.deg_min, H.deg_max)}
        hd = homology_dims(dims, diffs)
        assert hd == {-1: 0, 0: 0, 1: 0}

    def test_d_squared_zero_on_random_instances(self):
        for seed in range(3):
            H = hom_complex(kronecker(seed=seed))
            for d in range(H.deg_min, H.deg_max - 1):
                assert (H.diff(d + 1) @ H.diff(d)).is_zero()

    def test_euler_characteristic(self):
        # sum_d (-1)^d dim C^d = (sum_i (-1)^i dim E^i)^2
        for H in (hom_complex(kronecker(seed=0)),
                  hom_complex(kronecker(seed=5)),
                  hom_complex(random_kronecker_complex(2, 2, seed=3))):
            total = sum((-1) ** d * H.dim(d)
                        for d in range(H.deg_min, H.deg_max + 1))
            e = sum((-1) ** i * m for i, m in H.source.dims.items())
            assert total == e * e


def counted_products(monkeypatch):
    """Patch Mat.__matmul__ to record its operands, which stay alive."""
    calls = []
    matmul = Mat.__matmul__

    def counted(self, other):
        calls.append((self, other))
        return matmul(self, other)

    monkeypatch.setattr(Mat, "__matmul__", counted)
    return calls


def pairing_matrix(partner, sign, cols) -> Mat:
    """Dense matrix of kappa on C^d x C^{-d}: entry (q, partner[q]) is
    sign[q], the pairing of the two unit vectors."""
    out = np.zeros((len(partner), cols), dtype=np.int64)
    out[np.arange(len(partner)), partner] = sign
    return Mat(out)


def pairing_cases():
    return {"kronecker": hom_complex(kronecker(seed=4)),
            "zero_differential": hom_complex(zero_diff_complex()),
            "rational": hom_complex(rational_complex()),
            "zero_complex": hom_complex(VSComplex({}, {}))}


def same_bytes(a: Mat, b: Mat) -> bool:
    return (a.num.dtype == b.num.dtype and a.shape == b.shape
            and a.den == b.den and a.num.tolist() == b.num.tolist())


class TestDuality:
    def test_single_line_in_degree_zero(self):
        E = VSComplex({0: 1}, {})
        H = hom_complex(E)
        partner, sign = trace_pairing(H, 0)
        assert partner.tolist() == [0] and sign.tolist() == [1]

    def test_block_signs(self):
        E = zero_diff_complex()
        H = hom_complex(E)
        partner, sign = trace_pairing(H, 0)
        for (i, rows, cols, off) in H.blocks(0):
            # entry (0, 0) of each block pairs with itself, to (-1)^i
            assert partner[off] == off
            assert np.all(sign[off:off + rows * cols] == (-1) ** i)

    def test_involution(self):
        # degree 0 pairs with itself: the signed permutation squares to 1
        H = hom_complex(kronecker(seed=4))
        partner, sign = trace_pairing(H, 0)
        assert np.array_equal(partner[partner], np.arange(H.dim(0)))
        assert np.all(sign[partner] == sign)
        t = pairing_matrix(partner, sign, H.dim(0))
        assert t @ t == Mat.identity(H.dim(0))

    def test_induced_form_symmetric(self):
        H = hom_complex(kronecker(seed=5))
        partner, sign = trace_pairing(H, 0)
        rng = np.random.default_rng(6)
        dim0 = H.dim(0)
        for _ in range(3):
            xi = rng.integers(-5, 6, dim0)
            eta = rng.integers(-5, 6, dim0)
            assert np.sum(xi * sign * eta[partner]) == np.sum(
                eta * sign * xi[partner])

    @pytest.mark.parametrize("case", sorted(pairing_cases()))
    def test_matches_dense_builders(self, case):
        H = pairing_cases()[case]
        t = pairing_matrix(*trace_pairing(H, 0), H.dim(0))
        assert same_bytes(t, dense_duality_t(H))
        kappa_inv = pairing_matrix(*trace_pairing(H, -1), H.dim(1))
        assert same_bytes(kappa_inv, dense_kappa_inverse_deg_minus1(H))

    @pytest.mark.parametrize("case", sorted(pairing_cases()))
    def test_bivector_matches_dense_products(self, case):
        H = pairing_cases()[case]
        pi = pi_bivector(H)
        assert same_bytes(pi.component,
                          H.diff(-1) @ dense_kappa_inverse_deg_minus1(H))
        assert same_bytes(pi.partner, H.diff(0) @ dense_duality_t(H))


class TestPiBivector:
    def test_zero_for_zero_differential(self):
        H = hom_complex(zero_diff_complex())
        pi = pi_bivector(H)
        assert pi.component.is_zero()

    def test_chain_map_and_antisymmetry_exact(self):
        for seed in range(3):
            H = hom_complex(kronecker(seed=seed))
            pi = pi_bivector(H)
            assert pi.chain_map_ok(H)
            assert pi.antisymmetry_ok()

    def test_rank_bound(self):
        H = hom_complex(kronecker(seed=7))
        pi = pi_bivector(H)
        assert pi.component.rank() <= H.diff(0).rank()

    def test_kappa_inverse_is_exact_inverse(self):
        # the pairings of C^{-1} with C^1 and of C^1 with C^{-1} are inverse
        # permutations, with opposite signs: kappa(g, f) = -kappa(f, g)
        H = hom_complex(kronecker(seed=8))
        minus, minus_sign = trace_pairing(H, -1)
        plus, plus_sign = trace_pairing(H, 1)
        assert np.array_equal(plus[minus], np.arange(H.dim(-1)))
        assert np.array_equal(minus[plus], np.arange(H.dim(1)))
        assert np.array_equal(plus_sign[minus], -minus_sign)
        # a signed permutation matrix is inverted by its transpose
        j = pairing_matrix(minus, minus_sign, H.dim(1))
        assert j @ j.T == Mat.identity(H.dim(-1))

    @pytest.mark.parametrize("wrong", ["transposed", "sign_flipped"])
    def test_wrong_pairing_fails_antisymmetry(self, monkeypatch, wrong):
        # without the transpose, degree-0 entries pair with themselves;
        # with the sign flipped, the partner changes sign
        H = hom_complex(kronecker(seed=2))
        assert pi_bivector(H).antisymmetry_ok()
        pairing = homology.trace_pairing

        def wrong_pairing(H, d):
            partner, sign = pairing(H, d)
            if d:
                return partner, sign
            if wrong == "transposed":
                return np.arange(H.dim(0)), sign
            return partner, -sign

        monkeypatch.setattr(homology, "trace_pairing", wrong_pairing)
        assert not pi_bivector(H).antisymmetry_ok()

    def test_chain_map_ok_has_power(self):
        # a changed entry and a permuted C^1 pairing break the chain map;
        # the C^1 sign left un-negated keeps it, and only antisymmetry
        # catches that fault
        H = hom_complex(random_kronecker_complex(1, 3, 2))
        pi = pi_bivector(H)
        assert pi.chain_map_ok(H) and pi.antisymmetry_ok()
        num = pi.component.num.copy()
        num[0, 0] += pi.component.den
        assert not PiBivector(Mat(num, pi.component.den),
                              pi.partner).chain_map_ok(H)
        partner, sign = trace_pairing(H, 1)
        permuted = homology._signed_columns(H.diff(-1), np.roll(partner, 1),
                                            -sign)
        assert not PiBivector(permuted, pi.partner).chain_map_ok(H)
        unsigned = PiBivector(
            homology._signed_columns(H.diff(-1), partner, sign), pi.partner)
        assert unsigned.chain_map_ok(H)
        assert not unsigned.antisymmetry_ok()

    def test_no_products(self, monkeypatch):
        H = hom_complex(kronecker(seed=2, n=5))
        calls = counted_products(monkeypatch)
        assert pi_bivector(H).antisymmetry_ok()
        assert calls == []


class TestConeIso:
    def test_zero_differential_trivial(self):
        H = hom_complex(zero_diff_complex())
        ok, failures = cone_iso_check(H)
        assert ok, failures

    @pytest.mark.parametrize("seed", range(5))
    def test_random_kronecker_instances(self, seed):
        H = hom_complex(kronecker(seed=seed))
        ok, failures = cone_iso_check(H)
        assert ok, failures

    def test_sign_flip_fails_and_is_named(self):
        H = hom_complex(kronecker(seed=1))
        ok, failures = cone_iso_check(H, sign_flip=True)
        assert not ok
        assert any("chain-map square" in f for f in failures)

    def test_homology_dims_match(self):
        # the isomorphism the pair check proves, seen in homology: the
        # dense cone and sum have equal homology dimensions by exact rank
        H = hom_complex(kronecker(seed=2))
        ok, failures = cone_iso_check(H)
        assert ok, failures
        dims, d_cone, d_sum, _ = dense_shifted_cone(H, False)
        assert homology_dims(dims, d_cone) == homology_dims(dims, d_sum)

    def test_homology_ranks_each_distinct_differential_once(self,
                                                            monkeypatch):
        # the cone and the direct sum differ only in degree -1, so the
        # oracle's homology comparison needs one more rank than H has
        # differentials
        H = hom_complex(kronecker(seed=2, n=5))
        calls = []
        echelon = Mat._echelon

        def counted(self):
            calls.append(self.shape)
            return echelon(self)

        monkeypatch.setattr(Mat, "_echelon", counted)
        ok, failures = dense_cone_iso_check(H, with_homology=True)
        assert ok, failures
        assert len(calls) == (H.deg_max - H.deg_min) + 1

    def test_rational_entries_supported(self):
        H = hom_complex(rational_complex())
        ok, failures = cone_iso_check(H)
        assert ok, failures
        assert pi_bivector(H).antisymmetry_ok()


def corrupted(degree, seed=0):
    """H of a Kronecker instance with one entry of its degree-d
    differential raised by one, after the d^2 = 0 check of construction."""
    H = hom_complex(kronecker(seed=seed))
    m = H.diff(degree)
    num = m.num.copy()
    num[0, 0] += m.den
    H.diffs[degree] = Mat(num, m.den)
    return H


class TestConeIsoOracle:
    """The pair evaluation against the dense 2 dim C^0 matrices; with
    ``with_homology`` the oracle also compares the homology dimensions of
    the dense cone and sum, which the pair check leaves to the
    isomorphism it proves."""

    CASES = {
        **{f"kronecker_{seed}": (lambda seed=seed: hom_complex(
            kronecker(seed=seed)), False) for seed in range(5)},
        "zero_differential": (lambda: hom_complex(zero_diff_complex()), False),
        "rational": (lambda: hom_complex(rational_complex()), False),
        "sign_flip": (lambda: hom_complex(kronecker(seed=1)), True),
        "zero_complex_sign_flip": (lambda: hom_complex(VSComplex({}, {})),
                                   True),
        "corrupted_degree_0": (lambda: corrupted(0), False),
        "corrupted_degree_-1": (lambda: corrupted(-1), False),
        "corrupted_degree_1": (lambda: corrupted(1, seed=3), True),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("with_homology", [False, True])
    def test_same_verdict_and_failures(self, case, with_homology):
        build, flip = self.CASES[case]
        H = build()
        got = cone_iso_check(H, sign_flip=flip)
        assert got == dense_cone_iso_check(H, sign_flip=flip,
                                           with_homology=with_homology)

    def test_corrupted_cases_fail(self):
        # the oracle comparison above has power only where checks fail
        for case in ("sign_flip", "corrupted_degree_0", "corrupted_degree_-1",
                     "corrupted_degree_1"):
            build, flip = self.CASES[case]
            assert not cone_iso_check(build(), sign_flip=flip)[0], case


class TestConeIsoPower:
    """Every failure message of cone_iso_check is reached by a wrong input."""

    def failures(self, H=None, **kwargs):
        ok, failures = cone_iso_check(H or hom_complex(kronecker(seed=2)),
                                      **kwargs)
        assert not ok
        return failures

    def test_wrong_differential_fails_both_squares(self):
        failures = self.failures(corrupted(0))
        assert "cone differential squares to zero at degree -1" in failures
        assert "sum differential squares to zero at degree -1" in failures

    def test_sign_flip_fails_chain_map_and_inclusion_squares(self):
        failures = self.failures(sign_flip=True)
        assert "chain-map square at degrees (-1, 0)" in failures
        assert ("square with the truncation inclusion does not commute"
                in failures)

    def test_non_involution(self, monkeypatch):
        monkeypatch.setattr(homology, "DEG0_CHANGE_OF_BASIS", ((1, 0), (1, 1)))
        failures = self.failures()
        assert "degree-0 comparison block is not an involution" in failures

    def test_wrong_inclusion(self, monkeypatch):
        monkeypatch.setattr(homology, "INCLUSION", ((0,), (1,)))
        failures = self.failures()
        assert ("truncation inclusion is not a chain map into the cone"
                in failures)

    def test_wrong_rank_fails_homology(self, monkeypatch):
        # the oracle's homology comparison follows from the identities
        # before it, so only a wrong rank reaches it: count nonzero rows,
        # which tells the cone's (a; a) from the sum's (a; 0); the pair
        # check ranks nothing and still passes
        monkeypatch.setattr(Mat, "rank", lambda self: int(
            np.count_nonzero(np.any(self.num != 0, axis=1))))
        H = hom_complex(kronecker(seed=2))
        assert dense_cone_iso_check(H, with_homology=True) == (
            False, ["homology dimensions differ"])
        assert cone_iso_check(H) == (True, [])


class TestPairs:
    """The Kronecker pairs (A, X) of the cone identification, A (x) X."""

    def test_product_and_equality(self):
        m = Mat.from_rows([[1, 2], [3, Fraction(1, 2)]])
        E = VSComplex({0: 2}, {})
        row, col = np.array([[1, 1]]), np.array([[1], [3]])
        # (A (x) m)(B (x) m) = AB (x) m m, and the complex keeps m m
        got = homology._pair_product(E, (row, m), (col, m))
        assert got[0].tolist() == [[4]]
        assert list(E._products) == [(id(m), id(m))]
        assert got[1] is E._products[id(m), id(m)][2]
        assert homology._pair_product(E, (col, m), (row, m))[1] is got[1]
        # None is the identity of C^0 on either side and forms no product
        assert homology._pair_product(E, (row, None), (col, m))[1] is m
        assert homology._pair_product(E, (row, m), (col, None))[1] is m
        a, x = homology._pair_product(E, (row, None), (col, None))
        assert a.tolist() == [[4]] and x is None
        assert len(E._products) == 1
        # equal on one operand when (A - B) (x) X = 0
        outer = col @ row
        assert homology._pair_equal(E, (outer, m), (outer.copy(), m))
        assert not homology._pair_equal(E, (outer, m), (0 * outer, m))
        zero = Mat.zeros(2, 2)
        assert homology._pair_equal(E, (outer, zero), (0 * outer, zero))
        # None is zero only when dim C^0 = 0
        assert not homology._pair_equal(E, (outer, None), (0, None))
        assert homology._pair_equal(VSComplex({}, {}), (outer, None),
                                    (0, None))
        # distinct operands never compare equal, even with equal entries
        # or as two zero maps
        twin = Mat.from_rows([[1, 2], [3, Fraction(1, 2)]])
        assert twin == m
        assert not homology._pair_equal(E, (outer, m), (outer, twin))
        assert not homology._pair_equal(E, (outer, None),
                                        (outer, Mat.identity(2)))
        assert not homology._pair_equal(E, (outer, zero),
                                        (outer, Mat.zeros(2, 2)))

    @pytest.mark.parametrize("sign_flip", [False, True])
    def test_cone_iso_check_constructs_no_mat(self, monkeypatch, sign_flip):
        # every identity is read off integer factors and the products that
        # the construction of H formed, so no matrix is built, and no
        # identity of side dim C^0 in particular
        H = hom_complex(kronecker(seed=2, n=5))
        built = []
        init = Mat.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Mat, "__init__", counted)
        ok, failures = cone_iso_check(H, sign_flip=sign_flip)
        assert ok != sign_flip, failures
        assert built == []


class TestConeIsoProducts:
    @pytest.mark.parametrize("sign_flip", [False, True])
    def test_only_differentials_of_h_multiply_once(self, monkeypatch,
                                                   sign_flip):
        # the comparison map, the inclusion and the diagonal are integer
        # factors times the identity, so the only products the check needs
        # are of consecutive differentials of H; the d^2 = 0 check of
        # construction formed each once, and the cone identification forms
        # none; the sign flip changes an integer factor only
        E = kronecker(seed=2, n=5)
        calls = counted_products(monkeypatch)
        H = hom_complex(E)
        built = len(calls)
        ok, failures = cone_iso_check(H, sign_flip=sign_flip)
        assert ok != sign_flip, failures
        assert len(calls) == built
        diffs = [H.diff(d) for d in range(H.deg_min, H.deg_max)]
        assert [(id(a), id(b)) for a, b in calls] == [
            (id(y), id(x)) for x, y in zip(diffs, diffs[1:])]
        assert len(calls) == H.deg_max - H.deg_min - 1

    def test_replaced_differential_multiplies_again(self, monkeypatch):
        # a differential replaced after construction is a new operand, so
        # the check forms the two products that involve it, once each, and
        # reads every other product from the complex
        H = corrupted(0)
        calls = counted_products(monkeypatch)
        ok, failures = cone_iso_check(H)
        assert not ok, failures
        new = H.diff(0)
        pairs = [(id(a), id(b)) for a, b in calls]
        assert sorted(pairs) == sorted([(id(new), id(H.diff(-1))),
                                        (id(H.diff(1)), id(new))])

    def test_zero_differentials_multiply_once(self, monkeypatch):
        # every missing differential of a degree is one zero matrix, so
        # repeated checks read its products from the complex: the first
        # call forms the three pairs, the next ones form none
        H = hom_complex(zero_diff_complex())
        calls = counted_products(monkeypatch)
        sizes = []
        for _ in range(3):
            ok, failures = cone_iso_check(H)
            assert ok, failures
            sizes.append(len(H._products))
        assert sizes == [3, 3, 3]
        assert len(calls) == 3
        assert H.diff(0) is H.diff(0)


class TestGenerator:
    def test_shapes_and_determinism(self):
        E1 = random_kronecker_complex(1, 3, seed=11)
        E2 = random_kronecker_complex(1, 3, seed=11)
        assert E1.dims == {-1: 3, 0: 7, 1: 3}
        assert E1.diff(-1) == E2.diff(-1)
        assert E1.diff(0) == E2.diff(0)

    @pytest.mark.parametrize("r,n,seed,digest", [
        (1, 1, 0, "f9b0d5eefd2095a3"),
        (1, 3, 0, "9a545a6ca114545d"),
        (2, 4, 5, "d2b507b76a6dbbba"),
        (3, 7, 7, "df03fdd749a48128"),
        (1, 7, 3, "d7a41115bc469c8b"),
    ])
    def test_instance_sequence_pinned(self, r, n, seed, digest):
        # the instances depend on the nullspace basis the elimination
        # returns; these digests pin them to the sequence seen so far
        E = random_kronecker_complex(r, n, seed)
        text = repr([(E.diff(d).num.tolist(), E.diff(d).den) for d in (-1, 0)])
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest

    def test_generic_ranks(self):
        E = random_kronecker_complex(2, 4, seed=12)
        assert E.diff(-1).rank() == 4
        assert E.diff(0).rank() == 4
