"""Exact-arithmetic tests for the endomorphism-complex machinery."""

import dataclasses
import functools
import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

from ellpoisson import exact, homology
from ellpoisson.cli import main
from ellpoisson.exact import Mat, hstack, vstack
from ellpoisson.homology import (
    PiBivector,
    VSComplex,
    cone_iso_check,
    hom_complex,
    pi_bivector,
    random_kronecker_complex,
    trace_pairing,
)
from oracles import (
    dense_cone_and_sum,
    dense_cone_iso_check,
    dense_duality_t,
    dense_hom_differential,
    dense_kappa_inverse_deg_minus1,
    dense_trace_pairing,
    homology_dims,
    identity,
    mat_entry,
)


def zero_diff_complex():
    return VSComplex({-1: 2, 0: 3, 1: 2}, {})


def rational_complex():
    """The integer image of the complex with rational differentials
    phi_{-1} = (1/2, 1/3)^T and phi_0 = (2, -3): each phi_i times the lcm
    lambda_i of its denominators, which E^i times mu_i, mu_{i+1} = lambda_i
    mu_i, makes an isomorphism."""
    diffs = {}
    for i, rows in {-1: [[Fraction(1, 2)], [Fraction(1, 3)]],
                    0: [[Fraction(2), Fraction(-3)]]}.items():
        lam = math.lcm(*(v.denominator for row in rows for v in row))
        diffs[i] = [[int(v * lam) for v in row] for row in rows]
    return VSComplex({-1: 1, 0: 2, 1: 1}, diffs)


def kronecker(seed=0, r=1, n=3):
    return random_kronecker_complex(r, n, seed)


@pytest.fixture(autouse=True)
def cached_layouts():
    """Build the layouts of the shapes most tests use, so their checks run
    as the second and later instances of a run do, with the shape's layout
    cached; ``TestLayout`` covers the first, cold instance."""
    for r, n in ((1, 3), (1, 5), (1, 20)):
        homology._layout(((-1, n), (0, 2 * n + r), (1, n)),
                         homology.PROBE_SEED, homology.PROBE_COLUMNS)


class TestExactMat:
    def test_from_rows_refuses_a_fraction(self):
        # integer entries only: a Fraction, even a whole one, is refused
        for entry in (Fraction(1, 2), Fraction(2, 1)):
            with pytest.raises(TypeError, match="entries must be int"):
                Mat.from_rows([[1, entry]])
        assert Mat.from_rows([[1, -2]]).num.tolist() == [[1, -2]]

    def test_complex_refuses_a_fraction_row(self):
        with pytest.raises(TypeError, match="entries must be int"):
            VSComplex({-1: 1, 0: 2, 1: 1},
                      {-1: [[Fraction(1, 2)], [Fraction(1, 3)]],
                       0: [[2, -3]]})

    def test_big_integer_path(self):
        big = 2 ** 40
        a = Mat.from_rows([[big, big]])
        b = Mat.from_rows([[big], [big]])
        assert mat_entry(a @ b, 0, 0) == 2 * big * big

    def test_rank(self):
        m = Mat.from_rows([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
        assert m.rank() == 2

    def test_kron_identity(self):
        a = Mat.from_rows([[1, 2], [3, 4]])
        k = identity(2).kron(a)
        assert mat_entry(k, 0, 0) == 1 and mat_entry(k, 2, 2) == 1
        assert mat_entry(k, 0, 2) == 0

    @pytest.mark.parametrize("top, blas, dtype", [
        (2 ** 53 - 1, True, np.int64),
        (2 ** 53, False, np.int64),
        (2 ** 53 + 1, False, np.int64),  # not a float64 value
        (2 ** 63 - 1, False, np.int64),
        (2 ** 63, False, object),
    ], ids=["2^53-1", "2^53", "2^53+1", "2^63-1", "2^63"])
    def test_two_paths_at_the_edges(self, monkeypatch, top, blas, dtype):
        # k max|A| max|B| = top: float64 BLAS while it is below 2^53,
        # Python ints from 2^53 on, and int64 storage below 2^63; the odd
        # entries past 2^53 would round on float64
        calls = []
        product = exact._float64_product
        monkeypatch.setattr(exact, "_float64_product", lambda a, b: (
            calls.append(1), product(a, b))[1])
        A = Mat(np.array([[1], [-1]]))
        B = Mat(np.array([[top, top - 2]], dtype=object))
        got = A @ B
        assert bool(calls) == blas
        assert got.num.dtype == dtype
        assert got.num.tolist() == [[top, top - 2], [-top, 2 - top]]

    def test_storage_at_the_int64_edges(self):
        # the bound is read once: -2^63 has no int64 negation, so its
        # matrix holds objects; 2^63 - 1 stays int64
        low = Mat(np.array([[-2 ** 63, 1]], dtype=np.int64))
        assert low.num.dtype == object and low.bound == 2 ** 63
        assert low.num.tolist() == [[-2 ** 63, 1]]
        high = Mat(np.array([[2 ** 63 - 1], [-5]], dtype=np.int64))
        assert high.num.dtype == np.int64 and high.bound == 2 ** 63 - 1


def elimination_cases():
    """Seeded integer matrices of every rank, including zero, empty, wide
    and tall shapes; the second of each rank has a right factor of larger
    entries, a draw of fractions p/q, q <= 6, scaled by 60 = lcm(1..6)."""
    rng = np.random.default_rng(20)
    mats = [Mat.zeros(3, 4), Mat.zeros(0, 3), Mat.zeros(3, 0),
            Mat.from_rows([[0, 0, 5]]), identity(4)]
    for rows, cols in ((1, 1), (2, 5), (5, 2), (4, 4), (6, 9), (9, 6)):
        for rank in range(min(rows, cols) + 1):
            left = Mat(rng.integers(-4, 5, size=(rows, rank)))
            right = Mat(rng.integers(-4, 5, size=(rank, cols)))
            scaled = Mat.from_rows(
                [[int(p) * 60 // int(q) for p, q in zip(
                    rng.integers(-5, 6, size=cols),
                    rng.integers(1, 7, size=cols))] for _ in range(rank)],
                (rank, cols))
            mats += [left @ right, left @ scaled]
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
            ref = sympy.Matrix(*m.shape, [int(v) for v in m.num.flat])
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
                   above=st.booleans(), data=st.data())
        def check(k, rows, cols, bits, above, data):
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
            A, B = Mat(a), Mat(b)
            assert (k * A.bound * B.bound < 2 ** bits) != above
            prod = A @ B
            for i in range(rows):
                for j in range(cols):
                    assert mat_entry(prod, i, j) == sum(
                        mat_entry(A, i, t) * mat_entry(B, t, j)
                        for t in range(k))

        check()

    @pytest.mark.parametrize("bits,products,dtype", [
        (52, 1, np.int64),   # one float64 product
        (53, 1, np.int64),   # k max|A| max|B| = 2^53 - 2^26, still float64
        (54, 0, np.int64),   # past 2^53: objects, and the result fits int64
        (62, 0, np.int64),
        (64, 0, object),     # the result is past 2^63
        (100, 0, object),
    ])
    def test_product_paths_by_bound(self, monkeypatch, bits, products,
                                    dtype):
        # k = 64 rows of +-top against a 2^20 operand: the bound
        # k max|A| max|B| is 2^bits - 2^26, and the first column of the
        # product reaches it, so it is past 2^63 from 64 bits on
        calls = []
        product = exact._float64_product
        monkeypatch.setattr(exact, "_float64_product", lambda a, b: (
            calls.append(1), product(a, b))[1])
        top = 2 ** (bits - 26) - 1
        signs = np.where(np.arange(64) % 3, 1, -1)
        A = Mat(np.full((2, 64), 2 ** 20, dtype=np.int64))
        B = Mat(np.array([[top, top // 3 * int(s)] for s in signs],
                         dtype=object))
        got = A @ B
        assert len(calls) == products
        assert got.num.dtype == dtype
        assert got.num.tolist() == (exact._to_object_int(A.num)
                                    @ exact._to_object_int(B.num)).tolist()

    def test_object_products_where_limbs_cannot_help(self, monkeypatch):
        # past 2^53 a product runs on objects and never on float64, however
        # far past: 2^103 for k = 2, and 2^200 against small entries
        monkeypatch.setattr(exact, "_float64_product", None)
        wide = Mat(np.full((1, 2), 2 ** 51, dtype=np.int64))
        assert mat_entry(wide @ wide.T, 0, 0) == 2 ** 103
        narrow = Mat(np.array([[2 ** 200, 3]], dtype=object))
        assert mat_entry(narrow @ Mat(np.array([[5], [7]])), 0, 0) == (
            5 * 2 ** 200 + 21)

    def test_storage_bound_operations_agree_with_fractions(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        # largest entries at which sums and Kronecker products cross 2^63,
        # and their neighbours, with 2^63 // 3 among them
        tops = [v + e for v in (2 ** 62, 2 ** 63 // 3, math.isqrt(2 ** 63))
                for e in (-1, 0, 1)] + [2 ** 63 - 1, 2 ** 61]

        def fractions(m):
            return [[mat_entry(m, i, j) for j in range(m.shape[1])]
                    for i in range(m.shape[0])]

        def stored(m):
            # int64 exactly while every numerator fits
            return m.num.dtype == (object if m.bound >= 2 ** 63 else np.int64)

        @hyp.settings(max_examples=300, deadline=None)
        @hyp.given(rows=st.integers(1, 3), cols=st.integers(1, 3),
                   tops=st.tuples(st.sampled_from(tops),
                                  st.sampled_from(tops)),
                   data=st.data())
        def check(rows, cols, tops, data):
            nums = []
            for top in tops:
                entry = st.one_of(st.sampled_from((top, -top)),
                                  st.integers(-top, top))
                num = np.array(data.draw(st.lists(
                    entry, min_size=rows * cols, max_size=rows * cols)),
                    dtype=object).reshape(rows, cols)
                num[0, 0] = top * data.draw(st.sampled_from((1, -1)))
                nums.append(num)
            A, B = Mat(nums[0]), Mat(nums[1])
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
        # the sign -(-1)^d of f_{i+1} phi_i is the only sign the writer
        # puts in; without it the complex's d^2 = 0 check fires
        hom_complex(random_kronecker_complex(1, 3, 0))
        monkeypatch.setattr(homology, "_hom_sign", lambda d: 1)
        with pytest.raises(ValueError, match="do not compose to zero"):
            hom_complex(random_kronecker_complex(1, 3, 0))

    @pytest.mark.parametrize("degree", [-2, -1, 0, 1])
    def test_probe_sees_a_wrong_entry(self, monkeypatch, degree):
        # the probe columns have no zero entry, so one entry written wrong
        # anywhere in an assembled differential changes its image
        assemble = homology.HomComplex._assemble_diff
        rng = np.random.default_rng(degree + 10)
        for _ in range(3):
            where = []

            def wrong(self, d):
                m = assemble(self, d)
                if d != degree:
                    return m
                num = m.num.copy()
                where.append(tuple(rng.integers(0, num.shape)))
                num[where[-1]] += 1
                return Mat(num)

            monkeypatch.setattr(homology.HomComplex, "_assemble_diff", wrong)
            with pytest.raises(ValueError, match=f"differential at degree "
                               f"{degree} does not match its Kronecker"):
                hom_complex(kronecker(seed=1))
            assert len(where) == 1

    def test_probe_sees_a_wrong_sign(self, monkeypatch):
        # the writer and the factor check read the same _hom_sign; a writer
        # that negates a whole differential still squares to zero, and only
        # the probe sees it
        assemble = homology.HomComplex._assemble_diff
        monkeypatch.setattr(homology.HomComplex, "_assemble_diff",
                            lambda self, d: -assemble(self, d) if d == 0
                            else assemble(self, d))
        with pytest.raises(ValueError, match="degree 0 does not match"):
            hom_complex(kronecker(seed=1))

    def test_read_only_after_construction(self):
        # d^2 = 0 is proved once, at construction, and nothing changes a
        # complex after it: neither its mappings nor their entries
        E = kronecker(seed=1)
        H = hom_complex(E)
        with pytest.raises(TypeError):
            E.diffs[0] = E.diff(0)
        with pytest.raises(TypeError):
            E.dims[0] = 1
        with pytest.raises(TypeError):
            del H.diffs[0]
        # a read-only mapping has no update method at all
        with pytest.raises(AttributeError, match="update"):
            H.diffs.update({0: -H.diff(0)})
        for name, value in (("diffs", {}), ("source", E), ("deg_max", 0)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(H, name, value)
        with pytest.raises(AttributeError):
            H.blocks(0).append(H.blocks(0)[0])
        with pytest.raises(ValueError, match="read-only"):
            H.diff(0).num[0, 0] += 1
        assert (H.diff(1) @ H.diff(0)).is_zero()

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


class TestLayout:
    """What depends on E's dimension vector alone is built once per shape
    and shared, read-only, by every complex of that shape."""

    def test_one_layout_per_shape(self, capsys):
        homology._layout.cache_clear()
        assert main(["homology", "--n", "4", "--samples", "20"]) == 0
        info = homology._layout.cache_info()
        assert (info.misses, info.hits) == (1, 19)
        assert main(["homology", "--n", "4", "--samples", "3", "--r",
                     "2"]) == 0
        assert homology._layout.cache_info().misses == 2
        capsys.readouterr()

    def test_instances_of_one_shape_share_it(self):
        H, G = hom_complex(kronecker(seed=1)), hom_complex(kronecker(seed=2))
        assert H._layout is G._layout
        for d in range(H.deg_min, H.deg_max + 1):
            assert all(a is b for a, b in zip(trace_pairing(H, d),
                                              trace_pairing(G, d)))
        assert H.blocks(0) is G.blocks(0)

    def test_shared_arrays_are_read_only(self):
        H = hom_complex(kronecker(seed=1, r=2, n=4))
        layout = H._layout
        # every array the layout shares, the entries of its Mats included
        arrays = [layout.cut, layout.left_at, layout.right_at,
                  layout.probe.num, layout.probe_eps.num,
                  *(m.num for m in layout.columns),
                  *(a for pair in layout.pairing.values() for a in pair),
                  *homology._NO_PAIRING]
        assert len(arrays) > 20
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0
        for table in (H._layout.blocks, H._layout.start, H._layout.pairing):
            with pytest.raises(TypeError):
                table[0] = None
        with pytest.raises(dataclasses.FrozenInstanceError):
            H._layout.size = 0

    def test_same_size_different_shapes(self):
        # dims (3, 8, 3) and (2, 10, 2): End(E) has size 14 for both, and
        # each gets its own layout
        one = hom_complex(random_kronecker_complex(2, 3, 0))
        two = hom_complex(random_kronecker_complex(6, 2, 0))
        assert one._layout.size == two._layout.size == 14
        assert one._layout is not two._layout
        assert one.dim(0) != two.dim(0)
        for H in (one, two):
            assert cone_iso_check(H) == (True, [])
            pi = pi_bivector(H)
            assert pi.antisymmetry_ok() and pi.chain_map_ok(H)

    def test_key_covers_the_probe_constants(self, monkeypatch):
        # a probe of another seed or width is another layout, and the
        # checks pass with it
        E = kronecker(seed=3)
        base = hom_complex(E)._layout
        built = {}
        for name, value in (("PROBE_SEED", 5), ("PROBE_COLUMNS", 3)):
            with monkeypatch.context() as m:
                m.setattr(homology, name, value)
                built[name] = hom_complex(E)
            assert built[name]._layout is not base
            assert cone_iso_check(built[name]) == (True, [])
        assert not np.array_equal(built["PROBE_SEED"]._layout.probe.num,
                                  base.probe.num)
        assert built["PROBE_COLUMNS"]._layout.left_at.shape[1] == 3
        assert hom_complex(E)._layout is base

    def test_cold_and_cached_runs_form_the_same_products(self, monkeypatch,
                                                         capsys):
        # building a layout multiplies nothing, so a job forms the same 8
        # products whether its shape's layout is cached or not
        counts = []
        for clear in (True, False):
            if clear:
                homology._layout.cache_clear()
            calls = counted_products(monkeypatch)
            assert main(["homology", "--n", "5", "--samples", "1"]) == 0
            counts.append(len(calls))
            monkeypatch.undo()
        assert counts == [8, 8]
        capsys.readouterr()


def big_complex():
    """Entries at and past 2^63, so every differential holds objects."""
    return VSComplex({-1: 1, 0: 2, 1: 1},
                     {-1: [[2 ** 63], [2 ** 64 + 1]],
                      0: [[2 ** 64 + 1, -(2 ** 63)]]})


def scaled_past_int64_complex():
    """An int64 phi_{-1} that meets a phi_0 of entries +-2^63 in one block
    row of an assembled differential, which then holds objects."""
    return VSComplex({-1: 1, 0: 2, 1: 1},
                     {-1: [[1], [1]], 0: [[2 ** 63, -(2 ** 63)]]})


def differential_cases():
    cases = {f"n{n}_r{r}_seed{seed}": (lambda n=n, r=r, seed=seed:
                                       random_kronecker_complex(r, n, seed))
             for n in range(1, 7) for r in range(1, 4) for seed in (0, 9)}
    cases.update(rational=rational_complex, zero=zero_diff_complex,
                 big=big_complex, scaled=scaled_past_int64_complex,
                 two_term=lambda: VSComplex({0: 2, 1: 3},
                                            {0: [[1, 2], [0, 1], [4, 0]]}))
    return cases


class TestAssembledDifferentials:
    """The in-place writer against the dense Kronecker products, stacked."""

    @pytest.mark.parametrize("case", sorted(differential_cases()))
    def test_matches_dense_kron(self, case):
        H = hom_complex(differential_cases()[case]())
        for d in range(H.deg_min, H.deg_max):
            got = H._assemble_diff(d)
            want = dense_hom_differential(H, d)
            assert same_bytes(got, want), d
            assert got.bound == want.bound
            assert same_bytes(H.diff(d), want)

    def test_object_and_rational_cases_reach_their_paths(self):
        # power of the comparison above: both storages, and an int64
        # differential promoted where it meets an object one
        H = hom_complex(big_complex())
        assert H.diff(0).num.dtype == object
        E = scaled_past_int64_complex()
        assert E.diff(-1).num.dtype == np.int64
        assert E.diff(0).num.dtype == object
        H = hom_complex(E)
        assert all(H.diff(d).num.dtype == object
                   for d in range(H.deg_min, H.deg_max))
        assert hom_complex(kronecker()).diff(0).num.dtype == np.int64

    def test_wrong_block_is_seen(self):
        # the comparison has power: one entry off in the writer's output
        H = hom_complex(kronecker(seed=1))
        m = H._assemble_diff(0)
        num = m.num.copy()
        num[-1, -1] += 1
        assert not same_bytes(Mat(num), dense_hom_differential(H, 0))


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
            and a.num.tolist() == b.num.tolist())


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
        assert t @ t == identity(H.dim(0))

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


def adjoint_defects(H, diff, pairing) -> list:
    """The degrees j at which P_j (d^j)^T = (-1)^j d^{-j-1} P_{j+1} fails,
    by dense products, for the differentials diff(j) and the matrices
    pairing(j) of the trace pairing C^j -> C^{-j}."""
    bad = []
    for j in range(H.deg_min, H.deg_max):
        rhs = diff(-j - 1) @ pairing(j + 1)
        if not pairing(j) @ diff(j).T == (-rhs if j % 2 else rhs):
            bad.append(j)
    return bad


def package_pairing(H):
    """C^j -> C^{-j} as a dense matrix of ``trace_pairing``, read when
    called."""
    return lambda j: pairing_matrix(*homology.trace_pairing(H, j),
                                    H.dim(-j)).T


ADJOINT_CASES = {**{f"kronecker_{seed}": (lambda seed=seed: kronecker(
    seed=seed)) for seed in range(5)},
    "rational": rational_complex, "zero_differential": zero_diff_complex}


class TestAdjointness:
    """The trace pairing is adjoint to the differential, which reduces both
    identities of ``chain_map_ok`` to d^2 = 0."""

    @pytest.mark.parametrize("case", sorted(ADJOINT_CASES))
    def test_holds_at_every_degree(self, case):
        H = hom_complex(ADJOINT_CASES[case]())
        assert H.deg_max - H.deg_min == 4
        dense = functools.partial(dense_hom_differential, H)
        assert adjoint_defects(H, dense, functools.partial(
            dense_trace_pairing, H)) == []
        for j in range(H.deg_min, H.deg_max + 1):
            assert same_bytes(package_pairing(H)(j), dense_trace_pairing(H, j))
        assert adjoint_defects(H, H.diff, package_pairing(H)) == []
        # the gathered form that chain_map_ok reads
        for j in range(H.deg_min, H.deg_max):
            assert homology._paired(H, j).T == homology._paired(H, -j - 1)

    def test_unsigned_differential_fails(self, monkeypatch):
        # a complex is read-only once built, so the unsigned one is built
        # with the check that refuses it switched off
        monkeypatch.setattr(homology, "_hom_sign", lambda d: 1)
        monkeypatch.setattr(homology.HomComplex, "_check_squares",
                            lambda self: None)
        H = hom_complex(kronecker(seed=0))
        assert adjoint_defects(H, H.diff, package_pairing(H)) != []
        assert any(not homology._paired(H, j).T == homology._paired(H, -j - 1)
                   for j in range(H.deg_min, H.deg_max))

    def test_sign_flipped_pairing_fails(self, monkeypatch):
        # the sign of block i + d of C^{-d} in place of block i of C^d
        # flips it at odd d, so one side of each identity changes sign
        H = hom_complex(kronecker(seed=0))
        pairing = homology.trace_pairing

        def flipped(H, d):
            partner, sign = pairing(H, d)
            return partner, -sign if d % 2 else sign

        monkeypatch.setattr(homology, "trace_pairing", flipped)
        assert adjoint_defects(H, H.diff, package_pairing(H)) == list(
            range(H.deg_min, H.deg_max))
        assert not pi_bivector(H).chain_map_ok(H)


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
        assert j @ j.T == identity(H.dim(-1))

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
        num[0, 0] += 1
        assert not PiBivector(Mat(num), pi.partner).chain_map_ok(H)
        partner, sign = trace_pairing(H, 1)
        num = H.diff(-1).num
        permuted = Mat(num[:, np.roll(partner, 1)] * -sign)
        assert not PiBivector(permuted, pi.partner).chain_map_ok(H)
        unsigned = PiBivector(Mat(num[:, partner] * sign), pi.partner)
        assert unsigned.chain_map_ok(H)
        assert not unsigned.antisymmetry_ok()

    def test_no_products(self, monkeypatch):
        H = hom_complex(kronecker(seed=2, n=5))
        calls = counted_products(monkeypatch)
        pi = pi_bivector(H)
        assert pi.antisymmetry_ok() and pi.chain_map_ok(H)
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
        # the isomorphism the package check proves, seen in homology: the
        # dense cone and sum have equal homology dimensions by exact rank
        H = hom_complex(kronecker(seed=2))
        ok, failures = cone_iso_check(H)
        assert ok, failures
        dims, d_cone, d_sum, _ = dense_cone_and_sum(H, False)
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
        # through the integer image of the rational complex
        E = rational_complex()
        assert E.diff(-1).num.tolist() == [[3], [2]]
        H = hom_complex(E)
        ok, failures = cone_iso_check(H)
        assert ok, failures
        assert pi_bivector(H).antisymmetry_ok()


class TestConeIsoOracle:
    """The identities on integer factors against the dense 2 dim C^0
    matrices; with ``with_homology`` the oracle also compares the homology
    dimensions of the dense cone and sum, which the package check leaves to
    the isomorphism it proves."""

    CASES = {
        **{f"kronecker_{seed}": (lambda seed=seed: hom_complex(
            kronecker(seed=seed)), False) for seed in range(5)},
        "zero_differential": (lambda: hom_complex(zero_diff_complex()), False),
        "rational": (lambda: hom_complex(rational_complex()), False),
        "sign_flip": (lambda: hom_complex(kronecker(seed=1)), True),
        "zero_complex_sign_flip": (lambda: hom_complex(VSComplex({}, {})),
                                   True),
        "zero_differential_sign_flip": (
            lambda: hom_complex(zero_diff_complex()), True),
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
        # the oracle comparison above has power only where checks fail; a
        # constructed H is read-only, so the comparison map is what is
        # corrupted
        build, flip = self.CASES["sign_flip"]
        assert not cone_iso_check(build(), sign_flip=flip)[0]

    def test_zero_operands_hold(self):
        # with every differential of H zero, only the identities on the
        # identity of C^0 can fail, and the sign flip breaks one of them
        build, flip = self.CASES["zero_differential_sign_flip"]
        assert cone_iso_check(build(), sign_flip=flip) == (
            False, ["square with the truncation inclusion does not commute"])


class TestConeIsoPower:
    """Every failure message of cone_iso_check is reached by a wrong input."""

    def failures(self, **kwargs):
        ok, failures = cone_iso_check(hom_complex(kronecker(seed=2)), **kwargs)
        assert not ok
        return failures

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
        # which tells the cone's (a; a) from the sum's (a; 0); the package
        # check ranks nothing and still passes
        monkeypatch.setattr(Mat, "rank", lambda self: int(
            np.count_nonzero(np.any(self.num != 0, axis=1))))
        H = hom_complex(kronecker(seed=2))
        assert dense_cone_iso_check(H, with_homology=True) == (
            False, ["homology dimensions differ"])
        assert cone_iso_check(H) == (True, [])


class TestConeIsoProducts:
    @pytest.mark.parametrize("sign_flip", [False, True])
    def test_cone_iso_check_constructs_no_mat(self, monkeypatch, sign_flip):
        # every identity is read off integer factors and whether its
        # operand is zero, so no matrix is built, and no identity of side
        # dim C^0 in particular
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

    @pytest.mark.parametrize("sign_flip", [False, True])
    def test_no_two_differentials_of_h_multiply(self, monkeypatch,
                                                sign_flip):
        # H proves d^2 = 0 on the factors of E, so its construction
        # multiplies a differential of H only by the probe's columns, and
        # the cone identification, which asks of a differential only
        # whether it is zero, forms no product; the sign flip changes an
        # integer factor only
        E = kronecker(seed=2, n=5)
        calls = counted_products(monkeypatch)
        H = hom_complex(E)
        diffs = [H.diff(d) for d in range(H.deg_min, H.deg_max)]
        assert not any(a is x and b is y for a, b in calls
                       for x in diffs for y in diffs)
        assert [(a, b.shape) for a, b in calls if any(a is x for x in diffs)
                ] == [(x, (x.shape[1], homology.PROBE_COLUMNS))
                      for x in diffs]
        built = len(calls)
        ok, failures = cone_iso_check(H, sign_flip=sign_flip)
        assert ok != sign_flip, failures
        assert len(calls) == built


class TestObjectPath:
    """A real instance past both bounds: at n = 20 the differentials of E
    have 55-bit entries, so the probe products pass 2^53 and 2^63 and run
    on Python ints, while every array stays int64."""

    @pytest.fixture(scope="class")
    def E(self):
        return random_kronecker_complex(1, 20, 0)

    def test_checks_pass_on_objects(self, E, monkeypatch):
        bounds = []
        matmul = Mat.__matmul__

        def counted(self, other):
            bounds.append((other.shape[1], self.shape[1] * self.bound
                           * other.bound))
            return matmul(self, other)

        monkeypatch.setattr(Mat, "__matmul__", counted)
        H = hom_complex(E)
        assert E.diff(0).bound.bit_length() == 55
        probes = [b for cols, b in bounds if cols == homology.PROBE_COLUMNS]
        assert len(probes) == H.deg_max - H.deg_min
        assert max(probes) >= 2 ** 63
        assert all(H.diff(d).num.dtype == np.int64 for d in H.diffs)
        ok, failures = cone_iso_check(H)
        assert ok, failures
        pi = pi_bivector(H)
        assert pi.antisymmetry_ok() and pi.chain_map_ok(H)
        assert not cone_iso_check(H, sign_flip=True)[0]

    def test_unsigned_differential_fails(self, E, monkeypatch):
        monkeypatch.setattr(homology, "_hom_sign", lambda d: 1)
        with pytest.raises(ValueError, match="do not compose to zero"):
            hom_complex(E)

    def test_probe_sees_a_wrong_entry(self, E, monkeypatch):
        assemble = homology.HomComplex._assemble_diff

        def wrong(self, d):
            m = assemble(self, d)
            if d:
                return m
            num = m.num.copy()
            num[-1, -1] += 1
            return Mat(num)

        monkeypatch.setattr(homology.HomComplex, "_assemble_diff", wrong)
        with pytest.raises(ValueError, match="degree 0 does not match"):
            hom_complex(E)


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
        # each digest hashes the entries with the denominator 1 that a
        # matrix carried when they were pinned
        text = repr([(E.diff(d).num.tolist(), 1) for d in (-1, 0)])
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest

    def test_generic_ranks(self):
        E = random_kronecker_complex(2, 4, seed=12)
        assert E.diff(-1).rank() == 4
        assert E.diff(0).rank() == 4

    def test_rank_of_r_decides(self, monkeypatch):
        # each row of the nullspace N has its pivot at its own free column
        # and zeros at the others, so rank(R N) = rank(R) for every draw R,
        # accepted or not; the generator ranks R alone and forms R N once
        rejected = 0
        for r, n in ((1, 1), (1, 2), (2, 3), (3, 4)):
            for seed in range(25):
                rng = np.random.default_rng(seed)
                mid = 2 * n + r
                while True:
                    phi0 = Mat(rng.integers(-3, 4, size=(mid, n)))
                    null_rows = phi0.T.nullspace()
                    if mid - null_rows.shape[0] < n:
                        continue
                    R = Mat(rng.integers(-2, 3, size=(n, null_rows.shape[0])))
                    assert R.rank() == (R @ null_rows).rank()
                    if R.rank() == n:
                        break
                    rejected += 1
                calls = counted_products(monkeypatch)
                E = random_kronecker_complex(r, n, seed)
                # R N, then E's own d^2 = 0 check
                assert len(calls) == 2
                monkeypatch.undo()
                assert E.diff(0) == R @ null_rows
        assert rejected > 0
        # two equal rows: both ranks fall below n together
        phi0 = Mat(np.array([[1, 0], [0, 1], [1, 1], [2, -1], [0, 3]]))
        null_rows = phi0.T.nullspace()
        R = Mat(np.array([[1, -2, 0], [1, -2, 0]]))
        assert R.rank() == (R @ null_rows).rank() == 1
