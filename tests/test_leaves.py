"""Tests for leaf-dimension combinatorics and the divisor constraint."""

import numpy as np
import pytest

from ellpoisson.leaves import (
    DivisorDatum,
    LeafRecord,
    TorsionType,
    classical_cubic_rows,
    divisor_constraint,
    end_dim_local,
    end_dim_sheaf,
    enumerate_strata,
)
from ellpoisson.theta import CurveParams
from oracles import leaf_dimension, stratum_counts

PARAMS = CurveParams(0.3 + 0.8j, 3)


def describe_oracle(points):
    """``(j^r, ...) + ...`` written out from the canonical points."""
    if not points:
        return "0"
    return " + ".join(
        "(" + ", ".join(f"{j}^{r}" if r > 1 else str(j) for j, r in local)
        + ")" for local in points)


def multipartition_numbers(count):
    """Coefficients of prod_k (1 - x^k)^(-p(k)) up to x^count.

    The Euler transform of the partition numbers p(k): b(m) is the sum of
    d p(d) over the divisors d of m, and m a(m) = sum_k b(k) a(m - k).
    """
    p = [1] + [0] * count
    for part in range(1, count + 1):
        for m in range(part, count + 1):
            p[m] += p[m - part]
    b = [sum(d * p[d] for d in range(1, m + 1) if m % d == 0)
         for m in range(count + 1)]
    a = [1]
    for m in range(1, count + 1):
        a.append(sum(b[k] * a[m - k] for k in range(1, m + 1)) // m)
    return a


class TestEndDim:
    def test_reduced_point(self):
        assert end_dim_local({1: 1}) == 1

    def test_two_copies(self):
        assert end_dim_local({1: 2}) == 4

    def test_length_two_indecomposable(self):
        assert end_dim_local({2: 1}) == 2

    def test_mixed_type(self):
        # parts 2 and 1: min(2,2) + 2*min(1,2) + min(1,1) = 5
        assert end_dim_local({2: 1, 1: 1}) == 5

    def test_sheaf_dimensions(self):
        assert end_dim_sheaf(TorsionType(())) == 1
        assert end_dim_sheaf(TorsionType(({1: 1},))) == 3
        assert end_dim_sheaf(TorsionType(({1: 2},))) == 7

    def test_record_carries_sheaf_end_dim(self):
        # the leaves command reads end_dim_sheaf off the record
        for n in range(1, 9):
            for rec in enumerate_strata(n):
                assert (1 + rec.l + rec.end_dim_torsion
                        == end_dim_sheaf(rec.torsion))

    def test_lower_bound_all_small_types(self):
        for rec in enumerate_strata(6):
            assert end_dim_sheaf(rec.torsion) >= 2 * rec.l + 1


class TestLeafDimension:
    def test_known_three_point_values(self):
        assert leaf_dimension(3, TorsionType(())).expected_dim == 6
        assert leaf_dimension(3, TorsionType(({1: 1}, {1: 1}))).expected_dim == 2
        assert leaf_dimension(3, TorsionType(({1: 2},))).expected_dim == 0

    def test_length_cap(self):
        with pytest.raises(ValueError):
            leaf_dimension(2, TorsionType(({1: 3},)))

    def test_infeasible_type_flagged(self):
        rec = leaf_dimension(3, TorsionType(({1: 3},)))
        assert rec.end_dim_torsion == 9
        assert rec.expected_dim == -6
        assert not rec.feasible

    def test_upper_bound_for_feasible(self):
        for n in range(1, 7):
            for rec in enumerate_strata(n):
                if rec.feasible:
                    assert 0 <= rec.expected_dim <= 2 * n - 2 * rec.l


class TestEnumeration:
    def test_single_point_scheme(self):
        rows = [(rec.l, rec.expected_dim) for rec in enumerate_strata(1)]
        assert rows == [(0, 2), (1, 0)]

    def test_three_points_contains_classical_rows(self):
        records = enumerate_strata(3)
        tagged = classical_cubic_rows(records)
        values = sorted((rec.l, rec.expected_dim) for rec in tagged)
        assert values == [(0, 6), (1, 4), (2, 0), (2, 2), (3, 0)]

    def test_doubled_point_emitted_separately(self):
        # the length-2 indecomposable at one point is its own record
        records = enumerate_strata(3)
        doubled = [rec for rec in records if rec.torsion == TorsionType(({2: 1},))]
        assert len(doubled) == 1
        assert doubled[0].expected_dim == 2

    def test_types_are_isomorphism_classes(self):
        # points are unlabeled: one record for two reduced points
        records = enumerate_strata(2)
        two_reduced = [rec for rec in records
                       if rec.torsion == TorsionType(({1: 1}, {1: 1}))]
        assert len(two_reduced) == 1

    def test_counts_by_length(self):
        # multisets of partitions: 1, 1, 3, 6 for lengths 0..3
        records = enumerate_strata(3)
        by_l = {}
        for rec in records:
            by_l[rec.l] = by_l.get(rec.l, 0) + 1
        assert by_l == {0: 1, 1: 1, 2: 3, 3: 6}

    def test_records_match_leaf_dimension(self):
        # each record is rebuilt from a scrambled dict form, which the
        # validating constructor puts back in canonical order
        for n in range(1, 11):
            records = enumerate_strata(n)
            for rec in records:
                points = tuple(dict(reversed(local))
                               for local in reversed(rec.torsion.points))
                oracle = leaf_dimension(n, TorsionType(points))
                assert rec == oracle
                assert (rec.torsion.describe()
                        == describe_oracle(oracle.torsion.points))
            keys = [(rec.l, -rec.expected_dim, rec.torsion.points)
                    for rec in records]
            assert keys == sorted(set(keys))

    def test_counts_are_multipartition_numbers(self):
        counts = multipartition_numbers(13)
        assert counts == [1, 1, 3, 6, 14, 27, 58, 111, 223, 424, 817, 1527,
                          2870, 5279]
        for n in (1, 6, 13):
            by_l = [0] * (n + 1)
            for rec in enumerate_strata(n):
                by_l[rec.l] += 1
            assert by_l == counts[:n + 1]
        assert sum(counts) == 11361


def counts_of(records, n):
    counts = np.zeros((n + 1, n * n + 1), dtype=np.int64)
    for rec in records:
        counts[rec.l, rec.end_dim_torsion] += 1
    return counts


class TestStratumCounts:
    """The records of each length l and torsion end_dim e against the
    coefficients of prod_lambda (1 - x^|lambda| y^e(lambda))^-1."""

    @pytest.mark.parametrize("n", [6, 9, 12, 13])
    def test_match_the_generating_function(self, n):
        want = stratum_counts(n)
        assert np.array_equal(counts_of(enumerate_strata(n), n), want)
        # y = 1 gives the multipartition numbers
        assert want.sum(axis=1).tolist() == multipartition_numbers(n)
        # below l = 2 each part of a single point has e = 1, 3, 5, ...
        assert np.flatnonzero(want[1]).tolist() == [1]

    def test_a_dropped_record_or_a_shifted_end_dim_fails(self):
        n = 9
        records = enumerate_strata(n)
        want = stratum_counts(n)
        for k in (0, 1, len(records) // 2, len(records) - 1):
            assert not np.array_equal(
                counts_of(records[:k] + records[k + 1:], n), want)
            rec = records[k]
            step = 1 if rec.end_dim_torsion < n * n else -1
            shifted = LeafRecord(rec.torsion, rec.l,
                                 rec.end_dim_torsion + step,
                                 rec.expected_dim - step, rec.feasible)
            assert not np.array_equal(
                counts_of(records[:k] + [shifted] + records[k + 1:], n), want)


class TestDivisorConstraint:
    def test_trivial_match(self):
        d = DivisorDatum([(0.1 + 0.2j, 1), (0.4, 1)])
        ok, defect = divisor_constraint(3, 0.0, d, d, PARAMS)
        assert ok and defect < 1e-15

    def test_constructed_instance(self):
        rng = np.random.default_rng(3)
        n, eta = 3, 0.05 + 0.02j
        pts = [complex(u, v) for u, v in rng.random((3, 2))]
        d = DivisorDatum([(p, 1) for p in pts])
        shift = -3 * n * eta
        z = DivisorDatum([(pts[0] + shift, 1)] + [(p, 1) for p in pts[1:]])
        ok, defect = divisor_constraint(n, eta, d, z, PARAMS)
        assert ok and defect < 1e-12

    def test_perturbation_detected(self):
        n, eta = 3, 0.05 + 0.02j
        pts = [0.1 + 0.1j, 0.3 + 0.2j]
        d = DivisorDatum([(p, 1) for p in pts])
        z = DivisorDatum([(pts[0] - 3 * n * eta + 0.01, 1), (pts[1], 1)])
        ok, defect = divisor_constraint(n, eta, d, z, PARAMS)
        assert not ok
        assert abs(defect - 0.01) < 1e-12

    def test_lattice_translation_invariance(self):
        n, eta = 2, 0.03
        d = DivisorDatum([(0.2, 1), (0.5 + 0.1j, 1)])
        z = DivisorDatum([(0.2 - 6 * eta, 1), (0.5 + 0.1j, 1)])
        ok, _ = divisor_constraint(n, eta, d, z, PARAMS)
        tau = PARAMS.tau
        d2 = DivisorDatum([(p + 2 - 3 * tau, m) for p, m in d.points])
        z2 = DivisorDatum([(p - 1 + tau, m) for p, m in z.points])
        ok2, _ = divisor_constraint(n, eta, d2, z2, PARAMS)
        assert ok and ok2

    def test_degree_mismatch_rejected(self):
        d = DivisorDatum([(0.2, 1)])
        z = DivisorDatum([(0.2, 2)])
        with pytest.raises(ValueError):
            divisor_constraint(1, 0.0, d, z, PARAMS)
