"""Tests for leaf-dimension combinatorics and the divisor constraint."""

import numpy as np
import pytest

from ellpoisson.leaves import (
    DivisorDatum,
    TorsionType,
    classical_cubic_rows,
    divisor_constraint,
    end_dim_local,
    end_dim_sheaf,
    enumerate_strata,
    kronecker_dims,
    leaf_dimension,
)
from ellpoisson.theta import CurveParams

PARAMS = CurveParams(0.3 + 0.8j, 3)


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


class TestKroneckerDims:
    def test_values(self):
        assert kronecker_dims(1, 3) == (3, 7, 3)
        assert kronecker_dims(2, 0) == (0, 2, 0)
        assert kronecker_dims(3, 5) == (5, 13, 5)

    def test_nonzero_degree_rejected(self):
        with pytest.raises(ValueError):
            kronecker_dims(1, 3, d=1)
