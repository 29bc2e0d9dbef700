"""Tests for the relation tensor, F table and semiclassical limit."""

import hashlib
import math

import numpy as np
import pytest

import ellpoisson.fo as fo
from ellpoisson.errors import DegenerateEtaError, ThetaRangeError
from ellpoisson.fo import (
    f_constants,
    fo_relations,
    semiclassical_from_relations,
    single_eta_bracket,
    sklyanin_bracket,
)
from ellpoisson.poisson import QuadraticBracket, hn_canonical_extract
from ellpoisson.theta import CurveParams, ThetaBasis, theta_alpha_eval
from oracles import coefficient_table, pair_coeffs


def basis(n, tau=1j):
    return ThetaBasis(CurveParams(tau, n))


def relative_deviation(b, k):
    ref = sklyanin_bracket(b, k)
    est, _ = semiclassical_from_relations(b, k)
    return est.max_difference(ref) / ref.max_abs()


class TestFConstants:
    def test_f00_is_zero(self):
        f = f_constants(basis(3))
        assert f[0, 0] == 0

    def test_antidiagonal_vanishes(self):
        # alpha + beta = 0 makes the numerator theta_0(0) = 0
        f = f_constants(basis(3))
        assert f[1, 2] == 0

    def test_refused_beyond_double_range(self):
        # |theta_alpha(0)| reaches exp(360) at n = 23, tau = 20i, so the
        # denominators theta_a(0) theta_b(0) would overflow; the refusal
        # comes before any product is formed (a RuntimeWarning would fail)
        with pytest.raises(ThetaRangeError, match=r"may reach exp\(721\)"):
            f_constants(basis(23, 20j))

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_symmetries(self, n):
        t = f_constants(basis(n))
        assert np.max(np.abs(t - t.T)) < 1e-10
        idx = np.arange(n)
        neg = t[np.ix_((-idx) % n, (-idx) % n)]
        scale = np.max(np.abs(t))
        assert np.max(np.abs(t + neg)) < 1e-10 * scale

    @pytest.mark.parametrize("n, tau", [
        (3, 1j), (8, 0.3 + 0.8j), (31, 0.3 + 0.8j), (3, 0.025 + 1e-5j),
        (7, 0.025 + 1.6e-5j), (13, 0.025 + 1e-5j)])
    def test_symmetric_to_the_bit(self, n, tau):
        # the residue routes read F(c - e, e) off the table of F(e, c - e)
        t = f_constants(basis(n, tau))
        assert t.tobytes() == np.ascontiguousarray(t.T).tobytes()

    @pytest.mark.parametrize("n", [3, 5, 8, 13])
    @pytest.mark.parametrize("tau", [1j, 0.3 + 0.8j, 0.5j])
    def test_equals_scalar_formula_to_the_bit(self, n, tau):
        # entry by entry in scalar arithmetic, the reference for the
        # report's f_table
        b = basis(n, tau)
        th = b.theta_at_zero
        dth = b.dtheta_at_zero
        ref = np.zeros((n, n), dtype=complex)
        for a in range(1, n):
            ref[0, a] = ref[a, 0] = dth[a] / th[a] - 1j * math.pi * n
            for c in range(1, n):
                ref[a, c] = dth[0] * th[(a + c) % n] / (th[a] * th[c])
        assert f_constants(b).tobytes() == ref.tobytes()

    def test_large_n_small_raw_values_accepted(self):
        # theta_alpha(0) spans many orders of magnitude at n = 23, tau = 2i;
        # the basis checks them without the exponential factor, and the
        # table still equals the canonical form of the closed form
        b = basis(23, 2j)
        f = f_constants(b)
        h = hn_canonical_extract(sklyanin_bracket(b, 1))
        assert np.max(np.abs(h - f)) < 1e-10


class TestRelations:
    def test_entry_matches_direct_substitution(self):
        n, k, eta = 3, 1, 0.11 + 0.07j
        b = basis(n)
        rel = fo_relations(b, k, eta)
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                # r = 0 entry recomputed from scratch
                expected = (b.theta_at_zero[(j - i) % n]
                            / (theta_alpha_eval(b, 0, eta)
                               * theta_alpha_eval(b, j - i, -eta)))
                assert abs(rel[i, j][0] - expected) < 1e-12 * abs(expected)
        assert rel.shape == (n, n, n)
        assert np.all(np.isfinite(rel))
        # rows i == j are not part of the presentation
        assert not np.any(rel[np.arange(n), np.arange(n)])

    def test_torsion_eta_rejected(self):
        with pytest.raises(DegenerateEtaError):
            fo_relations(basis(3), 1, 1.0 / 3.0)

    def test_relation_count_structural(self):
        n = 3
        rel = fo_relations(basis(n), 1, 0.11 + 0.07j)
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        assert len(pairs) == n * (n - 1)
        # i < j representatives: n(n-1)/2 independent pairs
        assert len([p for p in pairs if p[0] < p[1]]) == n * (n - 1) // 2

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError):
            fo_relations(basis(4), 2, 0.1 + 0.05j)


class TestSklyaninBracket:
    def test_formula_skew_consistency(self):
        # the closed form written for (j, i) equals minus the (i, j) one
        b = basis(5)
        k = 2
        n = 5
        th = b.theta_at_zero
        dth = b.dtheta_at_zero
        br = sklyanin_bracket(b, k)
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                d = (j - i) % n
                expect = {}
                key = tuple(sorted((i, j)))
                diag = (dth[d] / th[d] + dth[(k * d) % n] / th[(k * d) % n]
                        - 2j * math.pi * n)
                expect[key] = expect.get(key, 0j) + diag
                for r in range(n):
                    if r in (0, d):
                        continue
                    coeff = (th[(d + r * (k - 1)) % n] * dth[0]
                             / (th[(k * r) % n] * th[(d - r) % n]))
                    kk = tuple(sorted(((j - r) % n, (i + r) % n)))
                    expect[kk] = expect.get(kk, 0j) + coeff
                got = pair_coeffs(br, i, j)
                for mono in set(expect) | set(got):
                    assert abs(expect.get(mono, 0j) - got.get(mono, 0j)) < 1e-9

    def test_gcd_validated(self):
        with pytest.raises(ValueError):
            sklyanin_bracket(basis(4), 2)


class TestSemiclassical:
    def test_matches_closed_form_three_points(self):
        # the eta-circle mean at P = 24 nodes; measured 2.6e-15 here
        assert relative_deviation(basis(3), 1) < 1e-10

    def test_circle_mean_at_n31(self):
        # measured 2.4e-14; the bracket scale is 2.6e2 here
        assert relative_deviation(basis(31), 1) < 1e-10

    def test_one_theta_evaluation_on_the_circle(self, monkeypatch):
        calls = []

        def counted(b, alpha, z):
            calls.append(z)
            return theta_alpha_eval(b, alpha, z)

        monkeypatch.setattr(fo, "theta_alpha_eval", counted)
        semiclassical_from_relations(basis(5), 1)
        # half of the 32 nodes; the reflection of theta gives the other half
        assert [np.shape(z) for z in calls] == [(16,)]
        # a quarter of the shortest vector of (1/5)(Z + iZ)
        assert np.allclose(np.abs(calls[0]), 1 / 20, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("n,k,tau", [(5, 2, 1j), (10, 1, 0.3 + 0.8j),
                                         (13, 2, 0.5j)])
    def test_tables_at_etas_from_the_same_evaluation(self, n, k, tau,
                                                     monkeypatch):
        # the single-eta tables ride along the circle nodes in one theta
        # call, and equal single_eta_bracket and the bare circle mean to
        # the bit
        b = basis(n, tau)
        etas = [1e-2, 1e-3 + 2e-4j, 1e-4]
        alone = semiclassical_from_relations(b, k)[0].rows
        singles = [single_eta_bracket(b, k, e) for e in etas]
        calls = []

        def counted(basis, alpha, z):
            calls.append(np.shape(z))
            return theta_alpha_eval(basis, alpha, z)

        monkeypatch.setattr(fo, "theta_alpha_eval", counted)
        est, tables = semiclassical_from_relations(b, k, etas)
        assert calls == [(19,)]
        assert est.rows.tobytes() == alone.tobytes()
        assert tables.shape == (3, n, n)
        for table, single in zip(tables, singles):
            assert table.tobytes() == single.tobytes()

    def test_convergence_order_at_least_one(self):
        b = basis(3)
        ref = sklyanin_bracket(b, 1)
        etas = [1e-2, 1e-3, 1e-4]
        devs = [QuadraticBracket(3, single_eta_bracket(b, 1, eta)).max_difference(ref)
                for eta in etas]
        slope = np.polyfit(np.log(etas), np.log(devs), 1)[0]
        # first-order error gives slope 1.0 up to fit noise
        assert slope >= 0.99

    def test_torsion_point_in_sequence_rejected(self):
        with pytest.raises(DegenerateEtaError):
            single_eta_bracket(basis(3), 1, 1.0 / 3.0)

    @pytest.mark.parametrize("n,k", [(3, 1), (5, 2), (7, 3)])
    def test_single_eta_entries_match_relations(self, n, k):
        # the first-order commutator solved from each relation (i, j)
        b = basis(n, 0.3 + 0.8j)
        eta = 1e-3
        rel = fo_relations(b, k, eta)
        got = QuadraticBracket(n, single_eta_bracket(b, k, eta))
        for i in range(n):
            for j in range(i + 1, n):
                c = rel[i, j]
                d = j - i
                expect = {tuple(sorted((i, j))): (-c[0] / c[d] - 1.0) / eta}
                for r in range(n):
                    if r not in (0, d):
                        mono = tuple(sorted(((j - r) % n, (i + r) % n)))
                        expect[mono] = (expect.get(mono, 0j)
                                        + (-c[r] / c[d]) / eta)
                assert pair_coeffs(got, i, j) == expect

    def test_k_dependence(self):
        # k enters through theta_{kr}; k = 1 and k = n-1 differ at n = 5
        b = basis(5)
        b1 = sklyanin_bracket(b, 1)
        b4 = sklyanin_bracket(b, 4)
        assert b1.max_difference(b4) > 1e-3


def relations_digest(n, k, tau):
    """sha256 of the coefficient tables of the circle mean and of the
    single-eta tables at three etas, and the relation tensor at one eta."""
    b = basis(n, tau)
    etas = [0.01, 0.001 + 0.0005j, 1e-4j]
    est, singles = semiclassical_from_relations(b, k, etas)
    h = hashlib.sha256()
    h.update(coefficient_table(est.rows).tobytes()
             + coefficient_table(singles).tobytes())
    h.update(fo_relations(b, k, 0.02 + 0.01j).tobytes())
    return h.hexdigest()[:16]


class TestRelationPins:
    """Digests taken when each point came to sum one theta series for
    every index, which moved the last bits of every basis value: no
    layout may move a bit of a relation or an estimate."""

    DIGESTS = {(5, 1, 1j): "ae37d45547607402",
               (5, 2, 0.3 + 0.8j): "2a9cd3291f7baa91",
               (10, 3, 0.5j): "1d8883dc6087f4b8",
               (13, 2, 1j): "861078fa414356ce"}

    @pytest.mark.parametrize("n, k, tau", [(5, 1, 1j), (5, 2, 0.3 + 0.8j),
                                           (10, 3, 0.5j), (13, 2, 1j)])
    def test_estimates_pinned(self, n, k, tau):
        assert relations_digest(n, k, tau) == self.DIGESTS[n, k, tau]
