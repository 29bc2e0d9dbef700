"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass/fail line (visible with ``pytest -s`` or on
failure).  Runtime-limited criteria measure wall time around the whole
computation they constrain.
"""

import math
import re
import time

import numpy as np

from ellpoisson.cech import ResidueSystem
from ellpoisson.cli import main as cli_main
from ellpoisson.fo import single_eta_bracket, \
    semiclassical_from_relations, sklyanin_bracket
from ellpoisson.homology import cone_iso_check, hom_complex, pi_bivector, \
    random_kronecker_complex
from ellpoisson.leaves import classical_cubic_rows, DivisorDatum, \
    divisor_constraint, end_dim_sheaf, enumerate_strata
from ellpoisson.poisson import QuadraticBracket, jacobi_defect, \
    projective_matrix
from ellpoisson.theta import CIRCLE_POINTS, CurveParams, ThetaBasis, \
    shortest_period, theta_alpha_deriv, theta_alpha_eval

from oracles import phi_psi_pairing, verify_p_plus, \
    verify_p_plus_zero_sum, verify_trace_identity

TAUS = (1j, 0.3 + 0.8j)

_BASES = {}


def get_basis(n, tau):
    key = (n, tau)
    if key not in _BASES:
        _BASES[key] = ThetaBasis(CurveParams(tau, n))
    return _BASES[key]


def report(num, description, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {description} ({detail})")
    return ok


def sample_points(tau, count, seed):
    rng = np.random.default_rng(seed)
    return rng.random(count) + rng.random(count) * tau


def chart_points(n, count, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        t = np.ones(n, dtype=complex)
        for i in range(1, n):
            while True:
                u, v = rng.uniform(-1, 1, 2)
                if u * u + v * v <= 1:
                    t[i] = complex(u, v)
                    break
        out.append(t)
    return out


def test_criterion_1_theta_properties():
    start = time.perf_counter()
    worst = 0.0
    for n in (3, 5, 7):
        for tau in TAUS:
            b = get_basis(n, tau)
            z = sample_points(tau, 100, seed=n)
            omega = b.omega
            for alpha in range(n):
                va = theta_alpha_eval(b, alpha, z)
                pairs = [
                    (theta_alpha_eval(b, alpha, z + 1 / n),
                     omega ** alpha * va),
                    (theta_alpha_eval(b, alpha, z + tau / n),
                     np.exp(-2j * math.pi * (z + 1 / (2 * n)
                                             - (n - 1) * tau / (2 * n)))
                     * theta_alpha_eval(b, alpha + 1, z)),
                    (theta_alpha_eval(b, -alpha, -z),
                     -np.exp(-2j * math.pi * alpha / n)
                     * np.exp(-2j * math.pi * n * z) * va),
                ]
                for lhs, rhs in pairs:
                    scale = max(float(np.max(np.abs(lhs))),
                                float(np.max(np.abs(rhs))))
                    worst = max(worst,
                                float(np.max(np.abs(lhs - rhs))) / scale)
            ratio = theta_alpha_deriv(b, 0, 0.0, 2) / b.dtheta_at_zero[0]
            worst = max(worst, abs(ratio - 2j * math.pi * n))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 5.0
    assert report(1, "theta shift properties and second log-derivative",
                  ok, f"residual {worst:.2e} tol 1e-8, {elapsed:.2f}s < 5s")


def test_criterion_2_duality():
    start = time.perf_counter()
    worst = 0.0
    for n in (3, 5, 7):
        for tau in TAUS:
            pairing = phi_psi_pairing(ResidueSystem(get_basis(n, tau)))
            worst = max(worst, float(np.max(np.abs(pairing - np.eye(n)))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 10.0
    assert report(2, "dual-basis pairing matrix is the identity",
                  ok, f"residual {worst:.2e} tol 1e-8, {elapsed:.2f}s < 10s")


def test_criterion_3_principal_part_projection():
    worst = 0.0
    for n in (3, 5):
        b = ResidueSystem(get_basis(n, 1j))
        for alpha in range(n):
            for beta in range(n):
                if alpha == beta:
                    continue
                worst = max(worst, verify_p_plus(b, alpha, beta))
        coeffs = np.full(n, -1.0)
        coeffs[0] = n - 1.0
        worst = max(worst, verify_p_plus_zero_sum(b, coeffs))
    power = verify_p_plus(ResidueSystem(get_basis(3, 1j)), 1, 2,
                          coeff_scale=1.01)
    ok = worst < 1e-8 and power > 1e-4
    assert report(3, "closed forms of the principal-part projection",
                  ok, f"residual {worst:.2e} tol 1e-8, perturbed {power:.2e} > 1e-4")


def test_criterion_4_trace_identity():
    worst = 0.0
    for n in (3, 5):
        b = ResidueSystem(get_basis(n, 1j))
        for i in range(1, n):
            for j in range(1, n):
                if i == j:
                    continue
                worst = max(worst, verify_trace_identity(b, i, j))
    ok = worst < 1e-8
    assert report(4, "trace identity for the diagonal coefficients",
                  ok, f"residual {worst:.2e} tol 1e-8")


def test_criterion_5_jacobi():
    start = time.perf_counter()
    worst = 0.0
    for n, k in ((3, 1), (4, 1), (5, 1), (5, 2), (7, 2)):
        b = get_basis(n, 1j)
        worst = max(worst, jacobi_defect(sklyanin_bracket(b, k)))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 30.0
    assert report(5, "Jacobi identity of the semiclassical brackets",
                  ok, f"defect {worst:.2e} tol 1e-8, {elapsed:.2f}s < 30s")


def test_criterion_6_semiclassical_limit():
    b = get_basis(3, 1j)
    ref = sklyanin_bracket(b, 1)
    # d/10, d/100, d/1000 with d the distance to the nearest pole, as the
    # sklyanin command
    d = shortest_period(1, b.params.tau) / 3
    etas = [d / 10 ** m for m in (1, 2, 3)]
    singles = [QuadraticBracket(3, single_eta_bracket(b, 1, e))
               .max_difference(ref) for e in etas]
    slope = float(np.polyfit(np.log(etas), np.log(singles), 1)[0])
    final = (semiclassical_from_relations(b, 1)[0].max_difference(ref)
             / ref.max_abs())
    # slope of a first-order error measures 1.0 up to fit noise; a 1%
    # margin keeps the check meaningful without rejecting exact order 1
    ok = slope >= 0.99 and final < 1e-10
    assert report(6, "semiclassical limit converges at first order",
                  ok, f"slope {slope:.4f} >= 1 (1% fit margin), relative "
                      f"deviation of the {CIRCLE_POINTS}-node eta-circle mean "
                      f"{final:.2e} < 1e-10")


def test_criterion_7_moduli_equals_projective():
    start = time.perf_counter()
    agree = 0.0
    match = 0.0
    for n in (3, 5):
        for tau in TAUS:
            b = get_basis(n, tau)
            system = ResidueSystem(b)
            bracket = sklyanin_bracket(b, 1)
            for t in chart_points(n, 20, seed=17):
                closed = system.bracket_matrix(t, "closed_form")
                traced = system.bracket_matrix(t, "trace_form")
                ref = projective_matrix(bracket, t)
                agree = max(agree, float(np.max(np.abs(closed - traced))))
                match = max(match, float(np.max(np.abs(closed - ref))))
    elapsed = time.perf_counter() - start
    ok = agree < 1e-7 and match < 1e-6 and elapsed < 60.0
    assert report(7, "extension-moduli bracket equals the projective bracket",
                  ok, f"methods {agree:.2e} < 1e-7, match {match:.2e} < 1e-6, "
                      f"{elapsed:.1f}s < 60s")


def test_criterion_8_cone_identification():
    ok = True
    detail = []
    for r, n in ((1, 3), (1, 5)):
        for seed in range(5):
            E = random_kronecker_complex(r, n, seed=seed)
            dims = (E.dim(-1), E.dim(0), E.dim(1))
            assert dims == (n, 2 * n + r, n)
            H = hom_complex(E)
            good, failures = cone_iso_check(H)
            pi = pi_bivector(H)
            good = good and pi.antisymmetry_ok() and pi.chain_map_ok(H)
            ok = ok and good
            if failures:
                detail.append(failures[0])
    flipped_ok, _ = cone_iso_check(hom_complex(random_kronecker_complex(1, 3, 0)),
                                   sign_flip=True)
    ok = ok and not flipped_ok
    assert report(8, "exact cone identification and bivector identities",
                  ok, "all identities exact; sign flip detected"
                  if ok else "; ".join(detail) or "sign flip undetected")


def test_criterion_9_leaf_table():
    records3 = enumerate_strata(3)
    tagged = sorted((rec.l, rec.expected_dim)
                    for rec in classical_cubic_rows(records3))
    rows_ok = tagged == [(0, 6), (1, 4), (2, 0), (2, 2), (3, 0)]
    bound_ok = all(end_dim_sheaf(rec.torsion) >= 2 * rec.l + 1
                   for rec in enumerate_strata(6))
    cap_ok = all(rec.expected_dim <= 2 * n - 2 * rec.l
                 for n in range(1, 7)
                 for rec in enumerate_strata(n) if rec.feasible)
    ok = rows_ok and bound_ok and cap_ok
    assert report(9, "leaf stratification table and dimension bounds",
                  ok, f"classical rows {tagged}, bounds hold up to length 6")


def test_criterion_10_divisor_constraint():
    params = CurveParams(0.3 + 0.8j, 3)
    rng = np.random.default_rng(23)
    n, eta = 3, 0.04 + 0.01j
    worst = 0.0
    for _ in range(5):
        pts = [complex(u, v) for u, v in rng.random((3, 2))]
        d = DivisorDatum([(p, 1) for p in pts])
        z = DivisorDatum([(pts[0] - 3 * n * eta, 1)]
                         + [(p, 1) for p in pts[1:]])
        good, defect = divisor_constraint(n, eta, d, z, params)
        worst = max(worst, defect)
        assert good
    z_bad = DivisorDatum([(pts[0] - 3 * n * eta + 0.01, 1)]
                         + [(p, 1) for p in pts[1:]])
    detected, bad_defect = divisor_constraint(n, eta, d, z_bad, params)
    ok = worst < 1e-9 and not detected and abs(bad_defect - 0.01) < 1e-6
    assert report(10, "divisor-class constraint with perturbation control",
                  ok, f"defect {worst:.2e} < 1e-9, perturbation {bad_defect:.3f}")


def test_criterion_11_cli_determinism(tmp_path):
    path = tmp_path / "report.json"
    args = ["moduli-compare", "--n", "3", "--samples", "6", "--seed", "11",
            "--output", str(path)]
    assert cli_main(list(args)) == 0
    first = path.read_bytes()
    assert cli_main(list(args)) == 0
    second = path.read_bytes()

    def strip(payload):
        # the report is one line, so only the timing value is cut out
        return re.sub(rb'"elapsed_ms": [^,}]*', b"", payload)

    ok = strip(first) == strip(second) and b'"checks"' in strip(first)
    assert report(11, "CLI payloads are byte-identical for a fixed seed",
                  ok, f"{len(first)} bytes compared modulo the timing field")
