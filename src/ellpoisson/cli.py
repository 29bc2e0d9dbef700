"""Batch verification front-end.

Each subcommand runs a family of checks, emits a report (one JSON object
on one line, or CSV) and exits 0 when every residual passes its tolerance,
1 on a failed check and 2 on a usage error.  The tolerances are constants
of this module, printed with each check.

The jobs of one process share the whole-lattice objects they build: the
:class:`ThetaBasis` of a lattice, its :class:`ResidueSystem` and its
Sklyanin bracket of each k.  Each depends only on the lattice, the reduced
:class:`CurveParams` (tau, n), and on k for a bracket, and is immutable.
A memo per kind keeps the most recently used ones, keyed by the lattice
and the functions that build the object and its basis, and hands them out
with their array attributes read-only.  It holds at most 64 bases, 16
systems and 64 brackets, about twice what one round of the benchmark's
lattice workloads uses; full memos at n = 31, tau = i hold 73 MB.  Only a
caller that runs several jobs of one lattice through :func:`main` in one
process gains from it; the ``ellpoisson`` script runs one job per process
and builds each object once, as without the memo.  A job whose lattice is
not held pays for the bookkeeping and the freezing, a few per cent of a
small ``moduli-compare`` job.  Only objects are shared: every check (the
rounding limit, the chart points, the F table, the bracket matrices, the
Jacobi defect, the semiclassical limit) runs on every job, and a refused
lattice is refused again on every job, since a build that raises is not
kept.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from .cech import ResidueSystem
from .errors import EllPoissonError
# single_eta_bracket and QuadraticBracket are not called here; they stay
# bound because perfbench/spans.py wraps ellpoisson.cli.single_eta_bracket
# and ellpoisson.cli.QuadraticBracket on every run
from .fo import f_constants, sklyanin_bracket, \
    semiclassical_from_relations, single_eta_bracket
from .homology import cone_iso_check, hom_complex, pi_bivector, \
    random_kronecker_complex
# end_dim_sheaf is not called here; it stays bound because
# perfbench/spans.py wraps ellpoisson.cli.end_dim_sheaf on every run
from .leaves import classical_cubic_rows, end_dim_sheaf, enumerate_strata
from .poisson import QuadraticBracket, hn_canonical_extract, projective_matrix
from .theta import (
    CIRCLE_POINTS,
    CurveParams,
    ThetaBasis,
    shortest_period,
    theta_alpha_deriv,
    theta_alpha_eval,
    verify_automorphy,
    zeta_multiplier,
)

# tolerances of the numerical checks; the exact checks use 0.0
TOL = 1e-8
BRACKET_TOL = 1e-10  # canonical form and semiclassical deviation
SLOPE_TOL = 1e-2
METHOD_TOL = 1e-7
PROJECTIVE_TOL = 1e-6
# largest a priori rounding bound of the basis values at 0 that sklyanin and
# moduli-compare accept; semiclassical_deviation reads up to 2.4 times the
# bound, so beyond BRACKET_TOL / 10 the checks could fail from rounding alone
BRACKET_ROUNDING_LIMIT = BRACKET_TOL / 10
THETA_COMMANDS = ("theta", "sklyanin", "moduli-compare")
# The leaf records number 728,069 at n = 20 and grow about 3.3x per +2.
MAX_LEAVES_N = 20


@dataclass
class RunConfig:
    n: int = 3
    k: int = 1
    tau_re: float = 0.0
    tau_im: float = 1.0
    seed: int = 0
    samples: int = 20
    r: int = 1
    format: str = "json"
    output_path: str | None = None

    @property
    def tau(self) -> complex:
        return complex(self.tau_re, self.tau_im)

    def validate(self, command: str):
        """Raise UsageError unless the configuration is in the domain of
        ``command``; the domain checks of the library are reused."""
        if self.seed < 0:
            raise UsageError("seed must be non-negative")
        if command in ("moduli-compare", "homology") and self.samples < 1:
            raise UsageError("samples must be at least 1")
        if command == "leaves" and self.n < 1:
            raise UsageError("n must be positive")
        if command == "leaves" and self.n > MAX_LEAVES_N:
            raise UsageError(f"n must be at most {MAX_LEAVES_N}: the leaf "
                             "table grows about 3.3x per +2 in n")
        if command == "homology" and (self.r < 1 or self.n < 1):
            raise UsageError("need r >= 1 and n >= 1")
        if command not in THETA_COMMANDS:
            return
        try:
            CurveParams(self.tau, self.n)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        if command in ("sklyanin", "moduli-compare") and self.n < 3:
            raise UsageError("n must be at least 3: at n = 2 the Sklyanin "
                             "bracket vanishes identically "
                             "(theta_1'(0)/theta_1(0) = 2 pi i)")
        if command == "sklyanin" and not 0 < self.k < self.n:
            raise UsageError("k must satisfy 0 < k < n")
        if command == "sklyanin" and math.gcd(self.n, self.k) != 1:
            raise UsageError("gcd(n,k) must be 1")
        if command == "sklyanin" and self.k == self.n - 1:
            raise UsageError("k = n - 1 rejected: the algebra is commutative "
                             "and its bracket vanishes identically")


class UsageError(Exception):
    pass


def _check(name, residual, tolerance):
    return {"name": name, "residual": float(residual),
            "tolerance": float(tolerance), "pass": bool(residual <= tolerance)}


def _sample_chart_points(n, count, seed):
    """Seeded points with t_0 = 1 and the rest uniform on the unit disc: the
    first count * (n - 1) pairs of a uniform stream on [-1, 1]^2 that fall
    in the disc, in order, fill the points row by row."""
    rng = np.random.default_rng(seed)
    need = count * (n - 1)
    pairs = np.empty((0, 2))
    while len(pairs) < need:
        draw = rng.uniform(-1.0, 1.0, size=(2 * need, 2))
        inside = draw[:, 0] * draw[:, 0] + draw[:, 1] * draw[:, 1] <= 1.0
        pairs = np.concatenate([pairs, draw[inside]])
    t = np.ones((count, n), dtype=complex)
    t[:, 1:] = pairs[:need].view(complex).reshape(count, n - 1)
    return list(t)


# -- shared lattice objects ------------------------------------------------


class _Memo:
    """The objects built for the ``size`` most recently used keys.

    Every array attribute of an object is made read-only when it is
    stored, so a consumer that writes into a shared table fails instead of
    changing a later job.  A build that raises stores nothing.
    """

    def __init__(self, size):
        self.size = size
        self.entries = {}  # oldest use first

    def get(self, key, build, *args):
        """build(*args), built once per ``build`` and ``key``.  Functions
        are keyed through a tracing wrapper's ``__wrapped__``, so traced and
        untraced jobs share objects, while a replaced function keys entries
        of its own."""
        key = tuple(getattr(part, "__wrapped__", part)
                    for part in (build, *key))
        value = self.entries.pop(key, None)
        if value is None:
            value = build(*args)
            for name in getattr(value, "__slots__", None) or vars(value):
                array = getattr(value, name)
                if isinstance(array, np.ndarray):
                    array.setflags(write=False)
        self.entries[key] = value
        if len(self.entries) > self.size:
            del self.entries[next(iter(self.entries))]
        return value


# one round of the moduli workload uses 9 systems, one bracket round 27
# bases and 39 brackets; retained at n = 31, tau = i: 36 kB a basis, 1.5 MB
# a system, 0.7 MB a bracket
_BASES = _Memo(64)
_SYSTEMS = _Memo(16)
_BRACKETS = _Memo(64)


def _clear_memo():
    """Drop every shared lattice object, as in a new process."""
    for memo in (_BASES, _SYSTEMS, _BRACKETS):
        memo.entries.clear()


def _basis(cfg: RunConfig) -> ThetaBasis:
    params = CurveParams(cfg.tau, cfg.n)
    return _BASES.get((params,), ThetaBasis, params)


# a system or a bracket is keyed by the function that builds its basis too,
# so one built from another basis of the lattice is never served


def _system(basis: ThetaBasis) -> ResidueSystem:
    return _SYSTEMS.get((ThetaBasis, basis.params), ResidueSystem, basis)


def _bracket(basis: ThetaBasis, k: int):
    return _BRACKETS.get((ThetaBasis, basis.params, k), sklyanin_bracket,
                         basis, k)


# -- subcommands -----------------------------------------------------------


def cmd_theta(cfg: RunConfig):
    basis = _basis(cfg)
    n = cfg.n
    tau = basis.params.tau  # Re(tau) reduced as the basis holds it
    rng = np.random.default_rng(cfg.seed)
    z = rng.random(100) + rng.random(100) * tau
    omega = basis.omega
    checks = []
    # column alpha of each table holds theta_alpha at the 100 points; the
    # four point sets are evaluated in one call
    alpha = np.arange(n)
    va, v1, vt, vneg = theta_alpha_eval(
        basis, alpha, np.concatenate([z, z + 1.0 / n, z + tau / n, -z])
    ).reshape(4, len(z), n)
    pairs = (
        (v1, omega ** alpha * va),
        (vt, zeta_multiplier(basis, z)[:, None] * va[:, (alpha + 1) % n]),
        (vneg[:, -alpha % n],
         -np.exp(-2j * math.pi * alpha / n)
         * np.exp(-2j * math.pi * n * z)[:, None] * va))
    for idx, (lhs, rhs) in enumerate(pairs, start=1):
        # each alpha is scaled by its own largest value
        scale = np.maximum(np.max(np.abs(lhs), axis=0),
                           np.max(np.abs(rhs), axis=0))
        res = float(np.max(np.max(np.abs(lhs - rhs), axis=0) / scale))
        checks.append(_check(f"shift_property_{idx}", res, TOL))
    ratio = theta_alpha_deriv(basis, 0, 0.0, 2) / basis.dtheta_at_zero[0]
    checks.append(_check("second_log_derivative_2pi_i_n",
                         abs(ratio - 2j * math.pi * n), TOL))
    dref = basis.dtheta_at_zero[0]
    res = float(np.max(np.abs(
        theta_alpha_deriv(basis, 0, np.arange(n) / n, 1) - dref))) / abs(dref)
    checks.append(_check("dtheta0_constant_on_divisor", res, TOL))
    checks.append(_check(
        "automorphy_character",
        verify_automorphy(basis, (n - 1) / 2,
                          lambda w: theta_alpha_eval(basis, 1, w)),
        TOL))
    tables = {"theta_at_zero": [[float(v.real), float(v.imag)]
                                for v in basis.theta_at_zero],
              "dtheta_at_zero": [[float(v.real), float(v.imag)]
                                 for v in basis.dtheta_at_zero]}
    return checks, tables


def cmd_sklyanin(cfg: RunConfig):
    """Jacobi identity, canonical form (k = 1) and the eta -> 0 limit of
    the closed-form bracket.

    The relation tensor is evaluated once, at the 16 half-circle nodes of
    the circle mean and the three slope values d/10, d/100, d/1000; the
    three single-eta tables are compared with the closed form as one
    stacked array, so only the closed form and the circle mean are built
    as :class:`QuadraticBracket`.
    """
    basis = _basis(cfg)
    basis.require_rounding(BRACKET_ROUNDING_LIMIT, " for the bracket checks")
    bracket = _bracket(basis, cfg.k)
    from .poisson import jacobi_defect
    checks = [_check("jacobi_defect", jacobi_defect(bracket), TOL)]
    tables = {}
    if cfg.k == 1:
        h = hn_canonical_extract(bracket)
        f = f_constants(basis)
        # entrywise relative: the entries spread over many decades at
        # large Im(tau); the exact zeros F(a, -a) are left out
        nonzero = f != 0
        res = float(np.max(np.abs(h.table - f)[nonzero]
                           / np.abs(f[nonzero])))
        checks.append(_check("canonical_form_equals_f_table", res,
                             BRACKET_TOL))
        tables["f_table"] = [[a, b, float(f[a, b].real), float(f[a, b].imag)]
                             for a in range(cfg.n) for b in range(cfg.n)]
    # d/10, d/100, d/1000; d is the distance to the nearest pole, as in
    # the eta -> 0 circle mean, whose circle has radius d/4
    d = shortest_period(1, basis.params.tau) / cfg.n
    etas = [d / 10 ** m for m in (1, 2, 3)]
    est, single_tables = semiclassical_from_relations(basis, cfg.k, etas)
    deviation = est.max_difference(bracket) / bracket.max_abs()
    checks.append(_check("semiclassical_deviation", deviation, BRACKET_TOL))
    singles = [float(v) for v in bracket.max_differences(single_tables)]
    slope = float(np.polyfit(np.log(etas), np.log(singles), 1)[0])
    checks.append(_check("semiclassical_slope_shortfall",
                         max(0.0, 1.0 - slope), SLOPE_TOL))
    tables["semiclassical_single_eta_deviation"] = [
        [e, dev] for e, dev in zip(etas, singles)]
    tables["eta_circle"] = {"points": CIRCLE_POINTS, "radius": d / 4}
    return checks, tables


def cmd_moduli_compare(cfg: RunConfig):
    basis = _basis(cfg)
    basis.require_rounding(BRACKET_ROUNDING_LIMIT, " for the bracket checks")
    system = _system(basis)
    bracket = _bracket(basis, 1)
    agree = 0.0
    match = 0.0
    for t in _sample_chart_points(cfg.n, cfg.samples, cfg.seed):
        closed = system.bracket_matrix(t, "closed_form")
        traced = system.bracket_matrix(t, "trace_form")
        ref = projective_matrix(bracket, t)
        agree = max(agree, float(np.max(np.abs(closed - traced))))
        match = max(match, float(np.max(np.abs(closed - ref))))
    checks = [_check("method_agreement", agree, METHOD_TOL),
              _check("matches_projective_bracket", match, PROJECTIVE_TOL)]
    return checks, {"contour": {"points": system.points,
                                "radius": system.radius}}


def cmd_leaves(cfg: RunConfig):
    records = enumerate_strata(cfg.n)
    classical = classical_cubic_rows(records) if cfg.n == 3 else []
    tagged = {rec.torsion for rec in classical}
    rows = [[rec.l, rec.torsion.describe(), rec.end_dim_torsion,
             rec.expected_dim, rec.feasible,
             cfg.n == 3 and rec.torsion in tagged]
            for rec in records]
    checks = []
    # 1 + l + end_dim_torsion is end_dim_sheaf(rec.torsion), read off the
    # record rather than computed again
    bound = max(0.0 if 1 + rec.l + rec.end_dim_torsion >= 2 * rec.l + 1
                else 1.0 for rec in records)
    checks.append(_check("end_dim_lower_bound", bound, 0.0))
    if cfg.n == 3:
        values = sorted((rec.l, rec.expected_dim) for rec in classical)
        ok = values == [(0, 6), (1, 4), (2, 0), (2, 2), (3, 0)]
        checks.append(_check("classical_rows_reproduced",
                             0.0 if ok else 1.0, 0.0))
    return checks, {"strata": rows}


def cmd_homology(cfg: RunConfig, inject_sign_flip=False):
    checks = []
    tables = {}
    for idx in range(cfg.samples):
        E = random_kronecker_complex(cfg.r, cfg.n, seed=cfg.seed + idx)
        H = hom_complex(E)
        ok, failures = cone_iso_check(H, sign_flip=inject_sign_flip)
        pi = pi_bivector(H)
        all_ok = ok and pi.antisymmetry_ok() and pi.chain_map_ok(H)
        checks.append(_check(f"cone_iso_instance_{idx}",
                             0.0 if all_ok else 1.0, 0.0))
        if failures:
            tables.setdefault("failures", []).append([idx, failures[0]])
    return checks, tables


# -- report plumbing -------------------------------------------------------


def _emit(report: dict, cfg: RunConfig) -> str:
    if cfg.format == "json":
        # without indent json uses its C encoder: one object per line
        return json.dumps(report, sort_keys=True) + "\n"
    lines = ["name,residual,tolerance,pass"]
    for c in report["checks"]:
        lines.append(f"{c['name']},{c['residual']!r},{c['tolerance']!r},"
                     f"{str(c['pass']).lower()}")
    return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it
    unchanged, so every :func:`main` call shares it."""
    parser = argparse.ArgumentParser(
        prog="ellpoisson",
        description="numerical verification of elliptic quadratic Poisson "
                    "brackets, residue calculus and leaf combinatorics")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, with_k=False, with_tau=False, with_samples=False):
        p.add_argument("--n", type=int, default=3)
        if with_k:
            p.add_argument("--k", type=int, default=1)
        if with_tau:
            p.add_argument("--tau", type=float, nargs=2, default=[0.0, 1.0],
                           metavar=("RE", "IM"))
        if with_samples:
            p.add_argument("--samples", type=int, default=20)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--output", default=None)

    common(sub.add_parser("theta", help="basis properties and derivatives"),
           with_tau=True)
    common(sub.add_parser("sklyanin", help="bracket, Jacobi, semiclassical"),
           with_k=True, with_tau=True)
    common(sub.add_parser("moduli-compare",
                          help="extension-moduli bracket vs projective bracket"),
           with_tau=True, with_samples=True)
    common(sub.add_parser("leaves", help="leaf stratification table"))
    hom = sub.add_parser("homology", help="exact cone-identification checks")
    common(hom, with_samples=True)
    hom.add_argument("--r", type=int, default=1,
                     help="rank parameter of the three-term shape")
    hom.add_argument("--inject-sign-flip", action="store_true",
                     help="flip a sign in the comparison map (power control)")
    return parser


def _config_from(args) -> RunConfig:
    tau_re, tau_im = getattr(args, "tau", (0.0, 1.0))
    cfg = RunConfig(
        n=args.n,
        k=getattr(args, "k", 1),
        tau_re=tau_re, tau_im=tau_im,
        seed=args.seed,
        samples=getattr(args, "samples", 20),
        r=getattr(args, "r", 1),
        format=args.format,
        output_path=args.output,
    )
    cfg.validate(args.command)
    return cfg


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        cfg = _config_from(args)
        if args.command == "theta":
            checks, tables = cmd_theta(cfg)
        elif args.command == "sklyanin":
            checks, tables = cmd_sklyanin(cfg)
        elif args.command == "moduli-compare":
            checks, tables = cmd_moduli_compare(cfg)
        elif args.command == "leaves":
            checks, tables = cmd_leaves(cfg)
        elif args.command == "homology":
            checks, tables = cmd_homology(cfg, args.inject_sign_flip)
        else:  # pragma: no cover - argparse enforces the choices
            raise UsageError(f"unknown command {args.command}")
    except (UsageError, EllPoissonError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    report = {
        "command": args.command,
        "params": asdict(cfg),
        "checks": checks,
        "tables": tables,
        "elapsed_ms": round(elapsed_ms, 3),
    }
    text = _emit(report, cfg)
    if cfg.output_path:
        try:
            with open(cfg.output_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write report to {cfg.output_path}: "
                  f"{exc.strerror or exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0 if all(c["pass"] for c in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
