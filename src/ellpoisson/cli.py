"""Batch verification front-end.

Each subcommand runs a family of checks, emits a report (one JSON object
on one line, or CSV) and exits 0 when every residual passes its tolerance,
1 on a failed check and 2 on a usage error.  The tolerances are constants
of this module, printed with each check.

An input outside the domain of the library is refused by the code that
takes it, with a :class:`UsageError`; :meth:`RunConfig.validate` checks
only what this module owns (the seed, the sample counts, the work budgets
and the commands' own bounds on n and k).

:func:`main` parses once: when the first word names a command, that
command's parser reads the options alone, and arguments it leaves over are
refused through the top-level parser, with its usage line; any other first
word goes to the top-level parser.  Reports are encoded by one shared
``json.JSONEncoder``.

The jobs of one process share each lattice's :class:`ThetaBasis`,
:class:`ResidueSystem` and Sklyanin bracket through one
``functools.lru_cache``, ``_shared(build, *args)``, keyed by the function
that builds the object and its arguments: the reduced :class:`CurveParams`
for a basis, the basis object (and k) for a system or a bracket.  A
replaced or traced builder builds objects of its own.  The cache keeps
what the builder returns, whose arrays are read-only from its own
construction, a build that raises is not kept, and every check runs on
every job.
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
from .errors import EllPoissonError, UsageError
# single_eta_bracket and QuadraticBracket are not called here; they stay
# bound because perfbench/spans.py wraps ellpoisson.cli.single_eta_bracket
# and ellpoisson.cli.QuadraticBracket on every run
from .fo import f_constants, pole_distance, sklyanin_bracket, \
    semiclassical_from_relations, single_eta_bracket
from .homology import cone_iso_check, hom_complex, pi_bivector, \
    random_kronecker_complex
# end_dim_sheaf is not called here; it stays bound because
# perfbench/spans.py wraps ellpoisson.cli.end_dim_sheaf on every run
from .leaves import classical_cubic_rows, end_dim_sheaf, enumerate_strata
from .poisson import QuadraticBracket, heisenberg_violation, \
    hn_canonical_extract, projective_matrix
from .theta import (
    CIRCLE_POINTS,
    CurveParams,
    ThetaBasis,
    theta_alpha_deriv,
    theta_alpha_eval,
    verify_automorphy,
    zeta_multiplier,
)

# tolerances of the numerical checks; the exact checks use 0.0
TOL = 1e-8
BRACKET_TOL = 1e-10  # canonical form, invariance, semiclassical deviation
# jacobi_defect reads the triples (0, j, k) of one shift orbit; with
# heisenberg_invariance <= BRACKET_TOL it bounds the defect of every triple
# by JACOBI_TOL + ORBIT_CONSTANT * BRACKET_TOL (poisson.jacobi_defect), and
# 2.8e-9 is the largest double for which that sum is at most TOL exactly
JACOBI_TOL = 2.8e-9
SLOPE_TOL = 1e-2
METHOD_TOL = 1e-7
PROJECTIVE_TOL = 1e-6
# largest a priori rounding bound of the basis values at 0 that sklyanin and
# moduli-compare accept; semiclassical_deviation reads up to 2.4 times the
# bound, so beyond BRACKET_TOL / 10 the checks could fail from rounding alone
BRACKET_ROUNDING_LIMIT = BRACKET_TOL / 10
# the same for theta: on 2838 lattices (n = 2..13, bound 1e-13 to 1e-8)
# second_log_derivative_2pi_i_n reads up to 107 times the bound, so beyond
# TOL / 107 its check could fail from rounding alone
THETA_ROUNDING_LIMIT = TOL / 200
THETA_COMMANDS = ("theta", "sklyanin", "moduli-compare")
# The leaf records number 728,069 at n = 20 and grow about 3.3x per +2.
MAX_LEAVES_N = 20
# Each homology instance adds one check of about 85 bytes to the report, so
# 10,000 instances make a report near 1 MB; at n = 2, the largest n that
# MAX_HOMOLOGY_ENTRIES lets run them, they take 5-6 s in-process.
MAX_HOMOLOGY_SAMPLES = 10_000
# An instance's largest cost is its differentials d^-1 and d^0, 4 n m
# (2 n^2 + m^2) entries with m = 2n + r: 26-40 ns per entry at n = 7..14,
# 77-83 ns at n = 16..20 (probe products past 2^53) and 175 ns and a peak
# of 35 bytes at n = 24 (entries past 2^63; in-process, r = 1, 2-vCPU Xeon
# VM).  This bound keeps a run below about 4 s and an instance below 1 GB:
# n <= 25.
MAX_HOMOLOGY_ENTRIES = 2 * 10 ** 7
# sklyanin's Jacobi check, on the C(n - 1, 2) triples of one shift orbit,
# grows as n^4: 14 ms at n = 31 and 0.21-0.25 s at 63 in-process (2-vCPU
# Xeon VM).  The bound on n of every theta command stays at 63, the largest
# order checked, because moduli-compare fails at every n >= 31 (ROADMAP
# item 4).
MAX_THETA_N = 63
# moduli-compare keeps three samples x n x n complex stacks; at the bound an
# entry costs about 0.8 us at n = 3, 1.7 us at n = 31 and 3.4 us at n = 63
# (same VM), so a run stays below 0.4 s.  The bound is kept from a trace
# route ten times as costly: every run at n >= 31 fails (ROADMAP item 4).
MAX_MODULI_ENTRIES = 10 ** 5


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
        """Raise UsageError unless the configuration is within what
        ``command`` accepts; the library refuses what is outside its own
        domain (the lattice, k coprime to n, the leaf order) when a job
        builds it."""
        if self.seed < 0:
            raise UsageError("seed must be non-negative")
        if command in ("moduli-compare", "homology") and self.samples < 1:
            raise UsageError("samples must be at least 1")
        if command == "homology" and self.samples > MAX_HOMOLOGY_SAMPLES:
            raise UsageError(f"samples must be at most {MAX_HOMOLOGY_SAMPLES}"
                             ": each instance adds one check to the report")
        if command == "leaves" and self.n > MAX_LEAVES_N:
            raise UsageError(f"n must be at most {MAX_LEAVES_N}: the leaf "
                             "table grows about 3.3x per +2 in n")
        if command == "homology" and (self.r < 1 or self.n < 1):
            raise UsageError("need r >= 1 and n >= 1")
        m = 2 * self.n + self.r  # a homology instance has dims (n, m, n)
        # the largest arrays of its job, the differentials d^-1 and d^0 of
        # the endomorphism complex, hold 2 n m (2 n^2 + m^2) 8-byte entries
        entries = 4 * self.n * m * (2 * self.n ** 2 + m ** 2)
        if command == "homology" and 4 * entries > np.iinfo(np.intp).max:
            raise UsageError(f"n = {self.n}, r = {self.r} is too large: a "
                             "differential of the endomorphism complex "
                             f"would take {4 * entries:.3g} bytes, beyond "
                             "numpy's largest array")
        if command == "homology" and self.samples * entries > \
                MAX_HOMOLOGY_ENTRIES:
            raise UsageError(
                "samples x the entries of an instance's differentials d^-1 "
                f"and d^0 must be at most MAX_HOMOLOGY_ENTRIES = "
                f"{MAX_HOMOLOGY_ENTRIES:.0e}: at n = {self.n}, r = {self.r} "
                f"an instance has {entries:.3g}")
        if command not in THETA_COMMANDS:
            return
        if self.n > MAX_THETA_N:
            raise UsageError(f"n must be at most MAX_THETA_N = {MAX_THETA_N}"
                             ", the largest order the theta commands are "
                             "checked at")
        if command == "moduli-compare" and self.samples * self.n ** 2 > \
                MAX_MODULI_ENTRIES:
            raise UsageError(
                "samples x n^2 must be at most MAX_MODULI_ENTRIES = "
                f"{MAX_MODULI_ENTRIES:.0e}: at n = {self.n} that is "
                f"{MAX_MODULI_ENTRIES // self.n ** 2} samples")
        if command in ("sklyanin", "moduli-compare") and self.n < 3:
            raise UsageError("n must be at least 3: at n = 2 the Sklyanin "
                             "bracket vanishes identically "
                             "(theta_1'(0)/theta_1(0) = 2 pi i)")
        if command == "sklyanin" and self.k == self.n - 1:
            raise UsageError("k = n - 1 rejected: the algebra is commutative "
                             "and its bracket vanishes identically")


def _check(name, residual, tolerance):
    return {"name": name, "residual": float(residual),
            "tolerance": float(tolerance), "pass": bool(residual <= tolerance)}


def _log_slope(x, y):
    """Least-squares slope of log y against log x in closed form,
    sum (u - mean u)(v - mean v) / sum (u - mean u)^2 for u = log x,
    v = log y, the slope ``np.polyfit(u, v, 1)`` finds by an SVD solve.
    A zero or NaN y makes the mean of v and so every centred v
    non-finite, and the slope NaN."""
    with np.errstate(divide="ignore", invalid="ignore"):
        u, v = np.log(x), np.log(y)
        du = u - np.mean(u)
        return float(du @ (v - np.mean(v)) / (du @ du))


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
    return t


# -- shared lattice objects ------------------------------------------------


# One cache for every shared lattice object; a basis hashes by identity.
# It keeps what the builder returns: a basis, a system and a bracket are
# read-only from their own construction.  One round of the moduli workload
# reads 27 objects, one bracket round 66 (27 bases and 39 brackets); at 64
# entries a bracket round rebuilds 35.  So it retains at most 128 objects
# of any kind: at n = 63 a system takes about 10.4 MB (4.0 MB of it the
# coefficient table of its closed route) and a bracket 64 KB.  No known
# caller keeps more than 66.
@functools.lru_cache(maxsize=128)
def _shared(build, *args):
    return build(*args)


# -- subcommands -----------------------------------------------------------


def cmd_theta(cfg: RunConfig):
    basis = _shared(ThetaBasis, CurveParams(cfg.tau, cfg.n))
    basis.require_rounding(THETA_ROUNDING_LIMIT, " for the theta checks")
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
    res = float(np.max(np.abs(basis.dtheta0_at_divisor - dref))) / abs(dref)
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
    """Jacobi identity on one shift orbit, Heisenberg invariance, canonical
    form (k = 1) and the eta -> 0 limit of the closed-form bracket.

    The relation tensor is evaluated once, at the 16 half-circle nodes of
    the circle mean and the three slope values d/10, d/100, d/1000; the
    three single-eta tables are compared with the closed form as one
    stacked array, so only the closed form and the circle mean are built
    as :class:`QuadraticBracket`.
    """
    basis = _shared(ThetaBasis, CurveParams(cfg.tau, cfg.n))
    basis.require_rounding(BRACKET_ROUNDING_LIMIT, " for the bracket checks")
    bracket = _shared(sklyanin_bracket, basis, cfg.k)
    from .poisson import jacobi_defect
    checks = [_check("jacobi_defect", jacobi_defect(bracket), JACOBI_TOL),
              _check("heisenberg_invariance", heisenberg_violation(bracket),
                     BRACKET_TOL)]
    tables = {}
    if cfg.k == 1:
        h = hn_canonical_extract(bracket)
        f = f_constants(basis)
        # entrywise relative: the entries spread over many decades at
        # large Im(tau); the exact zeros F(a, -a) are left out
        nonzero = f != 0
        res = float(np.max(np.abs(h - f)[nonzero]
                           / np.abs(f[nonzero])))
        checks.append(_check("canonical_form_equals_f_table", res,
                             BRACKET_TOL))
        tables["f_table"] = [[a, b, float(f[a, b].real), float(f[a, b].imag)]
                             for a in range(cfg.n) for b in range(cfg.n)]
    # d/10, d/100, d/1000; d is the distance to the nearest pole, read
    # as the eta -> 0 circle mean reads it, whose circle has radius d/4
    d = pole_distance(basis)
    etas = [d / 10 ** m for m in (1, 2, 3)]
    est, single_tables = semiclassical_from_relations(basis, cfg.k, etas)
    deviation = est.max_difference(bracket) / bracket.max_abs()
    checks.append(_check("semiclassical_deviation", deviation, BRACKET_TOL))
    singles = [float(v) for v in bracket.max_differences(single_tables)]
    slope = _log_slope(etas, singles)
    # np.maximum keeps a NaN slope, which then fails its tolerance
    checks.append(_check("semiclassical_slope_shortfall",
                         np.maximum(0.0, 1.0 - slope), SLOPE_TOL))
    tables["semiclassical_single_eta_deviation"] = [
        [e, dev] for e, dev in zip(etas, singles)]
    tables["eta_circle"] = {"points": CIRCLE_POINTS, "radius": d / 4}
    return checks, tables


def cmd_moduli_compare(cfg: RunConfig):
    basis = _shared(ThetaBasis, CurveParams(cfg.tau, cfg.n))
    basis.require_rounding(BRACKET_ROUNDING_LIMIT, " for the bracket checks")
    system = _shared(ResidueSystem, basis)
    bracket = _shared(sklyanin_bracket, basis, 1)
    t = _sample_chart_points(cfg.n, cfg.samples, cfg.seed)
    closed = system.bracket_matrix(t, "closed_form")
    traced = system.bracket_matrix(t, "trace_form")
    ref = projective_matrix(bracket, t)
    # the largest deviation over the points; a NaN point reads NaN, which
    # fails its tolerance
    agree = float(np.abs(closed - traced).max())
    match = float(np.abs(closed - ref).max())
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

# the encoder json.dumps(report, sort_keys=True) would build on every call,
# built once; without indent it uses the C encoder: one object per line
_ENCODER = json.JSONEncoder(sort_keys=True)


def _emit(report: dict, cfg: RunConfig) -> str:
    if cfg.format == "json":
        return _ENCODER.encode(report) + "\n"
    lines = ["name,residual,tolerance,pass"]
    for c in report["checks"]:
        lines.append(f"{c['name']},{c['residual']!r},{c['tolerance']!r},"
                     f"{str(c['pass']).lower()}")
    return "\n".join(lines) + "\n"


# command: (function, help, options in the order --help lists them); an
# option that is not a RunConfig field is passed to the function
COMMANDS = {
    "theta": (cmd_theta, "basis properties and derivatives",
              ("n", "tau", "seed", "format", "output_path")),
    "sklyanin": (cmd_sklyanin, "bracket, Jacobi, semiclassical",
                 ("n", "k", "tau", "seed", "format", "output_path")),
    "moduli-compare": (cmd_moduli_compare,
                       "extension-moduli bracket vs projective bracket",
                       ("n", "tau", "samples", "seed", "format",
                        "output_path")),
    "leaves": (cmd_leaves, "leaf stratification table",
               ("n", "seed", "format", "output_path")),
    "homology": (cmd_homology, "exact cone-identification checks",
                 ("n", "samples", "seed", "format", "output_path", "r",
                  "inject_sign_flip")),
}


@functools.lru_cache(maxsize=None)
def build_parser() -> tuple[argparse.ArgumentParser,
                            dict[str, argparse.ArgumentParser]]:
    """The top-level parser and the parser of each command, built once per
    process; parsing leaves them unchanged, so every :func:`main` call
    shares them.  Their defaults are those of :class:`RunConfig`."""
    parser = argparse.ArgumentParser(
        prog="ellpoisson",
        description="numerical verification of elliptic quadratic Poisson "
                    "brackets, residue calculus and leaf combinatorics")
    sub = parser.add_subparsers(dest="command", required=True)
    options = {
        "n": ("--n", {"type": int}),
        "k": ("--k", {"type": int}),
        "tau": ("--tau", {"type": float, "nargs": 2, "metavar": ("RE", "IM")}),
        "samples": ("--samples", {"type": int}),
        "seed": ("--seed", {"type": int}),
        "format": ("--format", {"choices": ("json", "csv")}),
        "output_path": ("--output", {"metavar": "OUTPUT"}),
        "r": ("--r", {"type": int,
                      "help": "rank parameter of the three-term shape"}),
        "inject_sign_flip": ("--inject-sign-flip", {
            "action": "store_true",
            "help": "flip a sign in the comparison map (power control)"}),
    }
    defaults = asdict(RunConfig())
    defaults["tau"] = [defaults["tau_re"], defaults["tau_im"]]
    commands = {}
    for command, (_, text, dests) in COMMANDS.items():
        p = commands[command] = sub.add_parser(command, help=text)
        for dest in dests:
            flag, kwargs = options[dest]
            p.add_argument(flag, dest=dest, **kwargs)
        p.set_defaults(**{dest: defaults[dest] for dest in dests
                          if dest in defaults})
    return parser, commands


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser, commands = build_parser()
    if argv and argv[0] in commands:
        # the command's parser alone, as the top-level parser would call
        # it; what it leaves over is reported as the top-level parser does
        command = argv[0]
        parsed, rest = commands[command].parse_known_args(argv[1:])
        if rest:
            parser.error(f"unrecognized arguments: {' '.join(rest)}")
        opts = vars(parsed)
    else:  # not a command word: the top-level parser refuses it or helps
        opts = vars(parser.parse_args(argv))
        command = opts.pop("command")
    if "tau" in opts:
        opts["tau_re"], opts["tau_im"] = opts.pop("tau")
    extra = {name: opts.pop(name) for name in list(opts)
             if name not in RunConfig.__dataclass_fields__}
    started = time.perf_counter()
    try:
        cfg = RunConfig(**opts)
        cfg.validate(command)
        checks, tables = COMMANDS[command][0](cfg, **extra)
    except EllPoissonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # sizes beyond what the host can allocate
        print(f"error: {command} ran out of memory at these sizes: "
              f"{str(exc) or 'MemoryError'}", file=sys.stderr)
        return 2
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    report = {
        "command": command,
        # the fields are scalars, so no deep copy (asdict) is needed
        "params": {name: getattr(cfg, name)
                   for name in RunConfig.__dataclass_fields__},
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
