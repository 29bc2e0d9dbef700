"""Correctness gate for one job's report.

A report must parse as JSON and follow the schema documented in
``ellpoisson.cli``: ``command``, ``params``, ``checks``, ``tables`` and
``elapsed_ms``, with every check a well-formed verdict.  The exit code must
agree with the verdicts, and a failing check is accepted only if it is a
known defect of the program.
"""

from __future__ import annotations

import json
import math
import re

REPORT_KEYS = {"command", "params", "checks", "tables", "elapsed_ms"}
CHECK_KEYS = {"name", "residual", "tolerance", "pass"}

# Checks each command must report; a report may carry more.
REQUIRED_CHECKS = {
    "theta": {"shift_property_1", "shift_property_2", "shift_property_3",
              "second_log_derivative_2pi_i_n", "dtheta0_constant_on_divisor",
              "automorphy_character"},
    "sklyanin": {"jacobi_defect", "semiclassical_deviation",
                 "semiclassical_slope_shortfall"},
    "moduli-compare": {"method_agreement", "matches_projective_bracket"},
    "leaves": {"end_dim_lower_bound"},
    "homology": {"cone_iso_instance_0"},
}

# The extrapolated semiclassical bracket misses its 1e-4 tolerance for
# larger n under the fixed eta sequence 1e-2..1e-4.  These failures are
# reported by name; a fix that makes them pass is accepted.
KNOWN_FAILURES = {"sklyanin": {"semiclassical_deviation"}}

_ELAPSED = re.compile(r'"elapsed_ms": [^,\n}]*')


def deterministic_payload(text: str) -> str:
    """The report text with its one wall-clock value blanked."""
    return _ELAPSED.sub('"elapsed_ms": null', text)


def check_report(job, code, text):
    """Validate one job's outcome.

    Returns (problems, checks): ``problems`` lists what is wrong, empty for
    a correct outcome; ``checks`` is the parsed check list.
    """
    try:
        report = json.loads(text)
    except ValueError:
        return [f"report is not JSON (exit {code})"], []
    if not isinstance(report, dict) or not REPORT_KEYS <= set(report):
        return ["report lacks the documented keys"], []
    problems = []
    if report["command"] != job.command:
        problems.append(f"report is for command {report['command']!r}")
    params = report["params"]
    if not isinstance(params, dict) or params.get("n") != job.n \
            or params.get("seed") != job.seed:
        problems.append("report params do not match the job")
    elif job.tau is not None and (params.get("tau_re"),
                                  params.get("tau_im")) != job.tau:
        problems.append("report tau does not match the job")
    if not isinstance(report["tables"], dict):
        problems.append("tables is not an object")
    elapsed = report["elapsed_ms"]
    if not isinstance(elapsed, (int, float)) or elapsed < 0:
        problems.append("elapsed_ms is not a non-negative number")
    checks = report["checks"]
    if not isinstance(checks, list) or not checks:
        return problems + ["report has no checks"], []
    for check in checks:
        if not isinstance(check, dict) or set(check) != CHECK_KEYS:
            return problems + ["malformed check"], []
        res, tol = check["residual"], check["tolerance"]
        if not (isinstance(res, (int, float)) and isinstance(tol, (int, float))
                and math.isfinite(res) and math.isfinite(tol)):
            return problems + [f"check {check['name']} has a bad number"], []
        if check["pass"] is not (res <= tol):
            problems.append(f"check {check['name']} verdict disagrees with "
                            "its residual")
    names = {c["name"] for c in checks}
    missing = REQUIRED_CHECKS[job.command] - names
    if missing:
        problems.append(f"missing checks {sorted(missing)}")
    failing = {c["name"] for c in checks if not c["pass"]}
    unexpected = failing - KNOWN_FAILURES.get(job.command, set())
    if unexpected:
        problems.append(f"failing checks {sorted(unexpected)}")
    if code != (1 if failing else 0):
        problems.append(f"exit code {code} disagrees with the verdicts")
    return problems, checks


def margin(checks) -> float | None:
    """Largest residual/tolerance among passing checks with a tolerance."""
    ratios = [c["residual"] / c["tolerance"] for c in checks
              if c["pass"] and c["tolerance"] > 0]
    return max(ratios) if ratios else None
