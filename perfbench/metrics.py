"""Metrics of a benchmark run: end to end from job outcomes, per layer from
spans."""

from __future__ import annotations

import math
from collections import defaultdict

from spans import LAYERS, self_times

# candidate tail percentiles, in tenths of a percent for exact arithmetic
TAIL_LADDER = (500, 750, 900, 950, 990, 999)
MIN_BEYOND_TAIL = 10
# margin_log10 when no passing check has a nonzero tolerance
NO_MARGIN_LOG10 = -300.0


def tail_percentile(count: int) -> float | None:
    """Highest ladder percentile with at least ten of ``count`` jobs beyond
    it, or None when there are fewer than twenty jobs."""
    fits = [p for p in TAIL_LADDER
            if count * (1000 - p) >= MIN_BEYOND_TAIL * 1000]
    return max(fits) / 10 if fits else None


def percentile(values, p: float) -> float:
    """Linear interpolation between closest ranks."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def verdict_metrics(outcomes) -> dict:
    """fail_ratio, check_fail_ratio and margin_log10 of a set of jobs."""
    checks = [c for o in outcomes for c in o.checks]
    failed_jobs = sum(1 for o in outcomes if o.code != 0)
    failed_checks = sum(1 for c in checks if not c["pass"])
    margins = [m for o in outcomes if (m := o.margin) is not None]
    return {
        "fail_ratio": failed_jobs / len(outcomes),
        "check_fail_ratio": failed_checks / max(len(checks), 1),
        "margin_log10": (math.log10(max(margins)) if margins
                         and max(margins) > 0 else NO_MARGIN_LOG10),
    }


def layer_metrics(spans, rounds: int) -> dict:
    """Per-layer counts and times, each per round of the workload."""
    selfs = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    errors = defaultdict(int)
    total = defaultdict(float)   # inclusive seconds by span name
    count = defaultdict(int)     # work units by span name
    number = defaultdict(int)    # spans by name
    for span, own in zip(spans, selfs):
        calls[span.layer] += 1
        self_s[span.layer] += own
        errors[span.layer] += span.error
        number[span.name] += 1
        count[span.name] += span.count
        # no span name nests inside a span of the same name, so summing
        # inclusive times per name counts no interval twice
        total[span.name] += span.duration
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer] / rounds
        out[f"{layer}.self_s"] = self_s[layer] / rounds
        out[f"{layer}.errors"] = errors[layer] / rounds
    points = count["theta.eval"]
    products = sum(1 for s in spans if s.name == "exact.matmul" and s.count)
    out.update({
        "theta.points": points / rounds,
        "theta.us_per_point": (1e6 * total["theta.eval"] / points
                               if points else 0.0),
        "theta.basis_s": total["theta.basis"] / rounds,
        "cech.residues": number["cech.residue"] / rounds,
        "cech.nodes": count["cech.residue"] / rounds,
        "cech.system_s": total["cech.system"] / rounds,
        "cech.trace_form_s": total["cech.trace_form"] / rounds,
        "cech.closed_form_s": total["cech.closed_form"] / rounds,
        "poisson.jacobi_s": total["poisson.jacobi"] / rounds,
        "poisson.projective_s": total["poisson.projective"] / rounds,
        "fo.relations": number["fo.relations"] / rounds,
        "fo.extrapolation_s": total["fo.extrapolation"] / rounds,
        "exact.matmul_calls": number["exact.matmul"] / rounds,
        "exact.matmul_madds": count["exact.matmul"] / rounds,
        "exact.int64_share": (number["exact.int64"] / products
                              if products else 0.0),
        "exact.rank_s": total["exact.rank"] / rounds,
        "homology.complex_s": total["homology.complex"] / rounds,
        "homology.cone_s": total["homology.cone"] / rounds,
        "homology.instances": number["homology.instance"] / rounds,
        "leaves.records": count["leaves.strata"] / rounds,
    })
    return out
