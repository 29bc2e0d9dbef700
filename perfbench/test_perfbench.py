"""Tests of the benchmark's own logic.

Run with ``PYTHONPATH=src python3 -m pytest perfbench -q`` from the root of
the repository.
"""

import contextlib
import io
import json
from collections import Counter

import pytest

import metrics
import reports
import spans
import workloads
from spans import Span


def test_self_time_subtracts_nested_children():
    tree = [
        Span("cli.main", 0.0, 10.0, None, 0),
        Span("cech.system", 1.0, 4.0, 0, 0),
        Span("theta.eval", 2.0, 3.0, 1, 0),
        Span("theta.eval", 5.0, 9.0, 0, 0),
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlapping_children_once():
    tree = [
        Span("homology.cone", 0.0, 10.0, None, 0),
        Span("exact.matmul", 2.0, 6.0, 0, 0),
        Span("exact.matmul", 4.0, 8.0, 0, 0),
        Span("exact.add", 9.0, 12.0, 0, 0),  # clipped to the parent's end
    ]
    assert spans.self_times(tree)[0] == pytest.approx(3.0)


def test_layer_metrics_sum_self_time_per_layer_and_round():
    tree = [
        Span("cli.main", 0.0, 10.0, None, 0),
        Span("theta.eval", 1.0, 4.0, 0, 0, count=128),
        Span("theta.eval", 5.0, 6.0, 0, 0, error=True, count=128),
    ]
    out = metrics.layer_metrics(tree, rounds=2)
    assert out["cli.self_s"] == pytest.approx(3.0)
    assert out["theta.self_s"] == pytest.approx(2.0)
    assert out["theta.calls"] == 1.0
    assert out["theta.errors"] == 0.5
    assert out["theta.points"] == 128.0
    assert out["theta.us_per_point"] == pytest.approx(1e6 * 4.0 / 256)


@pytest.mark.parametrize("count, expected", [
    (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (42, 75.0), (99, 75.0),
    (100, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9)])
def test_tail_is_highest_percentile_with_ten_jobs_beyond(count, expected):
    assert metrics.tail_percentile(count) == expected


def test_percentile_interpolates_between_ranks():
    values = [4.0, 1.0, 3.0, 2.0, 5.0]
    assert metrics.percentile(values, 50.0) == 3.0
    assert metrics.percentile(values, 75.0) == 4.0
    assert metrics.percentile([1.0, 2.0], 75.0) == 1.75


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_job_list_is_determined_by_the_seed(workload):
    first = workloads.round_jobs(workload, 7)
    assert first == workloads.round_jobs(workload, 7)
    other = workloads.round_jobs(workload, 8)
    assert [j.argv for j in first] != [j.argv for j in other]

    def mix(jobs):
        return Counter((j.command, j.n, j.options, j.tau) for j in jobs)

    assert mix(first) == mix(other)
    # the tail rule needs at least twenty jobs in a round
    assert metrics.tail_percentile(len(first)) is not None


def _run(job, tracer=None):
    from ellpoisson import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = (cli.main(job.argv) if tracer is None
                else tracer.call("cli.main", cli.main, (job.argv,), {}))
    return code, out.getvalue()


def test_wrappers_are_gone_after_a_traced_run():
    before = spans.originals()
    tracer = spans.Tracer()
    job = workloads.Job("theta", 3, (), (0.0, 1.0), 5)
    tracer.install()
    try:
        patched = spans.originals()
        assert all(patched[key] is not obj for key, obj in before.items())
        code, traced_text = _run(job, tracer)
    finally:
        tracer.uninstall()
    after = spans.originals()
    assert all(after[key] is obj for key, obj in before.items())
    assert code == 0
    names = {s.name for s in tracer.spans}
    assert {"cli.main", "theta.basis", "theta.eval"} <= names
    assert tracer.spans[0].parent is None
    assert all(s.parent == 0 for s in tracer.spans if s.name == "theta.basis")
    # the traced payload equals the untraced one
    _, plain_text = _run(job)
    assert (reports.deterministic_payload(plain_text)
            == reports.deterministic_payload(traced_text))


def test_report_gate_accepts_known_failures_only():
    job = workloads.Job("sklyanin", 5, ("--k", "1"), (0.0, 1.0), 3)
    code, text = _run(job)
    assert code == 0
    assert reports.check_report(job, code, text)[0] == []
    assert reports.check_report(job, 1, text)[0] == [
        "exit code 1 disagrees with the verdicts"]
    report = json.loads(text)
    for check in report["checks"]:
        if check["name"] in ("jacobi_defect", "semiclassical_deviation"):
            check.update(residual=1.0, tolerance=0.5, **{"pass": False})
    problems, _ = reports.check_report(job, 1, json.dumps(report))
    assert problems == ["failing checks ['jacobi_defect']"]
    assert reports.check_report(job, 0, "not json")[0] != []


def test_payload_comparison_ignores_elapsed_ms_only():
    text = '{\n  "checks": [],\n  "elapsed_ms": 12.5,\n  "tables": {}\n}\n'
    same = text.replace("12.5", "99.25")
    assert (reports.deterministic_payload(text)
            == reports.deterministic_payload(same))
    assert (reports.deterministic_payload(text)
            != reports.deterministic_payload(text.replace("{}", "[]")))
