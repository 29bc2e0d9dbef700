"""Closed-loop benchmark of the ellpoisson command line.

One client in one process calls ``ellpoisson.cli.main(argv)`` once per job
and starts the next job only when the previous one has returned.  A run
repeats its workload's round of jobs until ``--seconds`` have passed, at
least once.  With ``--trace 1`` every job runs twice, untraced and then
traced, and the run reports per-layer metrics instead of end-to-end ones.
README.md in this directory lists the workloads and metrics.

    python3 perfbench/run.py --workload moduli --seed 1 --seconds 10 --trace 0

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import metrics
import reports
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
BLAS_THREADS = 1
BLAS_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                  "MKL_NUM_THREADS")
# Either variable silently changes every tolerance the CLI applies.
UNSET_VARIABLES = ("ELLPOISSON_TOL", "ELLPOISSON_TRUNCATION_EPS")
SETUP_REPEATS = 5
# A shared virtual machine can change its CPU speed by up to 1.5x over tens
# of seconds, which moves every job of a run alike.  Each job's time is therefore scaled to a
# reference speed, at which the calibration kernel takes this long, by the
# kernel's time measured just before the job.
REFERENCE_KERNEL_S = 0.001
_KERNEL_DATA = tuple(range(50_000))


@dataclass
class Outcome:
    job: workloads.Job
    seconds: float
    code: int | None
    text: str
    scale: float = 1.0
    problems: list = field(default_factory=list)
    checks: list = field(default_factory=list)

    @property
    def margin(self):
        return reports.margin(self.checks)

    @property
    def scaled_seconds(self) -> float:
        return self.seconds * self.scale


def calibration_kernel() -> int:
    """Fixed interpreter work: an integer loop and a walk over a tuple."""
    total = 0
    for i in range(8000):
        total += (i * i) % 7
    return total + sum(_KERNEL_DATA)


def kernel_seconds() -> float:
    """Fastest of three timings of the calibration kernel."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        calibration_kernel()
        best = min(best, time.perf_counter() - start)
    return best


def pin_environment():
    for var in UNSET_VARIABLES:
        os.environ.pop(var, None)
    for var in BLAS_VARIABLES:
        os.environ[var] = str(BLAS_THREADS)


def environment() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas_threads": BLAS_THREADS}


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time of importing ellpoisson.cli in a fresh interpreter
    and generating the job list."""
    # The child reads the system-wide monotonic clock when it is done, so
    # the parent's wake-up latency in waiting for it is not measured.
    code = (f"import ellpoisson.cli, workloads; "
            f"workloads.round_jobs({workload!r}, {seed}); "
            f"import time; print(time.monotonic())")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(HERE))))
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True, check=True,
                              timeout=120)
        times.append(float(done.stdout) - start)
    return statistics.median(times)


def run_job(cli_main, job, tracer=None) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                code = cli_main(job.argv)
            else:
                code = tracer.call("cli.main", cli_main, (job.argv,), {})
    except SystemExit as exc:  # argparse refused the arguments
        error = f"exited with {exc.code}: {err.getvalue().strip()}"
    except Exception:  # the loop goes on; the job counts as failed
        error = traceback.format_exc().strip()
    seconds = time.perf_counter() - start
    if error is None and code not in (0, 1):
        error = f"exit {code}: {err.getvalue().strip()}"
    outcome = Outcome(job, seconds, code, out.getvalue())
    if error is not None:
        outcome.problems.append(error)
    else:
        outcome.problems, outcome.checks = reports.check_report(
            job, code, outcome.text)
    return outcome


def compare_payloads(reference, outcomes, what: str):
    """Mark every outcome whose payload differs from its reference."""
    for ref, outcome in zip(reference, outcomes):
        if (reports.deterministic_payload(ref.text)
                != reports.deterministic_payload(outcome.text)):
            outcome.problems.append(f"payload differs from the {what}")


def run_rounds(cli_main, jobs, seconds: float, tracer):
    """Untraced outcomes, traced outcomes (with a tracer), rounds, wall."""
    plain, traced = [], []
    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - start < seconds:
        for job in jobs:
            scale = REFERENCE_KERNEL_S / kernel_seconds()
            plain.append(run_job(cli_main, job))
            plain[-1].scale = scale
            if tracer is not None:
                tracer.job = len(traced)
                tracer.install()
                try:
                    traced.append(run_job(cli_main, job, tracer))
                finally:
                    tracer.uninstall()
        rounds += 1
    return plain, traced, rounds, time.perf_counter() - start


def warm_up(cli_main, jobs) -> list:
    """Run the largest-n job of each command once, outside the timing, so
    lazy set-up and the program's own caches are filled before timing."""
    largest = {}
    for job in sorted(jobs, key=lambda j: (-j.n, j.options)):
        largest.setdefault(job.command, job)
    return [run_job(cli_main, job) for job in largest.values()]


def end_to_end(plain, wall, round_size, setup_s) -> dict:
    tail = metrics.tail_percentile(round_size)
    print(f"  job_tail_s is the p{tail:g} of {len(plain)} jobs")
    raw = [o.seconds for o in plain]
    print(f"  unscaled wall time: {len(plain) / wall!r} jobs/s, "
          f"p50 {metrics.percentile(raw, 50.0)!r} s, "
          f"p{tail:g} {metrics.percentile(raw, tail)!r} s")
    times = [o.scaled_seconds for o in plain]
    return {
        "setup_s": setup_s,
        "jobs_per_s": len(plain) / sum(times),
        "job_p50_s": metrics.percentile(times, 50.0),
        "job_tail_s": metrics.percentile(times, tail),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def per_layer(plain, traced, tracer, rounds) -> dict:
    out = metrics.layer_metrics(tracer.spans, rounds)
    # elapsed_ms blanked, so the count repeats exactly
    out["cli.report_bytes"] = sum(
        len(reports.deterministic_payload(o.text).encode())
        for o in traced) / rounds
    out["trace_overhead"] = (sum(o.seconds for o in traced)
                             / sum(o.seconds for o in plain) - 1.0)
    own = {layer: out[f"{layer}.self_s"] for layer in spans.LAYERS}
    base = sum(own.values())
    print(f"  self-time shares of {base:.3f} s traced per round: "
          + ", ".join(f"{layer} {100 * s / base:.1f}%"
                      for layer, s in sorted(own.items(),
                                             key=lambda kv: -kv[1])))
    return out


def write_spans(path: Path, tracer, header: dict):
    path.parent.mkdir(exist_ok=True)
    origin = tracer.spans[0].start if tracer.spans else 0.0
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write(json.dumps(header) + "\n")
        for idx, s in enumerate(tracer.spans):
            fh.write(json.dumps([s.job, idx, s.parent, s.name,
                                 s.start - origin, s.end - origin,
                                 s.error, s.count]) + "\n")


def report_outcomes(outcomes):
    """Print failing jobs, and known failures once per job."""
    seen = set()
    for o in outcomes:
        if o.problems:
            print(f"  FAILED {o.job.label}: {o.problems[0].splitlines()[-1]}")
            if len(o.problems[0].splitlines()) > 1:
                print(o.problems[0], file=sys.stderr)
        elif o.code == 1 and o.job.label not in seen:
            seen.add(o.job.label)
            names = ", ".join(c["name"] for c in o.checks if not c["pass"])
            print(f"  known failure {o.job.label}: {names}")


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 spec: dict) -> dict:
    setup_s = measure_setup(name, seed)
    from ellpoisson import cli

    env = environment()
    print("env: " + json.dumps(env, sort_keys=True))
    jobs = workloads.round_jobs(name, seed)
    warm = warm_up(cli.main, jobs)
    before = spans.originals()
    tracer = spans.Tracer() if trace else None
    plain, traced, rounds, wall = run_rounds(cli.main, jobs, seconds, tracer)
    after = spans.originals()
    restored = all(after[key] is obj for key, obj in before.items())
    compare_payloads(plain, plain[len(jobs):], "first round")
    compare_payloads(plain, traced, "untraced run")
    outcomes = warm + plain + traced
    print(f"{name}: seed {seed}, {len(jobs)} jobs per round, {rounds} "
          f"round(s) in {wall:.1f} s, tracing {'on' if trace else 'off'}")
    report_outcomes(outcomes)
    if not restored:
        print("  FAILED: traced names were not restored")
    verdicts = metrics.verdict_metrics(plain)
    if trace:
        values = per_layer(plain, traced, tracer, rounds)
        values.update(verdicts)
        write_spans(OUT / f"spans-{name}-{seed}.jsonl.gz", tracer,
                    {"workload": name, "seed": seed, "env": env,
                     "jobs": [o.job.label for o in traced]})
        wanted = spec["per_layer"]
    else:
        for key, value in verdicts.items():
            print(f"  {key} = {value!r}")
        values = end_to_end(plain, wall, len(jobs), setup_s)
        wanted = spec["end_to_end"]
    result = {}
    for metric in wanted:
        value = values[metric["name"]]
        print(f"  {metric['name']} = {value!r} {metric['unit']}")
        result[metric["name"]] = {"value": value, "unit": metric["unit"]}
    failed = sum(1 for o in outcomes if o.problems)
    return {"correct": failed == 0 and restored, "attempted": len(outcomes),
            "failed": failed, "metrics": result}


def run_all(args) -> dict:
    """Each workload in its own process, so each has its own peak memory."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900, check=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        part = json.loads(lines[-1])
        combined["correct"] &= part["correct"]
        combined["attempted"] += part["attempted"]
        combined["failed"] += part["failed"]
        for key, value in part["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ellpoisson" / "cli.py").is_file():
        print(f"error: no ellpoisson sources under {SRC}", file=sys.stderr)
        return 2
    pin_environment()
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        result = run_all(args)
    else:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), spec)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
