"""Job lists for the benchmark workloads.

A job is one invocation of the ``ellpoisson`` command line.  Each workload
is a fixed mix of configurations (command, ``n`` and the command's size
options).  The workload seed only orders the jobs, assigns every job a CLI
``--seed``, and assigns lattice parameters from ``TAUS`` as a seeded
permutation of a balanced list, so every seed runs each configuration at
each tau equally often and loads every layer alike.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Lattice parameters (Re tau, Im tau): i, 0.3 + 0.8i and 0.5i.
TAUS = ((0.0, 1.0), (0.3, 0.8), (0.0, 0.5))

# (command, n, extra options, jobs per round for each tau, or in total for
# commands without tau).  The counts put the median and the p75 job of a
# round inside a run of jobs of similar cost, so these percentiles do not
# jump between configurations from one run to the next.
MIXES = {
    # theta on 128-node contours re-evaluated many times, and every cech
    # path; one and four sample points split per-system from per-point cost.
    "moduli": (
        ("moduli-compare", 3, ("--samples", "1"), 5),
        ("moduli-compare", 3, ("--samples", "4"), 4),
        ("moduli-compare", 4, ("--samples", "1"), 3),
        ("moduli-compare", 5, ("--samples", "1"), 1),
        ("moduli-compare", 5, ("--samples", "4"), 1),
    ),
    # Dict-based Jacobi certification and the finite-eta relations with
    # Richardson extrapolation; theta on scalars and short arrays, each
    # evaluated once.  The configurations from n = 9, k = 1 on include the
    # known semiclassical_deviation failures.
    "bracket": tuple(
        [("sklyanin", n, ("--k", str(k)), repeats)
         for n, k, repeats in ((5, 1, 2), (5, 2, 2), (7, 1, 2), (7, 3, 2),
                               (8, 3, 1), (9, 1, 1), (9, 2, 1), (10, 1, 2),
                               (10, 3, 2), (11, 1, 1), (11, 2, 1), (12, 1, 1),
                               (13, 2, 1))]
        + [("theta", n, (), 1) for n in (3, 5, 7, 9, 11)]),
    # Exact integer work only: Mat products, Bareiss rank and nullspaces,
    # strata enumeration.
    "exact": (
        ("homology", 3, ("--samples", "1", "--r", "1"), 2),
        ("homology", 3, ("--samples", "1", "--r", "2"), 2),
        ("homology", 4, ("--samples", "1", "--r", "1"), 7),
        ("homology", 4, ("--samples", "1", "--r", "2"), 7),
        ("homology", 5, ("--samples", "1", "--r", "1"), 6),
        ("homology", 5, ("--samples", "1", "--r", "2"), 6),
        ("homology", 6, ("--samples", "1", "--r", "1"), 1),
        ("homology", 6, ("--samples", "1", "--r", "2"), 1),
        ("homology", 7, ("--samples", "1", "--r", "1"), 1),
        ("leaves", 8, (), 4),
        ("leaves", 9, (), 3),
        ("leaves", 10, (), 1),
        ("leaves", 11, (), 2),
        ("leaves", 12, (), 1),
        ("leaves", 13, (), 1),
    ),
}

WORKLOADS = tuple(MIXES)
TAKES_TAU = {"moduli-compare", "sklyanin", "theta"}


@dataclass(frozen=True)
class Job:
    command: str
    n: int
    options: tuple
    tau: tuple | None
    seed: int

    @property
    def argv(self) -> list:
        argv = [self.command, "--n", str(self.n), *self.options,
                "--seed", str(self.seed)]
        if self.tau is not None:
            argv += ["--tau", repr(self.tau[0]), repr(self.tau[1])]
        return argv

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def round_jobs(workload: str, seed: int) -> list:
    """The jobs of one round of ``workload``, in run order."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = []
    for command, n, options, repeats in MIXES[workload]:
        taus = TAUS if command in TAKES_TAU else (None,)
        for tau in taus:
            for _ in range(repeats):
                jobs.append(Job(command, n, options, tau,
                                rng.randrange(1_000_000)))
    rng.shuffle(jobs)
    return jobs
