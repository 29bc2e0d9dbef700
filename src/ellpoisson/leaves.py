"""Symplectic-leaf combinatorics for Hilbert schemes of elliptic deformations.

A point of the target stratification is a torsion sheaf type: a multiset of
local types, each local type recording how many length-j indecomposables
sit at one point.  The endomorphism dimension of a local type with
multiplicities r_j is sum_{i,j} min(i,j) r_i r_j, and the expected leaf
dimension over a type of total length l is

    d_F = 2n + 1 - (1 + l + end_dim(T)) = 2n - l - end_dim(T),

bounded by 2n - 2l since end_dim(T) >= l.  The divisor-class constraint
ties the cycle of the torsion part to the twisting line bundle through
lattice arithmetic on the curve.

A local type is a partition of its length.  ``enumerate_strata`` computes
the canonical form and end_dim of each partition of 1..n once, then builds
every multiset of them already in canonical order, so end_dim(T) of each
record is a sum of per-partition values.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter

from .errors import UsageError
from .theta import CurveParams

# largest lattice defect that divisor_constraint accepts as zero
DIVISOR_TOL = 1e-9


@dataclass(frozen=True)
class TorsionType:
    """Multiset of local types; each local type maps j -> multiplicity r_j."""

    points: tuple

    def __init__(self, points):
        canon = []
        for local in points:
            local = {int(j): int(r) for j, r in dict(local).items() if r}
            if not local:
                raise ValueError("each listed point needs a positive part")
            if any(j < 1 or r < 1 for j, r in local.items()):
                raise ValueError("parts and multiplicities must be positive")
            canon.append(tuple(sorted(local.items(), reverse=True)))
        object.__setattr__(self, "points", tuple(sorted(canon, reverse=True)))

    @classmethod
    def _canonical(cls, points):
        """The type whose ``points`` are already canonical; unchecked."""
        t = object.__new__(cls)
        object.__setattr__(t, "points", points)
        return t

    @property
    def local_lengths(self):
        return tuple(sum(j * r for j, r in local) for local in self.points)

    @property
    def length(self) -> int:
        return sum(self.local_lengths)

    def describe(self) -> str:
        if not self.points:
            return "0"
        return " + ".join(map(_describe_local, self.points))


@lru_cache(maxsize=4096)
def _describe_local(local) -> str:
    """``(j^r, ...)`` for one canonical local type, ``j`` alone when r = 1."""
    parts = ", ".join(f"{j}^{r}" if r > 1 else f"{j}" for j, r in local)
    return f"({parts})"


@dataclass(frozen=True)
class LeafRecord:
    torsion: TorsionType
    l: int
    end_dim_torsion: int
    expected_dim: int
    feasible: bool


@dataclass(frozen=True)
class DivisorDatum:
    """Points with multiplicities on the curve, plus the total degree."""

    points: tuple

    def __init__(self, points):
        pts = tuple((complex(z), int(m)) for z, m in points)
        if any(m <= 0 for _, m in pts):
            raise ValueError("multiplicities must be positive")
        object.__setattr__(self, "points", pts)

    @property
    def degree(self) -> int:
        return sum(m for _, m in self.points)

    def weighted_sum(self) -> complex:
        return sum(z * m for z, m in self.points) if self.points else 0j


def end_dim_local(r) -> int:
    """sum_{i,j} min(i,j) r_i r_j over the support of one local type."""
    items = [(int(j), int(m)) for j, m in dict(r).items() if m]
    if any(j < 1 or m < 0 for j, m in items):
        raise ValueError("parts must be >= 1 with non-negative multiplicities")
    return sum(min(j1, j2) * m1 * m2 for j1, m1 in items for j2, m2 in items)


def end_dim_sheaf(t: TorsionType) -> int:
    """End dimension of (line bundle) + (torsion): 1 + l + end_dim(T)."""
    return 1 + t.length + sum(end_dim_local(dict(local)) for local in t.points)


@lru_cache(maxsize=None)
def _partitions(m, max_part=None):
    """Partitions of m as descending tuples of parts."""
    if m == 0:
        return ((),)
    max_part = m if max_part is None else min(max_part, m)
    out = []
    for first in range(max_part, 0, -1):
        for rest in _partitions(m - first, first):
            out.append((first,) + rest)
    return tuple(out)


def _local_types(n):
    """(local, length, end_dim_local) for every partition of 1..n.

    ``local`` is the canonical ``((j, r_j), ...)`` with j descending; the
    list is sorted ascending by it.
    """
    types = []
    for size in range(1, n + 1):
        for parts in _partitions(size):
            local = {}
            for j in parts:
                local[j] = local.get(j, 0) + 1
            # parts descend, so the items of local already do
            types.append((tuple(local.items()), size, end_dim_local(local)))
    types.sort()
    return types


def _multisets(fitting, prefix, end, remaining, bound, out):
    """Append (points, end_dim) for every completion of ``prefix``.

    ``fitting[m]`` lists (index, local, length, end_dim) for the local types
    of length at most m, ascending by index.  Each completion adds types of
    index at most ``bound`` in non-increasing order, so ``points`` stays
    canonical, and completions are appended in ascending order of
    ``points``.
    """
    if not remaining:
        out.append((prefix, end))
        return
    for i, local, size, local_end in fitting[remaining]:
        if i > bound:
            break
        _multisets(fitting, prefix + (local,), end + local_end,
                   remaining - size, i, out)


def enumerate_strata(n: int):
    """All leaf records for torsion types of length at most n.

    Records are ordered by length, then by expected dimension descending,
    then by ``torsion.points`` ascending.  n < 1 raises
    :class:`UsageError`.
    """
    if n < 1:
        raise UsageError("n must be positive")
    types = _local_types(n)
    fitting = [[(i, local, size, end)
                for i, (local, size, end) in enumerate(types) if size <= m]
               for m in range(n + 1)]
    records = []
    for l in range(n + 1):
        level = []
        _multisets(fitting, (), 0, l, len(types), level)
        # ascending end_dim is descending expected_dim; the sort is stable
        level.sort(key=itemgetter(1))
        for points, end in level:
            expected = 2 * n - l - end
            records.append(LeafRecord(TorsionType._canonical(points), l, end,
                                      expected, expected >= 0))
    return records


def classical_cubic_rows(records):
    """Tag the records matching the known stratification of three points.

    The five classical rows are: no torsion; one reduced point; two reduced
    points; a doubled reduced point (two copies at one place); three
    reduced points.
    """
    known = {
        TorsionType(()),
        TorsionType(({1: 1},)),
        TorsionType(({1: 1}, {1: 1})),
        TorsionType(({1: 2},)),
        TorsionType(({1: 1}, {1: 1}, {1: 1})),
    }
    return [rec for rec in records if rec.torsion in known]


def reduce_mod_lattice(z: complex, params: CurveParams) -> complex:
    """Representative of z nearest zero under rounding against (1, tau)."""
    tau = params.tau
    zb = z - round(z.imag / tau.imag) * tau
    return zb - round(zb.real)


def divisor_constraint(n: int, eta: complex, d: DivisorDatum, z: DivisorDatum,
                       params: CurveParams):
    """Check the class relation sum(Z) - sum(D) + 3n*eta = 0 mod the lattice.

    Returns (ok, defect), ok when the defect is at most ``DIVISOR_TOL``;
    unequal degrees are a hard error since the two sides must have the same
    degree for the relation to make sense.
    """
    if d.degree != z.degree:
        raise ValueError("divisor degrees differ")
    w = z.weighted_sum() - d.weighted_sum() + 3 * n * complex(eta)
    defect = abs(reduce_mod_lattice(w, params))
    return defect <= DIVISOR_TOL, defect
