"""Exact chain-level algebra for bounded complexes of vector spaces.

Given a complex E with differentials phi_i, the endomorphism complex has

    C^d = sum_i Hom(E^i, E^{i+d}),
    (df)_i = phi_{i+d} f_i - (-1)^d f_{i+1} phi_i,

with the trace pairing kappa(f, g) = sum_i (-1)^i tr(g_{i+d} f_i) between
C^d and C^{-d}, a signed permutation of the unit vectors
(:func:`trace_pairing`) that is adjoint to the differential.  The chain map
``ad`` from the non-positive to the shifted non-negative truncation has a
single nonzero component, ad = d^{-1}; composed with the inverse trace
pairing it yields the bivector whose degree-0 block is checked for exact
antisymmetry against the transpose partner d^0 t.  Both are differentials
with their columns gathered and signed.  The printed cone identification
Cone(ad)[-1] = C . C^0, with the degree-0 change of basis [[1, 0], [1, -1]],
is verified exactly, as five identities between the integer factors A
of its maps A (x) X (:func:`cone_iso_check`); an invertible chain map
between the two complexes is an isomorphism, so their homology agrees
without a rank.  A constructed complex is read-only, its
differentials too, since every Mat freezes its own entries, and it has
proved d^2 = 0, so no check multiplies its differentials again.  Each
differential of the endomorphism complex is one array into which every
Kronecker block I (x) phi or phi^T (x) I is written in place, and d^2 = 0
is proved on those factors, so the only products are of E's size and of a
probe of a few columns that ties each array to them
(:meth:`HomComplex._check_squares`).  The block table, the probe's seeded
columns with their order over the C^d, and the trace pairing depend on
E's dimension vector alone: they are built once per shape, read-only, and
shared by every instance of it (:func:`_layout`); an instance pays for its
differentials, the probe's two products with its phi and their ties.
The seeded instances of :func:`random_kronecker_complex` read the rank of
phi_{-1} off the nullspace they need anyway, and rank a draw R before
forming phi_0 = R N.

Differentials have integer entries (:class:`.exact.Mat`), and ranks and
homology are over Q.  A complex with rational differentials is
isomorphic to an integer one: multiply phi_i by some lambda_i > 0 that
clears its denominators, and E^i by mu_i with mu_{i+1} = lambda_i mu_i.
d^2 = 0, the cone identification and the antisymmetry of the bivector
are invariant under isomorphism, so an integer complex loses no case.
"""

from __future__ import annotations

import functools
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import UsageError
from .exact import Mat, assemble, common_storage, zeros_for
# unused here; kept as module attributes because perfbench/spans.py wraps them
from .exact import hstack, vstack  # noqa: F401

# the seed and count of the integer columns that tie each assembled
# differential of an endomorphism complex to its Kronecker factors
PROBE_SEED = 0
PROBE_COLUMNS = 2
# degree-0 blocks, in C^0 + C^0, of the comparison map of the cone with the
# direct sum, and of the inclusion of C^{>=0} and the diagonal from C^0
DEG0_CHANGE_OF_BASIS = ((1, 0), (1, -1))
INCLUSION = ((1,), (0,))
DIAGONAL = ((1,), (1,))


def _as_mat(data, shape):
    if isinstance(data, Mat):
        if data.shape != shape:
            raise ValueError(f"differential has shape {data.shape}, expected {shape}")
        return data
    return Mat.from_rows(data, shape)


@dataclass(frozen=True)
class VSComplex:
    """Bounded complex of Q-vector spaces with integer differentials.

    ``dims`` maps degree to dimension; ``diffs[i]`` is the matrix of the
    map from degree i to degree i+1 (shape dims[i+1] x dims[i]), a Mat or
    rows of ints; missing differentials are zero.  Construction verifies
    that consecutive differentials compose to zero exactly and leaves
    both mappings read-only; a Mat's entries are read-only from its own
    construction, so d^2 = 0 holds for every constructed complex.
    """

    dims: Mapping
    diffs: Mapping

    def __post_init__(self):
        dims = {int(k): int(v) for k, v in self.dims.items() if v}
        diffs = {}
        for i, d in self.diffs.items():
            i = int(i)
            shape = (dims.get(i + 1, 0), dims.get(i, 0))
            m = _as_mat(d, shape)
            if not m.is_zero():
                diffs[i] = m
        object.__setattr__(self, "dims", MappingProxyType(dims))
        object.__setattr__(self, "diffs", MappingProxyType(diffs))
        self._check_squares()

    def _check_squares(self):
        for i, m in self.diffs.items():
            nxt = self.diffs.get(i + 1)
            if nxt is not None and not (nxt @ m).is_zero():
                raise ValueError(f"differentials at degrees {i}, {i + 1} do "
                                 "not compose to zero")

    def dim(self, i: int) -> int:
        return self.dims.get(i, 0)

    def diff(self, i: int) -> Mat:
        m = self.diffs.get(i)
        return Mat.zeros(self.dim(i + 1), self.dim(i)) if m is None else m

    def degrees(self):
        return sorted(self.dims)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


# the trace pairing of a degree outside the complex, where C^d = 0
_NO_PAIRING = (_read_only(np.empty(0, dtype=np.int64)),
               _read_only(np.empty(0, dtype=np.int64)))


@dataclass(frozen=True, eq=False)
class _Layout:
    """What an endomorphism complex and its checks read of E's dimension
    vector alone, shared by every complex of that shape.

    ``blocks`` maps each degree d to the blocks of C^d
    (:meth:`HomComplex.blocks`) and their total size.  For the probe,
    ``start`` gives the offset of each E^i in E, the sum of the E^i, of
    dimension ``size``; ``probe`` is the k probe matrices F side by side
    and ``probe_eps`` the k matrices eps F eps on top of each other;
    ``columns`` are the entries of F over C^d, one Mat of k columns per
    source degree d, cut at ``cut``; and ``left_at`` and ``right_at``
    gather the entries of phi F and eps F eps phi in the same order.
    ``pairing`` maps d to the trace pairing (:func:`trace_pairing`).  Every
    array is read-only.
    """

    deg_min: int
    deg_max: int
    blocks: Mapping
    size: int
    start: Mapping
    probe: Mat
    probe_eps: Mat
    columns: tuple
    cut: np.ndarray
    left_at: np.ndarray
    right_at: np.ndarray
    pairing: Mapping


@functools.lru_cache(maxsize=16)
def _layout(dims, seed, k) -> _Layout:
    """The :class:`_Layout` of the sorted (degree, dimension) pairs ``dims``
    with ``k`` probe matrices drawn from ``seed``.  Built on the first
    complex of a shape; a ``homology`` run's instances share one shape."""
    degs = [i for i, _ in dims]
    dim = dict(dims)
    deg_min, deg_max = (min(degs) - max(degs), max(degs) - min(degs)) \
        if degs else (0, -1)
    blocks = {}
    for d in range(deg_min, deg_max + 1):
        table = []
        offset = 0
        for i in degs:
            rows, cols = dim.get(i + d, 0), dim[i]
            if rows:
                table.append((i, rows, cols, offset))
                offset += rows * cols
        blocks[d] = (tuple(table), offset)
    pairing = {}
    for d, (table, size) in blocks.items():
        partner = np.empty(size, dtype=np.int64)
        sign = np.empty(size, dtype=np.int64)
        dual = {i: off for (i, _, _, off) in blocks[-d][0]}
        for (i, rows, cols, off) in table:
            b, a = np.divmod(np.arange(rows * cols), rows)
            partner[off:off + rows * cols] = dual[i + d] + a * cols + b
            sign[off:off + rows * cols] = -1 if i % 2 else 1
        pairing[d] = (_read_only(partner), _read_only(sign))
    start = dict(zip(degs, np.cumsum([0] + [dim[i] for i in degs]).tolist()))
    deg = np.repeat(np.array(degs, dtype=np.int64), [dim[i] for i in degs])
    size = len(deg)
    # entry (row, col) of End(E) sits in C^d, d = deg[row] - deg[col],
    # in block deg[col], column-major
    row, col = np.indices((size, size)).reshape(2, -1)
    at = np.lexsort((row, col, deg[col], deg[row] - deg[col]))
    f = np.random.default_rng(seed).integers(-3, 3, size=(k, size, size))
    f[f >= 0] += 1
    eps = 1 - 2 * (deg % 2)
    # phi F is [a, (t, b)] and eps F eps phi is [(t, a), b] for probe t
    t = np.arange(k)
    left_at = (row[at, None] * k + t) * size + col[at, None]
    right_at = (t * size + row[at, None]) * size + col[at, None]
    cut = np.cumsum([blocks[d][1] for d in range(deg_min, deg_max)],
                    dtype=np.int64)
    # no differential leaves C^deg_max
    columns = np.split(f.reshape(k, -1)[:, at].T, cut)[:-1]
    return _Layout(
        deg_min, deg_max, MappingProxyType(blocks), size,
        MappingProxyType(start), Mat(np.hstack(f)),
        Mat(np.vstack(f * eps[:, None] * eps)),
        tuple(Mat(v) for v in columns), _read_only(cut),
        _read_only(left_at), _read_only(right_at), MappingProxyType(pairing))


@dataclass(frozen=True, init=False)
class HomComplex(VSComplex):
    """The endomorphism complex of a VSComplex with explicit matrices.

    C^d has one column-major block per degree i of the source, Hom(E^i,
    E^{i+d}), listed by :meth:`blocks`.  The source, the degree range and
    the blocks are read-only once built, as the differentials are.  What
    depends on E's dimensions alone, the block table, the probe's columns
    and gathers and the trace pairing, is built once per shape and shared
    (:func:`_layout`); each instance writes its differentials and forms
    the probe's images from its own phi.
    """

    def __init__(self, source: VSComplex):
        layout = _layout(tuple((i, source.dim(i)) for i in source.degrees()),
                         PROBE_SEED, PROBE_COLUMNS)
        for name, value in (("source", source), ("deg_min", layout.deg_min),
                            ("deg_max", layout.deg_max), ("_layout", layout)):
            object.__setattr__(self, name, value)
        super().__init__({d: size for d, (_, size) in layout.blocks.items()},
                         {d: self._assemble_diff(d)
                          for d in range(layout.deg_min, layout.deg_max)})

    def blocks(self, d: int):
        return self._layout.blocks.get(d, ((), 0))[0]

    def _check_squares(self):
        """d^2 = 0 on the Kronecker factors, then a probe of each array.

        Each block of d^{d+1} d^d sums I (x) phi phi, (phi phi)^T (x) I and
        (_hom_sign(d) + _hom_sign(d + 1)) phi_i^T (x) phi_{i+d+1} (mixed-
        product rule), so it vanishes with E's squares, which E's
        construction proved zero, when the signs cancel.  Each array must
        send the seeded columns of the shape's probe, which have no zero
        entry, to their image (:meth:`_probe`), so a wrong entry is always
        seen (Freivalds, 1977).
        """
        phi = self.source.diffs
        for d in range(self.deg_min, self.deg_max - 1):
            if _hom_sign(d) + _hom_sign(d + 1) and any(
                    i + d + 1 in phi for i in phi):
                raise ValueError(f"differentials at degrees {d}, {d + 1} do "
                                 "not compose to zero")
        degrees = range(self.deg_min, self.deg_max)
        for d, vd, wd in zip(degrees, self._layout.columns,
                             np.split(self._probe(), self._layout.cut)[1:]):
            if not self.diff(d) @ vd == Mat(wd):
                raise ValueError(f"differential at degree {d} does not match "
                                 "its Kronecker factors")

    def _probe(self):
        """Entries of the image of the shape's probe columns under the
        definition of d, in the coordinates of :meth:`blocks`.

        The sum C^deg_min + ... + C^deg_max is End(E), E the sum of the E^i,
        on which d F = phi F - eps F eps phi, phi the sum of the phi_i and
        eps = (-1)^i on E^i.  So the k probe matrices F take two products of
        E's size, with F and eps F eps read from the shape's layout, and
        one gather per product reads their entries in the order of the
        probe columns.
        """
        E, layout = self.source, self._layout
        phi = assemble((layout.size, layout.size),
                       [(layout.start[i + 1], layout.start[i], m)
                        for i, m in E.diffs.items()])
        left = phi @ layout.probe  # [a, (t, b)]
        right = layout.probe_eps @ phi  # [(t, a), b]
        # each gather is a permutation of all entries, so keeps the bound
        image = Mat._of(np.take(left.num, layout.left_at), left.bound) + \
            -Mat._of(np.take(right.num, layout.right_at), right.bound)
        return image.num

    def _assemble_diff(self, d: int) -> Mat:
        """Matrix of C^d -> C^{d+1} in column-major flattened coordinates.

        Each Kronecker block is written in place into one array, in the
        storage that its largest entry needs: I (x) phi has phi in its
        diagonal blocks, and phi^T (x) I has entry (a, b) of phi^T on the
        diagonal of its block (a, b)."""
        E = self.source
        pieces = []
        for (ti, trows, tcols, toff) in self.blocks(d + 1):
            for (si, srows, scols, soff) in self.blocks(d):
                if si == ti:
                    # f_i -> phi_{i+d} f_i : I_{dims[i]} (x) phi_{i+d}
                    phi = E.diff(ti + d)
                elif si == ti + 1:
                    # f_{i+1} -> -(-1)^d f_{i+1} phi_i : phi_i^T (x) I
                    phi = E.diff(ti)
                else:
                    continue
                # block (a, b) of the Kronecker product is [a, :, b, :]
                pieces.append((toff, soff, (tcols, trows, scols, srows),
                               si == ti, phi))
        nums, bound = common_storage([p[-1] for p in pieces])
        num = zeros_for((self._layout.blocks[d + 1][1],
                         self._layout.blocks[d][1]), bound)
        for (toff, soff, shape, same, _), phi in zip(pieces, nums):
            view = num[toff:toff + shape[0] * shape[1],
                       soff:soff + shape[2] * shape[3]].reshape(shape)
            if same:
                idx = np.arange(shape[0])
                view[idx, :, idx, :] = phi
            else:
                idx = np.arange(shape[1])
                view[:, idx, :, idx] = _hom_sign(d) * phi.T
        return Mat._of(num, bound)


def _hom_sign(d: int) -> int:
    """The sign -(-1)^d of f_{i+1} phi_i in (df)_i."""
    return 1 if d % 2 else -1


def hom_complex(E: VSComplex) -> HomComplex:
    return HomComplex(E)


def trace_pairing(H: HomComplex, d: int):
    """The trace pairing between C^d and C^{-d} as a signed permutation.

    Entry (a, b) of block i of C^d, at off + b*rows + a in column-major
    order, pairs with entry (b, a) of block i + d of C^{-d}, to (-1)^i;
    every other pair of unit vectors pairs to zero.  Returns integer arrays
    (partner, sign) over C^d: the index of that entry in C^{-d} and (-1)^i.
    They depend on E's dimensions alone, so they are built once per shape
    (:func:`_layout`) and are read-only.
    """
    return H._layout.pairing.get(d, _NO_PAIRING)


@dataclass(frozen=True)
class PiBivector:
    """Degree-0 block of the composed bivector and its transpose partner.

    ``component`` maps (C^1)^dual to C^0 (the only nonzero piece of the
    chain map); ``partner`` is d^0 t, and exact antisymmetry of the induced
    pairing is the identity component^T = -partner.
    """

    component: Mat
    partner: Mat

    def antisymmetry_ok(self) -> bool:
        return self.component.T == -self.partner

    def chain_map_ok(self, H: HomComplex) -> bool:
        """d^0 component = 0 and component (d^1)^T = 0, with no product.

        Up to the sign that :meth:`antisymmetry_ok` checks, the component
        must be d^{-1} P_1, so d^0 component is d^0 d^{-1} P_1, and by the
        adjointness (d^1 P_{-1})^T = d^{-2} P_2, component (d^1)^T is
        d^{-1} d^{-2} P_2: both vanish, as d^2 = 0 holds for every
        constructed complex.
        """
        # pi_bivector builds the component as -ad, so that sign is tried
        # first
        ad = _paired(H, -1)
        return (self.component == -ad or self.component == ad) and \
            _paired(H, 1).T == _paired(H, -2)


def _paired(H: HomComplex, j: int, negate: bool = False) -> Mat:
    """d^j P_{-j}, or its negative: column q is column partner[q] of d^j
    times sign[q], for the trace pairing (partner, sign) of C^{-j} with
    C^j, whose transpose is d^{-j-1} P_{j+1}.  The negative takes -sign
    into the same in-place product, so no negated copy of the gathered
    matrix is made."""
    m = H.diff(j)
    partner, sign = trace_pairing(H, -j)
    num = np.take(m.num, partner, axis=1)
    num *= -sign if negate else sign
    return Mat._of(num, m.bound)


def pi_bivector(H: HomComplex) -> PiBivector:
    """The component is ad = d^{-1} after the inverse of kappa on C^{-1} x C^1,
    whose sign is that of the C^{-1} side: kappa(g, f) = -kappa(f, g) for
    g in C^{-1}, f in C^1.  The partner is d^0 after the degree-0
    pairing, an involution."""
    return PiBivector(_paired(H, -1, negate=True), _paired(H, 0))


def cone_iso_check(H: HomComplex, sign_flip: bool = False):
    """Verify the printed cone identification exactly, identity by identity.

    Checks (ii) that the comparison map with degree-0 block
    DEG0_CHANGE_OF_BASIS is an invertible chain map, which is an isomorphism of
    complexes, so the two have the same homology, and (iii) that the inclusion
    of the non-negative truncation closes the printed commuting square.  Each
    map of the two complexes and between them is A (x) X, an integer matrix A
    over the summands of C^0 + C^0 in degree 0 (first the shifted target copy
    in the cone, or the untruncated complex in the sum) and 1 x 1 elsewhere,
    times a differential X of H or the identity of C^0.  An identity with one
    operand X is (A - B) (x) X = 0 (mixed-product rule): it holds when the A
    sides are equal or X is zero, the identity when dim C^0 = 0, and no matrix
    is formed.  Five can fail:

    1. change [1; 1] = [1; 0] on d^{-1}, the chain-map square at (-1, 0);
    2. [1, 0] = [1, 0] change on d^0, the chain-map square at (0, 1);
    3. change change = I on the identity, the inverse of the comparison map;
    4. change INCLUSION = DIAGONAL on the identity, the inclusion square;
    5. [1, 0] INCLUSION = [1] on d^0, the inclusion a chain map into the cone.

    The squares need no guard for H.deg_max < 1, nor the fifth for C^1 = 0:
    there d^{-1} and d^0 are zero.  A square at another degree cannot fail:
    off degree -1 the cone and the direct sum share their differential, and
    off degree 0 the comparison map is the identity.  Claim (i), that both
    complexes square to zero, needs no check: each square is
    AB (x) d^{d+1} d^d, and the construction of H proved d^2 = 0
    (:meth:`HomComplex._check_squares`).  Returns (ok, failures).
    """
    change = np.array(DEG0_CHANGE_OF_BASIS)
    if sign_flip:
        change[1, 0] *= -1
    top, inclusion = np.array([[1, 0]]), np.array(INCLUSION)
    # (failure, the two A sides, whether the operand X is zero), in order
    identities = (
        ("chain-map square at degrees (-1, 0)", change @ [[1], [1]],
         [[1], [0]], -1 not in H.diffs),
        ("chain-map square at degrees (0, 1)", top, top @ change,
         0 not in H.diffs),
        ("degree-0 comparison block is not an involution", change @ change,
         np.eye(2, dtype=int), not H.dim(0)),
        ("square with the truncation inclusion does not commute",
         change @ inclusion, DIAGONAL, not H.dim(0)),
        ("truncation inclusion is not a chain map into the cone",
         top @ inclusion, [[1]], 0 not in H.diffs))
    failures = [failure for failure, a, b, zero in identities
                if not zero and np.any(a - np.asarray(b))]
    return (not failures), failures


# -- seeded generators for shaped test instances ---------------------------


def random_kronecker_complex(r: int, n: int, seed: int) -> VSComplex:
    """Seeded three-term complex with dimension vector (n, 2n+r, n).

    Degrees (-1, 0, 1); integer differentials with the composite zero and
    generic ranks.  phi_{-1} has rank mid - (rows of the nullspace N of its
    transpose), so one elimination serves both its rank test and phi_0 =
    R N for a drawn R.  Each row of N has the pivot at its own free column
    and zeros at the others, so N has full row rank, rank(R N) = rank(R),
    and only the small R is ranked; the product is formed once, for the R
    accepted.  r < 1 or n < 1 raises :class:`UsageError`.
    """
    if r < 1 or n < 1:
        raise UsageError("need r >= 1 and n >= 1")
    rng = np.random.default_rng(seed)
    mid = 2 * n + r
    while True:
        phi0 = Mat(rng.integers(-3, 4, size=(mid, n)))
        null_rows = phi0.T.nullspace()  # rows v with v . phi0 = 0
        if mid - null_rows.shape[0] < n:  # the rank of phi0
            continue
        R = Mat(rng.integers(-2, 3, size=(n, null_rows.shape[0])))
        if R.rank() == n:
            return VSComplex({-1: n, 0: mid, 1: n},
                             {-1: phi0, 0: R @ null_rows})
