"""Exact chain-level algebra for bounded complexes of vector spaces.

Given a complex E with differentials phi_i, the endomorphism complex has

    C^d = sum_i Hom(E^i, E^{i+d}),
    (df)_i = phi_{i+d} f_i - (-1)^d f_{i+1} phi_i,

with the trace pairing kappa(f, g) = sum_i (-1)^i tr(g_{i+d} f_i) between
C^d and C^{-d}, a signed permutation of the unit vectors
(:func:`trace_pairing`).  The chain map ``ad`` from the non-positive to the
shifted non-negative truncation has a single nonzero component, ad = d^{-1},
the differential C^{-1} -> C^0; composed with the inverse trace pairing it
yields the bivector whose degree-0 block is checked for exact
antisymmetry against the transpose partner d^0 t.  Both are the
differential with its columns gathered and signed, with no product.  The
printed cone identification Cone(ad)[-1] = C . C^0, with the degree-0
change of basis [[1, 0], [1, -1]], is verified identity by identity over
the rationals; an invertible chain map between the two complexes is an
isomorphism, so their homology agrees without a rank.  Every map through
degree 0 of the two complexes, C^0 + C^0, is a matrix of blocks that are
differentials of the endomorphism complex or integer multiples of the
identity of C^0, so the identities are evaluated block by block and
multiply only consecutive differentials.  The endomorphism complex is a
:class:`VSComplex`, which forms each product of two of its matrices once:
its d^2 = 0 check on construction forms every such product, and the cone
identification reads them back.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .exact import Mat, assemble
# unused here; kept as module attributes because perfbench/spans.py wraps them
from .exact import hstack, vstack  # noqa: F401

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
    """Bounded complex of finite-dimensional vector spaces, exact entries.

    ``dims`` maps degree to dimension; ``diffs[i]`` is the matrix of the
    map from degree i to degree i+1 (shape dims[i+1] x dims[i]); missing
    differentials are zero, one zero matrix per shape, so that
    :meth:`product` meets the same operand on every call.  Composition of
    consecutive differentials is verified to vanish exactly, through
    :meth:`product`, which forms each product of two operands once per
    complex.
    """

    dims: dict
    diffs: dict
    _products: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)
    _zeros: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def __post_init__(self):
        dims = {int(k): int(v) for k, v in self.dims.items() if v}
        diffs = {}
        for i, d in self.diffs.items():
            i = int(i)
            shape = (dims.get(i + 1, 0), dims.get(i, 0))
            m = _as_mat(d, shape)
            if not m.is_zero():
                diffs[i] = m
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "diffs", diffs)
        for i, m in diffs.items():
            nxt = diffs.get(i + 1)
            if nxt is not None and not self.product(nxt, m).is_zero():
                raise ValueError(f"differentials at degrees {i}, {i + 1} do not "
                                 "compose to zero")

    def dim(self, i: int) -> int:
        return self.dims.get(i, 0)

    def diff(self, i: int) -> Mat:
        m = self.diffs.get(i)
        if m is None:
            shape = (self.dim(i + 1), self.dim(i))
            m = self._zeros.get(shape)
            if m is None:
                m = self._zeros[shape] = Mat.zeros(*shape)
        return m

    def degrees(self):
        return sorted(self.dims)

    def product(self, x: Mat, y: Mat) -> Mat:
        """x @ y, formed once per pair of operands and kept with them, so
        that their ids stay unique; a differential replaced after
        construction is a new operand and is multiplied again."""
        key = (id(x), id(y))
        if key not in self._products:
            self._products[key] = (x, y, x @ y)
        return self._products[key][2]


class HomComplex(VSComplex):
    """The endomorphism complex of a VSComplex with explicit matrices.

    C^d has one column-major block per degree i of the source, Hom(E^i,
    E^{i+d}), listed by :meth:`blocks`.
    """

    def __init__(self, source: VSComplex):
        self.source = source
        degs = source.degrees()
        if not degs:
            self.deg_min, self.deg_max = 0, -1
        else:
            self.deg_min = min(degs) - max(degs)
            self.deg_max = max(degs) - min(degs)
        self._blocks = {}
        for d in range(self.deg_min, self.deg_max + 1):
            blocks = []
            offset = 0
            for i in degs:
                rows = source.dim(i + d)
                cols = source.dim(i)
                if rows and cols:
                    blocks.append((i, rows, cols, offset))
                    offset += rows * cols
            self._blocks[d] = (blocks, offset)
        super().__init__({d: size for d, (_, size) in self._blocks.items()},
                         {d: self._assemble_diff(d)
                          for d in range(self.deg_min, self.deg_max)})

    def blocks(self, d: int):
        return self._blocks.get(d, ((), 0))[0]

    def _assemble_diff(self, d: int) -> Mat:
        """Matrix of C^d -> C^{d+1} in column-major flattened coordinates."""
        E = self.source
        pieces = []
        for (ti, trows, tcols, toff) in self.blocks(d + 1):
            for (si, srows, scols, soff) in self.blocks(d):
                if si == ti:
                    # f_i -> phi_{i+d} f_i : (I_{dims[i]} (x) phi_{i+d})
                    piece = Mat.identity(scols).kron(E.diff(ti + d))
                elif si == ti + 1:
                    # f_{i+1} -> -(-1)^d f_{i+1} phi_i : (phi_i^T (x) I)
                    piece = E.diff(ti).T.kron(Mat.identity(trows))
                    if d % 2 == 0:
                        piece = -piece
                else:
                    continue
                pieces.append((toff, soff, piece))
        return assemble((self._blocks[d + 1][1], self._blocks[d][1]), pieces)


def hom_complex(E: VSComplex) -> HomComplex:
    return HomComplex(E)


def trace_pairing(H: HomComplex, d: int):
    """The trace pairing between C^d and C^{-d} as a signed permutation.

    Entry (a, b) of block i of C^d, at off + b*rows + a in column-major
    order, pairs with entry (b, a) of block i + d of C^{-d}, to (-1)^i;
    every other pair of unit vectors pairs to zero.  Returns integer arrays
    (partner, sign) over C^d: the index of that entry in C^{-d} and (-1)^i.
    """
    partner = np.empty(H.dim(d), dtype=np.int64)
    sign = np.empty(H.dim(d), dtype=np.int64)
    dual = {i: off for (i, _, _, off) in H.blocks(-d)}
    for (i, rows, cols, off) in H.blocks(d):
        b, a = np.divmod(np.arange(rows * cols), rows)
        partner[off:off + rows * cols] = dual[i + d] + a * cols + b
        sign[off:off + rows * cols] = -1 if i % 2 else 1
    return partner, sign


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
        if not (H.diff(0) @ self.component).is_zero():
            return False
        return (self.component @ H.diff(1).T).is_zero()


def _signed_columns(m: Mat, partner, sign) -> Mat:
    """m times a signed permutation: column q is column partner[q] of m
    times sign[q].  The entries and their gcd are m's, so a reduced m gives
    the reduced product."""
    return Mat(m.num[:, partner] * sign, m.den)


def pi_bivector(H: HomComplex) -> PiBivector:
    """The component is ad = d^{-1} after the inverse of kappa on C^{-1} x C^1,
    whose sign is that of the C^{-1} side: kappa(g, f) = -kappa(f, g) for
    g in C^{-1}, f in C^1.  The partner is d^0 after the degree-0
    pairing, an involution."""
    partner, sign = trace_pairing(H, 1)
    comp = _signed_columns(H.diff(-1), partner, -sign)
    return PiBivector(comp, _signed_columns(H.diff(0), *trace_pairing(H, 0)))


def _shifted_cone(H: HomComplex, sign_flip: bool):
    """Differentials of the two printed complexes and the comparison map,
    as block matrices (sequences of block rows).

    Degree 0 of both complexes is C^0 + C^0: in the cone the first summand
    is the shifted target copy, in the direct sum it is the untruncated
    complex.  A block is a Mat or an int c standing for c times the
    identity of C^0, 0 for a zero block.  Every other differential is the
    1x1 block of H.diff(d), and the two complexes share one block matrix
    in every degree but -1.
    """
    d_cone = {d: ((H.diff(d),),) for d in range(H.deg_min, H.deg_max)}
    d_sum = dict(d_cone)
    if -1 in d_cone:  # then so is 0
        a = H.diff(-1)
        d_cone[-1], d_sum[-1] = ((a,), (a,)), ((a,), (0,))
        d_cone[0] = d_sum[0] = ((H.diff(0), 0),)
    (c00, c01), (c10, c11) = DEG0_CHANGE_OF_BASIS
    change = ((c00, c01), (-c10 if sign_flip else c10, c11))
    return d_cone, d_sum, change


def _block_mat(x, shape) -> Mat:
    """Block x as a Mat of ``shape``; an int c is c times the identity."""
    if isinstance(x, Mat):
        return x
    return Mat.identity(shape[0]).scale(x) if x else Mat.zeros(*shape)


def _times(x, y, H: VSComplex):
    """Block x times block y.  An int block scales; a product of two
    matrices is H's, formed once per complex."""
    if isinstance(x, Mat) and isinstance(y, Mat):
        return H.product(x, y)
    c, m = (x, y) if isinstance(x, int) else (y, x)
    if not isinstance(m, Mat):
        return c * m
    return 0 if c == 0 else m if c == 1 else m.scale(c)


def _block_product(left, right, H: VSComplex):
    """left @ right block by block; zero blocks drop out of each sum."""
    out = []
    for row in left:
        out.append([])
        for col in zip(*right):
            terms = [t for t in (_times(x, y, H) for x, y in zip(row, col))
                     if isinstance(t, Mat) or t]
            mats = [t for t in terms if isinstance(t, Mat)]
            if mats:
                terms = [_block_mat(t, mats[0].shape) for t in terms]
            out[-1].append(sum(terms[1:], terms[0]) if terms else 0)
    return out


def _block_equal(left, right, dim0) -> bool:
    """Blockwise equality; with dim C^0 = 0 every int block is empty."""
    for x, y in zip(itertools.chain(*left), itertools.chain(*right)):
        if isinstance(x, Mat) or isinstance(y, Mat):
            shape = (x if isinstance(x, Mat) else y).shape
            if not _block_mat(x, shape) == _block_mat(y, shape):
                return False
        elif x != y and dim0:
            return False
    return True


def cone_iso_check(H: HomComplex, sign_flip: bool = False):
    """Verify the printed cone identification exactly, block by block.

    Checks (i) both complexes square to zero, (ii) the comparison map with
    degree-0 block DEG0_CHANGE_OF_BASIS is an invertible chain map, which
    is an isomorphism of complexes, so the two have the same homology, and
    (iii) the inclusion of the non-negative truncation closes the printed
    commuting square.  Every map through C^0 + C^0 is a block matrix
    (:func:`_shifted_cone`), so the identities multiply only consecutive
    differentials of H, whose products the construction check of H formed
    already, and no 2 dim C^0 matrix is assembled.  Returns (ok, failures).
    """
    d_cone, d_sum, change = _shifted_cone(H, sign_flip)
    dim0 = H.dim(0)

    def mul(left, right):
        return _block_product(left, right, H)

    def same(left, right):
        return _block_equal(left, right, dim0)

    failures = []
    for d in sorted(d_cone):
        for name, diffs in (("cone", d_cone), ("sum", d_sum)):
            if d + 1 in diffs:
                square = mul(diffs[d + 1], diffs[d])
                if not same(square, [[0] * len(square[0])] * len(square)):
                    failures.append(f"{name} differential squares to zero "
                                    f"at degree {d}")
    # chain-map squares; the comparison map is the identity off degree 0
    for d in sorted(d_cone):
        lhs = mul(change, d_cone[d]) if d + 1 == 0 else d_cone[d]
        rhs = mul(d_sum[d], change) if d == 0 else d_sum[d]
        if not same(lhs, rhs):
            failures.append(f"chain-map square at degrees ({d}, {d + 1})")
    if not same(mul(change, change), ((1, 0), (0, 1))):
        failures.append("degree-0 comparison block is not an involution")
    # commuting square with the inclusion of C^{>=0}: through the cone and
    # the comparison map, a section lands as (y, y) in degree 0
    if not same(mul(change, INCLUSION), DIAGONAL):
        failures.append("square with the truncation inclusion does not commute")
    if H.dim(1) and not same(mul(d_cone[0], INCLUSION), ((H.diff(0),),)):
        failures.append("truncation inclusion is not a chain map into the cone")
    return (not failures), failures


def euler_pairing_check(H: HomComplex) -> bool:
    """sum_d (-1)^d dim C^d equals (sum_i (-1)^i dim E^i)^2."""
    total = sum((-1) ** d * H.dim(d) for d in range(H.deg_min, H.deg_max + 1))
    e = sum((-1) ** i * n for i, n in H.source.dims.items())
    return total == e * e


# -- seeded generators for shaped test instances ---------------------------


def random_kronecker_complex(r: int, n: int, seed: int) -> VSComplex:
    """Seeded three-term complex with dimension vector (n, 2n+r, n).

    Degrees (-1, 0, 1); integer differentials with the composite zero and
    generic ranks.
    """
    if r < 1 or n < 1:
        raise ValueError("need r >= 1 and n >= 1")
    rng = np.random.default_rng(seed)
    mid = 2 * n + r
    while True:
        phi0 = Mat(rng.integers(-3, 4, size=(mid, n)))
        if phi0.rank() < n:
            continue
        null_rows = phi0.T.nullspace()  # rows v with v . phi0 = 0
        phi1 = Mat(rng.integers(-2, 3, size=(n, null_rows.shape[0]))) @ null_rows
        if phi1.rank() == n:
            return VSComplex({-1: n, 0: mid, 1: n}, {-1: phi0, 0: phi1})
