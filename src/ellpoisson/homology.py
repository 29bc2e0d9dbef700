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
degree 0 of the two complexes, C^0 + C^0, is a Kronecker product A (x) X
of an integer matrix A over the two summands and a differential X of the
endomorphism complex or the identity of C^0, so the identities follow the
mixed-product rule (A (x) X)(B (x) Y) = AB (x) XY and multiply only
consecutive differentials.  The endomorphism complex is a
:class:`VSComplex`, which forms each product of two of its matrices once:
its d^2 = 0 check on construction forms every such product, and the cone
identification reads them back.  Each of its differentials is one array
over the lcm of the denominators of E, into which every Kronecker block
I (x) phi or phi^T (x) I is written in place, so no Kronecker product is
formed.  The seeded instances of :func:`random_kronecker_complex` read the
rank of phi_{-1} off the nullspace they need anyway.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .exact import Mat, common_denominator, zeros_for
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
        """Matrix of C^d -> C^{d+1} in column-major flattened coordinates.

        Each Kronecker block is written in place into one array over the
        lcm of the denominators: I (x) phi has phi in its diagonal blocks,
        and phi^T (x) I has entry (a, b) of phi^T on the diagonal of its
        block (a, b)."""
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
        den, nums, bound = common_denominator([p[-1] for p in pieces])
        num = zeros_for((self._blocks[d + 1][1], self._blocks[d][1]), bound)
        for (toff, soff, shape, same, _), phi in zip(pieces, nums):
            view = num[toff:toff + shape[0] * shape[1],
                       soff:soff + shape[2] * shape[3]].reshape(shape)
            if same:
                idx = np.arange(shape[0])
                view[idx, :, idx, :] = phi
            else:
                idx = np.arange(shape[1])
                view[:, idx, :, idx] = _hom_sign(d) * phi.T
        return Mat._of(num, den, bound)._reduced()


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
    return Mat._of(m.num[:, partner] * sign, m.den, m.bound)


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
    each a Kronecker pair (A, X) standing for A (x) X: A is an integer
    matrix over the summands of C^0 + C^0, 1x1 off degree 0, and X a
    differential of H, or None for the identity of C^0.  In degree 0 the
    first summand is the shifted target copy in the cone and the
    untruncated complex in the direct sum; the two complexes share one
    pair in every degree but -1.
    """
    d_cone = {d: (np.array([[1]]), H.diff(d))
              for d in range(H.deg_min, H.deg_max)}
    d_sum = dict(d_cone)
    if -1 in d_cone:  # then so is 0
        a = H.diff(-1)
        d_cone[-1] = (np.array([[1], [1]]), a)
        d_sum[-1] = (np.array([[1], [0]]), a)
        d_cone[0] = d_sum[0] = (np.array([[1, 0]]), H.diff(0))
    change = np.array(DEG0_CHANGE_OF_BASIS)
    if sign_flip:
        change[1, 0] *= -1
    return d_cone, d_sum, (change, None)


def _pair_product(H: VSComplex, left, right):
    """(A (x) X)(B (x) Y) = AB (x) XY, where None is the identity and a
    product of two differentials is H's, formed once per complex."""
    (a, x), (b, y) = left, right
    return a @ b, (x if y is None else y if x is None else H.product(x, y))


def _pair_equal(H: VSComplex, left, right) -> bool:
    """Equality on one operand only: (A - B) (x) X = 0, where None is zero
    when H.dim(0) = 0.  Distinct operands never compare equal."""
    (a, x), (b, y) = left, right
    return x is y and (not (a - b).any()
                       or (not H.dim(0) if x is None else x.is_zero()))


def cone_iso_check(H: HomComplex, sign_flip: bool = False):
    """Verify the printed cone identification exactly, pair by pair.

    Checks (i) both complexes square to zero, (ii) the comparison map with
    degree-0 block DEG0_CHANGE_OF_BASIS is an invertible chain map, which
    is an isomorphism of complexes, so the two have the same homology, and
    (iii) the inclusion of the non-negative truncation closes the printed
    commuting square.  Each identity is read on Kronecker pairs by the
    mixed-product rule (:func:`_shifted_cone`); its only matrix products
    are of consecutive differentials of H, which the construction check of
    H formed already.  Returns (ok, failures).
    """
    d_cone, d_sum, change = _shifted_cone(H, sign_flip)
    mul = functools.partial(_pair_product, H)
    same = functools.partial(_pair_equal, H)
    failures = []
    for d in sorted(d_cone):
        for name, diffs in (("cone", d_cone), ("sum", d_sum)):
            if d + 1 in diffs:
                a, x = mul(diffs[d + 1], diffs[d])
                if not same((a, x), (0, x)):
                    failures.append(f"{name} differential squares to zero "
                                    f"at degree {d}")
    # chain-map squares; the comparison map is the identity off degree 0
    for d in sorted(d_cone):
        lhs = mul(change, d_cone[d]) if d + 1 == 0 else d_cone[d]
        rhs = mul(d_sum[d], change) if d == 0 else d_sum[d]
        if not same(lhs, rhs):
            failures.append(f"chain-map square at degrees ({d}, {d + 1})")
    if not same(mul(change, change), (np.eye(2, dtype=int), None)):
        failures.append("degree-0 comparison block is not an involution")
    # commuting square with the inclusion of C^{>=0}: through the cone and
    # the comparison map, a section lands as (y, y) in degree 0
    inclusion = (np.array(INCLUSION), None)
    if not same(mul(change, inclusion), (np.array(DIAGONAL), None)):
        failures.append("square with the truncation inclusion does not commute")
    if H.dim(1) and not same(mul(d_cone[0], inclusion),
                             (np.array([[1]]), H.diff(0))):
        failures.append("truncation inclusion is not a chain map into the cone")
    return (not failures), failures


# -- seeded generators for shaped test instances ---------------------------


def random_kronecker_complex(r: int, n: int, seed: int) -> VSComplex:
    """Seeded three-term complex with dimension vector (n, 2n+r, n).

    Degrees (-1, 0, 1); integer differentials with the composite zero and
    generic ranks.  phi_{-1} has rank mid - (rows of the nullspace of its
    transpose), so one elimination serves both the rank test and phi_0.
    """
    if r < 1 or n < 1:
        raise ValueError("need r >= 1 and n >= 1")
    rng = np.random.default_rng(seed)
    mid = 2 * n + r
    while True:
        phi0 = Mat(rng.integers(-3, 4, size=(mid, n)))
        null_rows = phi0.T.nullspace()  # rows v with v . phi0 = 0
        if mid - null_rows.shape[0] < n:  # the rank of phi0
            continue
        phi1 = Mat(rng.integers(-2, 3, size=(n, null_rows.shape[0]))) @ null_rows
        if phi1.rank() == n:
            return VSComplex({-1: n, 0: mid, 1: n}, {-1: phi0, 0: phi1})
