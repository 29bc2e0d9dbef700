"""Exact integer matrices sized for chain-complex checks.

A matrix is stored as its integer entries, with their largest absolute
value cached.  The entries are an int64 array whenever every one fits, and
Python-int objects only when one does not.  Each operation proves a bound
on the entries it produces from the cached values of its operands before
it runs: sums, Kronecker products, comparisons and stacks stay on int64
while that bound is below 2^63, and a product of inner dimension k runs as
float64 BLAS while k * max|A| * max|B| < 2^53, where every partial sum is
an integer that float64 holds exactly (Dumas, Giorgi & Pernet, ACM TOMS
35, 2008), and on Python-int objects past it; the package forms such
products only with a few columns.  Every identity checked against these
matrices is exact.  Transposes and negations keep their operand's bound.
Every matrix is read-only from its own construction: both constructors
freeze the entries they keep.
Rank and nullspace are over Q, read off one fraction-free Gauss-Jordan
elimination on objects (Bareiss, Math. Comp. 22, 1968).

There are no denominators: a rational complex is isomorphic to an
integer one, and the checks made against these matrices are invariant
under isomorphism (see :mod:`.homology`).
"""

from __future__ import annotations

import numpy as np

_INT64_BOUND = 2 ** 63
_FLOAT64_EXACT = 2 ** 53


def _to_object_int(arr):
    """Promote entries to a new array of Python-int objects, which keep
    later arithmetic unbounded."""
    return arr.astype(object)


def _widened(mats, bound):
    """The entries of ``mats``, promoted to objects when ``bound``, which
    must bound every entry the caller computes from them, reaches 2^63,
    and as stored, uncopied, otherwise."""
    if bound >= _INT64_BOUND:
        return [_to_object_int(m.num) for m in mats]
    return [m.num for m in mats]


def _float64_product(a, b):
    """a @ b for int64 arrays with k * max|a| * max|b| < 2^53, on float64."""
    return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64)


class Mat:
    """Immutable exact integer matrix.

    ``bound`` is the largest absolute entry; ``num`` is int64 exactly when
    ``bound`` is below 2^63, and read-only: ``Mat(num)`` makes the array it
    keeps read-only, ``num`` itself when it needs no conversion.
    """

    __slots__ = ("num", "shape", "bound")

    def __init__(self, num):
        num = np.asarray(num)
        if num.ndim != 2:
            raise ValueError("matrix data must be two-dimensional")
        if num.dtype.kind not in "iubO":
            raise TypeError("entries must be integers")
        # the ufuncs' own reductions, without numpy's Python wrappers
        bound = max(int(np.maximum.reduce(num, axis=None)),
                    -int(np.minimum.reduce(num, axis=None))) if num.size else 0
        if bound >= _INT64_BOUND:
            num = num if num.dtype == object else _to_object_int(num)
        elif num.dtype != np.int64:
            num = num.astype(np.int64)
        num.setflags(write=False)
        self.num = num
        self.shape = num.shape
        self.bound = bound

    @classmethod
    def _of(cls, num, bound):
        """Matrix of entries that a caller has checked: ``bound`` is their
        largest absolute value and ``num``, which is made read-only, is int64
        exactly when it is below 2^63, so nothing is scanned or converted."""
        num.setflags(write=False)
        m = object.__new__(cls)
        m.num = num
        m.shape = num.shape
        m.bound = bound
        return m

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rows(cls, rows, shape=None):
        """Matrix from nested rows of int entries."""
        rows = [list(r) for r in rows]
        if shape is None:
            shape = (len(rows), len(rows[0]) if rows else 0)
        if not all(isinstance(v, int) for row in rows for v in row):
            raise TypeError("entries must be int")
        return cls(np.array(rows, dtype=object).reshape(shape))

    @classmethod
    def zeros(cls, r, c):
        return cls._of(np.zeros((r, c), dtype=np.int64), 0)

    # -- algebra -----------------------------------------------------------

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.shape[1] != other.shape[0]:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        bound = self.shape[1] * self.bound * other.bound
        if bound == 0:
            # an empty or zero factor: the other may hold entries that
            # float64 cannot
            return Mat.zeros(self.shape[0], other.shape[1])
        if bound < _FLOAT64_EXACT:
            return Mat(_float64_product(self.num, other.num))
        return Mat(_to_object_int(self.num) @ _to_object_int(other.num))

    def __add__(self, other: "Mat") -> "Mat":
        if self.shape != other.shape:
            raise ValueError("shape mismatch in addition")
        a, b = _widened((self, other), self.bound + other.bound)
        return Mat(a + b)

    def __neg__(self) -> "Mat":
        return Mat._of(-self.num, self.bound)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat):
            return NotImplemented
        # equal bounds mean equal storages
        return (self.shape == other.shape and self.bound == other.bound
                and bool(np.array_equal(self.num, other.num)))

    def is_zero(self) -> bool:
        return self.bound == 0

    @property
    def T(self) -> "Mat":
        return Mat._of(self.num.T, self.bound)

    def kron(self, other: "Mat") -> "Mat":
        return Mat(np.kron(*_widened((self, other), self.bound * other.bound)))

    def _echelon(self):
        """One fraction-free Gauss-Jordan elimination of the entries.

        Returns (a, pivots, d): ``a`` is row-equivalent to ``num``, its first
        len(pivots) rows are in reduced echelon form with pivot columns
        ``pivots`` and every pivot entry equal to d, and its other rows are
        zero.  Each step divides exactly by the previous pivot (Bareiss), so
        every entry stays a minor of ``num``; the minors may exceed int64,
        so the elimination runs on objects.
        """
        a = _to_object_int(self.num)
        rows = a.shape[0]
        pivots = []
        d = 1
        for col in range(a.shape[1]):
            r = len(pivots)
            if r == rows:
                break
            below = np.flatnonzero(a[r:, col])
            if not below.size:
                continue
            p = r + int(below[0])
            if p != r:
                a[[r, p]] = a[[p, r]]
            piv = a[r, col]
            # every row but the pivot row in one update: the pivot row is
            # zero left of col, so the zeros of the rows below stay zero
            row = a[r].copy()
            step = np.outer(a[:, col], row)
            a *= piv
            a -= step
            a //= d
            a[r] = row
            d = piv
            pivots.append(col)
        return a, pivots, d

    def rank(self) -> int:
        """Rank over Q."""
        return len(self._echelon()[1])

    def nullspace(self) -> "Mat":
        """Integer basis of the right nullspace, one row per free column.

        The row of free column f is the primitive integer vector with a
        positive entry at f and zeros at the other free columns.
        """
        a, pivots, d = self._echelon()
        free = [c for c in range(self.shape[1]) if c not in pivots]
        basis = np.zeros((len(free), self.shape[1]), dtype=object)
        basis[:, pivots] = -a[:len(pivots), free].T
        basis[range(len(free)), free] = d
        if d < 0:
            basis = -basis
        basis //= np.gcd.reduce(basis, axis=1)[:, None]
        return Mat(basis)

    def __repr__(self):
        return f"Mat({self.shape[0]}x{self.shape[1]}, bound={self.bound})"


def common_storage(mats):
    """(entries, bound) of ``mats``, with ``bound`` their largest absolute
    entry; every array holds objects when that bound reaches 2^63 and
    int64 otherwise."""
    bound = max((m.bound for m in mats), default=0)
    return _widened(mats, bound), bound


def zeros_for(shape, bound):
    """Zero entries of ``shape`` in the storage that ``bound`` needs."""
    return np.zeros(shape, dtype=object if bound >= _INT64_BOUND else np.int64)


def assemble(shape, pieces) -> Mat:
    """Matrix of ``shape`` holding each (row, col, Mat) piece of ``pieces``
    at that offset and zeros elsewhere."""
    nums, bound = common_storage([m for _, _, m in pieces])
    num = zeros_for(shape, bound)
    for (row, col, m), piece in zip(pieces, nums):
        num[row:row + m.shape[0], col:col + m.shape[1]] = piece
    return Mat._of(num, bound)


def _stack(mats, axis) -> Mat:
    mats = list(mats)
    if len({m.shape[1 - axis] for m in mats}) > 1:
        raise ValueError("column counts differ" if axis == 0
                         else "row counts differ")
    nums, bound = common_storage(mats)
    return Mat._of(np.concatenate(nums, axis=axis), bound)


def hstack(mats) -> Mat:
    return _stack(mats, axis=1)


def vstack(mats) -> Mat:
    return _stack(mats, axis=0)
