"""Exact rational matrices sized for chain-complex checks.

A matrix is stored as integer numerators over one positive denominator,
with the numerators' largest absolute value cached.  The numerators are an
int64 array whenever every entry fits, and Python-int objects only when one
does not.  Each operation proves a bound on the entries it produces from
the cached values of its operands before it runs: sums, Kronecker
products, comparisons and stacks stay on int64 while that bound
is below 2^63, and a product of inner dimension k runs as float64 BLAS
while k * max|A| * max|B| < 2^53, where every partial sum is an integer
that float64 holds exactly (Dumas, Giorgi & Pernet, ACM TOMS 35, 2008),
and on Python-int objects past it; the package forms such products only
with a few columns.  Every identity checked against these matrices is
exact.  Transposes
and negations keep their operand's bound.  Rank and nullspace read one
fraction-free Gauss-Jordan elimination on objects (Bareiss, Math. Comp.
22, 1968).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

_INT64_BOUND = 2 ** 63
_FLOAT64_EXACT = 2 ** 53


def _to_object_int(arr):
    """Promote numerators to a new array of Python-int objects, which keep
    later arithmetic unbounded."""
    return arr.astype(object)


def _scaled(pairs, bound):
    """Numerators of (Mat, factor) pairs times their factors.

    ``bound`` must bound every entry the caller computes from the results;
    below 2^63 they stay int64, otherwise all are promoted.  A factor of 1
    copies nothing.
    """
    wide = bound >= _INT64_BOUND or any(abs(f) >= _INT64_BOUND
                                        for _, f in pairs)
    out = []
    for m, f in pairs:
        num = _to_object_int(m.num) if wide else m.num
        out.append(num if f == 1 else num * f)
    return out


def _float64_product(a, b):
    """a @ b for int64 arrays with k * max|a| * max|b| < 2^53, on float64."""
    return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64)


class Mat:
    """Immutable exact rational matrix: integer numerators / denominator.

    ``bound`` is the largest absolute numerator; ``num`` is int64 exactly
    when ``bound`` is below 2^63.
    """

    __slots__ = ("num", "den", "shape", "bound")

    def __init__(self, num, den=1):
        num = np.asarray(num)
        if num.ndim != 2:
            raise ValueError("matrix data must be two-dimensional")
        if num.dtype.kind not in "iubO":
            raise TypeError("numerators must be integers")
        if den <= 0:
            raise ValueError("denominator must be positive")
        # the ufuncs' own reductions, without numpy's Python wrappers
        bound = max(int(np.maximum.reduce(num, axis=None)),
                    -int(np.minimum.reduce(num, axis=None))) if num.size else 0
        if bound >= _INT64_BOUND:
            num = num if num.dtype == object else _to_object_int(num)
        elif num.dtype != np.int64:
            num = num.astype(np.int64)
        self.num = num
        self.den = int(den)
        self.shape = num.shape
        self.bound = bound

    @classmethod
    def _of(cls, num, den, bound):
        """Matrix of numerators that a caller has checked: ``bound`` is
        their largest absolute value and ``num`` is int64 exactly when it
        is below 2^63, so nothing is scanned or converted."""
        m = object.__new__(cls)
        m.num = num
        m.den = den
        m.shape = num.shape
        m.bound = bound
        return m

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rows(cls, rows, shape=None):
        """Matrix from nested rows of int or Fraction entries."""
        rows = [list(r) for r in rows]
        if shape is None:
            shape = (len(rows), len(rows[0]) if rows else 0)
        if not all(isinstance(v, (int, Fraction)) for row in rows for v in row):
            raise TypeError("entries must be int or Fraction")
        den = math.lcm(*(Fraction(v).denominator for row in rows for v in row))
        num = np.array([[int(v * den) for v in row] for row in rows],
                       dtype=object)
        return cls(num.reshape(shape), den)

    @classmethod
    def zeros(cls, r, c):
        return cls._of(np.zeros((r, c), dtype=np.int64), 1, 0)

    # -- helpers -----------------------------------------------------------

    def _reduced(self):
        if self.den == 1:
            return self
        g = math.gcd(int(np.gcd.reduce(self.num, axis=None)), self.den)
        if g == 1:
            return self
        # g divides every numerator, so the bound divides exactly too
        num, bound = self.num // g, self.bound // g
        if num.dtype == object and bound < _INT64_BOUND:
            num = num.astype(np.int64)
        return Mat._of(num, self.den // g, bound)

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
            num = _float64_product(self.num, other.num)
        else:
            num = _to_object_int(self.num) @ _to_object_int(other.num)
        return Mat(num, self.den * other.den)._reduced()

    def __add__(self, other: "Mat") -> "Mat":
        if self.shape != other.shape:
            raise ValueError("shape mismatch in addition")
        a, b = _scaled(((self, other.den), (other, self.den)),
                       self.bound * other.den + other.bound * self.den)
        return Mat(a + b, self.den * other.den)._reduced()

    def __neg__(self) -> "Mat":
        return Mat._of(-self.num, self.den, self.bound)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat):
            return NotImplemented
        if self.shape != other.shape:
            return False
        a, b = _scaled(((self, other.den), (other, self.den)),
                       max(self.bound * other.den, other.bound * self.den))
        return bool(np.array_equal(a, b))

    def is_zero(self) -> bool:
        return self.bound == 0

    @property
    def T(self) -> "Mat":
        return Mat._of(self.num.T, self.den, self.bound)

    def kron(self, other: "Mat") -> "Mat":
        a, b = _scaled(((self, 1), (other, 1)), self.bound * other.bound)
        return Mat(np.kron(a, b), self.den * other.den)._reduced()

    def _echelon(self):
        """Fraction-free Gauss-Jordan elimination of the numerators.

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
        """Rank over the rationals; the denominator plays no part."""
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
        return f"Mat({self.shape[0]}x{self.shape[1]}, den={self.den})"


def common_denominator(mats):
    """(den, numerators, bound) of ``mats`` over the lcm of their
    denominators, with the largest absolute scaled numerator; every array
    holds objects when that bound reaches 2^63 and int64 otherwise."""
    den = math.lcm(*(m.den for m in mats))
    pairs = [(m, den // m.den) for m in mats]
    bound = max((m.bound * f for m, f in pairs), default=0)
    return den, _scaled(pairs, bound), bound


def zeros_for(shape, bound):
    """Zero numerators of ``shape`` in the storage that ``bound`` needs."""
    return np.zeros(shape, dtype=object if bound >= _INT64_BOUND else np.int64)


def assemble(shape, pieces) -> Mat:
    """Matrix of ``shape`` holding each (row, col, Mat) piece of ``pieces``
    at that offset and zeros elsewhere, over the lcm of their denominators."""
    den, nums, bound = common_denominator([m for _, _, m in pieces])
    num = zeros_for(shape, bound)
    for (row, col, m), piece in zip(pieces, nums):
        num[row:row + m.shape[0], col:col + m.shape[1]] = piece
    return Mat._of(num, den, bound)._reduced()


def _stack(mats, axis) -> Mat:
    mats = list(mats)
    if len({m.shape[1 - axis] for m in mats}) > 1:
        raise ValueError("column counts differ" if axis == 0
                         else "row counts differ")
    den, nums, bound = common_denominator(mats)
    return Mat._of(np.concatenate(nums, axis=axis), den, bound)._reduced()


def hstack(mats) -> Mat:
    return _stack(mats, axis=1)


def vstack(mats) -> Mat:
    return _stack(mats, axis=0)
