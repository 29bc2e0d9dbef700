"""Exact rational matrices sized for chain-complex checks.

A matrix is stored as an integer numpy object array plus a single positive
denominator.  Products route through numpy's int64 matmul (its own integer
loops: BLAS serves floating point only) when a proven bound rules out
overflow and fall back to arbitrary-precision objects otherwise, so every
identity checked against these matrices is exact.  Rank and nullspace read
one fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 22, 1968).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

_INT64_SAFE = 2 ** 62


def _to_object_int(arr):
    # tolist() yields native Python ints, keeping later arithmetic unbounded
    out = np.empty(arr.shape, dtype=object)
    if arr.size:
        out[...] = np.asarray(arr.tolist(), dtype=object)
    return out


class Mat:
    """Immutable exact rational matrix: object-int numerators / denominator."""

    __slots__ = ("num", "den", "shape")

    def __init__(self, num, den=1, shape=None):
        num = np.asarray(num, dtype=object)
        if shape is not None:
            num = num.reshape(shape)
        if num.ndim != 2:
            raise ValueError("matrix data must be two-dimensional")
        if den <= 0:
            raise ValueError("denominator must be positive")
        self.num = num
        self.den = int(den)
        self.shape = num.shape

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
        return cls(np.zeros((r, c), dtype=object))

    @classmethod
    def identity(cls, n):
        return cls(np.eye(n, dtype=object))

    # -- helpers -----------------------------------------------------------

    def _max_abs(self):
        if self.num.size == 0:
            return 0
        return max(self.num.max(), -self.num.min())

    def _reduced(self):
        if self.den == 1:
            return self
        g = self.den
        for v in self.num.flat:
            g = math.gcd(g, abs(int(v)))
            if g == 1:
                return self
        return Mat(self.num // g, self.den // g)

    def entry(self, i, j) -> Fraction:
        return Fraction(int(self.num[i, j]), self.den)

    # -- algebra -----------------------------------------------------------

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.shape[1] != other.shape[0]:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        r, k = self.shape
        c = other.shape[1]
        if r == 0 or c == 0 or k == 0:
            return Mat.zeros(r, c)
        bound = k * self._max_abs() * other._max_abs()
        if bound < _INT64_SAFE:
            prod = (self.num.astype(np.int64) @ other.num.astype(np.int64))
            num = _to_object_int(prod)
        else:
            num = self.num @ other.num
        return Mat(num, self.den * other.den)._reduced()

    def __add__(self, other: "Mat") -> "Mat":
        if self.shape != other.shape:
            raise ValueError("shape mismatch in addition")
        num = self.num * other.den + other.num * self.den
        return Mat(num, self.den * other.den)._reduced()

    def __sub__(self, other: "Mat") -> "Mat":
        return self + (-other)

    def __neg__(self) -> "Mat":
        return Mat(-self.num, self.den)

    def scale(self, v) -> "Mat":
        v = Fraction(v)
        return Mat(self.num * v.numerator, self.den * v.denominator)._reduced()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat):
            return NotImplemented
        if self.shape != other.shape:
            return False
        return bool(np.all(self.num * other.den == other.num * self.den))

    def is_zero(self) -> bool:
        return bool(np.all(self.num == 0))

    @property
    def T(self) -> "Mat":
        return Mat(self.num.T.copy(), self.den)

    def kron(self, other: "Mat") -> "Mat":
        return Mat(np.kron(self.num, other.num), self.den * other.den)._reduced()

    def _echelon(self):
        """Fraction-free Gauss-Jordan elimination of the numerators.

        Returns (a, pivots, d): ``a`` is row-equivalent to ``num``, its first
        len(pivots) rows are in reduced echelon form with pivot columns
        ``pivots`` and every pivot entry equal to d, and its other rows are
        zero.  Each step divides exactly by the previous pivot (Bareiss), so
        every entry stays a minor of ``num``.
        """
        a = self.num.copy()
        rows = a.shape[0]
        pivots = []
        d = 1
        for col in range(a.shape[1]):
            r = len(pivots)
            if r == rows:
                break
            below = np.flatnonzero(a[r:, col] != 0)
            if not below.size:
                continue
            p = r + int(below[0])
            a[[r, p]] = a[[p, r]]
            piv = a[r, col]
            # rows below are zero left of col; rows above change everywhere
            for span, left in ((slice(r + 1, None), col), (slice(0, r), 0)):
                sub = a[span, left:]
                step = np.outer(a[span, col], a[r, left:])
                sub *= piv
                sub -= step
                sub //= d
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


def _stack(mats, axis) -> Mat:
    mats = list(mats)
    size = mats[0].shape[1 - axis]
    if any(m.shape[1 - axis] != size for m in mats):
        raise ValueError("column counts differ" if axis == 0
                         else "row counts differ")
    den = math.lcm(*(m.den for m in mats))
    num = np.concatenate([m.num * (den // m.den) for m in mats], axis=axis)
    return Mat(num, den)._reduced()


def hstack(mats) -> Mat:
    return _stack(mats, axis=1)


def vstack(mats) -> Mat:
    return _stack(mats, axis=0)
