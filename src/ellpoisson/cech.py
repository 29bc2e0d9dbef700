"""Residue calculus on the covering of the curve by U+ = C \\ D and discs.

D = {k/n : k = 0..n-1} is the zero divisor of theta_0.  Global sections of
O(D) are spanned by phi_alpha = theta_alpha / theta_0; classes on the other
side of the duality are represented by vectors of disc-local functions

    psi_alpha = (theta'_0(0) / theta_alpha(k/n))_k   for alpha != 0,
    psi_0     = (1 / (z - k/n))_k,

dual to (phi_alpha) under the trace pairing tr(f) = (1/n) sum_k Res_{k/n} f.
The principal-part projection P_+ has closed theta-quotient forms on the
products psi_alpha phi_beta.  One expansion of P_+(psi_t phi) in those
forms (:meth:`ResidueSystem.projection_coeffs`), which the tests certify
pair by pair against the samples, is the one the trace-pairing route to
{t_i, t_j} and the image class pi_t run.  The fully expanded route,
cross-checked against it, is :func:`poisson.chart_rule`, the function
that descends a quadratic bracket to the chart, on a coefficient table
that the system builds from F and the trace tables.  Both routes take a
stack of chart points and return the grid of {t_i, t_j} over the chart
indices 1..n-1, each stacked grid bit for bit the grid of its point
alone; the trace route projects the n - 1 cotangent vectors
phi_i - t_i phi_0 of a point with one matrix product and pairs them with
their cocycles by one more, M = samples @ cocycle^T, the grid being
M - M^T.  What depends only on the system is built once with it,
read-only.

Every residue is a trace over the same n circles around the points of D,
so :class:`ResidueSystem` holds phi_alpha, phi_alpha' and psi_alpha on
those circles as sample tables and reads every quantity off them: by the
trapezoidal rule on ``theta.circle_nodes``, the Laurent coefficient c_m of
f around k/n is the node mean of f * (z - k/n)^(-m).  The rule has no
settings: its node count is fixed and its radius is a quarter of the
distance between neighbouring points of D.  The circle around 0 is the
only place this module evaluates theta: one ``theta_alpha_jet`` call gives
the order-1 jet of every theta_alpha there, and the exact 1/n-shift
property theta_alpha(k/n + z) = omega^(alpha k) theta_alpha(z) fills every
other disc.
"""

from __future__ import annotations

import numpy as np

from .errors import ContourError, DegenerateTauError
from .fo import f_constants
from .poisson import chart_point, chart_rule, map_stack
# theta_alpha_deriv and theta_alpha_eval are not called here; they stay
# bound because perfbench/spans.py wraps ellpoisson.cech.theta_alpha_deriv
# and ellpoisson.cech.theta_alpha_eval on every traced run
from .theta import (ThetaBasis, chunks, circle_nodes, shortest_period,
                    theta_alpha_deriv, theta_alpha_eval, theta_alpha_jet)

# largest relative |sum_a t_a phi_a| that pi_t_class accepts as zero
KERNEL_TOL = 1e-8


def _node_coeffs(samples, offsets, window: tuple[int, int]) -> np.ndarray:
    """Laurent coefficients c_m, m_min <= m <= m_max, from circle samples.

    ``samples`` holds f at center + offsets along its last axis; c_m is the
    node mean of f * offsets^(-m), spectrally accurate while the circle
    stays inside the annulus of analyticity.
    """
    ms = np.arange(window[0], window[1] + 1)
    return samples @ offsets[:, None] ** -ms / len(offsets)


def laurent_coeffs(f, center: complex, window: tuple[int, int],
                   n: int = 1) -> np.ndarray:
    """Laurent coefficients c_m of the callable f around center for m in
    [m_min, m_max], on the circle for a pole distance of 1/n.  Only tests
    call it; perfbench/spans.py wraps it."""
    offsets = circle_nodes(1.0 / n)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        samples = np.asarray(f(center + offsets), dtype=complex)
    if samples.shape != offsets.shape or not np.all(np.isfinite(samples)):
        raise ContourError(f"contour around {center} hit a singularity")
    return _node_coeffs(samples, offsets, window)


class ResidueSystem:
    """Node tables for the residue calculus at a fixed basis.

    ``nodes[k, p]`` = k/n + offsets[p] are the quadrature nodes on the
    circle around k/n, with ``points`` nodes at ``radius``, a quarter of
    the distance d between neighbouring points of D, d = the shortest
    period of (1/n)Z + Z*tau (at most 1/n, and exactly 1/n unless Im(tau)
    is small); ``phi``, ``dphi`` and ``psi`` hold phi_alpha, phi_alpha' and
    psi_alpha there, as arrays indexed [alpha, k, p].  One
    ``theta_alpha_jet`` call on the circle around 0,
    ``offsets = circle_nodes(d)``, gives the values and derivatives of
    every theta_alpha on disc 0; disc k is disc 0 times omega^(alpha k),
    exactly by the 1/n-shift property (theta is 1-periodic, so the n
    factors of theta_alpha are only permuted).  A circle whose values may
    leave double range is refused by that call with a
    :class:`ThetaRangeError`.  The trace tables

        T3[a, b] = tr(phi_a phi_b psi_{a+b}),
        TD[a, b] = tr(phi_a' phi_b psi_{a+b})

    are the only quadrature inputs the fully expanded bracket needs.

    The closed route is :func:`poisson.chart_rule` of the coefficient
    table ``g``, G[i, j, k] the coefficient of x_k x_{i+j-k} in
    {x_i, x_j}: G[0, j, k] = F(k, j-k) for k != j, G[i, 0] = -G[0, i],
    and for i, j >= 1 (all indices mod n)

        G[i, j, k] = F(j-r, r) T3[r, i] - F(k, -r) T3[-r, j]  (r = k-i != 0)
                     + (TD[i, j] - TD[j, i])  at k = i+j,

    built in chunks of first indices (:func:`theta.chunks`).  The trace
    route reads ``mr``[m, r] = m - r mod n and ``f_mr``[m, r] =
    F(r, m - r); F is symmetric to the bit, so ``projection_coeffs`` reads
    F(c - e, e) at [c, e] off it too.  At n = 63, g takes 4.0 MB of the
    10.4 MB a system keeps.
    A basis with some theta_alpha(0) = 0, alpha != 0, has no psi_alpha and
    is refused with a :class:`DegenerateTauError`.
    """

    def __init__(self, basis: ThetaBasis):
        zero = np.flatnonzero(basis.theta_at_zero[1:] == 0)
        if zero.size:
            raise DegenerateTauError(f"theta_{zero[0] + 1}(0) = 0")
        self.basis = basis
        self.f = f_constants(basis)
        n = basis.n
        d = shortest_period(n, basis.params.tau)
        self.offsets = circle_nodes(d)
        self.points = len(self.offsets)
        self.radius = d / 4
        k = np.arange(n)
        self.nodes = k[:, None] / n + self.offsets
        # shift[a, k] = omega^(a k mod n)
        shift = basis.omega ** (np.multiply.outer(k, k) % n)
        th, dth = theta_alpha_jet(basis, k, self.offsets, 1).swapaxes(1, 2)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            phi0 = th / th[0]
            dphi0 = (dth * th[0] - th * dth[0]) / th[0] ** 2
        if not (np.all(np.isfinite(phi0)) and np.all(np.isfinite(dphi0))):
            raise ContourError("a contour around a point of D hit a singularity")
        self.phi = shift[:, :, None] * phi0[:, None]
        self.dphi = shift[:, :, None] * dphi0[:, None]
        self.phi[0] = 1.0
        self.dphi[0] = 0.0
        # psi_alpha = theta'_0(0) / theta_alpha(k/n) on disc k, alpha != 0,
        # and theta_alpha(k/n) = omega^(alpha k) theta_alpha(0)
        self.psi = np.empty_like(self.phi)
        self.psi[0] = 1.0 / self.offsets
        self.psi[1:] = (basis.dtheta_at_zero[0] * shift[1:, -k % n]
                        / basis.theta_at_zero[1:, None])[..., None]
        # the trace tables in chunks of first indices a, n^2 P entries each
        self.t3 = np.empty((n, n), dtype=complex)
        self.td = np.empty_like(self.t3)
        for a in chunks(n, n * n * self.points):
            psi_sum = self.psi[(k[a, None] + k) % n]
            self.t3[a] = self.tr(self.phi[a, None] * self.phi * psi_sum)
            self.td[a] = self.tr(self.dphi[a, None] * self.phi * psi_sum)
        # the route tables of the class docstring
        f, t3, td = self.f, self.t3, self.td
        self.mr = (k[:, None] - k) % n
        self.f_mr = f[k, self.mr]
        # g by the rule of i, j >= 1, n^2 entries a first index i; row and
        # column 0 are set after the loop
        self.g = np.empty((n, n, n), dtype=complex)
        j = k[:, None]
        for a in chunks(n, n * n):
            i = k[a, None, None]
            r = (k - i) % n
            g = f[(j - r) % n, r] * t3[r, i] - f[k, -r % n] * t3[-r % n, j]
            rows = np.arange(len(g))
            g[rows, :, k[a]] = 0.0  # r = 0
            g[rows[:, None], k, (k[a, None] + k) % n] += td[a] - td[:, a].T
            self.g[a] = g
        # G[0, j, k] = F(k, j-k) = f_mr[j, k] off k = j
        self.g[0] = np.where(self.mr, self.f_mr, 0.0)
        self.g[1:, 0] = -self.g[0, 1:]
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)

    def tr(self, samples) -> np.ndarray:
        """The trace pairing over the last two axes (disc k, node p) of a
        sample table: (1/n) sum_k Res_{k/n}."""
        # Res_{k/n} f is the node mean of f * offsets on disc k
        return (samples.sum(axis=-2) @ self.offsets
                / (self.basis.n * len(self.offsets)))

    def _samples(self, coeffs, table) -> np.ndarray:
        """Samples of sum_g coeffs[..., g] table[g], one table per row of
        the coefficients, as one matrix product."""
        flat = coeffs @ table.reshape(len(table), -1)
        return flat.reshape(flat.shape[:-1] + table.shape[1:])

    def _combine(self, phi_coeffs, dphi_coeffs) -> np.ndarray:
        """Samples of sum_g c_g phi_g + sum_g d_g phi_g'."""
        return (self._samples(phi_coeffs, self.phi)
                + self._samples(dphi_coeffs, self.dphi))

    # -- the two routes to {t_i, t_j} -------------------------------------
    # Both take a chart point t (n,), or a stack of them (..., n), and
    # return the grid (..., n-1, n-1) of {t_i, t_j}, i, j = 1..n-1, that
    # bracket_matrix reads.  A stacked grid equals, bit for bit, the grid
    # of its point alone, by two rules:
    # - every gather from a stacked array is a ``take``, which keeps the
    #   stack axes outermost in memory, so each sum runs over a C-contiguous
    #   last axis and adds in the order it does for one point;
    # - psi_t = t.psi stays one vector-matrix product per point, since a
    #   stacked matrix product rounds differently.

    def closed_form_entry(self, t):
        """The fully expanded coefficient formula: :func:`poisson.chart_rule`
        of the table ``g`` (class docstring) at a point t or a stack."""
        return chart_rule(self.g, t)[..., 1:, 1:]

    def projection_coeffs(self, t, a) -> tuple[np.ndarray, np.ndarray]:
        """Coordinates of P_+(psi_t phi) for phi = sum_c a_c phi_c with
        sum_c t_c a_c = 0: the phi and the phi' coefficients.  A 2-D ``a``
        projects each of its rows; a stack of points t (..., n) takes a
        stack a (..., m, n) of rows for each point.

        The closed forms: P_+(psi_al phi_c) is zero for c = 0,
        F(al, c - al) phi_{c-al} for al, c nonzero and distinct, and
        F(0, c) phi_c - phi_c' for al = 0.  The diagonal products
        psi_c phi_c drop out by the kernel condition, and phi_0' vanishes.
        """
        # row c, column e = c - al: the phi_e coefficient of P_+(psi_al phi_c)
        # times t_al, al = (c - e) mod n; e = 0 is the diagonal al = c
        proj = t.take(self.mr, axis=-1) * self.f_mr
        proj[..., 0, :] = proj[..., :, 0] = 0.0
        lead = -t[0] if t.ndim == 1 else -t[..., :1, None]
        return a @ proj, lead * a

    def trace_form_entry(self, t):
        """Direct quadrature of the projected-cocycle pairing, at a point t
        (n,) or a stack (..., n), as one contraction per point: row i of
        ``samples`` holds phi_i - t_i phi_0 weighted node by node by the
        rule of :meth:`tr`, row j of ``cocycle`` psi_t P_+(psi_t (phi_j -
        t_j phi_0)), both over the n P nodes, so M = samples @ cocycle^T
        holds tr(cocycle_j samples_i) and the grid is M - M^T."""
        n = self.basis.n
        t = np.asarray(t, dtype=complex)
        # row i - 1: the cotangent vector phi_i - t_i phi_0, i = 1..n-1
        dt = np.zeros(t.shape[:-1] + (n - 1, n), dtype=complex)
        dt[..., 1:] = np.eye(n - 1)
        dt[..., 0] = -t[..., 1:]
        # (1, n) @ (n, n P) for each point: one vector-matrix product each
        psi_t = t[..., None, :] @ self.psi.reshape(n, -1)
        cocycle = (self._combine(*self.projection_coeffs(t, dt))
                   .reshape(dt.shape[:-1] + (n * self.points,)) * psi_t)
        samples = ((self.phi[1:] - t[..., 1:, None, None]) * self.offsets
                   / (n * self.points))
        m = samples.reshape(cocycle.shape) @ cocycle.swapaxes(-1, -2)
        return m - m.swapaxes(-1, -2)

    def bracket_matrix(self, t, method: str = "closed_form") -> np.ndarray:
        """Antisymmetric matrix of {t_i, t_j}, chart indices 1..n-1; row
        and column 0 are zero.

        A stack of points t (..., n) gives a stack of matrices (..., n, n),
        each bit for bit the matrix of its point alone, and a row off the
        chart raises :func:`poisson.chart_point`'s ValueError.  A route
        runs in chunks of whole points (:func:`poisson.map_stack`), cut by
        its largest temporaries: n^3 entries a point for the closed form,
        n^2 ``points`` for the trace form.
        """
        n = self.basis.n
        t = chart_point(n, t)
        if method == "closed_form":
            grid = self.closed_form_entry(t)
        elif method == "trace_form":
            grid = map_stack(self.trace_form_entry, t, n * n * self.points)
        else:
            raise ValueError(f"unknown method {method!r}")
        upper = np.triu(grid, 1)
        out = np.zeros(t.shape + (n,), dtype=complex)
        out[..., 1:, 1:] = upper - upper.swapaxes(-1, -2)
        return out

    def pi_t_class(self, t, phi_coeffs) -> np.ndarray:
        """Coordinates of the image class of a cotangent vector.

        ``phi_coeffs`` holds the coordinates of phi in the (phi_alpha) basis
        and must satisfy sum t_a phi_coeffs_a = 0 (the
        kernel condition, within ``KERNEL_TOL``); the result is well defined
        up to adding a multiple of t.
        """
        t = np.asarray(t, dtype=complex)
        a = np.asarray(phi_coeffs, dtype=complex)
        scale = max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(t))))
        if abs(np.dot(t, a)) > KERNEL_TOL * scale:
            raise ValueError("phi is not in the kernel of the pairing with t")
        psi_t = self._samples(t, self.psi)
        w = psi_t * (psi_t * self._samples(a, self.phi)
                     - 2.0 * self._combine(*self.projection_coeffs(t, a)))
        return self.tr(self.phi * w)
