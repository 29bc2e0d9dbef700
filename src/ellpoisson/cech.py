"""Residue calculus on the covering of the curve by U+ = C \\ D and discs.

D = {k/n : k = 0..n-1} is the zero divisor of theta_0.  Global sections of
O(D) are spanned by phi_alpha = theta_alpha / theta_0; classes on the other
side of the duality are represented by vectors of disc-local functions

    psi_alpha = (theta'_0(0) / theta_alpha(k/n))_k   for alpha != 0,
    psi_0     = (1 / (z - k/n))_k,

dual to (phi_alpha) under the trace pairing tr(f) = (1/n) sum_k Res_{k/n} f.
The principal-part projection P_+ has closed theta-quotient forms on the
products psi_alpha phi_beta.  One expansion of P_+(psi_t phi) in those
forms (:meth:`ResidueSystem.projection_coeffs`) is certified pair by pair
against the samples and is the one the trace-pairing route to
{t_i, t_j} and the image class pi_t run; the fully expanded coefficient
route is cross-checked against the trace-pairing route.

Every residue is a trace over the same n circles around the points of D,
so :class:`ResidueSystem` holds phi_alpha, phi_alpha' and psi_alpha on
those circles as sample tables and reads every quantity off them: by the
trapezoidal rule, the Laurent coefficient c_m of f around k/n is the node
mean of f * (z - k/n)^(-m).  The theta series is evaluated on the circle
around 0 only: the exact 1/n-shift property
theta_alpha(k/n + z) = omega^(alpha k) theta_alpha(z) fills every other
disc.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContourError, DegenerateTauError
from .fo import f_constants
# theta_alpha_deriv and theta_alpha_eval are not called here; they stay
# bound because perfbench/spans.py wraps ellpoisson.cech.theta_alpha_deriv
# and ellpoisson.cech.theta_alpha_eval on every traced run
from .theta import (ThetaBasis, circle_nodes, shortest_period,
                    theta_alpha_deriv, theta_alpha_eval, theta_alpha_jet)

# largest relative |sum_a t_a phi_a| that pi_t_class accepts as zero
KERNEL_TOL = 1e-8


@dataclass(frozen=True)
class QuadratureConfig:
    """Trapezoid-on-circle contour settings.

    ``radius`` of None resolves to a quarter of the distance d between
    neighbouring zeros of theta_0, d = the shortest period of
    (1/n)Z + Z*tau (at most 1/n, and exactly 1/n unless Im(tau) is small);
    an explicit radius must stay below d/2.  Without tau, d is taken as 1/n.
    """

    circle_points: int = 128
    radius: float | None = None

    def resolve(self, n: int, tau: complex | None = None) -> tuple[int, float]:
        if self.circle_points < 32:
            raise ValueError("need at least 32 contour points")
        d = 1.0 / n if tau is None else shortest_period(n, tau)
        rho = self.radius if self.radius is not None else d / 4
        if not 0 < rho < d / 2:
            raise ValueError(f"radius must lie strictly between 0 and "
                             f"{d / 2:.6g}, half the distance between "
                             "neighbouring poles")
        return self.circle_points, rho


def _node_coeffs(samples, offsets, window: tuple[int, int]) -> np.ndarray:
    """Laurent coefficients c_m, m_min <= m <= m_max, from circle samples.

    ``samples`` holds f at center + offsets along its last axis; c_m is the
    node mean of f * offsets^(-m), spectrally accurate while the circle
    stays inside the annulus of analyticity.
    """
    ms = np.arange(window[0], window[1] + 1)
    return samples @ offsets[:, None] ** -ms / len(offsets)


def laurent_coeffs(f, center: complex, window: tuple[int, int],
                   q: QuadratureConfig, n: int = 1) -> np.ndarray:
    """Laurent coefficients c_m of the callable f around center for m in
    [m_min, m_max].  Only tests call it; perfbench/spans.py wraps it."""
    offsets = circle_nodes(*q.resolve(n))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        samples = np.asarray(f(center + offsets), dtype=complex)
    if samples.shape != offsets.shape or not np.all(np.isfinite(samples)):
        raise ContourError(f"contour around {center} hit a singularity")
    return _node_coeffs(samples, offsets, window)


def psi_local_constant(basis: ThetaBasis, alpha: int, k):
    """Disc-k value of psi_alpha for alpha != 0; k may be an array of discs.

    theta_alpha(k/n) reduces to omega^(alpha k) theta_alpha(0) by the 1/n
    shift property, so one theta value per alpha suffices.
    """
    alpha %= basis.n
    if alpha == 0:
        raise ValueError("psi_0 is not constant on its disc")
    if abs(basis.theta_at_zero[alpha]) == 0:
        raise DegenerateTauError(f"theta_{alpha}(0) = 0")
    return (basis.dtheta_at_zero[0]
            * basis.omega ** (-(alpha * k) % basis.n)
            / basis.theta_at_zero[alpha])


class ResidueSystem:
    """Node tables for the residue calculus at a fixed basis and quadrature.

    Immutable after construction.  ``nodes[k, p]`` = k/n + offsets[p] are
    the quadrature nodes on the circle around k/n, with ``points`` nodes at
    ``radius``; ``phi``, ``dphi`` and ``psi`` hold phi_alpha, phi_alpha'
    and psi_alpha there, as arrays indexed [alpha, k, p].  One order-1 jet
    of each theta_alpha on the circle around 0 gives the values and
    derivatives on disc 0; disc k is disc 0 times omega^(alpha k), exactly
    by the 1/n-shift property (theta is 1-periodic, so the n factors of
    theta_alpha are only permuted).  The trace tables

        T3[a, b] = tr(phi_a phi_b psi_{a+b}),
        TD[a, b] = tr(phi_a' phi_b psi_{a+b})

    are the only quadrature inputs the fully expanded bracket needs.
    """

    def __init__(self, basis: ThetaBasis, quad: QuadratureConfig | None = None):
        self.basis = basis
        self.quad = quad if quad is not None else QuadratureConfig()
        self.f = f_constants(basis)
        n = basis.n
        self.points, self.radius = self.quad.resolve(n, basis.params.tau)
        self.offsets = circle_nodes(self.points, self.radius)
        self.nodes = np.arange(n)[:, None] / n + self.offsets
        # shift[a, k] = omega^(a k mod n)
        shift = basis.omega ** (np.multiply.outer(np.arange(n), np.arange(n))
                                % n)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            th, dth = theta_alpha_jet(basis, np.arange(n), self.offsets,
                                      1).swapaxes(1, 2)
            phi0 = th / th[0]
            dphi0 = (dth * th[0] - th * dth[0]) / th[0] ** 2
        if not (np.all(np.isfinite(phi0)) and np.all(np.isfinite(dphi0))):
            raise ContourError("a contour around a point of D hit a singularity")
        self.phi = shift[:, :, None] * phi0[:, None]
        self.dphi = shift[:, :, None] * dphi0[:, None]
        self.phi[0] = 1.0
        self.dphi[0] = 0.0
        self.psi = np.empty_like(self.phi)
        self.psi[0] = 1.0 / self.offsets
        for a in range(1, n):
            self.psi[a] = psi_local_constant(basis, a, np.arange(n))[:, None]
        psi_sum = self.psi[(np.arange(n)[:, None] + np.arange(n)) % n]
        self.t3 = self.tr(self.phi[:, None] * self.phi * psi_sum)
        self.td = self.tr(self.dphi[:, None] * self.phi * psi_sum)

    def tr(self, samples) -> np.ndarray:
        """The trace pairing over the last two axes (disc k, node p) of a
        sample table: (1/n) sum_k Res_{k/n}."""
        # Res_{k/n} f is the node mean of f * offsets on disc k
        return (samples.sum(axis=-2) @ self.offsets
                / (self.basis.n * len(self.offsets)))

    def _combine(self, phi_coeffs, dphi_coeffs=None) -> np.ndarray:
        """Samples of sum_g c_g phi_g + sum_g d_g phi_g'."""
        out = np.tensordot(phi_coeffs, self.phi, 1)
        if dphi_coeffs is not None:
            out = out + np.tensordot(dphi_coeffs, self.dphi, 1)
        return out

    def _principal_part(self, samples) -> float:
        """Largest |c_-2|, |c_-1| over the discs of an (n, P) sample table."""
        return float(np.max(np.abs(_node_coeffs(samples, self.offsets,
                                                (-2, -1)))))

    def pairing_matrix(self) -> np.ndarray:
        """<phi_a, psi_b>; equals the identity within quadrature error."""
        return self.tr(self.phi[:, None] * self.psi)

    # -- checks of the closed forms ----------------------------------------

    def verify_p_plus(self, alpha: int, beta: int,
                      coeff_scale: float = 1.0) -> float:
        """Largest principal-part coefficient of psi_a phi_b - P_+(psi_a phi_b).

        P_+(psi_a phi_b) is :meth:`projection_coeffs` at t = e_a, phi = phi_b.
        A small value certifies the closed form; ``coeff_scale`` != 1
        rescales the closed form to demonstrate the check has power.  The
        diagonal alpha = beta is defined only inside zero-sum combinations
        (:meth:`verify_p_plus_zero_sum`) and is rejected here.
        """
        n = self.basis.n
        alpha %= n
        beta %= n
        if alpha == beta:
            raise ValueError("psi_a phi_a has nonzero residues; only zero-sum "
                             "combinations of such products are projectable")
        unit = np.eye(n, dtype=complex)
        phi_c, dphi_c = self.projection_coeffs(unit[alpha], unit[beta])
        projected = self._combine(coeff_scale * phi_c, coeff_scale * dphi_c)
        return self._principal_part(self.psi[alpha] * self.phi[beta]
                                    - projected)

    def verify_p_plus_zero_sum(self, coeffs) -> float:
        """Principal-part residual of sum_a c_a psi_a phi_a when sum c_a = 0.

        The projection of such a combination vanishes, so the combination
        itself must be regular near every point of D.
        """
        coeffs = np.asarray(coeffs, dtype=complex)
        if len(coeffs) != self.basis.n:
            raise ValueError("need one coefficient per index")
        if abs(np.sum(coeffs)) > 1e-12 * max(1.0, float(np.max(np.abs(coeffs)))):
            raise ValueError("coefficients must sum to zero")
        return self._principal_part(np.tensordot(coeffs, self.psi * self.phi, 1))

    def verify_trace_identity(self, i: int, j: int) -> float:
        """|F(i,j-i) tr(phi_{j-i} phi_i psi_j) - (th'_i/th_i + th'_{j-i}/th_{j-i}
        - 2 pi i n)| for i, j, i-j nonzero mod n."""
        basis = self.basis
        n = basis.n
        if i % n == 0 or j % n == 0 or (i - j) % n == 0:
            raise ValueError("need i, j and i - j nonzero mod n")
        lhs = self.f.c(i, j - i) * self.t3[(j - i) % n, i % n]
        rhs = (basis.ratio_dtheta(i) + basis.ratio_dtheta(j - i)
               - 2j * math.pi * n)
        return float(abs(lhs - rhs))

    # -- the two routes to {t_i, t_j} -------------------------------------

    def closed_form_entry(self, t, i: int, j: int) -> complex:
        """Fully expanded coefficient formula (trace tables plus F)."""
        n = self.basis.n
        t = np.asarray(t, dtype=complex)
        f = self.f
        term1 = sum(t[(j - r) % n] * t[(i + r) % n] * f.c(j - r, r)
                    * self.t3[r % n, i % n]
                    for r in range(1, n))
        term2 = sum(t[(i + r) % n] * t[(j - r) % n] * f.c(i + r, -r)
                    * self.t3[(-r) % n, j % n]
                    for r in range(1, n))
        term3 = sum(t[r % n] * t[(j - r) % n] * f.c(r, j - r)
                    for r in range(n) if r != j % n)
        term4 = sum(t[r % n] * t[(i - r) % n] * f.c(r, i - r)
                    for r in range(n) if r != i % n)
        term5 = t[(i + j) % n] * (-self.td[j % n, i % n] + self.td[i % n, j % n])
        return term1 - term2 - t[i % n] * term3 + t[j % n] * term4 + term5

    def _psi_t(self, t) -> np.ndarray:
        """Samples of psi_t = sum_a t_a psi_a."""
        return np.tensordot(t, self.psi, 1)

    def projection_coeffs(self, t, a) -> tuple[np.ndarray, np.ndarray]:
        """Coordinates of P_+(psi_t phi) for phi = sum_c a_c phi_c with
        sum_c t_c a_c = 0: the phi and the phi' coefficients.

        The closed forms: P_+(psi_al phi_c) is zero for c = 0,
        F(al, c - al) phi_{c-al} for al, c nonzero and distinct, and
        F(0, c) phi_c - phi_c' for al = 0.  The diagonal products
        psi_c phi_c drop out by the kernel condition, and phi_0' vanishes.
        """
        n = self.basis.n
        phi_coeffs = np.zeros(n, dtype=complex)
        for c in range(1, n):
            for al in range(n):
                if al != c:
                    phi_coeffs[(c - al) % n] += a[c] * t[al] * self.f.c(al, c - al)
        return phi_coeffs, -t[0] * a

    def trace_form_entry(self, t, i: int, j: int) -> complex:
        """Direct quadrature of the projected-cocycle pairing."""
        t = np.asarray(t, dtype=complex)
        psi_t = self._psi_t(t)
        dt_i = self._dt(t, i)
        dt_j = self._dt(t, j)
        return complex(self.tr(
            self._combine(*self.projection_coeffs(t, dt_j)) * psi_t
            * self._combine(dt_i)
            - self._combine(*self.projection_coeffs(t, dt_i)) * psi_t
            * self._combine(dt_j)))

    def _dt(self, t, i: int) -> np.ndarray:
        """Coordinates of the cotangent vector phi_i - t_i phi_0."""
        i %= self.basis.n
        a = np.zeros(self.basis.n, dtype=complex)
        a[0] = -t[i]
        a[i] += 1.0
        return a

    def bracket_matrix(self, t, method: str = "closed_form") -> np.ndarray:
        """Antisymmetric matrix of {t_i, t_j}, chart indices 1..n-1."""
        n = self.basis.n
        t = np.asarray(t, dtype=complex)
        if len(t) != n or t[0] != 1:
            raise ValueError("t must have length n with t[0] = 1")
        if method == "closed_form":
            entry = self.closed_form_entry
        elif method == "trace_form":
            entry = self.trace_form_entry
        else:
            raise ValueError(f"unknown method {method!r}")
        out = np.zeros((n, n), dtype=complex)
        for i in range(1, n):
            for j in range(i + 1, n):
                val = entry(t, i, j)
                out[i, j] = val
                out[j, i] = -val
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
        psi_t = self._psi_t(t)
        w = psi_t * (psi_t * self._combine(a)
                     - 2.0 * self._combine(*self.projection_coeffs(t, a)))
        return self.tr(self.phi * w)
