"""Elastic medium, plane waves, the Navier Green's tensor and its tractions.

Kernel conventions
------------------
    perp:     v_perp = (-v2, v1)  (anticlockwise quarter turn), used everywhere
    Green:    Phi(x,y) = phi1(r) I + phi2(r) what what^T,  w = x - y, r = |w|
    traction: (T_nu u) = 2 mu (nu.grad) u + lam nu div u - mu nu_perp divperp u

phi1/phi2 come from the Helmholtz-decomposed fundamental solution

    Phi = (i/4mu) H0(ks r) I + (i/4w^2) grad grad^T [H0(ks r) - H0(kp r)]

with all derivatives taken in closed form through the Hankel recurrence
H0' = -H1; numerical differentiation appears only in the test oracles.
Every Bessel value is real-argument: H_a = J_a + i Y_a and the log
coefficient's J_a come from the Cephes j0/j1/y0/y1 of scipy.special, whose
relative error at z = k r is below z * eps (the rounding z itself carries);
the complex-argument AMOS routines are kept only as the test oracle.

The far-field normalization is the one the test functions and the
single-layer far-field quadrature share: a point source at y with
polarization q radiates the patterns

    Phi_p = e^{-i kp xhat.y} (q . xhat),   Phi_s = e^{-i ks xhat.y} (q . xhat_perp).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import j0, j1, y0, y1

EULER_GAMMA = 0.5772156649015328606


class WaveMode(Enum):
    P = "p"
    S = "s"


@dataclass(frozen=True)
class Medium:
    """Homogeneous isotropic elastic medium: Lame constants and frequency.

    Requires finite values with mu > 0, lam + 2 mu > 0, omega > 0; the derived
    wave numbers are k_p = omega / sqrt(lam + 2 mu) and k_s = omega / sqrt(mu).
    """

    lam: float
    mu: float
    omega: float

    def __post_init__(self) -> None:
        if not np.isfinite([self.lam, self.mu, self.omega]).all():
            raise ValueError(f"need finite lam, mu, omega, got "
                             f"{self.lam}, {self.mu}, {self.omega}")
        if not self.mu > 0:
            raise ValueError(f"need mu > 0, got {self.mu}")
        if not self.lam + 2.0 * self.mu > 0:
            raise ValueError(f"need lam + 2 mu > 0, got {self.lam + 2 * self.mu}")
        if not self.omega > 0:
            raise ValueError(f"need omega > 0, got {self.omega}")

    @property
    def k_p(self) -> float:
        return self.omega / np.sqrt(self.lam + 2.0 * self.mu)

    @property
    def k_s(self) -> float:
        return self.omega / np.sqrt(self.mu)


def wave_numbers(medium: Medium) -> tuple[float, float]:
    """(k_p, k_s) of the medium."""
    return medium.k_p, medium.k_s


def perp(v: np.ndarray) -> np.ndarray:
    """Anticlockwise quarter turn: (v1, v2) -> (-v2, v1). Shape (..., 2)."""
    v = np.asarray(v)
    return np.stack([-v[..., 1], v[..., 0]], axis=-1)


# ---------------------------------------------------------------------------
# Radial kernel coefficients
# ---------------------------------------------------------------------------
def _radial_combos(r, h0s, h1s, h0p, h1p, medium: Medium) -> dict:
    """Scalar radial functions entering the Green tensor and its traction.

    With g(r) = H0(ks r) - H0(kp r) (or the J-Bessel analogue):
        phi1 = (i/4mu) H0(ks r) + (i/4w^2) g'/r
        phi2 = (i/4w^2) (g'' - g'/r)
        b    = phi2 / r^2
        D    = phi1'/r + b' r + 3 b        (div of a Green column)
        W    = phi1' - b r                 (divperp of a Green column)
    """
    ks, kp, mu, om = medium.k_s, medium.k_p, medium.mu, medium.omega
    gp = -ks * h1s + kp * h1p
    gpp = -ks**2 * h0s + ks * h1s / r + kp**2 * h0p - kp * h1p / r
    gppp = (ks**3 * h1s + ks**2 * h0s / r - 2.0 * ks * h1s / r**2
            - kp**3 * h1p - kp**2 * h0p / r + 2.0 * kp * h1p / r**2)
    phi1 = 0.25j / mu * h0s + 0.25j / om**2 * gp / r
    phi2 = 0.25j / om**2 * (gpp - gp / r)
    phi1_p = 0.25j / mu * (-ks * h1s) + 0.25j / om**2 * (gpp / r - gp / r**2)
    phi2_p = 0.25j / om**2 * (gppp - gpp / r + gp / r**2)
    b = phi2 / r**2
    b_p = phi2_p / r**2 - 2.0 * phi2 / r**3
    return {
        "phi1": phi1,
        "phi2": phi2,
        "phi1_p": phi1_p,
        "b": b,
        "b_p": b_p,
        "D": phi1_p / r + b_p * r + 3.0 * b,
        "W": phi1_p - b * r,
    }


def hankel_pack(r, medium: Medium) -> dict:
    """Radial functions of the dynamic kernel (Hankel based). r > 0.

    H_a(z) = J_a(z) + i Y_a(z) from the real-argument Cephes routines j0/j1/y0/y1,
    z = k r formed once per wave number.  Their relative error stays below
    z * eps, the rounding z itself already carries.
    """
    zs, zp = medium.k_s * r, medium.k_p * r
    return _radial_combos(r, j0(zs) + 1j * y0(zs), j1(zs) + 1j * y1(zs),
                          j0(zp) + 1j * y0(zp), j1(zp) + 1j * y1(zp), medium)


def logcoef_pack(r, medium: Medium) -> dict:
    """Coefficient functions of ln(4 sin^2((t-tau)/2)) in the same kernels.

    Obtained by the substitution H_a(k r) -> (i/pi) J_a(k r), which extracts
    the logarithmic part of every Hankel function while preserving the
    pole-cancelling combinations.
    """
    zs, zp = medium.k_s * r, medium.k_p * r
    c = 1j / np.pi
    return _radial_combos(r, c * j0(zs), c * j1(zs), c * j0(zp), c * j1(zp), medium)


# ---------------------------------------------------------------------------
# Green tensor and tractions
# ---------------------------------------------------------------------------
def green_of_w(w, medium: Medium, pack_fn) -> np.ndarray:
    """Phi~(w) = phi1(r) I + phi2(r) what what^T, w = x - y (..., 2) with r > 0 unchecked.

    pack_fn selects the radial functions (hankel_pack for the kernel itself,
    logcoef_pack for its logarithmic coefficient); returns (..., 2, 2).
    """
    r = np.linalg.norm(w, axis=-1)
    pack = pack_fn(r, medium)
    what = w / r[..., None]
    eye = np.eye(2)
    return (pack["phi1"][..., None, None] * eye
            + pack["phi2"][..., None, None] * what[..., :, None] * what[..., None, :])


def greens_tensor(x, y, medium: Medium) -> np.ndarray:
    """Phi(x, y): complex (..., 2, 2); x, y broadcastable (..., 2), x != y."""
    w = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    if np.any(np.linalg.norm(w, axis=-1) == 0):
        raise ValueError("greens_tensor is singular at x == y")
    return green_of_w(w, medium, hankel_pack)


def traction_of_green(w, nu, medium: Medium, pack_fn=hankel_pack) -> np.ndarray:
    """M(w, nu) = T_nu applied in the w-variable to the columns of Phi~(w).

    w, nu broadcastable (..., 2); returns (..., 2, 2).  The traction of
    Phi(x, y) in x with normal nu is M(x - y, nu); in y it is -M(x - y, nu).
    """
    lam, mu = medium.lam, medium.mu
    w = np.asarray(w, dtype=float)
    nu = np.broadcast_to(np.asarray(nu, dtype=float), w.shape)
    r = np.linalg.norm(w, axis=-1)
    if np.any(r == 0):
        raise ValueError("traction kernel is singular at w == 0")
    pack = pack_fn(r, medium)
    what = w / r[..., None]
    nu_dot_what = np.einsum("...i,...i->...", nu, what)
    ww = w[..., :, None] * w[..., None, :]
    nu_w = nu[..., :, None] * w[..., None, :]
    w_nu = w[..., :, None] * nu[..., None, :]
    nu_p = perp(nu)
    what_p = perp(what)
    nup_whatp = nu_p[..., :, None] * what_p[..., None, :]
    eye = np.eye(2)
    return (2.0 * mu * (pack["phi1_p"] * nu_dot_what)[..., None, None] * eye
            + 2.0 * mu * (pack["b_p"] * nu_dot_what)[..., None, None] * ww
            + 2.0 * mu * pack["b"][..., None, None] * (nu_w + w_nu)
            + lam * pack["D"][..., None, None] * nu_w
            - mu * pack["W"][..., None, None] * nup_whatp)


def greens_traction_kernel(x, y, normal_at_y, medium: Medium) -> np.ndarray:
    """[T_{nu(y)} Phi(x, y)]^T, the double-layer kernel. Shapes as greens_tensor."""
    w = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    m = traction_of_green(w, normal_at_y, medium)
    return -np.swapaxes(m, -1, -2)


# ---------------------------------------------------------------------------
# Incident fields
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class PlaneWave:
    """Plane P or S wave with unit propagation direction d."""

    mode: WaveMode
    direction: tuple[float, float]

    def __post_init__(self) -> None:
        d = np.asarray(self.direction, dtype=float)
        if abs(np.hypot(d[0], d[1]) - 1.0) > 1e-12:
            raise ValueError(f"direction must be unit, |d| = {np.hypot(d[0], d[1])}")

    def field(self, x, medium: Medium) -> np.ndarray:
        return plane_wave_field(self, x, medium)

    def traction(self, x, nu, medium: Medium) -> np.ndarray:
        return plane_wave_traction(self, x, nu, medium)


def plane_wave_field(wave: PlaneWave, x, medium: Medium) -> np.ndarray:
    """u^in(x): d e^{i kp x.d} (P) or d_perp e^{i ks x.d} (S). x (..., 2)."""
    x = np.asarray(x, dtype=float)
    d = np.asarray(wave.direction, dtype=float)
    if wave.mode is WaveMode.P:
        k, pol = medium.k_p, d
    else:
        k, pol = medium.k_s, perp(d)
    phase = np.exp(1j * k * (x @ d))
    return phase[..., None] * pol


def plane_wave_traction(wave: PlaneWave, x, nu, medium: Medium) -> np.ndarray:
    """T_nu u^in at x: i k e^{i k x.d} [2 mu (nu.d) p + lam (d.p) nu - mu (dperp.p) nu_perp]."""
    x = np.asarray(x, dtype=float)
    nu = np.asarray(nu, dtype=float)
    d = np.asarray(wave.direction, dtype=float)
    lam, mu = medium.lam, medium.mu
    if wave.mode is WaveMode.P:
        k, pol = medium.k_p, d
    else:
        k, pol = medium.k_s, perp(d)
    phase = (1j * k) * np.exp(1j * k * (x @ d))
    nu_dot_d = nu @ d
    vec = (2.0 * mu * nu_dot_d[..., None] * pol
           + lam * float(d @ pol) * nu
           - mu * float(perp(d) @ pol) * perp(nu))
    return phase[..., None] * vec


@dataclass(frozen=True)
class PointSource:
    """Elastic point source Phi(., y) q with unit polarization q."""

    position: tuple[float, float]
    polarization: tuple[float, float]

    def __post_init__(self) -> None:
        q = np.asarray(self.polarization, dtype=float)
        if abs(np.hypot(q[0], q[1]) - 1.0) > 1e-12:
            raise ValueError("polarization must be a unit vector")

    def field(self, x, medium: Medium) -> np.ndarray:
        q = np.asarray(self.polarization, dtype=float)
        return greens_tensor(x, np.asarray(self.position, dtype=float), medium) @ q

    def traction(self, x, nu, medium: Medium) -> np.ndarray:
        q = np.asarray(self.polarization, dtype=float)
        w = np.asarray(x, dtype=float) - np.asarray(self.position, dtype=float)
        return traction_of_green(w, nu, medium) @ q


def point_source_farfield(xhat, y, q, medium: Medium) -> tuple[np.ndarray, np.ndarray]:
    """Far-field pair of the point source: (Phi_p, Phi_s) at directions xhat.

    Phi_p = e^{-i kp xhat.y} (q.xhat), Phi_s = e^{-i ks xhat.y} (q.xhat_perp);
    xhat (..., 2) unit, y (2,), q (2,) unit.
    """
    xhat = np.asarray(xhat, dtype=float)
    y = np.asarray(y, dtype=float)
    q = np.asarray(q, dtype=float)
    fp = np.exp(-1j * medium.k_p * (xhat @ y)) * (xhat @ q)
    fs = np.exp(-1j * medium.k_s * (xhat @ y)) * (perp(xhat) @ q)
    return fp, fs
