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

Radial functions
----------------
The Bessel values at r (hankel_pack for the kernel, logcoef_pack for its
logarithmic coefficient) feed two sets of radial functions, each holding only
what its kernel reads: green_radial's (phi1, phi2) for green_of_w and
traction_radial's (phi1', b, b', D, W) for traction_of_green.  The two tensor
functions take them as input, so a caller that meets the same r twice
evaluates them once; the forward assembly does so for each unordered node pair.
Plane waves are evaluated for an array of directions at once
(plane_wave_fields, plane_wave_tractions); PlaneWave is the one-direction case.

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
def hankel_pack(r, medium: Medium) -> tuple:
    """Bessel values of the dynamic kernel: (H0(ks r), H1(ks r), H0(kp r), H1(kp r)). r > 0.

    H_a(z) = J_a(z) + i Y_a(z) from the real-argument Cephes routines j0/j1/y0/y1,
    z = k r formed once per wave number.  Their relative error stays below
    z * eps, the rounding z itself already carries.
    """
    zs, zp = medium.k_s * r, medium.k_p * r
    return (j0(zs) + 1j * y0(zs), j1(zs) + 1j * y1(zs),
            j0(zp) + 1j * y0(zp), j1(zp) + 1j * y1(zp))


def logcoef_pack(r, medium: Medium) -> tuple:
    """Bessel values of the coefficient of ln(4 sin^2((t-tau)/2)) in the same kernels.

    Obtained by the substitution H_a(k r) -> (i/pi) J_a(k r), which extracts
    the logarithmic part of every Hankel function while preserving the
    pole-cancelling combinations.
    """
    zs, zp = medium.k_s * r, medium.k_p * r
    c = 1j / np.pi
    return c * j0(zs), c * j1(zs), c * j0(zp), c * j1(zp)


def _g_derivatives(r, h0s, h1s, h0p, h1p, medium: Medium):
    """g' and g'' of g(r) = H0(ks r) - H0(kp r) (or its J-Bessel analogue)."""
    ks, kp = medium.k_s, medium.k_p
    gp = -ks * h1s + kp * h1p
    gpp = -ks**2 * h0s + ks * h1s / r + kp**2 * h0p - kp * h1p / r
    return gp, gpp


def green_radial(r, pack, medium: Medium) -> tuple:
    """(phi1, phi2), the radial functions green_of_w reads, from a pack's Bessel values:

        phi1 = (i/4mu) H0(ks r) + (i/4w^2) g'/r
        phi2 = (i/4w^2) (g'' - g'/r)
    """
    mu, om = medium.mu, medium.omega
    h0s = pack[0]
    gp, gpp = _g_derivatives(r, *pack, medium)
    phi1 = 0.25j / mu * h0s + 0.25j / om**2 * gp / r
    phi2 = 0.25j / om**2 * (gpp - gp / r)
    return phi1, phi2


def traction_radial(r, pack, medium: Medium) -> tuple:
    """(phi1', b, b', D, W), the radial functions traction_of_green reads:

        b = phi2 / r^2,   D = phi1'/r + b' r + 3 b   (div of a Green column),
                          W = phi1' - b r            (divperp of a Green column)
    """
    ks, kp, mu, om = medium.k_s, medium.k_p, medium.mu, medium.omega
    h0s, h1s, h0p, h1p = pack
    gp, gpp = _g_derivatives(r, *pack, medium)
    gppp = (ks**3 * h1s + ks**2 * h0s / r - 2.0 * ks * h1s / r**2
            - kp**3 * h1p - kp**2 * h0p / r + 2.0 * kp * h1p / r**2)
    phi2 = 0.25j / om**2 * (gpp - gp / r)
    phi1_p = 0.25j / mu * (-ks * h1s) + 0.25j / om**2 * (gpp / r - gp / r**2)
    phi2_p = 0.25j / om**2 * (gppp - gpp / r + gp / r**2)
    b = phi2 / r**2
    b_p = phi2_p / r**2 - 2.0 * phi2 / r**3
    return phi1_p, b, b_p, phi1_p / r + b_p * r + 3.0 * b, phi1_p - b * r


# ---------------------------------------------------------------------------
# Green tensor and tractions
# ---------------------------------------------------------------------------
def green_of_w(w, r, radial) -> np.ndarray:
    """Phi~(w) = phi1(r) I + phi2(r) what what^T; returns (..., 2, 2).

    w = x - y (..., 2), r = |w| > 0 (unchecked), radial = green_radial's
    (phi1, phi2) at r: hankel_pack's for the kernel itself, logcoef_pack's for
    its logarithmic coefficient.
    """
    phi1, phi2 = radial
    what = w / r[..., None]
    eye = np.eye(2)
    return (phi1[..., None, None] * eye
            + phi2[..., None, None] * what[..., :, None] * what[..., None, :])


def traction_of_green(w, r, nu, radial, medium: Medium) -> np.ndarray:
    """M(w, nu) = T_nu applied in the w-variable to the columns of Phi~(w).

    w, nu broadcastable (..., 2), r = |w| > 0 (unchecked), radial =
    traction_radial's functions at r; returns (..., 2, 2).  The traction of
    Phi(x, y) in x with normal nu is M(x - y, nu); in y it is -M(x - y, nu).
    """
    lam, mu = medium.lam, medium.mu
    w = np.asarray(w, dtype=float)
    nu = np.broadcast_to(np.asarray(nu, dtype=float), w.shape)
    phi1_p, b, b_p, div, divp = radial
    what = w / r[..., None]
    nu_dot_what = np.einsum("...i,...i->...", nu, what)
    ww = w[..., :, None] * w[..., None, :]
    nu_w = nu[..., :, None] * w[..., None, :]
    w_nu = w[..., :, None] * nu[..., None, :]
    nu_p = perp(nu)
    what_p = perp(what)
    nup_whatp = nu_p[..., :, None] * what_p[..., None, :]
    eye = np.eye(2)
    return (2.0 * mu * (phi1_p * nu_dot_what)[..., None, None] * eye
            + 2.0 * mu * (b_p * nu_dot_what)[..., None, None] * ww
            + 2.0 * mu * b[..., None, None] * (nu_w + w_nu)
            + lam * div[..., None, None] * nu_w
            - mu * divp[..., None, None] * nup_whatp)


def _distance(w, singular: str) -> np.ndarray:
    """|w| over the last axis; ValueError(singular) where it is 0."""
    r = np.linalg.norm(w, axis=-1)
    if np.any(r == 0):
        raise ValueError(singular)
    return r


def greens_tensor(x, y, medium: Medium) -> np.ndarray:
    """Phi(x, y): complex (..., 2, 2); x, y broadcastable (..., 2), x != y."""
    w = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    r = _distance(w, "greens_tensor is singular at x == y")
    return green_of_w(w, r, green_radial(r, hankel_pack(r, medium), medium))


def traction_tensor(w, nu, medium: Medium) -> np.ndarray:
    """M(w, nu) of the Hankel kernel: the traction of Phi(x, y) in x, w = x - y != 0."""
    w = np.asarray(w, dtype=float)
    r = _distance(w, "traction kernel is singular at w == 0")
    return traction_of_green(w, r, nu, traction_radial(r, hankel_pack(r, medium), medium),
                             medium)


def greens_traction_kernel(x, y, normal_at_y, medium: Medium) -> np.ndarray:
    """[T_{nu(y)} Phi(x, y)]^T, the double-layer kernel. Shapes as greens_tensor."""
    w = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    return -np.swapaxes(traction_tensor(w, normal_at_y, medium), -1, -2)


# ---------------------------------------------------------------------------
# Incident fields
# ---------------------------------------------------------------------------
_MODES = (WaveMode.P, WaveMode.S)     # the mode axis of plane_wave_fields / _tractions


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


def _along(v, directions: np.ndarray) -> np.ndarray:
    """v . d for every direction d, (..., L): one matrix-vector product per direction,
    which rounds the same for one direction as for many (a single v @ directions.T
    does not)."""
    return np.stack([v @ d for d in directions], axis=-1)


def plane_wave_fields(x, directions, medium: Medium) -> np.ndarray:
    """u^in(x) of the P and S plane waves along every unit direction d_l.

    x (..., 2), directions (L, 2); returns (..., L, 2, 2) with [..., l, 0, :] =
    d_l e^{i kp x.d_l} (P) and [..., l, 1, :] = d_l_perp e^{i ks x.d_l} (S).
    """
    x = np.asarray(x, dtype=float)
    dirs = np.asarray(directions, dtype=float)
    x_d = _along(x, dirs)
    out = np.empty(x_d.shape + (2, 2), dtype=complex)
    for i, (k, pol) in enumerate(((medium.k_p, dirs), (medium.k_s, perp(dirs)))):
        out[..., i, :] = np.exp(1j * k * x_d)[..., None] * pol
    return out


def plane_wave_tractions(x, nu, directions, medium: Medium) -> np.ndarray:
    """T_nu u^in at x for the P and S plane waves along every direction, laid out as
    plane_wave_fields: i k e^{i k x.d} [2 mu (nu.d) p + lam (d.p) nu - mu (dperp.p) nu_perp]
    with p the polarization."""
    x = np.asarray(x, dtype=float)
    nu = np.asarray(nu, dtype=float)
    dirs = np.asarray(directions, dtype=float)
    lam, mu = medium.lam, medium.mu
    x_d, nu_d = _along(x, dirs), _along(nu, dirs)
    dirs_p = perp(dirs)
    out = np.empty(np.broadcast_shapes(x_d.shape, nu_d.shape) + (2, 2), dtype=complex)
    for i, (k, pol) in enumerate(((medium.k_p, dirs), (medium.k_s, dirs_p))):
        phase = (1j * k) * np.exp(1j * k * x_d)
        dots = np.array([(float(d @ p), float(dp @ p)) for d, dp, p in zip(dirs, dirs_p, pol)])
        vec = (2.0 * mu * nu_d[..., None] * pol
               + (lam * dots[:, 0])[:, None] * nu[..., None, :]
               - (mu * dots[:, 1])[:, None] * perp(nu)[..., None, :])
        out[..., i, :] = phase[..., None] * vec
    return out


def plane_wave_field(wave: PlaneWave, x, medium: Medium) -> np.ndarray:
    """u^in(x) of one plane wave: d e^{i kp x.d} (P) or d_perp e^{i ks x.d} (S). x (..., 2)."""
    return plane_wave_fields(x, [wave.direction], medium)[..., 0, _MODES.index(wave.mode), :]


def plane_wave_traction(wave: PlaneWave, x, nu, medium: Medium) -> np.ndarray:
    """T_nu u^in at x of one plane wave (see plane_wave_tractions)."""
    return plane_wave_tractions(x, nu, [wave.direction],
                                medium)[..., 0, _MODES.index(wave.mode), :]


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
        return traction_tensor(w, nu, medium) @ q


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
