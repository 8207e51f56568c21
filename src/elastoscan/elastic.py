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
logarithmic coefficient) share their J values: logcoef_pack is built from
bessel_j's values alone, and a caller that needs both packs at one r, as the
singular self blocks do, passes the same values to hankel_pack, so j0/j1 run
once per argument and y0/y1 only for the kernel.
The packs feed two sets of radial functions, each holding only
what its kernel reads: green_radial's (phi1, phi2) for green_of_w and
traction_radial's (phi1', b, b', D, W) for traction_of_green.  The two tensor
functions take them as input, so a caller that meets the same r twice
evaluates them once; the forward assembly does so for each unordered node pair.
Both tensor functions also give one (a, b) entry at a time (entry=(a, b)), with
the same arithmetic as the full tensor, so the forward assembly never holds a
(..., 2, 2) array.  Plane waves are evaluated for an array of directions at
once, one mode and vector entry at a time (plane_wave_entries); PlaneWave is
the one-direction case.

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

    Requires finite values with mu > 0, lam + 2 mu > 0, omega > 0, and omega^2
    neither 0 nor infinite in floating point (the kernels divide by it); the
    derived wave numbers are k_p = omega / sqrt(lam + 2 mu) and
    k_s = omega / sqrt(mu).
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
        with np.errstate(over="ignore", under="ignore"):
            omega2 = np.float64(self.omega) ** 2
        if not 0.0 < omega2 < np.inf:
            raise ValueError(f"need omega^2 in floating-point range, got omega = {self.omega}")

    @property
    def k_p(self) -> float:
        return self.omega / np.sqrt(self.lam + 2.0 * self.mu)

    @property
    def k_s(self) -> float:
        return self.omega / np.sqrt(self.mu)


def perp(v: np.ndarray) -> np.ndarray:
    """Anticlockwise quarter turn: (v1, v2) -> (-v2, v1). Shape (..., 2)."""
    v = np.asarray(v)
    return np.stack([-v[..., 1], v[..., 0]], axis=-1)


def _perp_entry(v: np.ndarray, a: int) -> np.ndarray:
    """perp(v)[..., a] without forming perp(v)."""
    return -v[..., 1] if a == 0 else v[..., 0]


# ---------------------------------------------------------------------------
# Radial kernel coefficients
# ---------------------------------------------------------------------------
def bessel_j(r, medium: Medium) -> tuple:
    """(J0(ks r), J1(ks r), J0(kp r), J1(kp r)): the J values both packs are built from."""
    zs, zp = medium.k_s * r, medium.k_p * r
    return j0(zs), j1(zs), j0(zp), j1(zp)


def hankel_pack(r, medium: Medium, j=None) -> tuple:
    """Bessel values of the dynamic kernel: (H0(ks r), H1(ks r), H0(kp r), H1(kp r)). r > 0.

    H_a(z) = J_a(z) + i Y_a(z) from the real-argument Cephes routines j0/j1/y0/y1,
    z = k r formed once per wave number.  Their relative error stays below
    z * eps, the rounding z itself already carries.  j is bessel_j(r, medium)
    where the caller has it.
    """
    zs, zp = medium.k_s * r, medium.k_p * r
    args = ((j0, y0, zs), (j1, y1, zs), (j0, y0, zp), (j1, y1, zp))
    if j is None:                   # each J only until its H is formed
        return tuple(jf(z) + 1j * yf(z) for jf, yf, z in args)
    return tuple(ja + 1j * yf(z) for ja, (_, yf, z) in zip(j, args))


def logcoef_pack(j) -> tuple:
    """Bessel values of the coefficient of ln(4 sin^2((t-tau)/2)) in the same kernels,
    from j = bessel_j(r, medium).

    Obtained by the substitution H_a(k r) -> (i/pi) J_a(k r), which extracts
    the logarithmic part of every Hankel function while preserving the
    pole-cancelling combinations.
    """
    c = 1j / np.pi
    return tuple(c * v for v in j)


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
ENTRIES = ((0, 0), (0, 1), (1, 0), (1, 1))   # the (a, b) entries of a 2 x 2 tensor, row by row
_EYE = np.eye(2)


def _tensor(entries) -> np.ndarray:
    """The (..., 2, 2) tensor of its four (...) entries, given in ENTRIES order."""
    values = list(entries)
    return np.stack(values, axis=-1).reshape(values[0].shape + (2, 2))


def green_of_w(w, r, radial, entry=None) -> np.ndarray:
    """Phi~(w) = phi1(r) I + phi2(r) what what^T; returns (..., 2, 2), or with
    entry=(a, b) only the (...) array of Phi~[..., a, b].

    w = x - y (..., 2), r = |w| > 0 (unchecked), radial = green_radial's
    (phi1, phi2) at r: hankel_pack's for the kernel itself, logcoef_pack's for
    its logarithmic coefficient.  Each entry is phi1 I_ab + (phi2 what_a) what_b,
    zero terms included, so the full tensor and its entries agree bit for bit.
    """
    if entry is None:
        return _tensor(green_of_w(w, r, radial, e) for e in ENTRIES)
    a, b = entry
    phi1, phi2 = radial
    return phi1 * _EYE[a, b] + phi2 * (w[..., a] / r) * (w[..., b] / r)


def traction_of_green(w, r, nu, radial, medium: Medium, entry=None) -> np.ndarray:
    """M(w, nu) = T_nu applied in the w-variable to the columns of Phi~(w).

    w, nu broadcastable (..., 2), r = |w| > 0 (unchecked), radial =
    traction_radial's functions at r; returns (..., 2, 2), or with entry=(a, b)
    only the (...) array of M[..., a, b].  The traction of Phi(x, y) in x with
    normal nu is M(x - y, nu); in y it is -M(x - y, nu).
    """
    if entry is None:
        return _tensor(traction_of_green(w, r, nu, radial, medium, e) for e in ENTRIES)
    a, b = entry
    lam, mu = medium.lam, medium.mu
    w = np.asarray(w, dtype=float)
    nu = np.broadcast_to(np.asarray(nu, dtype=float), w.shape)
    phi1_p, b_r, b_p, div, divp = radial
    what = w / r[..., None]
    nu_dot_what = np.einsum("...i,...i->...", nu, what)
    nu_w = nu[..., a] * w[..., b]
    return (2.0 * mu * (phi1_p * nu_dot_what) * _EYE[a, b]
            + 2.0 * mu * (b_p * nu_dot_what) * (w[..., a] * w[..., b])
            + 2.0 * mu * b_r * (nu_w + w[..., a] * nu[..., b])
            + lam * div * nu_w
            - mu * divp * (_perp_entry(nu, a) * _perp_entry(what, b)))


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


# ---------------------------------------------------------------------------
# Incident fields
# ---------------------------------------------------------------------------
_MODES = (WaveMode.P, WaveMode.S)     # the mode index i of plane_wave_entries


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
        """u^in(x): d e^{i kp x.d} (P) or d_perp e^{i ks x.d} (S). x (..., 2)."""
        return _one_wave(plane_wave_entries(x, [self.direction], medium), self.mode)

    def traction(self, x, nu, medium: Medium) -> np.ndarray:
        """T_nu u^in at x (see plane_wave_entries)."""
        return _one_wave(plane_wave_entries(x, [self.direction], medium, nu), self.mode)


def _along(v, directions: np.ndarray) -> np.ndarray:
    """v . d for every direction d, (..., L): one matrix-vector product per direction,
    which rounds the same for one direction as for many (a single v @ directions.T
    does not)."""
    return np.stack([v @ d for d in directions], axis=-1)


def plane_wave_entries(x, directions, medium: Medium, nu=None):
    """Yield (i, a, values): entry a of u^in at x, or of T_nu u^in when normals nu
    are given, for the P (i = 0) and S (i = 1) plane waves along every unit
    direction d_l; values (..., L).

        u^in     = p e^{i k x.d},  p = d (P, k = kp) or d_perp (S, k = ks)
        T_nu u^in = i k e^{i k x.d} [2 mu (nu.d) p + lam (d.p) nu - mu (dperp.p) nu_perp]

    One (..., L) array is held at a time: the forward solver writes each
    straight into its right-hand sides.
    """
    x = np.asarray(x, dtype=float)
    dirs = np.asarray(directions, dtype=float)
    dirs_p = perp(dirs)
    lam, mu = medium.lam, medium.mu
    x_d = _along(x, dirs)
    if nu is not None:
        nu = np.asarray(nu, dtype=float)
        nu_d, nu_p = _along(nu, dirs), perp(nu)
    for i, (k, pol) in enumerate(((medium.k_p, dirs), (medium.k_s, dirs_p))):
        phase = 1j * k * x_d
        np.exp(phase, out=phase)
        if nu is None:
            for a in (0, 1):
                yield i, a, phase * pol[:, a]
            continue
        phase = (1j * k) * phase
        dots = np.array([(float(d @ p), float(dp @ p)) for d, dp, p in zip(dirs, dirs_p, pol)])
        for a in (0, 1):
            vec = (2.0 * mu * nu_d * pol[:, a]
                   + (lam * dots[:, 0]) * nu[..., None, a]
                   - (mu * dots[:, 1]) * nu_p[..., None, a])
            yield i, a, phase * vec


def _one_wave(entries, mode: WaveMode) -> np.ndarray:
    """The (..., 2) vector of one mode from plane_wave_entries of one direction."""
    i = _MODES.index(mode)
    return np.stack([values[..., 0] for j, _, values in entries if j == i], axis=-1)


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
