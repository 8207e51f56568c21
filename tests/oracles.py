"""Independent test oracles: brute-force series, finite differences, quadrature.

These deliberately avoid the code paths they check: Bessel/Neumann values come
from explicit power series in high-precision arithmetic, derivatives from
central differences, arc lengths from adaptive quadrature, and interiority
from a polygonal winding number.

The Bessel/Hankel/circular-harmonic wrappers further down are thin,
domain-checked scipy.special calls (J up to order 3, H^(1) up to order 1,
Y_a^b = sqrt(1/2pi) e^{i b phi}) on scipy's complex-argument AMOS routines
(jv, hankel1).  The package itself calls the real-argument Cephes j0/j1/y0/y1
instead, so these stay an independent oracle for its kernels as well as the
closed sides of the Funk-Hecke checks, and are themselves checked against the
series above.

The reference kernels are the forward solver's formulas in their plainest
form, one block and one plane wave at a time, against which the package's
shared-work evaluation is checked bit for bit.

The point-source error measures the package's whole single-incident path (its
right-hand side, solve and far-field quadrature) against the exact far field of
a point source inside an obstacle.

The reference MSR/1 reader last reads a file as text, one line at a time, each
number by numpy's string conversion (float() itself); the package's array
reader is checked against it bit for bit and message for message.

The reference fold row evaluates the indicator fold one skeleton row at a time;
the package's batches of rows are checked against it bit for bit.
"""

import mpmath as mp
import numpy as np
from scipy import special as _sp
from scipy.integrate import quad
from scipy.special import j0 as _j0, j1 as _j1, y0 as _y0, y1 as _y1

EULER = mp.mpf(
    "0.57721566490153286060651209008240243104215933593992359880576723488486772677767"
)


def _dps_for(x: float) -> int:
    # series terms grow like e^x before cancelling down to O(x^-1/2)
    return int(0.46 * abs(x)) + 60


def bessel_j_series(order: int, x: float) -> float:
    """J_order(x) by the defining power series, summed to convergence."""
    with mp.workdps(_dps_for(x)):
        z = mp.mpf(x)
        half = z / 2
        term = half**order / mp.factorial(order)
        total = term
        m = 0
        while abs(term) > mp.mpf(10) ** (-mp.mp.dps + 10) or m < 4:
            m += 1
            term *= -(half**2) / (m * (m + order))
            total += term
            if m > 10000:
                raise RuntimeError("series did not converge")
        return float(total)


def bessel_y_series(order: int, x: float) -> float:
    """Y_0 or Y_1 by the logarithmic series (DLMF 10.8.1)."""
    if order not in (0, 1):
        raise ValueError("series oracle implements orders 0 and 1 only")
    with mp.workdps(_dps_for(x)):
        z = mp.mpf(x)
        half = z / 2
        logterm = mp.log(half)

        # J_order at working precision
        term = half**order / mp.factorial(order)
        jsum = term
        m = 0
        while abs(term) > mp.mpf(10) ** (-mp.mp.dps + 10) or m < 4:
            m += 1
            term *= -(half**2) / (m * (m + order))
            jsum += term

        def psi(k):          # digamma at integer k: -gamma + H_{k-1}
            return -EULER + mp.fsum(mp.mpf(1) / i for i in range(1, k))

        tail = mp.mpf(0)
        k = 0
        term = half**order
        while True:
            c = (psi(k + 1) + psi(order + k + 1)) * term / (
                mp.factorial(k) * mp.factorial(order + k))
            tail += c
            k += 1
            term *= -(half**2)
            if k > 4 and abs(c) < mp.mpf(10) ** (-mp.mp.dps + 10):
                break
            if k > 10000:
                raise RuntimeError("series did not converge")

        front = mp.mpf(0)
        if order == 1:
            front = -(1 / half) / mp.pi       # -(z/2)^{-1} (0)!/0! / pi

        val = front + (2 / mp.pi) * logterm * jsum - tail / mp.pi
        return float(val)


def hankel1_series(order: int, x: float) -> complex:
    return complex(bessel_j_series(order, x), bessel_y_series(order, x))


def central_diff(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Gradient of a (possibly vector-valued) field at a 2-point by central differences."""
    x = np.asarray(x, dtype=float)
    cols = []
    for k in range(2):
        e = np.zeros(2)
        e[k] = h
        cols.append((np.asarray(f(x + e)) - np.asarray(f(x - e))) / (2 * h))
    return np.stack(cols, axis=0)     # [k, ...] = d/dx_k f


def arc_length_adaptive(curve_tangent_fn, tol: float = 1e-13) -> float:
    """Adaptive-quadrature arc length of a 2pi-periodic parameterization."""
    speed = lambda t: float(np.linalg.norm(curve_tangent_fn(t)))
    total, err = quad(speed, 0.0, 2.0 * np.pi, epsabs=tol, epsrel=tol, limit=400)
    return total


def winding_number(poly: np.ndarray, point: np.ndarray) -> float:
    """Winding number of a sampled closed curve around a point."""
    a = poly - point[None, :]
    b = np.roll(a, -1, axis=0)
    ang = np.arctan2(a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0], (a * b).sum(axis=1))
    return float(ang.sum() / (2.0 * np.pi))


GAMMA_HARMONIC = np.sqrt(1.0 / (2.0 * np.pi))
MAX_BESSEL_ORDER = 3
MAX_HANKEL_ORDER = 1


def bessel_j(order: int, x):
    """J_order(x) for order 0..3 and real x >= 0."""
    if order not in range(MAX_BESSEL_ORDER + 1):
        raise ValueError(f"order must be 0..{MAX_BESSEL_ORDER}, got {order}")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("negative argument not supported")
    out = _sp.jv(order, x)
    return out if out.shape else float(out)


def hankel1(order: int, x):
    """H^(1)_order(x) = J_order(x) + i Y_order(x) for order 0..1 and x > 0."""
    if order not in range(MAX_HANKEL_ORDER + 1):
        raise ValueError(f"order must be 0..{MAX_HANKEL_ORDER}, got {order}")
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("argument must be positive (branch point at 0)")
    out = _sp.hankel1(order, x)
    return out if out.shape else complex(out)


def circular_harmonic(alpha: int, beta: int, phi):
    """Y_alpha^beta(phi) = gamma e^{i beta phi}, gamma = sqrt(1/2pi), |beta| = alpha."""
    if alpha not in range(MAX_BESSEL_ORDER + 1):
        raise ValueError(f"alpha must be 0..{MAX_BESSEL_ORDER}, got {alpha}")
    if abs(beta) != alpha:
        raise ValueError(f"need |beta| = alpha, got alpha={alpha}, beta={beta}")
    phi = np.asarray(phi, dtype=float)
    out = GAMMA_HARMONIC * np.exp(1j * beta * phi)
    return out if out.shape else complex(out)


def funk_hecke_rhs(alpha: int, beta: int, k: float, z: np.ndarray):
    """(2 pi / i^alpha) J_alpha(k |z|) Y_alpha^beta(z-hat), the closed side of
    the Funk-Hecke identity for the circular integral of e^{-i k z.xhat} Y_alpha^beta."""
    z = np.asarray(z, dtype=float)
    rz = float(np.hypot(z[0], z[1]))
    phi_z = float(np.arctan2(z[1], z[0]))
    return (2.0 * np.pi / 1j**alpha) * bessel_j(alpha, k * rz) * circular_harmonic(alpha, beta, phi_z)


# ---------------------------------------------------------------------------
# Reference Nystrom kernels, assembly and plane-wave right-hand sides
# ---------------------------------------------------------------------------
# The package's kernel formulas in their plainest form: every block evaluates
# all seven radial functions on its whole distance array, and each right-hand
# side is built for one plane wave at a time.  The package evaluates each
# unordered node pair once, only the functions a kernel reads, and every plane
# wave in one pass; the tests hold it to these forms bit for bit.


def ref_radial(r, h0s, h1s, h0p, h1p, medium) -> dict:
    """All radial functions of the Green tensor and its traction (see elastic)."""
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
    return {"phi1": phi1, "phi2": phi2, "phi1_p": phi1_p, "b": b, "b_p": b_p,
            "D": phi1_p / r + b_p * r + 3.0 * b, "W": phi1_p - b * r}


def ref_hankel(r, medium) -> dict:
    zs, zp = medium.k_s * r, medium.k_p * r
    return ref_radial(r, _j0(zs) + 1j * _y0(zs), _j1(zs) + 1j * _y1(zs),
                      _j0(zp) + 1j * _y0(zp), _j1(zp) + 1j * _y1(zp), medium)


def ref_logcoef(r, medium) -> dict:
    zs, zp = medium.k_s * r, medium.k_p * r
    c = 1j / np.pi
    return ref_radial(r, c * _j0(zs), c * _j1(zs), c * _j0(zp), c * _j1(zp), medium)


def ref_green(w, medium, pack_fn) -> np.ndarray:
    """phi1 I + phi2 what what^T at w = x - y (..., 2), r > 0."""
    r = np.linalg.norm(w, axis=-1)
    pack = pack_fn(r, medium)
    what = w / r[..., None]
    eye = np.eye(2)
    return (pack["phi1"][..., None, None] * eye
            + pack["phi2"][..., None, None] * what[..., :, None] * what[..., None, :])


def ref_traction(w, nu, medium, pack_fn=ref_hankel) -> np.ndarray:
    """T_nu in the w-variable of the columns of the Green tensor at w."""
    from elastoscan.elastic import perp

    lam, mu = medium.lam, medium.mu
    w = np.asarray(w, dtype=float)
    nu = np.broadcast_to(np.asarray(nu, dtype=float), w.shape)
    r = np.linalg.norm(w, axis=-1)
    pack = pack_fn(r, medium)
    what = w / r[..., None]
    nu_dot_what = np.einsum("...i,...i->...", nu, what)
    ww = w[..., :, None] * w[..., None, :]
    nu_w = nu[..., :, None] * w[..., None, :]
    w_nu = w[..., :, None] * nu[..., None, :]
    nup_whatp = perp(nu)[..., :, None] * perp(what)[..., None, :]
    eye = np.eye(2)
    return (2.0 * mu * (pack["phi1_p"] * nu_dot_what)[..., None, None] * eye
            + 2.0 * mu * (pack["b_p"] * nu_dot_what)[..., None, None] * ww
            + 2.0 * mu * pack["b"][..., None, None] * (nu_w + w_nu)
            + lam * pack["D"][..., None, None] * nu_w
            - mu * pack["W"][..., None, None] * nup_whatp)


def _ref_dirichlet_self_block(quad, medium) -> np.ndarray:
    from elastoscan.elastic import perp
    from elastoscan.forward import (_single_layer_log_diag_coef, _single_layer_smooth_diag,
                                    _toeplitz_circ, log_quadrature_weights)

    n, x, s, t = quad.n_nodes, quad.points, quad.speeds, quad.t
    diag = np.eye(n, dtype=bool)
    w = x[:, None, :] - x[None, :, :]
    w[diag] = (1.0, 0.0)
    kern = ref_green(w, medium, ref_hankel) * s[None, :, None, None]
    kern_log = ref_green(w, medium, ref_logcoef) * s[None, :, None, None]
    dt = t[:, None] - t[None, :]
    logterm = np.log(np.where(diag, 1.0, 4.0 * np.sin(dt / 2.0) ** 2))
    smooth = kern - kern_log * logterm[..., None, None]
    a_diag, b_diag = _single_layer_smooth_diag(medium, s)
    that = perp(quad.normals)
    eye = np.eye(2)
    smooth[diag] = s[:, None, None] * (a_diag[:, None, None] * eye
                                       + b_diag * that[:, :, None] * that[:, None, :])
    kern_log[diag] = _single_layer_log_diag_coef(medium) * s[:, None, None] * eye
    rmat = _toeplitz_circ(log_quadrature_weights(n))
    return rmat[..., None, None] * kern_log + (2.0 * np.pi / n) * smooth


def _ref_neumann_smooth_diag(curve, quad, medium) -> np.ndarray:
    from elastoscan.geometry import curve_point, curve_tangent

    t, x, nu = quad.t, quad.points, quad.normals
    eps0 = min(4e-3, 0.1 / medium.k_s)
    vals = []
    for eps in (eps0, eps0 / 2.0, eps0 / 4.0):
        acc = 0.0
        logterm = np.log(4.0 * np.sin(eps / 2.0) ** 2)
        for sgn in (+1.0, -1.0):
            xt = curve_point(curve, t + sgn * eps)
            st = np.linalg.norm(curve_tangent(curve, t + sgn * eps), axis=-1)
            w = x - xt
            fv = ref_traction(w, nu, medium, ref_hankel) * st[:, None, None]
            bv = ref_traction(w, nu, medium, ref_logcoef) * st[:, None, None]
            acc = acc + fv - logterm * bv
        vals.append(acc / 2.0)
    v1, v2, v3 = vals
    return (64.0 * v3 - 20.0 * v2 + v1) / 45.0


def _ref_neumann_self_block(curve, quad, medium) -> np.ndarray:
    from elastoscan.forward import (_toeplitz_circ, cauchy_strength, cot_quadrature_weights,
                                    log_quadrature_weights)

    n, x, s, nu, t = quad.n_nodes, quad.points, quad.speeds, quad.normals, quad.t
    diag = np.eye(n, dtype=bool)
    w = x[:, None, :] - x[None, :, :]
    w[diag] = (1.0, 0.0)
    nui = np.broadcast_to(nu[:, None, :], w.shape)
    full = ref_traction(w, nui, medium, ref_hankel) * s[None, :, None, None]
    blog = ref_traction(w, nui, medium, ref_logcoef) * s[None, :, None, None]
    lam_mat = cauchy_strength(medium)
    dt = t[:, None] - t[None, :]
    cot = np.where(diag, 0.0, 1.0 / np.tan(np.where(diag, 1.0, -dt) / 2.0))
    logterm = np.log(np.where(diag, 1.0, 4.0 * np.sin(dt / 2.0) ** 2))
    smooth = full - 0.5 * cot[..., None, None] * lam_mat - logterm[..., None, None] * blog
    blog[diag] = 0.0
    smooth[np.arange(n), np.arange(n)] = _ref_neumann_smooth_diag(curve, quad, medium)
    rmat = _toeplitz_circ(log_quadrature_weights(n))
    hmat = _toeplitz_circ(cot_quadrature_weights(n))
    block = (0.5 * hmat[..., None, None] * lam_mat + rmat[..., None, None] * blog
             + (2.0 * np.pi / n) * smooth)
    block[diag] += -0.5 * np.eye(2)
    return block


def reference_system(scene, medium, n_per_component):
    """The Nystrom system of forward.assemble_system, every block evaluated in full."""
    from elastoscan.forward import SystemMatrix
    from elastoscan.geometry import BoundaryCondition, Quadrature, boundary_quadrature

    conditions = tuple(bc for _, bc in scene.components)
    quads = [boundary_quadrature(curve, n_per_component, component_id=i)
             for i, (curve, _) in enumerate(scene.components)]
    offsets = np.concatenate([[0], np.cumsum([q.n_nodes for q in quads])])
    kernel = np.zeros((offsets[-1], offsets[-1], 2, 2), dtype=complex)
    for i, (qi, bc) in enumerate(zip(quads, conditions)):
        for j, qj in enumerate(quads):
            si, sj = slice(offsets[i], offsets[i + 1]), slice(offsets[j], offsets[j + 1])
            if i == j and bc is BoundaryCondition.DIRICHLET:
                kernel[si, sj] = _ref_dirichlet_self_block(qi, medium)
            elif i == j:
                kernel[si, sj] = _ref_neumann_self_block(scene.components[i][0], qi, medium)
            else:
                w = qi.points[:, None, :] - qj.points[None, :, :]
                if bc is BoundaryCondition.DIRICHLET:
                    smooth = ref_green(w, medium, ref_hankel)
                else:
                    smooth = ref_traction(w, qi.normals[:, None, :], medium, ref_hankel)
                kernel[si, sj] = smooth * qj.weights[None, :, None, None]
    matrix = np.block([[kernel[..., 0, 0], kernel[..., 0, 1]],
                       [kernel[..., 1, 0], kernel[..., 1, 1]]])
    quad = Quadrature(*(np.concatenate([getattr(q, f) for q in quads])
                        for f in ("t", "points", "normals", "speeds", "weights", "component")))
    return SystemMatrix(matrix, quad, scene, medium, conditions)


def ref_plane_wave_field(mode, direction, x, medium) -> np.ndarray:
    """u^in(x) of one plane wave: d e^{i kp x.d} (P) or d_perp e^{i ks x.d} (S)."""
    from elastoscan.elastic import WaveMode, perp

    x = np.asarray(x, dtype=float)
    d = np.asarray(direction, dtype=float)
    k, pol = (medium.k_p, d) if mode is WaveMode.P else (medium.k_s, perp(d))
    phase = np.exp(1j * k * (x @ d))
    return phase[..., None] * pol


def ref_plane_wave_traction(mode, direction, x, nu, medium) -> np.ndarray:
    """T_nu u^in(x) of one plane wave."""
    from elastoscan.elastic import WaveMode, perp

    x = np.asarray(x, dtype=float)
    nu = np.asarray(nu, dtype=float)
    d = np.asarray(direction, dtype=float)
    lam, mu = medium.lam, medium.mu
    k, pol = (medium.k_p, d) if mode is WaveMode.P else (medium.k_s, perp(d))
    phase = (1j * k) * np.exp(1j * k * (x @ d))
    nu_dot_d = nu @ d
    vec = (2.0 * mu * nu_dot_d[..., None] * pol
           + lam * float(d @ pol) * nu
           - mu * float(perp(d) @ pol) * perp(nu))
    return phase[..., None] * vec


def reference_rhs(system, mode, direction) -> np.ndarray:
    """Stacked right-hand side [-f_x; -f_y] of one plane wave."""
    from elastoscan.geometry import BoundaryCondition

    quad, medium = system.quadrature, system.medium
    rhs = np.zeros((quad.n_nodes, 2), dtype=complex)
    for i, bc in enumerate(system.conditions):
        sel = quad.component == i
        if bc is BoundaryCondition.DIRICHLET:
            rhs[sel] = -ref_plane_wave_field(mode, direction, quad.points[sel], medium)
        else:
            rhs[sel] = -ref_plane_wave_traction(mode, direction, quad.points[sel],
                                                quad.normals[sel], medium)
    return np.concatenate([rhs[:, 0], rhs[:, 1]])


def reference_msr_full(scene, medium, m, n_per_component) -> np.ndarray:
    """The 4m x 4m far-field operator of forward.synthesize_msr from the reference
    system, one right-hand side per plane wave, and the far fields of the stacked
    densities psi (N, 2, 4m)."""
    from elastoscan.elastic import WaveMode
    from elastoscan.forward import direction_grid

    system = reference_system(scene, medium, n_per_component)
    quad = system.quadrature
    dirs = direction_grid(m)
    rhs = np.empty((2 * quad.n_nodes, 4 * m), dtype=complex)
    for i in range(2 * m):
        for k, mode in enumerate((WaveMode.P, WaveMode.S)):
            rhs[:, 2 * i + k] = reference_rhs(system, mode, (float(dirs[i, 0]),
                                                             float(dirs[i, 1])))
    sol = system.solve(rhs)
    n = quad.n_nodes
    psi = np.stack([sol[:n], sol[n:]], axis=1)
    y, w = quad.points, quad.weights
    phase_p = np.exp(-1j * medium.k_p * (dirs @ y.T)) * w[None, :]
    phase_s = np.exp(-1j * medium.k_s * (dirs @ y.T)) * w[None, :]
    px, py = psi[:, 0, :], psi[:, 1, :]
    d0, d1 = dirs[:, 0:1], dirs[:, 1:2]
    up = d0 * (phase_p @ px) + d1 * (phase_p @ py)
    us = -d1 * (phase_s @ px) + d0 * (phase_s @ py)
    return np.block([[up[:, 0::2], up[:, 1::2]], [us[:, 0::2], us[:, 1::2]]])


def solved_farfield(system, incident, dirs):
    """Far fields (u_p, u_s) at the directions dirs (L, 2) of the density that system
    solves for one incident field: the package's _incident_rhs, SystemMatrix.solve
    and _farfields."""
    from elastoscan.forward import _farfields, _incident_rhs

    n, count = system.n_nodes, len(dirs)
    sol = system.solve(_incident_rhs(system, incident))
    out = np.empty((2 * count, 1), dtype=complex)
    _farfields(sol[:n, None], sol[n:, None], system.quadrature, system.medium, dirs, out)
    return out[:count, 0], out[count:, 0]


def point_source_error(system, z0, q=(0.6, 0.8), m=32) -> float:
    """Relative far-field error over direction_grid(m) of the field system scatters
    for the point source Phi(., z0) q, z0 inside an obstacle.  There u^in + u^sc
    vanishes outside the obstacle, so the exact scattered far field is -Phi_inf."""
    from elastoscan.elastic import PointSource, point_source_farfield
    from elastoscan.forward import direction_grid

    dirs = direction_grid(m)
    up, us = solved_farfield(system, PointSource(tuple(z0), tuple(q)), dirs)
    ep, es = point_source_farfield(dirs, np.asarray(z0), np.asarray(q), system.medium)
    return float(np.sqrt(np.sum(np.abs(up + ep) ** 2 + np.abs(us + es) ** 2)
                         / np.sum(np.abs(ep) ** 2 + np.abs(es) ** 2)))


def reference_load_msr(path):
    """The MSR/1 reader one line at a time: the contract of forward.load_msr."""
    from elastoscan.elastic import Medium
    from elastoscan.forward import (_HEADER_KEYS, MSR_FORMAT_VERSION, MSRMatrix,
                                    MsrDimensionError, MsrFormatError, MsrVersionError,
                                    _header_value)

    header: dict[str, str] = {}
    rows: list[np.ndarray] = []
    with open(path, "rb") as fh:
        lines = fh.read().splitlines(keepends=True)         # at '\n', '\r\n' and '\r'
    for lineno, raw in enumerate(lines, start=1):
        try:
            line = raw.decode("utf-8").rstrip("\r\n")
        except UnicodeDecodeError as exc:
            raise MsrFormatError(f"not UTF-8 text: {exc.reason}") from None
        if not line:
            continue
        if line.startswith("#"):
            key, sep, value = line[1:].partition("=")
            if not sep:
                raise MsrFormatError(f"line {lineno}: malformed header {line!r}")
            if key in header:
                raise MsrFormatError(f"line {lineno}: repeated header key {key!r}")
            header[key] = value
            continue
        parts = line.split(" ")
        if len(parts) % 2 != 0:
            raise MsrFormatError(f"line {lineno}: odd number of fields")
        try:
            nums = np.array(parts, dtype=float)
        except ValueError:
            raise MsrFormatError(f"line {lineno}: non-numeric entry") from None
        if not np.isfinite(nums).all():
            raise MsrFormatError(f"line {lineno}: non-finite entry")
        rows.append(nums.view(np.complex128))

    missing = [k for k in _HEADER_KEYS if k not in header]
    if missing:
        raise MsrFormatError(f"missing header keys: {missing}")
    if header["version"] != MSR_FORMAT_VERSION:
        raise MsrVersionError(f"unsupported version {header['version']!r}")
    m = _header_value(header, "m", int)
    if not m >= 1:
        raise MsrFormatError(f"need m >= 1, got m={m}")
    n = 4 * m
    if len(rows) != n or any(len(r) != n for r in rows):
        raise MsrDimensionError(
            f"expected {n} rows of {n} entries for m={m}, got {len(rows)} rows "
            f"of lengths {sorted({len(r) for r in rows})}"
        )
    lam, mu, omega, delta = (_header_value(header, key, float)
                             for key in ("lambda", "mu", "omega", "delta"))
    try:
        Medium(lam, mu, omega)
    except ValueError as exc:
        raise MsrFormatError(f"bad lambda/mu/omega headers: {exc}") from None
    seed = None if header["seed"] == "none" else _header_value(header, "seed", int)
    return MSRMatrix(m, np.vstack(rows), lam, mu, omega, scene=header["scene"], bc=header["bc"],
                     delta=delta, seed=seed, noise_norm=header["norm"],
                     retrieval=header.get("retrieval"))


def reference_fold_row(fold, a, b, iy, xa_conj, xb):
    """Forms of block ab of an indicators._Fold on the one row iy, at the columns of its
    x tables conj(X_a), X_b: the per-row routine against which the batched
    _Fold.rows is checked bit for bit.

    The y phases of the row are folded into the member parts that are not all zero,
    giving the kernel K on the live classes; the forms are conj(X_a)^T (K X_b)
    column by column.
    """
    members = fold.members[a, b]
    if not members:
        return np.zeros(xb.shape[1], complex)
    part, (rows, cols) = fold.parts[a, b], fold.classes[a, b]
    kern, tmp, tmp2 = np.empty((3,) + part.shape[2:], complex)
    ya, yb = np.conj(fold.yphase[a][iy][:, rows]), fold.yphase[b][iy][:, cols]
    first = True
    for i, (j0, *rest) in members:
        acc, spare = (kern, tmp) if first else (tmp, tmp2)
        np.multiply(part[i, j0], yb[j0], out=acc)
        for j in rest:
            np.multiply(part[i, j], yb[j], out=spare)
            acc += spare
        np.multiply(ya[i][:, None], acc, out=acc)
        if not first:
            kern += acc
        first = False
    # column-major, so that each column is summed pairwise
    return np.multiply(xa_conj, kern @ xb, order="F").sum(axis=0)
