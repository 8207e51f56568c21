"""Nystrom single-layer forward solver and multi-static response synthesis.

Discretization
--------------
The scattered field is a single-layer potential over the union boundary,
u^sc = S[psi], and psi solves

    Dirichlet:  S psi            = -u^in        (first kind, log-singular)
    Neumann:    (-I/2 + K') psi  = -T_nu u^in   (second kind, Cauchy-singular)

on the trapezoid grid t_k = 2 pi k / n per component.  Singular quadrature
on the per-component diagonal blocks:

  * log part      -- Kussmaul-Martensen splitting K = K1 ln(4 sin^2((t-tau)/2)) + K2
                     with K1 the analytic J-Bessel coefficient and the exact
                     spectral weights R_j; smooth diagonals in closed form.
  * Cauchy part   -- the traction kernel's strong singularity is the constant
                     skew matrix Lam = mu/(2 pi (lam+2mu)) [[0,-1],[1,0]] times
                     cot((tau-t)/2)/2 (the elastostatic limit); subtracted
                     globally and integrated by the exact cotangent rule, with
                     the smooth remainder's diagonal Richardson-extrapolated.

Both kernels split the same way, so one routine (_self_block) evaluates the
self block of either condition; the two differ only in the kernel they read
(_kernel: green_radial and green_of_w for a Dirichlet row block,
traction_radial and traction_of_green for a Neumann one) and in the singular
corrections (the Neumann Cauchy part, -I/2 and the extrapolated diagonal).
Cross-component blocks are smooth and use plain trapezoid weights.  Off the
diagonal both schemes reduce to kernel-times-weight, so assembly is fully
vectorized; one LU factorization per (scene, medium, bc) is reused for all
right-hand sides, and synthesis is the one solve: every incident field is a
column of one right-hand-side block.

The kernel at (x_i, x_j) and at (x_j, x_i) has the same radial functions, so
each unordered node pair's Bessel values and radial functions are evaluated
once, and only those the block's kernel reads: a self block on its upper
triangle, mirrored, and block (j, i) from the transposes of block (i, j)'s.

Memory.  Synthesis holds at any stage only one 2N x 2N array, first the matrix A
and then its LU, one 2N x 4m block of right-hand sides and temporaries of n x n
size:

  * assembly     -- every block is written one 2 x 2 entry (an n x n complex
                    array) at a time into the four quadrant views
                    [[xx, xy], [yx, yy]] of A; there is no (N, N, 2, 2) kernel
                    array and no copy of it.  A self block's Hankel part waits
                    in its destination while the log part's radial functions
                    are evaluated, so the two sets are never held together.
  * factorize    -- A's 1-norm is taken for the condition estimate over strips
                    of rows, with no float copy of |A|; then A's C-ordered
                    buffer is transposed in place (tile by tile) into the
                    Fortran-ordered array LAPACK reads, and getrf overwrites
                    it with the LU; SystemMatrix.matrix is None from then on.
  * solve        -- the negated right-hand sides of all 4m plane waves (the 2m
                    P waves, then the 2m S waves) are written straight into
                    one Fortran-ordered 2N x 4m block, which the LU solve
                    overwrites with the densities.
  * far field    -- the LU is released as soon as the solve returns; the far
                    field is read from views of the two halves of the
                    solution, one receiver mode at a time, and the products
                    are written straight into the rows of a preallocated
                    4m x 4m array, whose columns are ordered as the solution's.

Far fields of a density follow the trapezoid rule

    u_p(xhat) = sum_k w_k e^{-i kp xhat.y_k} (psi_k . xhat),
    u_s(xhat) = sum_k w_k e^{-i ks xhat.y_k} (psi_k . xhat_perp),

and the MSR matrix collects them over the direction grid
theta_i = (i-1) pi / m, i = 1..2m (rows = observation, columns = incidence)
into one 4m x 4m operator [[F_pp, F_sp], [F_ps, F_ss]]; block() is the one
place that slices it.

MSR/1 files hold that operator as text.  save_msr writes each number as the
bytes of "%.17g" % x, computed for a chunk of rows at a time with exact array
arithmetic (_numtext.format_rows).  load_msr reads the file once as bytes and
each number to the binary64 value float() gives, a chunk of numbers at a time
with exact array arithmetic (_numtext.read_tokens), so a load and a save
reproduce a file, the sign of zero included.  It takes any spelling float()
reads, one space between numbers, '\n', '\r\n' or '\r' line ends, blank lines
and '#key=value' lines anywhere (a key given twice is an error); a fault names
the first line that has one.
"""

from __future__ import annotations

import contextlib
import logging
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Union

import numpy as np
import scipy.linalg as sla
from scipy.linalg import lapack as _lapack
from scipy.special import ndtri

from ._numtext import CHUNK_VALUES, format_rows, read_tokens
from .elastic import (
    ENTRIES,
    EULER_GAMMA,
    Medium,
    PlaneWave,
    PointSource,
    bessel_j,
    green_of_w,
    green_radial,
    hankel_pack,
    logcoef_pack,
    perp,
    plane_wave_entries,
    traction_of_green,
    traction_radial,
)
from .geometry import (
    BoundaryCondition,
    BoundaryCurve,
    Quadrature,
    Scene,
    boundary_quadrature,
    curve_point,
    curve_tangent,
)

logger = logging.getLogger(__name__)

RCOND_LIMIT = 1e-12           # condition estimate > 1e12 is treated as resonance
NOISE_NORM = "frobenius"
MSR_FORMAT_VERSION = "MSR/1"

Incident = Union[PlaneWave, PointSource]


class NumericError(RuntimeError):
    """Numerical failure (ill-conditioned or singular system)."""


# ---------------------------------------------------------------------------
# Quadrature weight tables (per grid size, cached)
# ---------------------------------------------------------------------------
@lru_cache(maxsize=32)
def log_quadrature_weights(n: int) -> np.ndarray:
    """R[l], l = (i-j) mod n: spectral weights for the ln(4 sin^2((t-tau)/2)) kernel."""
    l = np.arange(n)
    m = np.arange(1, n // 2)
    table = np.cos(2.0 * np.pi * np.outer(l, m) / n) / m
    return -(4.0 * np.pi / n) * table.sum(axis=1) - (4.0 * np.pi / n**2) * np.cos(np.pi * l)


@lru_cache(maxsize=32)
def cot_quadrature_weights(n: int) -> np.ndarray:
    """H[l], l = (i-j) mod n: spectral weights for p.v. of the cot((tau-t)/2) kernel."""
    l = np.arange(n)
    h = np.zeros(n)
    odd = (l % 2) == 1
    h[odd] = -(4.0 * np.pi / n) / np.tan(np.pi * l[odd] / n)
    return h


def _toeplitz_circ(table: np.ndarray) -> np.ndarray:
    n = len(table)
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    return table[idx]


# ---------------------------------------------------------------------------
# Kernel blocks
# ---------------------------------------------------------------------------
def _single_layer_smooth_diag(medium: Medium, speeds: np.ndarray) -> tuple[np.ndarray, float]:
    """Diagonal of the smooth part K2(t,t) = s (A I + B that that^T): returns (A, B)."""
    lam, mu, om = medium.lam, medium.mu, medium.omega
    ks, kp = medium.k_s, medium.k_p
    sig = ks**2 - kp**2
    logs = np.log(speeds)
    g1 = (-sig / 2.0 + 1j * sig / (2.0 * np.pi)
          - (1j / np.pi) * (ks**2 * np.log(ks / 2.0) - kp**2 * np.log(kp / 2.0)
                            + sig * (EULER_GAMMA + logs)))
    a = (0.25j / mu - (np.log(ks / 2.0) + EULER_GAMMA + logs) / (2.0 * np.pi * mu)
         + 0.25j / om**2 * g1)
    b = sig / (4.0 * np.pi * om**2)
    return a, b


def _single_layer_log_diag_coef(medium: Medium) -> float:
    """K1(t,t) = coef * s * I (J-Bessel log coefficient at r = 0)."""
    return -(1.0 / (8.0 * np.pi)) * (1.0 / medium.mu + 1.0 / (medium.lam + 2.0 * medium.mu))


def cauchy_strength(medium: Medium) -> np.ndarray:
    """Lam: constant skew 2x2 Cauchy coefficient of the traction kernel."""
    c = medium.mu / (2.0 * np.pi * (medium.lam + 2.0 * medium.mu))
    return c * np.array([[0.0, -1.0], [1.0, 0.0]])


def _mirrored(n: int, upper, values) -> list[np.ndarray]:
    """n x n symmetric arrays of values given on the upper triangle (indices upper,
    diagonal included).

    The functions of a symmetric distance array are evaluated once per unordered
    pair and mirrored: r[i, j] = r[j, i] holds exactly, since x_i - x_j = -(x_j - x_i)
    in floating point.
    """
    out = []
    for v in values:
        full = np.empty((n, n), dtype=v.dtype)
        full[upper] = v
        full[upper[1], upper[0]] = v
        out.append(full)
    return out


def _kernel(bc: BoundaryCondition) -> tuple:
    """The kernel a bc's rows read: (radial(r, pack, medium), entry(w, r, nu, radial,
    medium, (a, b))), green_radial and green_of_w for Dirichlet rows (which ignore the
    normals nu), traction_radial and traction_of_green for Neumann ones."""
    if bc is BoundaryCondition.DIRICHLET:
        return green_radial, lambda w, r, nu, radial, medium, ab: green_of_w(w, r, radial, ab)
    return traction_radial, traction_of_green


def _self_block(curve: BoundaryCurve, quad: Quadrature, bc: BoundaryCondition,
                medium: Medium, out) -> None:
    """Singular Nystrom block on one component, of S (Dirichlet) or of -I/2 + K'
    (Neumann), written one entry at a time: out[a][b] (n x n) receives the (a, b)
    entries."""
    radial_of, kernel = _kernel(bc)
    neumann = bc is BoundaryCondition.NEUMANN
    n = quad.n_nodes
    x, s, nu, t = quad.points, quad.speeds, quad.normals[:, None, :], quad.t
    diag, eye = np.eye(n, dtype=bool), np.eye(2)

    # keep the diagonal finite during vectorized evaluation; overwritten below
    w = x[:, None, :] - x[None, :, :]
    w[diag] = (1.0, 0.0)
    r = np.linalg.norm(w, axis=-1)
    upper = np.triu_indices(n)
    rv = r[upper]
    jv = bessel_j(rv, medium)                   # shared by the kernel and its log part
    # the Hankel kernel first, held in out until its singular parts are subtracted
    radial = _mirrored(n, upper, radial_of(rv, hankel_pack(rv, medium, jv), medium))
    del rv
    for a, b in ENTRIES:
        np.multiply(kernel(w, r, nu, radial, medium, (a, b)), s[None, :], out=out[a][b])
    del radial
    rv = r[upper]
    values = radial_of(rv, logcoef_pack(jv), medium)
    del rv, jv                                  # freed before the n x n arrays exist
    radial_log = _mirrored(n, upper, values)
    del upper, values

    dt = t[:, None] - t[None, :]
    if neumann:
        cot = np.where(diag, 0.0, 1.0 / np.tan(np.where(diag, 1.0, -dt) / 2.0))
    logterm = np.log(np.where(diag, 1.0, 4.0 * np.sin(dt / 2.0) ** 2))
    del dt
    rmat = _toeplitz_circ(log_quadrature_weights(n))
    # per node (n, 2, 2): the smooth remainder's diagonal and the log coefficient's
    if neumann:
        smooth_diag = _neumann_smooth_diag(curve, quad, medium)
        log_diag = np.broadcast_to(0.0, (n, 2, 2))
        lam_mat, hmat = cauchy_strength(medium), _toeplitz_circ(cot_quadrature_weights(n))
    else:
        a_diag, b_diag = _single_layer_smooth_diag(medium, s)
        that = perp(quad.normals)
        smooth_diag = s[:, None, None] * (a_diag[:, None, None] * eye
                                          + b_diag * that[:, :, None] * that[:, None, :])
        log_diag = (_single_layer_log_diag_coef(medium) * s)[:, None, None] * eye
    for a, b in ENTRIES:
        block = out[a][b]
        blog = kernel(w, r, nu, radial_log, medium, (a, b))
        blog *= s[None, :]
        if neumann:
            smooth = block - 0.5 * cot * lam_mat[a, b] - logterm * blog
        else:
            smooth = block - logterm * blog
        smooth[diag] = smooth_diag[:, a, b]
        blog[diag] = log_diag[:, a, b]
        if neumann:
            np.add(0.5 * hmat * lam_mat[a, b] + rmat * blog, (2.0 * np.pi / n) * smooth,
                   out=block)
            block[diag] += -0.5 * eye[a, b]
        else:
            np.add(rmat * blog, (2.0 * np.pi / n) * smooth, out=block)


def _neumann_smooth_diag(curve: BoundaryCurve, quad: Quadrature, medium: Medium) -> np.ndarray:
    """Diagonal of the smooth traction remainder by even-power Richardson extrapolation.

    The cot part is odd and cancels in the symmetric average, so only the log
    part is subtracted; the remainder is analytic with an even local expansion,
    and (64 g(e/4) - 20 g(e/2) + g(e)) / 45 removes the e^2 and e^4 terms.
    """
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
            r = np.linalg.norm(w, axis=-1)
            jv = bessel_j(r, medium)
            fv, bv = (traction_of_green(w, r, nu, traction_radial(r, pack, medium), medium)
                      * st[:, None, None]
                      for pack in (hankel_pack(r, medium, jv), logcoef_pack(jv)))
            acc = acc + fv - logterm * bv
        vals.append(acc / 2.0)
    v1, v2, v3 = vals
    return (64.0 * v3 - 20.0 * v2 + v1) / 45.0


def _cross_blocks(qi: Quadrature, qj: Quadrature, bci: BoundaryCondition,
                  bcj: BoundaryCondition, medium: Medium, out_ij, out_ji) -> None:
    """Blocks (i, j) and (j, i) between two components (trapezoid weights, smooth
    kernels), written one entry at a time into out_ij[a][b] and out_ji[a][b].

    The Hankel values and radial functions of each node pair are evaluated once,
    on block (i, j)'s distances; block (j, i) takes their transposes.
    """
    w = qi.points[:, None, :] - qj.points[None, :, :]
    r = np.linalg.norm(w, axis=-1)
    pack = hankel_pack(r, medium)
    radial = {bc: _kernel(bc)[0](r, pack, medium) for bc in (bci, bcj)}
    del pack

    def smooth(w, r, bc, radial, normals, weights, out):
        kernel = _kernel(bc)[1]
        for a, b in ENTRIES:
            np.multiply(kernel(w, r, normals[:, None, :], radial, medium, (a, b)),
                        weights[None, :], out=out[a][b])

    smooth(w, r, bci, radial[bci], qi.normals, qj.weights, out_ij)
    # contiguous, so every elementwise step runs on the layout block (j, i) would have
    wt = qj.points[:, None, :] - qi.points[None, :, :]
    transposed = [np.ascontiguousarray(v.T) for v in radial.pop(bcj)]
    del radial
    smooth(wt, np.ascontiguousarray(r.T), bcj, transposed, qj.normals, qi.weights, out_ji)


# ---------------------------------------------------------------------------
# System assembly and solve
# ---------------------------------------------------------------------------
def _fortran_in_place(a: np.ndarray) -> np.ndarray:
    """The square C-ordered array a as a Fortran-ordered array of the same values,
    in a's own buffer: a is transposed in place, 64 x 64 tiles at a time through
    one tile-sized temporary, and its transpose (a view) is returned."""
    n = len(a)
    tile = np.empty((64, 64), dtype=a.dtype)
    for i in range(0, n, 64):
        rows = slice(i, i + 64)
        for j in range(i, n, 64):
            cols = slice(j, j + 64)
            upper, lower = a[rows, cols], a[cols, rows]
            tmp = tile[:upper.shape[0], :upper.shape[1]]
            np.copyto(tmp, upper)
            if j != i:
                upper[...] = lower.T
            lower[...] = tmp.T
    return a.T


def _one_norm(a: np.ndarray) -> float:
    """np.linalg.norm(a, 1), the largest column sum of |a|, bit for bit, without a
    float copy of |a|: |a| is taken over strips of 64 rows into one
    (65, n) buffer whose row 0 carries the running column sums, and each strip is
    added to them row after row, the order in which numpy sums the whole |a|."""
    rows = 64
    buf = np.empty((rows + 1, a.shape[1]))
    for i in range(0, len(a), rows):
        strip = a[i:i + rows]
        np.abs(strip, out=buf[1:len(strip) + 1])
        np.add.reduce(buf[int(i == 0):len(strip) + 1], axis=0, out=buf[0])
    return float(buf[0].max())


@dataclass
class SystemMatrix:
    """Assembled Nystrom system with its quadrature and, once factored, its LU.

    factorization() overwrites matrix with its LU factors and sets matrix to
    None, so the system holds one 2N x 2N array at any time.
    """

    matrix: np.ndarray | None     # (2N, 2N) complex, layout [[xx, xy],[yx, yy]]
    quadrature: Quadrature
    scene: Scene
    medium: Medium
    conditions: tuple[BoundaryCondition, ...]
    _lu: tuple | None = None

    @property
    def n_nodes(self) -> int:
        return self.quadrature.n_nodes

    def factorization(self):
        """LU with a one-norm condition estimate; raises NumericError near resonance.

        The LU is computed in matrix's own buffer, which LAPACK overwrites with
        the factors; matrix is None afterwards.
        """
        if self._lu is None:
            anorm = _one_norm(self.matrix)
            lu, piv = sla.lu_factor(_fortran_in_place(self.matrix), overwrite_a=True,
                                    check_finite=False)
            self.matrix = None
            gecon = _lapack.zgecon
            rcond, info = gecon(lu, anorm)
            if info != 0 or not np.isfinite(rcond) or rcond < RCOND_LIMIT:
                raise NumericError(
                    f"system is numerically singular (rcond={rcond:.2e}); "
                    "omega may be an interior resonance for this scene"
                )
            logger.debug("system factorized: N=%d rcond=%.2e", self.n_nodes, rcond)
            self._lu = (lu, piv)
        return self._lu

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """A^{-1} rhs, in place: a Fortran-ordered complex rhs (as _stacked_rhs builds
        it) is overwritten with the solution, which is returned; any other layout is
        copied first."""
        return sla.lu_solve(self.factorization(), rhs, overwrite_b=True, check_finite=False)


def assemble_system(scene: Scene, medium: Medium, n_per_component: int) -> SystemMatrix:
    """System honoring each component's own boundary-condition tag.

    A Dirichlet component contributes single-layer (S) rows, a Neumann one
    (-I/2 + K') rows.  Every block is written one 2 x 2 entry at a time into the
    four quadrant views [[xx, xy], [yx, yy]] of the 2N x 2N matrix.
    """
    conditions = tuple(bc for _, bc in scene.components)
    quads = [boundary_quadrature(curve, n_per_component, component_id=i)
             for i, (curve, _) in enumerate(scene.components)]
    ncomp = len(quads)
    sizes = [q.n_nodes for q in quads]
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    ntot = offsets[-1]
    matrix = np.empty((2 * ntot, 2 * ntot), dtype=complex)
    span = [slice(offsets[i], offsets[i + 1]) for i in range(ncomp)]

    def views(si, sj):
        """The (a, b) entry blocks of component pair (i, j): out[a][b]."""
        return [[matrix[a * ntot:(a + 1) * ntot, b * ntot:(b + 1) * ntot][si, sj]
                 for b in (0, 1)] for a in (0, 1)]

    for i in range(ncomp):
        si = span[i]
        _self_block(scene.components[i][0], quads[i], conditions[i], medium, views(si, si))
        for j in range(i + 1, ncomp):
            sj = span[j]
            _cross_blocks(quads[i], quads[j], conditions[i], conditions[j], medium,
                          views(si, sj), views(sj, si))

    quad = Quadrature(*(np.concatenate([getattr(q, f) for q in quads])
                        for f in ("t", "points", "normals", "speeds", "weights", "component")))
    return SystemMatrix(matrix, quad, scene, medium, conditions)


def _stacked_rhs(system: SystemMatrix, k: int, entries) -> np.ndarray:
    """k right-hand sides [-f_x; -f_y] as one Fortran-ordered (2N, k) block, which
    SystemMatrix.solve overwrites with the solution.

    On each component's nodes x, entries(x, nu) yields (columns, a, f_a): entry a
    of f = u^in (nu is None, a Dirichlet component) or of f = T_nu u^in (nu the
    normals, a Neumann one), (n_c, ...) for those columns; -f_a is written
    straight into the block.
    """
    quad = system.quadrature
    n = quad.n_nodes
    rhs = np.empty((2 * n, k), dtype=complex, order="F")
    for i, bc in enumerate(system.conditions):
        lo, hi = np.searchsorted(quad.component, (i, i + 1))
        nu = None if bc is BoundaryCondition.DIRICHLET else quad.normals[lo:hi]
        for cols, a, f in entries(quad.points[lo:hi], nu):
            np.negative(f, out=rhs[a * n + lo:a * n + hi, cols])
    return rhs


def _incident_rhs(system: SystemMatrix, incident: Incident) -> np.ndarray:
    """Stacked right-hand side [-f_x; -f_y] with f = u^in or T_nu u^in per row block."""
    medium = system.medium

    def entries(x, nu):
        f = incident.field(x, medium) if nu is None else incident.traction(x, nu, medium)
        return ((0, a, f[:, a]) for a in (0, 1))

    return _stacked_rhs(system, 1, entries)[:, 0]


def _plane_wave_rhs(system: SystemMatrix, directions: np.ndarray) -> np.ndarray:
    """Right-hand sides of the P and S plane waves along every direction d_l, all in
    one pass: (2N, 2L), column l the P wave and column L + l the S wave."""
    medium = system.medium
    count = len(directions)

    def entries(x, nu):
        return ((slice(i * count, (i + 1) * count), a, f)
                for i, a, f in plane_wave_entries(x, directions, medium, nu))

    return _stacked_rhs(system, 2 * count, entries)


def _farfields(px: np.ndarray, py: np.ndarray, quad: Quadrature, medium: Medium,
               directions: np.ndarray, out: np.ndarray) -> None:
    """Far fields of the density components px, py (N, K, any strides) at directions
    (L, 2): u_p into out[:L] and u_s into out[L:] (out (2L, K))."""
    y, w = quad.points, quad.weights
    d0, d1 = directions[:, 0:1], directions[:, 1:2]
    count = len(directions)
    # u_p = xhat . g(k_p), u_s = xhat_perp . g(k_s), xhat_perp = (-d1, d0)
    for u, k, c0, c1 in ((out[:count], medium.k_p, d0, d1),
                         (out[count:], medium.k_s, -d1, d0)):
        phase = np.exp(-1j * k * (directions @ y.T)) * w[None, :]            # (L, N)
        np.matmul(phase, px, out=u)
        u *= c0
        gy = phase @ py
        gy *= c1
        u += gy


# ---------------------------------------------------------------------------
# MSR matrix
# ---------------------------------------------------------------------------
def direction_grid(m: int) -> np.ndarray:
    """2m unit directions at theta_i = (i-1) pi / m, i = 1..2m."""
    theta = np.pi * np.arange(2 * m) / m
    return np.stack([np.cos(theta), np.sin(theta)], axis=-1)


# (row half, column half) of each 2m x 2m block in the layout [[pp, sp], [ps, ss]]
_BLOCK_HALVES = {"f_pp": (0, 0), "f_ps": (1, 0), "f_sp": (0, 1), "f_ss": (1, 1)}


def block(a: np.ndarray, m: int, name: str) -> np.ndarray:
    """View of the named 2m x 2m block of a 4m x 4m array."""
    row, col = _BLOCK_HALVES[name]
    n = 2 * m
    return a[row * n:(row + 1) * n, col * n:(col + 1) * n]


def blocks(a: np.ndarray, m: int) -> dict[str, np.ndarray]:
    """Block name -> view, for all four blocks."""
    return {name: block(a, m, name) for name in _BLOCK_HALVES}


@dataclass
class MSRMatrix:
    """Multi-static far-field data over the equidistant direction grid.

    full is the 4m x 4m far-field operator [[F_pp, F_sp], [F_ps, F_ss]] with
    F_ab[j, i] = u_ab(xhat_j, d_i): received component a, incident mode b,
    row = observation, column = incidence.  The blocks are views of it.
    """

    m: int
    full: np.ndarray
    lam: float
    mu: float
    omega: float
    scene: str                    # canonical scene string
    bc: str
    delta: float = 0.0
    seed: int | None = None
    noise_norm: str = NOISE_NORM
    retrieval: str | None = None  # "reciprocity" on completed limited data

    def __post_init__(self) -> None:
        shape = (4 * self.m, 4 * self.m)
        if self.full.shape != shape:
            raise ValueError(f"full must have shape {shape}, got {self.full.shape}")

    f_pp = property(lambda self: block(self.full, self.m, "f_pp"))
    f_ps = property(lambda self: block(self.full, self.m, "f_ps"))
    f_sp = property(lambda self: block(self.full, self.m, "f_sp"))
    f_ss = property(lambda self: block(self.full, self.m, "f_ss"))

    @property
    def medium(self) -> Medium:
        return Medium(self.lam, self.mu, self.omega)

    def assembled(self) -> np.ndarray:
        """The 4m x 4m far-field operator itself (not a copy)."""
        return self.full

    def frobenius(self) -> float:
        return float(np.linalg.norm(self.full))


def _untimed(key: str):
    return contextlib.nullcontext()


def synthesize_msr(scene: Scene, medium: Medium, m: int, n_per_component: int,
                   span=_untimed) -> MSRMatrix:
    """Solve the forward problem for all 2m P and S incidences and fill the MSR.

    span(key) gives a context manager around each stage, for key "assemble_s",
    "factorize_s", "solve_s" (right-hand sides and solve) and "farfield_s";
    RunManifest.span records their wall times.
    """
    if m < 4:
        raise ValueError(f"need m >= 4, got {m}")
    with span("assemble_s"):
        system = assemble_system(scene, medium, n_per_component)
    with span("factorize_s"):
        system.factorization()
    quad = system.quadrature
    bc_names = ",".join(bc.value for bc in system.conditions)
    dirs = direction_grid(m)
    with span("solve_s"):
        sol = system.solve(_plane_wave_rhs(system, dirs))      # (2N, 4m), in place
    del system                                                 # A and its LU
    with span("farfield_s"):
        # rows: p then s receivers; columns: P then S incidences, as the solution's
        n = quad.n_nodes
        full = np.empty((4 * m, 4 * m), dtype=complex)
        _farfields(sol[:n], sol[n:], quad, medium, dirs, full)
    return MSRMatrix(m, full, medium.lam, medium.mu, medium.omega,
                     scene=scene.describe(), bc=bc_names)


def add_noise(msr: MSRMatrix, delta: float, seed: int) -> MSRMatrix:
    """F + delta ||F||_F (R1 + i R2)/||R1 + i R2||_F with Philox-seeded normals.

    R1 then R2 are drawn row-major over the assembled 4m x 4m matrix; normals
    come from the inverse CDF of Philox uniforms so the stream is reproducible
    across platforms and library versions.  The relative Frobenius perturbation
    equals delta exactly by construction.  Needs a finite delta >= 0 and an
    integer seed >= 0 (ValueError otherwise); raises NumericError where
    delta ||F||_F or the perturbed operator overflows.
    """
    if not (np.isfinite(delta) and delta >= 0):
        raise ValueError(f"delta must be finite and >= 0, got {delta}")
    if not isinstance(seed, (int, np.integer)):
        raise ValueError(f"need an integer seed, got {seed!r}")
    if seed < 0:
        raise ValueError(f"need seed >= 0, got {seed}")
    if delta == 0.0:
        return replace(msr, delta=0.0, seed=seed)
    n = 4 * msr.m
    gen = np.random.Generator(np.random.Philox(seed))
    u = gen.random(2 * n * n)
    normals = ndtri(u)
    r1 = normals[: n * n].reshape(n, n)
    r2 = normals[n * n:].reshape(n, n)
    noise = r1 + 1j * r2
    full = msr.full
    with np.errstate(over="ignore", invalid="ignore"):
        level = delta * np.linalg.norm(full)
        noisy = full + level * noise / np.linalg.norm(noise)
    if not (np.isfinite(level) and np.isfinite(noisy).all()):
        raise NumericError(f"noise of delta={float(delta)!r} overflows: "
                           f"delta ||F|| = {float(level)!r}")
    return replace(msr, full=noisy, delta=delta, seed=seed)


# ---------------------------------------------------------------------------
# MSR/1 persistence
# ---------------------------------------------------------------------------
class MsrFormatError(ValueError):
    """Malformed MSR/1 file."""


class MsrVersionError(MsrFormatError):
    """Unsupported MSR format version."""


class MsrDimensionError(MsrFormatError):
    """Header dimensions disagree with the data rows."""


_HEADER_KEYS = ("version", "m", "lambda", "mu", "omega", "scene", "bc", "delta", "seed", "norm")


def _header_value(header: dict[str, str], key: str, parse):
    try:
        return parse(header[key])
    except ValueError:
        raise MsrFormatError(f"bad {key} header {header[key]!r}") from None


def save_msr(msr: MSRMatrix, path) -> None:
    """Write the MSR/1 text format: #key=value headers, then 4m rows of re/im pairs.

    Each number is written as the bytes of ``"%.17g" % x``, which load_msr
    reads back to the same binary64 value, the sign of zero included.  Rows
    are formatted a chunk at a time by _numtext.format_rows; any memory layout of
    ``msr.full`` is accepted.
    """
    n = 4 * msr.m
    chunk = max(1, CHUNK_VALUES // (2 * n))
    header = [f"#version={MSR_FORMAT_VERSION}", f"#m={msr.m}", f"#lambda={float(msr.lam)!r}",
              f"#mu={float(msr.mu)!r}", f"#omega={float(msr.omega)!r}", f"#scene={msr.scene}",
              f"#bc={msr.bc}", f"#delta={float(msr.delta)!r}",
              f"#seed={'none' if msr.seed is None else msr.seed}", f"#norm={msr.noise_norm}"]
    if msr.retrieval is not None:
        header.append(f"#retrieval={msr.retrieval}")
    with open(path, "wb") as fh:
        fh.write("".join(line + "\n" for line in header).encode())
        for r0 in range(0, n, chunk):
            rows = np.ascontiguousarray(msr.full[r0:r0 + chunk], dtype=np.complex128)
            fh.write(format_rows(rows.view(np.float64)))


def _msr_text(data: bytes) -> tuple[dict[str, str], list[int], np.ndarray | None]:
    """(header, entries per data row, numbers) of MSR/1 text with '\\n' line ends, the
    last line ended; numbers is (rows x 2 entries) when every row has one length.

    One scan for bytes <= 32 finds the lines ('\\n') and tokens (' '); any other
    such byte belongs to its token, which read_tokens then reads by float().
    Of several faulty lines, the first is named.
    """
    text = np.frombuffer(data, np.uint8)
    seps = np.flatnonzero(text <= 32)
    kind = text[seps]
    split = (kind == 32) | (kind == 10)
    seps, kind = seps[split], kind[split]
    line_seps = np.flatnonzero(kind == 10)                  # the last separator of each line
    line_end = seps[line_seps]
    line_start = np.concatenate([[0], line_end[:-1] + 1])
    fields = np.diff(line_seps, prepend=-1)
    comment = text[line_start] == 35
    data_line = ~comment & (line_start != line_end)

    faults = []                                             # (line number, rank, message)
    header: dict[str, str] = {}
    for i in np.flatnonzero(comment).tolist():
        line = data[line_start[i]:line_end[i]].decode()
        key, sep, value = line[1:].partition("=")
        if not sep or key in header:
            what = f"malformed header {line!r}" if not sep else f"repeated header key {key!r}"
            faults.append((i + 1, 0, f"line {i + 1}: {what}"))
            break
        header[key] = value
    odd = np.flatnonzero(data_line & (fields % 2 == 1))
    if odd.size:
        faults.append((int(odd[0]) + 1, 0, f"line {odd[0] + 1}: odd number of fields"))

    tokens = np.repeat(data_line, fields)                   # per separator: ends a number
    lengths = np.diff(seps, prepend=-1) - 1
    token_end, lengths = seps[tokens], lengths[tokens]
    numbers, failed = read_tokens(data, token_end, lengths)
    for rank, what, where in ((1, "non-numeric", failed),
                              (2, "non-finite", np.flatnonzero(~np.isfinite(numbers)))):
        if where.size:
            line = int(np.searchsorted(line_end, token_end[where[0]])) + 1
            faults.append((line, rank, f"line {line}: {what} entry"))
    if faults:
        raise MsrFormatError(min(faults)[2])
    widths = fields[data_line]
    if widths.size and (widths == widths[0]).all():
        return header, (widths // 2).tolist(), numbers.reshape(-1, widths[0])
    return header, (widths // 2).tolist(), None


def load_msr(path) -> MSRMatrix:
    """Read an MSR/1 file (UTF-8 text); raises MsrVersionError / MsrDimensionError /
    MsrFormatError, the last also for bytes that are not UTF-8 (checked only where
    the file is not ASCII, and named unless a line before them has a fault).

    The file is read once as bytes; see _msr_text for the lines and numbers.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if b"\r" in data:                                   # universal newlines
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            before = data[:data.rfind(b"\n", 0, exc.start) + 1]    # the lines before
            if before:
                _msr_text(before)                       # raises on a fault there
            raise MsrFormatError(f"not UTF-8 text: {exc.reason}") from None
    if not data.endswith(b"\n"):
        data += b"\n"
    header, lengths, numbers = _msr_text(data)

    missing = [k for k in _HEADER_KEYS if k not in header]
    if missing:
        raise MsrFormatError(f"missing header keys: {missing}")
    if header["version"] != MSR_FORMAT_VERSION:
        raise MsrVersionError(f"unsupported version {header['version']!r}")
    m = _header_value(header, "m", int)
    if not m >= 1:
        raise MsrFormatError(f"need m >= 1, got m={m}")
    n = 4 * m
    if len(lengths) != n or any(length != n for length in lengths):
        raise MsrDimensionError(
            f"expected {n} rows of {n} entries for m={m}, got {len(lengths)} rows "
            f"of lengths {sorted(set(lengths))}"
        )
    lam, mu, omega, delta = (_header_value(header, key, float)
                             for key in ("lambda", "mu", "omega", "delta"))
    try:
        Medium(lam, mu, omega)
    except ValueError as exc:
        raise MsrFormatError(f"bad lambda/mu/omega headers: {exc}") from None
    seed = None if header["seed"] == "none" else _header_value(header, "seed", int)
    return MSRMatrix(m, numbers.view(np.complex128), lam, mu, omega, scene=header["scene"],
                     bc=header["bc"], delta=delta, seed=seed, noise_norm=header["norm"],
                     retrieval=header.get("retrieval"))
