"""Direct sampling indicators: weighted quadratic forms of the MSR matrix.

For a sampling point z the test functions on the direction grid are

    phi_p(theta) = e^{-i kp z.theta} (q.theta),
    phi_s(theta) = e^{-i ks z.theta} (q.theta_perp),

and with the direction-grid weight w = pi/m the indicators are

    I_FF(z) = | w^2  phi(z)^H  F  phi(z) |,     phi = [phi_p; phi_s],
    I_PP(z) = | w^2  phi_p^H  F_pp  phi_p |,
    I_SS(z) = | w^2  phi_s^H  F_ss  phi_s |,

where F is the assembled 4m x 4m operator layout [[pp, sp], [ps, ss]].
I_FF is the sum of the four block forms, of which the pp and ss forms are
I_PP and I_SS, so every kind comes from one chunked pass of block
matrix-matrix products over all sampling points; nothing is re-assembled
per z.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .elastic import Medium
from .forward import direction_grid

EVAL_CHUNK = 8192


class IndicatorKind(Enum):
    FF = "ff"
    PP = "pp"
    SS = "ss"


@dataclass(frozen=True)
class SamplingGrid:
    """Rectangular grid of sampling points, x fastest within each y row."""

    x0: float
    x1: float
    y0: float
    y1: float
    nx: int
    ny: int

    def __post_init__(self) -> None:
        if not (self.x1 > self.x0 and self.y1 > self.y0):
            raise ValueError("need x1 > x0 and y1 > y0")
        if self.nx < 2 or self.ny < 2:
            raise ValueError("need nx, ny >= 2")

    @property
    def xs(self) -> np.ndarray:
        return np.linspace(self.x0, self.x1, self.nx)

    @property
    def ys(self) -> np.ndarray:
        return np.linspace(self.y0, self.y1, self.ny)

    def points(self) -> np.ndarray:
        """All grid points, shape (nx*ny, 2), ordered (iy, ix) row-major."""
        gx, gy = np.meshgrid(self.xs, self.ys)
        return np.stack([gx.ravel(), gy.ravel()], axis=-1)


@dataclass(frozen=True)
class IndicatorField:
    """Indicator values on a grid; values[iy, ix] >= 0."""

    grid: SamplingGrid
    values: np.ndarray            # (ny, nx) float
    kind: IndicatorKind
    q: tuple[float, float]
    normalized: bool = False

    def argmax_point(self) -> np.ndarray:
        iy, ix = np.unravel_index(int(np.argmax(self.values)), self.values.shape)
        return np.array([self.grid.xs[ix], self.grid.ys[iy]])

    def to_csv(self, path) -> None:
        """nx*ny rows of 'x,y,value', each number the repr of a Python float."""
        pts = self.grid.points().tolist()
        with open(path, "w") as fh:
            fh.write("x,y,value\n")
            for (x, y), v in zip(pts, self.values.ravel().tolist()):
                fh.write(f"{x!r},{y!r},{v!r}\n")


def test_vectors(z, q, directions: np.ndarray, medium: Medium
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Samples of (phi_p, phi_s) at the given unit directions for one z."""
    phi_p, phi_s = _test_vector_batch(np.atleast_2d(np.asarray(z, float)),
                                      np.asarray(q, float), directions, medium)
    return phi_p[:, 0], phi_s[:, 0]


def _test_vector_batch(z: np.ndarray, q: np.ndarray, directions: np.ndarray,
                       medium: Medium) -> tuple[np.ndarray, np.ndarray]:
    """z (M, 2) -> (phi_p, phi_s) each (2m, M)."""
    dq = directions @ q                                   # (2m,)
    dqp = -directions[:, 1] * q[0] + directions[:, 0] * q[1]
    zdot = directions @ z.T                               # (2m, M)
    phi_p = np.exp(-1j * medium.k_p * zdot) * dq[:, None]
    phi_s = np.exp(-1j * medium.k_s * zdot) * dqp[:, None]
    return phi_p, phi_s


def indicator_values_at(points: np.ndarray, fmat: np.ndarray, m: int, medium: Medium,
                        q, kinds) -> dict[IndicatorKind, np.ndarray]:
    """Indicators of every requested kind at points (M, 2) from an assembled 4m x 4m matrix.

    One pass: per chunk the test vectors are built once, and each block product
    F_ab @ phi_b is contracted against phi_a as soon as it is formed.  Only the
    blocks the kinds need are multiplied (pp for PP, ss for SS, all four for FF);
    the FF form is the sum of the four block forms, so PP and SS come free with
    it.  Works on masked (zero-filled) matrices as well.
    """
    q = np.asarray(q, float)
    points = np.atleast_2d(np.asarray(points, float))
    n = 2 * m
    dirs = direction_grid(m)
    w = np.pi / m
    out = {kind: np.empty(len(points)) for kind in kinds}
    need_ff = IndicatorKind.FF in out
    need_pp = need_ff or IndicatorKind.PP in out
    need_ss = need_ff or IndicatorKind.SS in out

    def form(block, phi_obs, phi_inc):
        return np.einsum("dm,dm->m", np.conj(phi_obs), block @ phi_inc)

    for lo in range(0, len(points), EVAL_CHUNK):
        hi = min(lo + EVAL_CHUNK, len(points))
        phi_p, phi_s = _test_vector_batch(points[lo:hi], q, dirs, medium)
        forms = {}
        if need_pp:
            forms[IndicatorKind.PP] = form(fmat[:n, :n], phi_p, phi_p)
        if need_ss:
            forms[IndicatorKind.SS] = form(fmat[n:, n:], phi_s, phi_s)
        if need_ff:
            forms[IndicatorKind.FF] = (forms[IndicatorKind.PP] + form(fmat[:n, n:], phi_p, phi_s)
                                       + form(fmat[n:, :n], phi_s, phi_p)
                                       + forms[IndicatorKind.SS])
        for kind, vals in out.items():
            vals[lo:hi] = np.abs(w**2 * forms[kind])
    return out


def indicator_fields(fmat: np.ndarray, m: int, medium: Medium, grid: SamplingGrid, kinds,
                     q=(1.0, 0.0)) -> dict[IndicatorKind, IndicatorField]:
    """Indicator fields on a grid, in the order of kinds, from one evaluation pass.

    fmat is any assembled 4m x 4m matrix: full data (MSRMatrix.assembled), limited
    data with unknown entries zeroed (MaskedMSR.assembled_known), or retrieved data.
    """
    q = (float(q[0]), float(q[1]))
    vals = indicator_values_at(grid.points(), fmat, m, medium, q, kinds)
    return {kind: IndicatorField(grid, v.reshape(grid.ny, grid.nx), kind, q)
            for kind, v in vals.items()}


def normalize_field(field: IndicatorField, square: bool = False) -> IndicatorField:
    """Optionally square, then scale so the maximum is 1."""
    vmax = float(field.values.max())
    if not vmax > 0:
        raise ValueError("cannot normalize an all-zero field")
    vals = field.values**2 / vmax**2 if square else field.values / vmax
    return replace(field, values=vals, normalized=True)
