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
I_PP and I_SS, so every kind comes from one pass over the sampling points.

The phases separate, e^{-ik z.theta} = e^{-ik x cos t} e^{-ik y sin t}, and the
directions d and 2m - d have the same cos t.  So each 2m x 2m block, with the
y phases of one row folded in, becomes an (m+1) x (m+1) kernel that acts on
the (m+1) distinct x phases: per run of points with equal y, one kernel per
block and one product with the x-phase table of the run.  This is exact up to
rounding, and a quarter of the flops of the unfolded product.

Limited data, zero-filled outside the aperture, leave whole direction classes
without data: an observed arc voids row classes, an incident arc or a few
incident directions void column classes.  Once per pass each block's four
member parts are checked for exact zeros; the fold keeps only the row and
column classes that hold a nonzero entry, restricts the x tables to them once
per block and skips every member part that is entirely zero.  The skipped
terms are exact zeros, so only the summation order can change; a block with
no void class (full or retrieved data) runs the same sequence of operations
as without the check.

Along a grid axis each complex block form phi_a^H F_ab phi_b is a band-limited
function: its frequencies k_a cos t_j - k_b cos t_i lie within the band k_a + k_b
(2 k_p for pp, k_p + k_s for ps and sp, 2 k_s for ss).  On an axis of n equispaced
points of spacing h, such samples lie to rounding in the span of the leading
discrete prolate spheroidal sequences of half-bandwidth W = band h / 2 pi (Slepian
1978), of which about 2nW carry the band, whatever n.  For a grid with equispaced
axes each block form is therefore evaluated exactly on a skeleton of each axis for
its own band and interpolated to the full grid before the modulus is taken.  The
band alone fixes the rank, K = ceil(2nW) + SKELETON_MARGIN; the K leading sequences
V are the top eigenvectors of Slepian's tridiagonal matrix, a column-pivoted QR of
the real K x n matrix V^T picks K skeleton points, and B = [I, R11^-1 R12] (K x n)
maps forms on the skeleton to the axis, G -> B_y^T G B_x.  PP and SS are the interpolated pp and ss forms, FF the sum of
all four.  The skeleton depends only on n and W, so it is cached and shared
between passes and between axes.  Where K >= n (a short axis, or W near 1/2 or
above) the axis is its own skeleton: nothing is factorized, B is not applied, and
the block's values are those of the per-row evaluation bit for bit (the ss and
mixed blocks on every omega = 8 pi grid of 161 points).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal, qr, solve_triangular

from ._numtext import CHUNK_VALUES, repr_cells
from .elastic import Medium
from .forward import direction_grid


SKELETON_MARGIN = 40          # skeleton points per axis beyond the 2nW that carry the band
_DIRECT_CHUNK = 1024          # scattered points per batched unfolded product


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
        if not np.isfinite([self.x0, self.x1, self.y0, self.y1]).all():
            raise ValueError("need finite x0, x1, y0, y1")
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

    def argmax_point(self) -> np.ndarray:
        iy, ix = np.unravel_index(int(np.argmax(self.values)), self.values.shape)
        return np.array([self.grid.xs[ix], self.grid.ys[iy]])

    def to_csv(self, path) -> None:
        """Header 'x,y,value', then nx*ny rows 'x,y,value' (x fastest), each number the
        bytes of repr(float).

        Whole lines are laid out a chunk of grid rows at a time in one buffer of
        fixed-width cells padded with void (zero) bytes, which are dropped once per
        chunk; the x and y strings of the grid are formatted once.
        """
        nx = self.grid.nx
        axes = repr_cells(np.concatenate([self.grid.xs, self.grid.ys]))
        xs, ys = (cells[:, :np.flatnonzero(cells.any(axis=0))[-1] + 1]
                  for cells in (axes[:nx], axes[nx:]))
        wx, wy = xs.shape[1], ys.shape[1]
        rows = max(1, CHUNK_VALUES // nx)
        with open(path, "wb") as fh:
            fh.write(b"x,y,value\n")
            for r0 in range(0, self.grid.ny, rows):
                vals = self.values[r0:r0 + rows]
                cells = repr_cells(vals)
                lines = np.empty(vals.shape + (wx + wy + cells.shape[1] + 3,), np.uint8)
                lines[..., :wx] = xs
                lines[..., wx + 1:wx + wy + 1] = ys[r0:r0 + rows, None]
                lines[..., wx + wy + 2:-1] = cells.reshape(vals.shape + (-1,))
                lines[..., [wx, wx + wy + 1]] = 44           # ','
                lines[..., -1] = 10
                fh.write(lines.tobytes().translate(None, b"\0"))


def _half_bandwidth(coords: np.ndarray, band: float) -> float:
    """W = band h / 2 pi of an axis of mean spacing h."""
    return float(band) * (coords[-1] - coords[0]) / (2.0 * np.pi * max(len(coords) - 1, 1))


def _skeleton_rank(n: int, half_bandwidth: float) -> int:
    """Skeleton rank of an axis of n points: ceil(2nW) + SKELETON_MARGIN, at most n."""
    return min(n, int(np.ceil(2.0 * n * half_bandwidth)) + SKELETON_MARGIN)


def _axis_skeleton(coords: np.ndarray, band: float) -> tuple[np.ndarray, np.ndarray | None]:
    """Skeleton indices (ascending) and interpolation matrix B (K x n) of one equispaced
    grid axis.

    B is None when the skeleton is the whole axis (K = n).
    """
    return _skeleton_of(len(coords), _half_bandwidth(coords, band))


# a pass uses at most three bands (2 k_p, k_p + k_s, 2 k_s) on each of its two axes
@lru_cache(maxsize=8)
def _skeleton_of(n: int, half_bandwidth: float) -> tuple[np.ndarray, np.ndarray | None]:
    rank = _skeleton_rank(n, half_bandwidth)
    if rank == n:
        skeleton = np.arange(n)
        skeleton.setflags(write=False)
        return skeleton, None
    i = np.arange(n)
    diagonal = ((n - 1 - 2 * i) / 2.0) ** 2 * np.cos(2 * np.pi * half_bandwidth)
    # all n eigenvectors (MRRR) take less time than the top rank alone (bisection and
    # inverse iteration); they come in ascending order, so the leading sequences are last
    _, prolates = eigh_tridiagonal(diagonal, i[1:] * (n - i[1:]) / 2.0)
    r, piv = qr(prolates[:, n - rank:].T, mode="r", pivoting=True)
    interp = np.empty((rank, n))
    interp[:, piv[:rank]] = np.eye(rank)
    interp[:, piv[rank:]] = solve_triangular(r[:, :rank], r[:, rank:])
    order = np.argsort(piv[:rank])
    skeleton, interp = piv[:rank][order], interp[order]
    # cached: every caller gets the same arrays
    skeleton.setflags(write=False)
    interp.setflags(write=False)
    return skeleton, interp


def _wave_numbers(medium: Medium) -> dict[str, float]:
    return {"p": medium.k_p, "s": medium.k_s}


def _block_pairs(kinds) -> list[tuple[str, str]]:
    """The blocks (a, b) the kinds need: pp for PP, ss for SS, all four for FF."""
    if IndicatorKind.FF in kinds:
        return [("p", "p"), ("p", "s"), ("s", "p"), ("s", "s")]
    return [(c, c) for c in "ps" if IndicatorKind(c + c) in kinds]


def skeleton_summary(grid: SamplingGrid, medium: Medium, kinds) -> dict:
    """Axis ranks of each band that the indicator pass of kinds on grid uses, with the
    skeleton margin.

    Block ab has the band k_a + k_b; "ps" names the band of both mixed blocks.  The
    ranks come from the band alone, min(n, ceil(2nW) + SKELETON_MARGIN), so nothing
    is factorized.
    """
    k = _wave_numbers(medium)
    bands = {}
    for a, b in _block_pairs(kinds):
        name = "".join(sorted(a + b))
        if name not in bands:
            band = float(k[a] + k[b])
            bands[name] = {"band": band,
                           "x_rank": _skeleton_rank(grid.nx, _half_bandwidth(grid.xs, band)),
                           "y_rank": _skeleton_rank(grid.ny, _half_bandwidth(grid.ys, band))}
    return {"bands": bands, "nx": grid.nx, "ny": grid.ny, "margin": SKELETON_MARGIN}


class _Fold:
    """The direction fold of one pass: its tables, and the one row routine.

    Class r = 0..m has the members r and 2m - r (the second member of 0 and m is
    void).  xphase[c] holds the x phases of the classes (m+1, nx) and yphase[c][iy]
    the weighted y phases of row iy by member (2, m+1).  Each block keeps only its
    live classes, the a-side (row) and b-side (column) classes that hold a nonzero
    entry: classes[a, b] gives them (a full slice where every class is live),
    parts[a, b] the four member parts on them (2, 2, rows, columns), and
    members[a, b] the parts that are not entirely zero, as (i, (j, ...)) for each
    a-side member i.
    """

    def __init__(self, blocks, m, k, weight, xs, ys):
        n = 2 * m
        dirs = direction_grid(m)
        r = np.arange(m + 1)
        member = np.stack([r, (n - r) % n])
        single = (r == 0) | (r == m)
        self.parts, self.classes, self.members = {}, {}, {}
        for ab, blk in blocks.items():
            part = blk[member[:, None, :, None], member[None, :, None, :]]
            part[1][:, single] = 0.0
            part[:, 1][..., single] = 0.0
            nonzero = part != 0
            rows = np.flatnonzero(nonzero.any(axis=(0, 1, 3)))     # a-side classes with data
            cols = np.flatnonzero(nonzero.any(axis=(0, 1, 2)))     # b-side classes with data
            rows, cols = (slice(None) if live.size == m + 1 else live for live in (rows, cols))
            self.parts[ab] = part[:, :, rows][..., cols]
            self.classes[ab] = rows, cols
            used = nonzero.any(axis=(2, 3))
            self.members[ab] = [(i, tuple(np.flatnonzero(used[i]).tolist())) for i in (0, 1)
                                if used[i].any()]
        self.xphase = {c: np.exp(-1j * k[c] * np.outer(dirs[: m + 1, 0], xs)) for c in k}
        self.yphase = {}
        for c in k:
            yph = np.exp(-1j * k[c] * np.outer(dirs[:, 1], ys)) * weight[c][:, None]
            self.yphase[c] = np.moveaxis(yph[member], -1, 0).copy()
        self._buffer = np.empty(3 * (m + 1) ** 2, complex)

    def tables(self, a, b, ix) -> tuple[np.ndarray, np.ndarray]:
        """The x tables conj(X_a), X_b of block ab at the x columns ix, on its live classes."""
        rows, cols = self.classes[a, b]
        return np.conj(self.xphase[a][rows][:, ix]), self.xphase[b][cols][:, ix]

    def row(self, a, b, iy, xa_conj, xb) -> np.ndarray:
        """Forms of block ab on row iy at the columns of its x tables conj(X_a), X_b.

        The y phases of the row are folded into the member parts that are not all
        zero, in reused buffers, giving the kernel K on the live classes; the forms
        are conj(X_a)^T (K X_b) column by column.  With every class live and every
        part nonzero this is one fixed sequence of operations.
        """
        members = self.members[a, b]
        if not members:
            return np.zeros(xb.shape[1], complex)
        part, (rows, cols) = self.parts[a, b], self.classes[a, b]
        kern, tmp, tmp2 = self._buffer[: 3 * part[0, 0].size].reshape((3,) + part.shape[2:])
        ya, yb = np.conj(self.yphase[a][iy][:, rows]), self.yphase[b][iy][:, cols]
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


def _needed_blocks(fmat: np.ndarray, m: int, kinds) -> dict[tuple[str, str], np.ndarray]:
    """{(a, b): F[half a, half b]} for the blocks the kinds need.

    Block (a, b) is contracted with phi_a on the observed (row) side and phi_b on
    the incident (column) side.
    """
    n = 2 * m
    half = {"p": slice(None, n), "s": slice(n, None)}
    return {(a, b): fmat[half[a], half[b]] for a, b in _block_pairs(kinds)}


def _direct_forms(blocks, m, k, weight, points) -> dict[str, np.ndarray]:
    """Complex block forms phi_a^H F_ab phi_b at scattered points, unfolded and batched."""
    dirs = direction_grid(m)
    forms = {a + b: np.empty(len(points), complex) for a, b in blocks}
    for lo in range(0, len(points), _DIRECT_CHUNK):
        chunk = slice(lo, lo + _DIRECT_CHUNK)
        zdot = dirs @ points[chunk].T
        phi = {c: np.exp(-1j * k[c] * zdot) * weight[c][:, None] for c in k}
        for (a, b), blk in blocks.items():
            forms[a + b][chunk] = (np.conj(phi[a]) * (blk @ phi[b])).sum(axis=0)
    return forms


def indicator_values_at(points: np.ndarray, fmat: np.ndarray, m: int, medium: Medium,
                        q, kinds) -> dict[IndicatorKind, np.ndarray]:
    """Indicators of every requested kind at points (M, 2) from an assembled 4m x 4m matrix.

    The phases separate, e^{-ik d.z} = e^{-ik cos(t) x} e^{-ik sin(t) y}, and are
    built once per distinct x and per distinct y.  Direction d and 2m - d share
    cos(t), so the x phases have m + 1 distinct rows (classes r = 0..m, where
    r = 0 and r = m have one member and the others two).  Each needed 2m x 2m block
    is split once into its four (m+1) x (m+1) member parts; for each row of points
    with equal y the y phases are folded into them, giving an (m+1) x (m+1) kernel
    K, and the forms are conj(X_a)^T (K X_b) column by column.  Only the blocks the
    kinds need are used (pp for PP, ss for SS, all four for FF); the FF form is the
    sum of the four block forms, so PP and SS come free with it.  Works on masked
    (zero-filled) matrices as well.

    When the points are the full x-fastest tensor grid of their distinct
    coordinates and each axis is np.linspace of its ends bit for bit
    (SamplingGrid.points), each block form is evaluated on the skeleton of each axis
    for its own band k_a + k_b, with the x tables of the skeleton columns built once
    per block, and interpolated to the grid, G -> B_y^T G B_x, before the modulus.
    Any other point set, a tensor grid with unequal spacing included, is evaluated
    exactly: runs of two or more points with equal y by the same row routine, single
    points by one batched unfolded product.
    """
    q = np.asarray(q, float)
    points = np.atleast_2d(np.asarray(points, float))
    dirs = direction_grid(m)
    w = np.pi / m
    out = {kind: np.empty(len(points)) for kind in kinds}
    blocks = _needed_blocks(fmat, m, out)
    k = _wave_numbers(medium)
    weight = {"p": dirs @ q, "s": -dirs[:, 1] * q[0] + dirs[:, 0] * q[1]}

    xs, xi = np.unique(points[:, 0], return_inverse=True)
    ys, yi = np.unique(points[:, 1], return_inverse=True)
    nx, ny = len(xs), len(ys)
    fold = _Fold(blocks, m, k, weight, xs, ys)
    if (len(points) == nx * ny and np.array_equal(xi, np.tile(np.arange(nx), ny))
            and np.array_equal(yi, np.repeat(np.arange(ny), nx))
            and all(np.array_equal(c, np.linspace(c[0], c[-1], len(c))) for c in (xs, ys))):
        forms = {}
        for a, b in blocks:
            sx, bx = _axis_skeleton(xs, k[a] + k[b])
            sy, by = _axis_skeleton(ys, k[a] + k[b])
            xa_conj, xb = fold.tables(a, b, sx)
            g = np.array([fold.row(a, b, iy, xa_conj, xb) for iy in sy])
            if by is not None:
                g = by.T @ g
            if bx is not None:
                g = g @ bx
            forms[a + b] = g.ravel()
    else:
        starts = np.flatnonzero(np.diff(yi, prepend=-1))
        ends = np.append(starts[1:], len(points))
        folded = ends - starts > 1
        lone = starts[~folded]
        forms = _direct_forms(blocks, m, k, weight, points[lone])
        for a, b in blocks:
            direct, forms[a + b] = forms[a + b], np.empty(len(points), complex)
            forms[a + b][lone] = direct
            for lo, hi in zip(starts[folded], ends[folded]):
                forms[a + b][lo:hi] = fold.row(a, b, yi[lo], *fold.tables(a, b, xi[lo:hi]))
    if IndicatorKind.FF in out:
        forms["ff"] = sum(forms.values())
    for kind, vals in out.items():
        vals[:] = np.abs(w**2 * forms[kind.value])
    return out


def indicator_fields(fmat: np.ndarray, m: int, medium: Medium, grid: SamplingGrid, kinds,
                     q=(1.0, 0.0)) -> dict[IndicatorKind, IndicatorField]:
    """Indicator fields on a grid, in the order of kinds, from one evaluation pass.

    fmat is any assembled 4m x 4m matrix: full data (MSRMatrix.assembled), limited
    data with its unknown entries 0 (MaskedMSR.data), or retrieved data.
    """
    q = (float(q[0]), float(q[1]))
    vals = indicator_values_at(grid.points(), fmat, m, medium, q, kinds)
    return {kind: IndicatorField(grid, v.reshape(grid.ny, grid.nx), kind, q)
            for kind, v in vals.items()}

