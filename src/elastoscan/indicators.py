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
I_PP and I_SS, so every kind comes from one pass over the sampling grid.
The complex forms are linear in F: indicator_forms gives them on a SamplingGrid
and fields_from_forms takes the modulus, so the forms of related matrices can be
combined first.  The experiment keeps the forms of a limited pass and gets the
retrieved fields from them and one pass over the doubly known entries
(aperture.retrieved_forms); that pass is what overlaps the writer's work on the
limited fields and the retrieved MSR.

The phases separate, e^{-ik z.theta} = e^{-ik x cos t} e^{-ik y sin t}, and the
directions d and 2m - d have the same cos t.  So each 2m x 2m block, with the
y phases of one row folded in, becomes an (m+1) x (m+1) kernel that acts on
the (m+1) distinct x phases.  This is exact up to rounding, and a quarter of
the flops of the unfolded product.  The rows of a block go in batches: the
kernels of a batch are built as one stack, one product applies the x-phase
table to all of them, and each row's forms are summed from its own terms, so
that at one BLAS thread a row's forms have the same bits in any batch.  A batch
holds as many rows as BATCH_BYTES of buffers allow (one row of a full-size
257 x 257 block fills it).  Batches are for the interpreter lock: every numpy
call of the pass gives the lock up and must win it back from the writer thread
that formats artifacts meanwhile, so a dozen calls per batch wait far less
than a dozen per row.

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
1978), of which about 2nW carry the band, whatever n.  The axes of a SamplingGrid
are equispaced, so each block form is evaluated exactly on a skeleton of each axis
for its own band and interpolated to the full grid before the modulus is taken.  The
band alone fixes the rank, K = ceil(2nW) + SKELETON_MARGIN; the K leading sequences
V are the top eigenvectors of Slepian's tridiagonal matrix, a column-pivoted QR of
the real K x n matrix V^T picks K skeleton points, and B = [I, R11^-1 R12] (K x n)
maps forms on the skeleton to the axis, G -> B_y^T G B_x.  PP and SS are the
interpolated pp and ss forms, FF the sum of all four.  The skeleton depends only on
n and W, so it is cached and shared between passes and between axes.  Where K >= n
(a short axis, or W near 1/2 or above) the axis is its own skeleton: nothing is
factorized, B is not applied, and the block's values are those of the per-row
evaluation bit for bit (the ss and mixed blocks on every omega = 8 pi grid of 161
points).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal, qr, solve_triangular

from ._numtext import CHUNK_VALUES, insert_texts, repr_words
from .elastic import Medium
from .forward import direction_grid


SKELETON_MARGIN = 40          # skeleton points per axis beyond the 2nW that carry the band
_DIRECT_CHUNK = 1024          # scattered points per batched unfolded product
BATCH_BYTES = 1 << 21         # buffer bytes of a batch of rows of the fold (one row at least)


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
        # the ends can be finite while the steps overflow, or so close that points repeat
        with np.errstate(all="ignore"):
            for name, axis in (("x", self.xs), ("y", self.ys)):
                if not (np.isfinite(axis).all() and (np.diff(axis) > 0).all()):
                    raise ValueError(f"the {name} axis is not finite and strictly increasing")

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

        A chunk of grid rows at a time, each line is laid out as three pieces of w
        64-bit words: the x and y cells of the grid, 'x,' and 'y,' (formatted once per
        grid, _axis_cells), and the value's cell from repr_words, its text and a
        newline.  Every piece's text starts at its first byte (a value's at its first
        or second) and is padded with void bytes.  The pieces are written in order,
        each as one 8w-byte item, at the byte where its text goes in the file, so that
        each overwrites the padding of the one before; a void first byte of a value's
        cell falls on the comma after y, which is written again.  The values that
        repr_words leaves out are written by repr itself.
        """
        xs, ys, x_len, y_len = _axis_cells(self.grid.xs.tobytes(), self.grid.ys.tobytes())
        nx, w = self.grid.nx, xs.shape[1]
        rows = min(self.grid.ny, max(1, CHUNK_VALUES // nx))
        pieces = np.zeros((rows, nx, 3, w), "<u8")
        pieces[:, :, 0] = xs
        cells = pieces[:, :, 2, :3].reshape(-1, 3).T
        text = np.empty(pieces.nbytes + 8 * w, np.uint8)
        slots = np.ndarray((text.size - 8 * w + 1,), f"V{8 * w}", text, strides=(1,))
        with open(path, "wb") as fh:
            fh.write(b"x,y,value\n")
            for r0 in range(0, self.grid.ny, rows):
                vals = self.values[r0:r0 + rows]
                r = len(vals)
                pieces[:r, :, 1] = ys[r0:r0 + r, None]
                ends, slow = repr_words(vals, cells[:, :vals.size])
                first = (pieces[:r, :, 2, 0] & np.uint64(255)) == 0   # text from byte 1
                y_at = x_len + y_len[r0:r0 + r, None]               # the byte after 'x,y,'
                line = y_at + ends.reshape(r, nx) - first
                at = np.empty((r, nx, 3), np.int64)                 # each piece's byte
                at[..., 0] = (np.cumsum(line) - line.ravel()).reshape(r, nx)
                at[..., 1] = at[..., 0] + x_len
                at[..., 2] = at[..., 0] + y_at - first
                # numpy assigns an index array's items in order: each padding is overwritten
                slots[at.ravel()] = pieces[:r].view(f"V{8 * w}").ravel()
                text[at[..., 0] + y_at - 1] = 44                    # the comma after y
                data = memoryview(text)[:at[-1, -1, 0] + line[-1, -1]]
                if slow.size:
                    data = insert_texts(bytes(data), at[..., 2].ravel()[slow],
                                        [repr(v).encode() for v in vals.ravel()[slow].tolist()])
                fh.write(data)


@lru_cache(maxsize=8)
def _axis_cells(xs: bytes, ys: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(x cells, y cells, their lengths): the pieces 'x,' and 'y,' of a grid's CSV lines,
    repr of each coordinate and a comma, as (nx, w) and (ny, w) 64-bit words padded
    with void bytes, w = 3 or the words of the longest.  The axes are given as the
    bytes of their values, so that -0.0 and 0.0 differ."""
    texts = [[b"%r," % v for v in np.frombuffer(axis).tolist()] for axis in (xs, ys)]
    w = max(3, -(-max(len(t) for axis in texts for t in axis) // 8))
    cells = [np.frombuffer(b"".join(t.ljust(8 * w, b"\0") for t in axis), "<u8")
             .reshape(len(axis), w) for axis in texts]
    return (*cells, *(np.array([len(t) for t in axis]) for axis in texts))


def _half_bandwidth(coords: np.ndarray, band: float) -> float:
    """W = band h / 2 pi of an axis of mean spacing h."""
    return float(band) * (coords[-1] - coords[0]) / (2.0 * np.pi * (len(coords) - 1))


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


def _rows_per_batch(nr: int, nc: int, nx: int) -> int:
    """Rows per batch of _Fold.rows for R = nr row classes, C = nc column classes and
    K_x = nx columns: as many as BATCH_BYTES of buffers hold, three (R, C) kernel
    buffers and two (R, K_x) product buffers a row, and at least one.

    A single row class runs one row at a time: its product is a vector-matrix one,
    which BLAS rounds differently from a matrix product.
    """
    if nr == 1:
        return 1
    return max(1, BATCH_BYTES // (16 * nr * (3 * nc + 2 * nx)))


class _Fold:
    """The direction fold of one pass: its tables, and the one routine for batches of rows.

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

    def tables(self, a, b, ix) -> tuple[np.ndarray, np.ndarray]:
        """The x tables conj(X_a), X_b of block ab at the x columns ix, on its live classes."""
        rows, cols = self.classes[a, b]
        return np.conj(self.xphase[a][rows][:, ix]), self.xphase[b][cols][:, ix]

    def rows(self, a, b, iys, xa_conj, xb) -> np.ndarray:
        """Forms of block ab on the rows iys at the columns of its x tables conj(X_a), X_b,
        shape (len(iys), K_x).

        The rows go in batches whose buffers, allocated once per call, hold at most
        BATCH_BYTES.  In each batch the y phases of every row are folded into the member
        parts that are not all zero, giving a (batch, R, C) stack of kernels K on the
        live classes; one product gives K X_b for the whole batch, and the forms are
        conj(X_a)^T (K X_b) column by column, each summed over its contiguous R terms.
        Every row sees the same operations on the same strides whatever the batch, so
        at one BLAS thread its forms do not depend on the batch.  With every class live
        and every part nonzero this is one fixed sequence of operations.
        """
        members = self.members[a, b]
        forms = np.zeros((len(iys), xb.shape[1]), complex)
        if not members:
            return forms
        part, (rows, cols) = self.parts[a, b], self.classes[a, b]
        nr, nc = part.shape[2:]
        nx = xb.shape[1]
        batch = min(_rows_per_batch(nr, nc, nx), len(iys))
        stack = np.empty((3, batch, nr, nc), complex)
        prods = np.empty((batch * nr, nx), complex)
        terms = np.empty((batch, nx, nr), complex)
        for lo in range(0, len(iys), batch):
            iy = iys[lo:lo + batch]
            t = len(iy)
            kern, tmp, tmp2 = stack[:, :t]
            ya, yb = np.conj(self.yphase[a][iy][:, :, rows]), self.yphase[b][iy][:, :, cols]
            first = True
            for i, (j0, *rest) in members:
                acc, spare = (kern, tmp) if first else (tmp, tmp2)
                np.multiply(part[i, j0], yb[:, j0, None], out=acc)
                for j in rest:
                    np.multiply(part[i, j], yb[:, j, None], out=spare)
                    acc += spare
                np.multiply(ya[:, i, :, None], acc, out=acc)
                if not first:
                    kern += acc
                first = False
            prod = np.matmul(kern.reshape(t * nr, nc), xb, out=prods[:t * nr])
            # the R terms of each row and column contiguous, so that they are summed pairwise
            np.multiply(xa_conj.T, prod.reshape(t, nr, nx).transpose(0, 2, 1), out=terms[:t])
            terms[:t].sum(axis=-1, out=forms[lo:lo + t])
        return forms


def _needed_blocks(fmat: np.ndarray, m: int, kinds) -> dict[tuple[str, str], np.ndarray]:
    """{(a, b): F[half a, half b]} for the blocks the kinds need.

    Block (a, b) is contracted with phi_a on the observed (row) side and phi_b on
    the incident (column) side.
    """
    n = 2 * m
    half = {"p": slice(None, n), "s": slice(n, None)}
    return {(a, b): fmat[half[a], half[b]] for a, b in _block_pairs(kinds)}


def _weights(m: int, q) -> dict[str, np.ndarray]:
    """The weights q.theta of phi_p and q.theta_perp of phi_s on the 2m directions."""
    dirs = direction_grid(m)
    q = np.asarray(q, float)
    return {"p": dirs @ q, "s": -dirs[:, 1] * q[0] + dirs[:, 0] * q[1]}


def _moduli(forms: dict[str, np.ndarray], m: int, kinds) -> dict[IndicatorKind, np.ndarray]:
    """|w^2 G| of the complex form G of each kind, w = pi/m."""
    w = np.pi / m
    return {kind: np.abs(w**2 * forms[kind.value]) for kind in kinds}


def indicator_values_at(points: np.ndarray, fmat: np.ndarray, m: int, medium: Medium,
                        q, kinds) -> dict[IndicatorKind, np.ndarray]:
    """Indicators of every requested kind at scattered points (M, 2), by the exact
    unfolded product |w^2 phi^H F phi|, _DIRECT_CHUNK points at a time.  Nothing in the
    package calls it; it stays as the target bench/tracing.py names."""
    points = np.atleast_2d(np.asarray(points, float))
    dirs, k, weight = direction_grid(m), _wave_numbers(medium), _weights(m, q)
    blocks = _needed_blocks(fmat, m, kinds)
    forms = {a + b: np.empty(len(points), complex) for a, b in blocks}
    for lo in range(0, len(points), _DIRECT_CHUNK):
        chunk = slice(lo, lo + _DIRECT_CHUNK)
        zdot = dirs @ points[chunk].T
        phi = {c: np.exp(-1j * k[c] * zdot) * weight[c][:, None] for c in k}
        for (a, b), blk in blocks.items():
            forms[a + b][chunk] = (np.conj(phi[a]) * (blk @ phi[b])).sum(axis=0)
    if IndicatorKind.FF in kinds:
        forms["ff"] = sum(forms.values())
    return _moduli(forms, m, kinds)


def indicator_forms(fmat: np.ndarray, m: int, medium: Medium, grid: SamplingGrid, kinds,
                    q=(1.0, 0.0)) -> dict[str, np.ndarray]:
    """Complex forms phi_a^H F_ab phi_b (without w^2) on the grid, as (ny, nx) arrays by
    block name (the blocks the kinds need: pp for PP, ss for SS, all four for FF), and
    'ff', their sum, with FF; fmat is any assembled 4m x 4m matrix, zero-filled limited
    data included.  Each block form is evaluated by the direction fold (_Fold.rows) on
    the skeleton rows and columns of the grid's axes for its band k_a + k_b, and
    interpolated to the grid, G -> B_y^T G B_x (see the module docstring).
    """
    blocks, k = _needed_blocks(fmat, m, kinds), _wave_numbers(medium)
    xs, ys = grid.xs, grid.ys
    fold = _Fold(blocks, m, k, _weights(m, q), xs, ys)
    forms = {}
    for a, b in blocks:
        sx, bx = _axis_skeleton(xs, k[a] + k[b])
        sy, by = _axis_skeleton(ys, k[a] + k[b])
        g = fold.rows(a, b, sy, *fold.tables(a, b, sx))
        if by is not None:
            g = by.T @ g
        if bx is not None:
            g = g @ bx
        forms[a + b] = g
    if IndicatorKind.FF in kinds:
        forms["ff"] = sum(forms.values())
    return forms


def fields_from_forms(forms: dict[str, np.ndarray], m: int, grid: SamplingGrid, kinds, q
                      ) -> dict[IndicatorKind, IndicatorField]:
    """Indicator fields on a grid, in the order of kinds, from their complex forms on it
    (indicator_forms).  The forms are linear in the data, so the forms of related
    matrices can be combined before the modulus is taken (aperture.retrieved_forms)."""
    q = (float(q[0]), float(q[1]))
    return {kind: IndicatorField(grid, v, kind, q) for kind, v in _moduli(forms, m, kinds).items()}


def indicator_fields(fmat: np.ndarray, m: int, medium: Medium, grid: SamplingGrid, kinds,
                     q=(1.0, 0.0)) -> dict[IndicatorKind, IndicatorField]:
    """Indicator fields on a grid, in the order of kinds, from one evaluation pass.

    fmat is any assembled 4m x 4m matrix: full data (MSRMatrix.assembled), limited
    data with its unknown entries 0 (MaskedMSR.data), or retrieved data.
    """
    return fields_from_forms(indicator_forms(fmat, m, medium, grid, kinds, q), m, grid, kinds, q)
