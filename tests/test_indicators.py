import os
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from elastoscan import indicators
from elastoscan._numtext import CHUNK_VALUES
from elastoscan.aperture import apply_mask, retrieved_forms
from elastoscan.elastic import Medium, point_source_farfield
from elastoscan.forward import MSRMatrix, add_noise, direction_grid, synthesize_msr
from elastoscan.harness import MaskSpec
from elastoscan.indicators import (
    IndicatorKind,
    SamplingGrid,
    indicator_fields,
    indicator_forms,
    indicator_values_at,
    skeleton_summary,
)
from oracles import reference_fold_row

Q_DEFAULT = (1.0, 0.0)
FF = IndicatorKind.FF


def zero_msr(m, medium):
    return MSRMatrix(m, np.zeros((4 * m, 4 * m), complex),
                     medium.lam, medium.mu, medium.omega, scene="circle@(0.0,0.0)*1.0",
                     bc="dirichlet")


def naive_indicator(msr, z, q, kind, medium):
    """Literal double sum over (j, i) pairs; the batched code's oracle."""
    m = msr.m
    dirs = direction_grid(m)
    w = np.pi / m
    pp, ps = point_source_farfield(dirs, z, q, medium)
    f_pp, f_ps, f_sp, f_ss = msr.f_pp, msr.f_ps, msr.f_sp, msr.f_ss
    total = 0.0 + 0.0j
    for j in range(2 * m):
        for i in range(2 * m):
            if kind is IndicatorKind.PP:
                total += np.conj(pp[j]) * f_pp[j, i] * pp[i]
            elif kind is IndicatorKind.SS:
                total += np.conj(ps[j]) * f_ss[j, i] * ps[i]
            else:
                total += (np.conj(pp[j]) * (f_pp[j, i] * pp[i] + f_sp[j, i] * ps[i])
                          + np.conj(ps[j]) * (f_ps[j, i] * pp[i] + f_ss[j, i] * ps[i]))
    return abs(w**2 * total)


class TestTestVectors:
    def test_origin_is_real_projection(self, medium):
        dirs = direction_grid(8)
        pp, ps = point_source_farfield(dirs, (0.0, 0.0), Q_DEFAULT, medium)
        assert np.allclose(pp.imag, 0.0)
        assert np.allclose(pp.real, dirs @ np.array(Q_DEFAULT))

    @pytest.mark.parametrize("m", [4, 64, 256])
    def test_discrete_norm_is_two_pi(self, medium, m):
        rng = np.random.RandomState(m)
        dirs = direction_grid(m)
        w = np.pi / m
        for _ in range(100):
            z = rng.uniform(-8, 8, 2)
            ang = rng.uniform(0, 2 * np.pi)
            q = (np.cos(ang), np.sin(ang))
            pp, ps = point_source_farfield(dirs, z, q, medium)
            norm = w * (np.abs(pp) ** 2 + np.abs(ps) ** 2).sum()
            assert abs(norm - 2 * np.pi) < 1e-12

    def test_magnitude_independent_of_z(self, medium):
        dirs = direction_grid(16)
        pa, _ = point_source_farfield(dirs, (0.0, 0.0), Q_DEFAULT, medium)
        pb, _ = point_source_farfield(dirs, (3.7, -1.9), Q_DEFAULT, medium)
        assert np.allclose(np.abs(pa), np.abs(pb), atol=1e-14)


class TestIndicatorAlgebra:
    def test_zero_msr_zero_field(self, medium):
        msr = zero_msr(8, medium)
        grid = SamplingGrid(-2, 2, -2, 2, 5, 5)
        for fld in indicator_fields(msr.assembled(), msr.m, msr.medium, grid,
                                    IndicatorKind).values():
            assert np.all(fld.values == 0.0)

    def test_rank_one_ff_gives_four_pi_squared(self, medium):
        m = 16
        z0 = np.array([0.4, -0.3])
        dirs = direction_grid(m)
        pp, ps = point_source_farfield(dirs, z0, Q_DEFAULT, medium)
        phi = np.concatenate([pp, ps])
        full = np.outer(phi, np.conj(phi))
        n = 2 * m
        msr = replace(zero_msr(m, medium), full=full)
        vals = indicator_values_at(z0[None, :], msr.assembled(), m, msr.medium,
                                   Q_DEFAULT, [FF])[FF]
        # w^2 |phi^H (phi phi^H) phi| = (w ||phi||^2)^2 = (2 pi)^2
        assert abs(vals[0] - (2 * np.pi) ** 2) < 1e-10

    @pytest.mark.parametrize("kind", [IndicatorKind.PP, IndicatorKind.SS])
    def test_rank_one_block_gives_pi_squared(self, medium, kind):
        m = 16
        z0 = np.array([-0.2, 0.5])
        dirs = direction_grid(m)
        pp, ps = point_source_farfield(dirs, z0, Q_DEFAULT, medium)
        phi = pp if kind is IndicatorKind.PP else ps
        msr = zero_msr(m, medium)
        block = np.outer(phi, np.conj(phi))
        if kind is IndicatorKind.PP:
            msr.f_pp[:] = block
        else:
            msr.f_ss[:] = block
        vals = indicator_values_at(z0[None, :], msr.assembled(), m, msr.medium,
                                   Q_DEFAULT, [kind])[kind]
        assert abs(vals[0] - np.pi**2) < 1e-10

    def test_batched_equals_naive(self, msr_kite_m64, medium):
        grid = SamplingGrid(-2, 2, -2, 2, 5, 5)
        pts = grid.points()
        fields = indicator_fields(msr_kite_m64.assembled(), msr_kite_m64.m, medium, grid,
                                  IndicatorKind, Q_DEFAULT)
        for kind in IndicatorKind:
            batched = fields[kind].values.ravel()
            for idx in (0, 7, 24):
                ref = naive_indicator(msr_kite_m64, pts[idx], Q_DEFAULT, kind, medium)
                assert abs(batched[idx] - ref) < 1e-12 * max(1.0, ref)

    def test_polarization_sign_invariance(self, msr_kite_m64):
        grid = SamplingGrid(-3, 3, -3, 3, 7, 7)
        q = (np.cos(0.8), np.sin(0.8))
        qneg = (-q[0], -q[1])
        fmat, m, medium = msr_kite_m64.assembled(), msr_kite_m64.m, msr_kite_m64.medium
        a = indicator_fields(fmat, m, medium, grid, IndicatorKind, q)
        b = indicator_fields(fmat, m, medium, grid, IndicatorKind, qneg)
        for kind in IndicatorKind:
            assert np.array_equal(a[kind].values, b[kind].values)

    def test_disk_rotation_invariance(self, msr_disk_m16):
        # for a fixed q the test-function factor (q.theta) makes I_PP anisotropic
        # (a cos(2(angle(z)-angle(q))) cross term), so the disk invariance holds
        # with the polarization co-rotated: I(Rz, Rq) = I(z, q)
        a = indicator_values_at(np.array([[2.0, 0.0]]), msr_disk_m16.assembled(),
                                msr_disk_m16.m, msr_disk_m16.medium, (1.0, 0.0),
                                [IndicatorKind.PP])[IndicatorKind.PP][0]
        b = indicator_values_at(np.array([[0.0, 2.0]]), msr_disk_m16.assembled(),
                                msr_disk_m16.m, msr_disk_m16.medium, (0.0, 1.0),
                                [IndicatorKind.PP])[IndicatorKind.PP][0]
        assert abs(a - b) < 1e-6 * a


def direct_values(points, fmat, m, medium, q):
    """{kind: |w^2 phi^H F phi|} at each point, from the test vectors sampled point by
    point; the products with F take a chunk of points at a time."""
    n, w = 2 * m, np.pi / m
    dirs = direction_grid(m)
    out = {kind: [] for kind in IndicatorKind}
    for lo in range(0, len(points), 1024):
        phi = np.array([np.concatenate(point_source_farfield(dirs, z, q, medium))
                        for z in points[lo:lo + 1024]])
        for kind, half in ((FF, slice(None)), (IndicatorKind.PP, slice(None, n)),
                           (IndicatorKind.SS, slice(n, None))):
            v = phi[:, half]
            out[kind].append(np.abs(w**2 * ((np.conj(v) @ fmat[half, half]) * v).sum(axis=1)))
    return {kind: np.concatenate(v) for kind, v in out.items()}


@st.composite
def sampling_grids(draw):
    """Grids of 2..8 points per axis, each axis 1e-3 to 6 long, in [-6, 12]^2."""
    def axis():
        return draw(st.floats(-6.0, 6.0)), draw(st.floats(1e-3, 6.0))

    (x0, dx), (y0, dy) = axis(), axis()
    return SamplingGrid(x0, x0 + dx, y0, y0 + dy, draw(st.integers(2, 8)),
                        draw(st.integers(2, 8)))


class TestFoldedEvaluator:
    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
           omega=st.floats(0.5, 12.0), angle=st.floats(0.0, 2 * np.pi),
           grid=sampling_grids(),
           kinds=st.lists(st.sampled_from(list(IndicatorKind)), min_size=1, max_size=3,
                          unique=True))
    def test_equals_direct_quadratic_form(self, m, seed, omega, angle, grid, kinds):
        rng = np.random.default_rng(seed)
        fmat = rng.normal(size=(4 * m, 4 * m)) + 1j * rng.normal(size=(4 * m, 4 * m))
        medium = Medium(1.0, 1.0, omega)
        q = (np.cos(angle), np.sin(angle))
        got = indicator_fields(fmat, m, medium, grid, kinds, q)
        ref = direct_values(grid.points(), fmat, m, medium, q)
        assert list(got) == kinds
        for kind in kinds:
            tol = 1e-12 * max(1.0, ref[kind].max())
            assert np.abs(got[kind].values.ravel() - ref[kind]).max() <= tol

    def test_grid_field_equals_per_point_values(self, msr_kite_m64, medium):
        grid = SamplingGrid(-3.0, 2.5, -1.5, 4.0, 33, 17)
        fmat, m = msr_kite_m64.assembled(), msr_kite_m64.m
        fields = indicator_fields(fmat, m, medium, grid, IndicatorKind, Q_DEFAULT)
        ref = direct_values(grid.points(), fmat, m, medium, Q_DEFAULT)
        for kind in IndicatorKind:
            values = fields[kind].values
            assert values.shape == (17, 33)
            tol = 1e-12 * max(1.0, ref[kind].max())
            assert np.abs(values.ravel() - ref[kind]).max() <= tol


class TestScatteredPoints:
    def test_scattered_points_equal_direct_values(self, msr_kite_m64, medium, monkeypatch):
        # the batched unfolded product, here in three chunks
        monkeypatch.setattr(indicators, "_DIRECT_CHUNK", 100)
        points = np.random.default_rng(8).uniform(-6.0, 6.0, (257, 2))
        fmat, m = msr_kite_m64.assembled(), msr_kite_m64.m
        got = indicator_values_at(points, fmat, m, medium, Q_DEFAULT, IndicatorKind)
        ref = direct_values(points, fmat, m, medium, Q_DEFAULT)
        for kind in IndicatorKind:
            tol = 1e-12 * max(1.0, ref[kind].max())
            assert np.abs(got[kind] - ref[kind]).max() <= tol


def reference_rows(fold, a, b, iys, xa_conj, xb):
    """_Fold.rows one row at a time, by the reference per-row routine."""
    return np.array([reference_fold_row(fold, a, b, iy, xa_conj, xb) for iy in iys]
                    ).reshape(len(iys), xb.shape[1])


def exact_rows(grid, fmat, m, medium, q, kinds):
    """Grid values with no skeleton: every grid row of a _Fold on the grid's axes, at
    every grid column, by the per-row routine of tests/oracles.py."""
    k = indicators._wave_numbers(medium)
    blocks = indicators._needed_blocks(fmat, m, kinds)
    fold = indicators._Fold(blocks, m, k, indicators._weights(m, q), grid.xs, grid.ys)
    forms = {a + b: reference_rows(fold, a, b, range(grid.ny),
                                   *fold.tables(a, b, np.arange(grid.nx)))
             for a, b in blocks}
    if FF in kinds:
        forms["ff"] = sum(forms.values())
    return indicators._moduli(forms, m, kinds)


@pytest.fixture(scope="module")
def kite_4pi_fields(kite_scene):
    """Noisy full and quarter-aperture kite data at omega = 4 pi on the 161 x 161
    grid of [-6, 6]^2: the band x length of limited-retrieval --small."""
    medium = Medium(1.0, 1.0, 4.0 * np.pi)
    msr = add_noise(synthesize_msr(kite_scene, medium, 64, 256), 0.1, seed=3)
    masked = apply_mask(msr, MaskSpec(arcs=((0.0, np.pi / 2),)).directions(64),
                        np.ones(128, dtype=bool))
    grid = SamplingGrid(-6.0, 6.0, -6.0, 6.0, 161, 161)
    return medium, grid, [msr.assembled(), masked.data]


PP, SS = IndicatorKind.PP, IndicatorKind.SS


class TestSkeletonGrid:
    def test_skeleton_fields_match_exact_rows(self, kite_4pi_fields):
        # each kind alone, so that each block is checked on the skeleton of its own band
        medium, grid, fmats = kite_4pi_fields
        for fmat in fmats:
            exact = exact_rows(grid, fmat, 64, medium, Q_DEFAULT, IndicatorKind)
            for kinds in ([PP], [SS], [FF]):
                fields = indicator_fields(fmat, 64, medium, grid, kinds, Q_DEFAULT)
                for ranks in skeleton_summary(grid, medium, kinds)["bands"].values():
                    assert ranks["x_rank"] < grid.nx and ranks["y_rank"] < grid.ny
                for kind in kinds:
                    delta = np.abs(fields[kind].values - exact[kind])
                    assert (delta / np.maximum(1.0, exact[kind])).max() <= 1e-13
                    assert delta.max() <= 1e-12 * exact[kind].max()

    def test_block_ranks_follow_their_bands(self, kite_4pi_fields):
        medium, grid, fmats = kite_4pi_fields
        indicator_fields(fmats[0], 64, medium, grid, [FF], Q_DEFAULT)
        bands = skeleton_summary(grid, medium, [FF])["bands"]
        assert list(bands) == ["pp", "ps", "ss"]
        assert [b["band"] for b in bands.values()] == [
            2 * medium.k_p, medium.k_p + medium.k_s, 2 * medium.k_s]
        for axis in ("x_rank", "y_rank"):
            assert bands["pp"][axis] <= bands["ps"][axis] <= bands["ss"][axis]

    def test_full_rank_skeleton_is_bit_identical(self, msr_kite_m64, medium):
        # omega = 8 pi on the --small grid: the ss skeleton is the whole axis, so SS is
        # the per-row evaluation bit for bit; the pp band is narrower and interpolated
        grid = SamplingGrid(-6.0, 6.0, -6.0, 6.0, 161, 161)
        fmat, m = msr_kite_m64.assembled(), msr_kite_m64.m
        fields = indicator_fields(fmat, m, medium, grid, IndicatorKind, Q_DEFAULT)
        bands = skeleton_summary(grid, medium, IndicatorKind)["bands"]
        assert (bands["ss"]["x_rank"], bands["ss"]["y_rank"]) == (grid.nx, grid.ny)
        assert bands["pp"]["x_rank"] < grid.nx and bands["pp"]["y_rank"] < grid.ny
        exact = exact_rows(grid, fmat, m, medium, Q_DEFAULT, IndicatorKind)
        assert np.array_equal(fields[SS].values, exact[SS])
        for kind in (PP, FF):
            delta = np.abs(fields[kind].values - exact[kind])
            assert (delta / np.maximum(1.0, exact[kind])).max() <= 1e-13
            assert delta.max() <= 1e-12 * exact[kind].max()

    @pytest.mark.parametrize("n", [161, 321, 641])
    @pytest.mark.parametrize("omega", [4.0 * np.pi, 8.0 * np.pi], ids=["4pi", "8pi"])
    def test_ranks_follow_the_band(self, n, omega):
        # K = ceil(2nW) + margin, capped at n, with W = band h / 2 pi, for the skeleton
        # the pass uses and for the summary alike
        medium = Medium(1.0, 1.0, omega)
        grid = SamplingGrid(-6.0, 6.0, -6.0, 6.0, n, n)
        bands = skeleton_summary(grid, medium, [FF])["bands"]
        for ranks in bands.values():
            half_bandwidth = ranks["band"] * (12.0 / (n - 1)) / (2.0 * np.pi)
            expect = min(n, int(np.ceil(2 * n * half_bandwidth)) + indicators.SKELETON_MARGIN)
            assert ranks["x_rank"] == ranks["y_rank"] == expect
            skeleton, interp = indicators._axis_skeleton(grid.xs, ranks["band"])
            assert len(skeleton) == expect
            assert (interp is None) == (expect == n)
            if interp is not None:
                assert interp.shape == (expect, n)
                assert np.array_equal(interp[:, skeleton], np.eye(expect))

    @pytest.mark.parametrize("n, half_bandwidth", [(5, 3.0), (161, 0.6), (321, 0.51),
                                                   (641, 1.0), (161, 0.47)])
    def test_nyquist_axis_is_its_own_skeleton_without_qr(self, monkeypatch, n,
                                                         half_bandwidth):
        # ceil(2nW) + margin >= n: every point is a pivot, so nothing is factorized
        # (W = 0.6 is the ss band 2 k_s and W = 0.47 the mixed band k_p + k_s of
        # omega = 8 pi on the 161-point --small grid)
        def no_factorization(*args, **kwargs):
            raise AssertionError("factorization run on an axis that is its own skeleton")

        x = np.linspace(-6.0, 6.0, n)
        band = 2.0 * np.pi * half_bandwidth / (x[1] - x[0])
        indicators._skeleton_of.cache_clear()
        monkeypatch.setattr(indicators, "qr", no_factorization)
        monkeypatch.setattr(indicators, "eigh_tridiagonal", no_factorization)
        skeleton, interp = indicators._axis_skeleton(x, band)
        assert interp is None and np.array_equal(skeleton, np.arange(n))
        indicators._skeleton_of.cache_clear()

    def test_unequal_spacing_is_evaluated_exactly(self, monkeypatch, msr_kite_m64, medium):
        # prolate skeletons assume equal spacing, which a SamplingGrid always has; the
        # scattered-point evaluator takes a tensor grid with unequal spacing as it takes
        # any points, exactly and with no skeleton
        def no_skeleton(*args, **kwargs):
            raise AssertionError("skeleton used on an unequally spaced axis")

        t = np.linspace(-1.0, 1.0, 161)
        xs, ys = 6.0 * np.sin(0.5 * np.pi * t), 6.0 * t ** 3
        gx, gy = np.meshgrid(xs, ys)
        points = np.stack([gx.ravel(), gy.ravel()], axis=-1)
        fmat, m = msr_kite_m64.assembled(), msr_kite_m64.m
        monkeypatch.setattr(indicators, "_axis_skeleton", no_skeleton)
        got = indicator_values_at(points, fmat, m, medium, Q_DEFAULT, IndicatorKind)
        exact = direct_values(points, fmat, m, medium, Q_DEFAULT)
        for kind in IndicatorKind:
            delta = np.abs(got[kind] - exact[kind])
            assert (delta / np.maximum(1.0, exact[kind])).max() <= 1e-13

    def test_summary_reads_the_cached_skeleton(self, msr_kite_m64, medium):
        # unequal axes and all four blocks: three bands on each of two axes, each
        # skeleton built once by the pass; the summary takes the ranks from the band
        # and builds none
        grid = SamplingGrid(-5.0, 4.0, -3.0, 6.0, 47, 39)
        indicators._skeleton_of.cache_clear()
        indicator_fields(msr_kite_m64.assembled(), msr_kite_m64.m, medium, grid, [FF])
        assert indicators._skeleton_of.cache_info().misses == 6
        summary = skeleton_summary(grid, medium, [FF])
        assert indicators._skeleton_of.cache_info().misses == 6
        kp, ks = medium.k_p, medium.k_s
        assert summary == {
            "bands": {name: {"band": band, "x_rank": 47, "y_rank": 39}
                      for name, band in (("pp", 2 * kp), ("ps", kp + ks), ("ss", 2 * ks))},
            "nx": 47, "ny": 39, "margin": indicators.SKELETON_MARGIN}
        assert list(skeleton_summary(grid, medium, [PP])["bands"]) == ["pp"]
        assert indicators._skeleton_of.cache_info().misses == 6


def void_masks(m):
    """Apertures (observed, incident direction vectors) that leave whole direction
    classes (r and 2m - r) without data."""
    def arc(a, b):
        return MaskSpec(arcs=((a, b),)).directions(m)

    every = np.ones(2 * m, dtype=bool)
    return {"observed-arc": (arc(0.0, np.pi / 2), every),
            "incident-arc": (every, arc(np.pi / 4, np.pi)),
            "few-incident": (every, MaskSpec(indices=(1, 6, 11)).directions(m)),
            "both-arcs": (arc(np.pi / 2, 3 * np.pi / 2), arc(3 * np.pi / 2, 2 * np.pi))}


class TestVoidClasses:
    M = 8

    @pytest.fixture(scope="class")
    def limited(self):
        """Random data at m = 8 under each mask (a MaskedMSR per mask)."""
        m, rng = self.M, np.random.default_rng(31)
        full = rng.normal(size=(4 * m, 4 * m)) + 1j * rng.normal(size=(4 * m, 4 * m))
        msr = MSRMatrix(m, full, 1.0, 1.0, 3 * np.pi, scene="circle@(0.0,0.0)*1.0",
                        bc="dirichlet")
        return {name: apply_mask(msr, *mask) for name, mask in void_masks(m).items()}

    @pytest.mark.parametrize("name", ["observed-arc", "incident-arc", "few-incident",
                                      "both-arcs"])
    @pytest.mark.parametrize("layout", ["grid", "runs"])
    def test_limited_fields_equal_known_sum_and_dense_pass(self, limited, name, layout):
        masked, m = limited[name], self.M
        medium = Medium(1.0, 1.0, 3 * np.pi)
        grid = SamplingGrid(-2.0, 2.5, -1.5, 2.0, 9, 7)
        fmat = masked.data
        if layout == "grid":
            fields = indicator_fields(fmat, m, medium, grid, IndicatorKind, Q_DEFAULT)
            points = grid.points()
            got = {kind: fld.values.ravel() for kind, fld in fields.items()}
        else:
            # the grid's rows as runs of a point list, and two lone points, through the
            # scattered-point evaluator (the unfolded product)
            points = np.vstack([grid.points(), [[0.3, 10.0], [-4.0, 11.0]]])
            got = indicator_values_at(points, fmat, m, medium, Q_DEFAULT, IndicatorKind)
        # the double sum over every entry: the unknown ones are exact zeros
        known = MSRMatrix(m, fmat, medium.lam, medium.mu, medium.omega,
                          scene="circle@(0.0,0.0)*1.0", bc="dirichlet")
        dense = direct_values(points, fmat, m, medium, Q_DEFAULT)
        for kind in IndicatorKind:
            naive = np.array([naive_indicator(known, z, Q_DEFAULT, kind, medium)
                              for z in points])
            assert (np.abs(got[kind] - naive) / np.maximum(1.0, naive)).max() <= 1e-13
            assert np.abs(got[kind] - dense[kind]).max() <= 1e-12 * dense[kind].max()

    def test_fold_keeps_live_classes_only(self, limited, msr_kite_m64, medium):
        def fold_of(fmat, m):
            return indicators._Fold(indicators._needed_blocks(fmat, m, [FF]), m,
                                    {"p": 1.0, "s": 2.0}, {c: np.ones(2 * m) for c in "ps"},
                                    np.zeros(1), np.zeros(1))

        m = self.M
        # observed [0, pi/2): directions 0..3, the first members of classes 0..3
        fold = fold_of(limited["observed-arc"].data, m)
        rows, cols = fold.classes["p", "s"]
        assert rows.tolist() == [0, 1, 2, 3] and cols == slice(None)
        assert fold.members["p", "s"] == [(0, (0, 1))]
        # incident indices 0, 5, 10: classes 0, 5 (first members) and 6 (second member)
        fold = fold_of(limited["few-incident"].data, m)
        rows, cols = fold.classes["s", "p"]
        assert rows == slice(None) and cols.tolist() == [0, 5, 6]
        assert fold.members["s", "p"] == [(0, (0, 1)), (1, (0, 1))]
        # full data: every class and part, the fixed sequence of operations
        fold = fold_of(msr_kite_m64.assembled(), msr_kite_m64.m)
        for ab in fold.parts:
            assert fold.classes[ab] == (slice(None), slice(None))
            assert fold.members[ab] == [(0, (0, 1)), (1, (0, 1))]


def batched_and_per_row(evaluate):
    """The forms of evaluate() as the package computes them, the same forms with every
    _Fold.rows call run one row at a time by the reference routine, and (rows, rows per
    batch) of each batched call on a block that holds data."""
    batches, rows = [], indicators._Fold.rows

    def spy(fold, a, b, iys, xa_conj, xb):
        if fold.members[a, b]:
            nr, nc = fold.parts[a, b].shape[2:]
            batches.append((len(iys), indicators._rows_per_batch(nr, nc, xb.shape[1])))
        return rows(fold, a, b, iys, xa_conj, xb)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(indicators._Fold, "rows", spy)
        batched = evaluate()
        mp.setattr(indicators._Fold, "rows", reference_rows)
        per_row = evaluate()
    return batched, per_row, batches


def assert_same_bits(got, ref):
    assert list(got) == list(ref)
    for key in ref:
        assert got[key].tobytes() == ref[key].tobytes(), key


@pytest.mark.usefixtures("one_blas_thread")
class TestBatchedRows:
    """_Fold.rows against the per-row routine of tests/oracles.py, bit for bit."""

    M = 64

    GRID = SamplingGrid(-6.0, 6.0, -6.0, 6.0, 161, 157)

    @pytest.fixture(scope="class")
    def cases(self, msr_kite_m64_noisy):
        """name -> 4m x 4m data at m = 64, evaluated on GRID, 161 x 157 points of
        [-6, 6]^2: 157 rows, a prime number, leave a shorter last batch whatever the
        batch."""
        m, msr = self.M, msr_kite_m64_noisy
        every = np.ones(2 * m, dtype=bool)
        quarter = MaskSpec(arcs=((0.0, np.pi / 2),)).directions(m)
        zero_sp = msr.assembled()
        zero_sp[2 * m:, :2 * m] = 0.0
        return {
            "full": msr.assembled(),
            "observed-arc": apply_mask(msr, quarter, every).data,
            "few-incident": apply_mask(msr, every, MaskSpec(indices=(1, 40, 77))
                                       .directions(m)).data,
            # one live row class: one row per batch
            "one-observed": apply_mask(msr, MaskSpec(indices=(6,)).directions(m), every).data,
            "zero-block": zero_sp,
        }

    @pytest.mark.parametrize("name", ["full", "observed-arc", "few-incident", "one-observed",
                                      "zero-block"])
    def test_forms_equal_per_row_routine(self, cases, medium, name):
        fmat = cases[name]
        got, ref, batches = batched_and_per_row(
            lambda: indicator_forms(fmat, self.M, medium, self.GRID, IndicatorKind, Q_DEFAULT))
        assert_same_bits(got, ref)
        if name == "one-observed":
            assert {batch for _, batch in batches} == {1}
        else:
            # batches of several rows, and a last batch that is shorter
            assert any(batch > 1 and rows % batch for rows, batch in batches)
        if name == "zero-block":
            assert not got["sp"].any()

    def test_doubly_known_pass_equals_per_row_routine(self, msr_kite_m64_noisy, medium):
        m = self.M
        masked = apply_mask(msr_kite_m64_noisy, MaskSpec(arcs=((0.0, np.pi / 2),)).directions(m),
                            np.ones(2 * m, dtype=bool))
        limited = indicator_forms(masked.data, m, medium, self.GRID, IndicatorKind, Q_DEFAULT)
        got, ref, batches = batched_and_per_row(
            lambda: retrieved_forms(masked, limited, self.GRID, IndicatorKind, Q_DEFAULT))
        assert_same_bits(got, ref)
        assert any(batch > 1 and rows % batch for rows, batch in batches)

    @settings(max_examples=50, deadline=None)
    @given(m=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
           omega=st.floats(0.5, 30.0), nx=st.integers(2, 40), ny=st.integers(2, 40),
           cap=st.one_of(st.integers(1, 100_000), st.just(indicators.BATCH_BYTES)),
           data=st.data())
    def test_any_masks_grids_and_batches(self, m, seed, omega, nx, ny, cap, data):
        observed, incident = (data.draw(arrays(bool, 2 * m)) for _ in range(2))
        kinds = data.draw(st.lists(st.sampled_from(list(IndicatorKind)), min_size=1,
                                   max_size=3, unique=True))
        rng = np.random.default_rng(seed)
        full = rng.normal(size=(4 * m, 4 * m)) + 1j * rng.normal(size=(4 * m, 4 * m))
        msr = MSRMatrix(m, full, 1.0, 1.0, omega, scene="circle@(0.0,0.0)*1.0",
                        bc="dirichlet")
        fmat = apply_mask(msr, observed, incident).data
        grid = SamplingGrid(-6.0, 6.0, -4.0, 5.0, nx, ny)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(indicators, "BATCH_BYTES", cap)
            got, ref, _ = batched_and_per_row(
                lambda: indicator_forms(fmat, m, Medium(1.0, 1.0, omega), grid, kinds,
                                        Q_DEFAULT))
        assert_same_bits(got, ref)


class TestStabilityBound:
    def test_quadratic_form_perturbation_bound(self, msr_kite_m64, msr_kite_m64_noisy):
        m = msr_kite_m64.m
        w = np.pi / m
        dirs = direction_grid(m)
        diff = msr_kite_m64_noisy.assembled() - msr_kite_m64.assembled()
        spec_norm = np.linalg.norm(diff, 2)
        rng = np.random.RandomState(17)
        violations = 0
        for _ in range(100):
            z = rng.uniform(-6, 6, 2)
            ang = rng.uniform(0, 2 * np.pi)
            q = (np.cos(ang), np.sin(ang))
            pp, ps = point_source_farfield(dirs, z, q, msr_kite_m64.medium)
            phi_sq = (np.abs(pp) ** 2 + np.abs(ps) ** 2).sum()
            ia = indicator_values_at(np.array(z)[None, :], msr_kite_m64.assembled(), m,
                                     msr_kite_m64.medium, q, [FF])[FF][0]
            ib = indicator_values_at(np.array(z)[None, :], msr_kite_m64_noisy.assembled(),
                                     m, msr_kite_m64.medium, q, [FF])[FF][0]
            if abs(ia - ib) > w**2 * phi_sq * spec_norm + 1e-12:
                violations += 1
        assert violations == 0


class TestCsv:
    def test_rows_parse_back_to_grid_and_values(self, tmp_path):
        from elastoscan.indicators import IndicatorField

        grid = SamplingGrid(-1.5, 2.0, -0.3, 0.7, 7, 5)
        vals = np.random.RandomState(3).rand(5, 7) * 1e3
        path = tmp_path / "f.csv"
        IndicatorField(grid, vals).to_csv(path)
        header, *rows = path.read_text().splitlines()
        assert header == "x,y,value"
        table = np.array([[float(tok) for tok in row.split(",")] for row in rows])
        assert table.shape == (grid.nx * grid.ny, 3)
        assert np.array_equal(table[:, :2], grid.points())
        assert np.array_equal(table[:, 2], vals.ravel())

    @pytest.mark.parametrize("nx,ny", [(2, 2), (7, 5), (33, 41)])
    def test_bytes_equal_row_by_row_writer(self, tmp_path, nx, ny):
        from elastoscan.indicators import IndicatorField

        grid = SamplingGrid(-6.1, 6.3, -0.7, 1e-3, nx, ny)
        rng = np.random.default_rng(nx * ny)
        vals = rng.random((ny, nx)) * 10.0 ** rng.integers(-300, 300, (ny, nx))
        vals.flat[::3] = 0.0
        vals.flat[1] = 5e-324
        path = tmp_path / "f.csv"
        IndicatorField(grid, vals).to_csv(path)
        expected = "x,y,value\n" + "".join(
            f"{x!r},{y!r},{v!r}\n"
            for (x, y), v in zip(grid.points().tolist(), vals.ravel().tolist()))
        assert path.read_bytes() == expected.encode()

    @pytest.mark.parametrize("grid", [
        SamplingGrid(-6.0, 6.0, -0.5, 0.5, CHUNK_VALUES + 9, 3),   # one grid row per chunk
        SamplingGrid(1e-5, 3e-5, -2e-5, 7e-5, 9, 7),               # exponent cells in the axes
        SamplingGrid(-1.0, 1.0, -1.0, 1.0, 6, 5),                  # values written one at a time
    ], ids=["rows-wider-than-a-chunk", "exponent-axes", "slow-values"])
    def test_bytes_equal_repr_line_writer(self, tmp_path, grid):
        from elastoscan.indicators import IndicatorField

        rng = np.random.default_rng(grid.nx)
        vals = rng.random((grid.ny, grid.nx)) * 10.0 ** rng.integers(-8, 18, (grid.ny, grid.nx))
        vals.flat[:8] = [5e-324, 1e300, -0.0, np.nan, 0.0, -np.inf, 1e-7, 123456.0]
        path = tmp_path / "f.csv"
        IndicatorField(grid, vals).to_csv(path)
        expected = "x,y,value\n" + "".join(
            f"{x!r},{y!r},{v!r}\n"
            for (x, y), v in zip(grid.points().tolist(), vals.ravel().tolist()))
        assert path.read_bytes() == expected.encode()

    def test_axes_of_grids_equal_but_for_a_signed_zero(self, tmp_path):
        from elastoscan.indicators import IndicatorField

        for x1 in (0.0, -0.0, 0.0):                 # equal grids, but not the same text
            grid = SamplingGrid(-1.0, x1, -1.0, 1.0, 2, 2)
            IndicatorField(grid, np.ones((2, 2))).to_csv(tmp_path / "f.csv")
            assert (tmp_path / "f.csv").read_text().splitlines()[2] == f"{x1!r},-1.0,1.0"

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_bytes_equal_repr_writer_on_any_finite_grid(self, data):
        from elastoscan.indicators import IndicatorField

        bounds = st.lists(st.floats(-1e12, 1e12), min_size=2, max_size=2,
                          unique=True).map(sorted)
        (x0, x1), (y0, y1) = data.draw(bounds), data.draw(bounds)
        try:
            grid = SamplingGrid(x0, x1, y0, y1, data.draw(st.integers(2, 9)),
                                data.draw(st.integers(2, 9)))
        except ValueError:
            # ends a few ulps apart give repeated points, which SamplingGrid refuses
            assume(False)
        vals = data.draw(arrays(np.float64, (grid.ny, grid.nx),
                                elements=st.floats(allow_nan=False, allow_infinity=False)))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "f.csv")
            IndicatorField(grid, vals).to_csv(path)
            with open(path, "rb") as fh:
                written = fh.read()
        expected = "x,y,value\n" + "".join(
            f"{x!r},{y!r},{v!r}\n"
            for (x, y), v in zip(grid.points().tolist(), vals.ravel().tolist()))
        assert written == expected.encode()


class TestDecay:
    def test_far_values_below_near_max(self, kite_scene, medium):
        # spec example run: kite/Dirichlet, m=256, |z| = 50, FF indicator
        from elastoscan.forward import synthesize_msr

        msr = synthesize_msr(kite_scene, medium, 256, 384)
        grid = SamplingGrid(-6, 6, -6, 6, 81, 81)
        near_max = indicator_fields(msr.assembled(), msr.m, medium, grid,
                                    [FF])[FF].values.max()
        ang = 2 * np.pi * np.arange(8) / 8
        far = 50.0 * np.stack([np.cos(ang), np.sin(ang)], axis=-1)
        far_vals = indicator_values_at(far, msr.assembled(), msr.m, medium,
                                       Q_DEFAULT, [FF])[FF]
        assert np.all(far_vals <= 0.1 * near_max)
