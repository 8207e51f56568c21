import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elastoscan.aperture import (
    MaskedMSR,
    antipode,
    apply_mask,
    limited_indicator,
    reciprocity_fill,
    retrieved_forms,
)
from elastoscan.elastic import Medium
from elastoscan.forward import MSRMatrix, add_noise, load_msr, save_msr, synthesize_msr
from elastoscan.geometry import (
    BoundaryCondition,
    BoundaryCurve,
    BoundaryKind,
    Scene,
    distance_to_boundary,
)
from elastoscan.harness import MaskSpec, retrieve_msr
from elastoscan.indicators import (
    IndicatorKind,
    SamplingGrid,
    _axis_skeleton,
    fields_from_forms,
    indicator_fields,
    indicator_forms,
)

QUARTER = (0.0, np.pi / 2)


def chosen(m, idx=None):
    """Boolean vector over the 2m directions selecting the 0-based idx (default: all)."""
    sel = np.zeros(2 * m, dtype=bool)
    sel[slice(None) if idx is None else list(idx)] = True
    return sel


def arc(m, *arcs):
    return MaskSpec(arcs=arcs).directions(m)


def random_msr(m, medium, seed=0, scene="kite@(0.0,0.0)*1.0"):
    rng = np.random.RandomState(seed)
    pp, ps, sp, ss = (rng.randn(2 * m, 2 * m) + 1j * rng.randn(2 * m, 2 * m) for _ in range(4))
    return MSRMatrix(m, np.block([[pp, sp], [ps, ss]]), medium.lam, medium.mu, medium.omega,
                     scene=scene, bc="dirichlet")


class TestApertureMask:
    def test_empty_sets_rejected(self):
        # [0.1, 0.2) lies between the grid directions 0 and pi/8 at m = 8
        with pytest.raises(ValueError, match="select none"):
            MaskSpec(arcs=((0.1, 0.2),)).directions(8)

    def test_quarter_arc_membership(self):
        m = 8
        theta = np.pi * np.arange(2 * m) / m
        assert np.array_equal(arc(m, QUARTER), (0 <= theta) & (theta < np.pi / 2))
        assert np.array_equal(MaskSpec(indices=(1, 2, 3, 4)).to_indices(m), np.arange(4))

    def test_full_mask_keeps_everything(self, msr_disk_m16):
        m = msr_disk_m16.m
        masked = apply_mask(msr_disk_m16, chosen(m), chosen(m))
        assert masked.mask.all()
        assert np.array_equal(masked.data, msr_disk_m16.full)

    def test_incident_singleton_single_column(self, msr_disk_m16):
        m = msr_disk_m16.m
        masked = apply_mask(msr_disk_m16, chosen(m), chosen(m, {3}))
        known = masked.known["f_pp"]
        assert known[:, 3].all() and known.sum() == 2 * m

    def test_spec_needs_exactly_one_form(self):
        with pytest.raises(ValueError, match="exactly one of arcs and indices"):
            MaskSpec()
        with pytest.raises(ValueError, match="exactly one of arcs and indices"):
            MaskSpec(arcs=(QUARTER,), indices=(1, 2))

    def test_out_of_range_rejected(self, msr_disk_m16):
        m = msr_disk_m16.m
        for indices in ((1, 2 * m + 1), (0, 1)):
            with pytest.raises(ValueError, match="1..32"):
                MaskSpec(indices=indices).directions(m)


class TestAntipode:
    def test_involution(self):
        for m in (4, 8, 64):
            i = np.arange(2 * m)
            assert np.array_equal(antipode(antipode(i, m), m), i)

    def test_spec_index_example(self):
        # 1-based: sigma(2) = 6 and sigma(5) = 1 at m = 4 means the 0-based
        # unknown (4, 1) is filled from (5, 0)
        m = 4
        assert antipode(1, m) == 5
        assert antipode(4, m) == 0


class TestReciprocityFill:
    def test_fill_uses_antipode_source(self, medium):
        m = 4
        msr = random_msr(m, medium)
        filled = reciprocity_fill(apply_mask(msr, chosen(m, {5}), chosen(m)))
        # unknown (4, 1) has source (sigma(1), sigma(4)) = (5, 0), which is known
        assert filled.known["f_pp"][4, 1]
        assert filled.data[4, 1] == msr.f_pp[5, 0]

    def test_round_trip_on_synthesized_data(self, msr_kite_m64):
        m = msr_kite_m64.m
        masked = apply_mask(msr_kite_m64, arc(m, QUARTER), chosen(m))
        filled = reciprocity_fill(masked)
        nrm = msr_kite_m64.frobenius()
        gained = filled.mask & ~masked.mask
        err = np.abs(filled.data - msr_kite_m64.full)[gained]
        for name in ("f_pp", "f_ss", "f_ps", "f_sp"):
            assert (filled.known[name] & ~masked.known[name]).any()
        assert err.max() <= 1e-8 * nrm

    def test_never_touches_known_entries(self, medium):
        m = 8
        msr = random_msr(m, medium, seed=3)
        masked = apply_mask(msr, arc(m, QUARTER), chosen(m))
        filled = reciprocity_fill(masked)
        assert np.array_equal(filled.data[masked.mask], masked.data[masked.mask])

    def test_idempotent(self, medium):
        m = 8
        msr = random_msr(m, medium, seed=4)
        masked = apply_mask(msr, arc(m, (0.3, 1.1)), chosen(m))
        once = reciprocity_fill(masked)
        twice = reciprocity_fill(once)
        assert np.array_equal(once.mask, twice.mask)
        assert np.array_equal(once.data, twice.data)

    def test_known_set_predicate_exhaustive(self, medium):
        """After fill with observed set O and full incidence:
        (j, i) known iff j in O or sigma(i) in O. Enumerated at m = 8."""
        m = 8
        msr = random_msr(m, medium, seed=5)
        obs = frozenset({0, 1, 2, 3})
        masked = apply_mask(msr, chosen(m, obs), chosen(m))
        filled = reciprocity_fill(masked)
        for name in ("f_pp", "f_ss", "f_ps", "f_sp"):
            for j in range(2 * m):
                for i in range(2 * m):
                    expect = (j in obs) or (int(antipode(i, m)) in obs)
                    assert filled.known[name][j, i] == expect


@st.composite
def random_aperture(draw):
    """(random 4m x 4m data, observed and incident direction vectors, each selecting
    at least one direction) for m in 1..6."""
    m = draw(st.integers(1, 6))
    directions = st.lists(st.booleans(), min_size=2 * m, max_size=2 * m).filter(any)
    observed = np.array(draw(directions))
    incident = np.array(draw(directions))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    full = rng.standard_normal((4 * m, 4 * m)) + 1j * rng.standard_normal((4 * m, 4 * m))
    msr = MSRMatrix(m, full, 1.0, 1.0, 4 * np.pi, scene="kite@(0.0,0.0)*1.0", bc="dirichlet")
    return msr, observed, incident


def exact_zeros(values) -> bool:
    """Every value is +0 + 0j: zero, with neither sign bit set."""
    return bool((values == 0).all() and not np.signbit(values.real).any()
                and not np.signbit(values.imag).any())


def reciprocal_source(row, col, m):
    """Entry of F whose value reciprocity copies into (row, col), block by block:
    F_ab[j, i] comes from F_ba[sigma(i), sigma(j)]."""
    (a, j), (b, i) = divmod(row, 2 * m), divmod(col, 2 * m)
    return b * 2 * m + int(antipode(i, m)), a * 2 * m + int(antipode(j, m))


class TestApertureProperties:
    @settings(max_examples=60, deadline=None)
    @given(case=random_aperture())
    def test_mask_fill_retrieve(self, case):
        msr, observed, incident = case
        m, size = msr.m, 4 * msr.m
        measured = np.zeros((size, size), dtype=bool)
        for row in range(size):
            for col in range(size):
                measured[row, col] = observed[row % (2 * m)] and incident[col % (2 * m)]
        masked = apply_mask(msr, observed, incident)
        assert np.array_equal(masked.mask, measured)
        assert np.array_equal(masked.data[measured], msr.full[measured])
        assert exact_zeros(masked.data[~measured])

        filled = reciprocity_fill(masked)
        assert np.array_equal(filled.data[measured], msr.full[measured])
        for row in range(size):
            for col in range(size):
                src = reciprocal_source(row, col, m)
                assert filled.mask[row, col] == (measured[row, col] or measured[src])
                if filled.mask[row, col] and not measured[row, col]:
                    assert filled.data[row, col] == msr.full[src]
        assert exact_zeros(filled.data[~filled.mask])

        twice = reciprocity_fill(filled)
        assert np.array_equal(twice.mask, filled.mask)
        assert np.array_equal(twice.data, filled.data)

        out = retrieve_msr(masked)
        assert np.array_equal(out.full, filled.data)


# small grids at omega = 4 pi; the 64-point axis of the last one has a skeleton of
# fewer points than the axis for every band, so its forms are interpolated
IDENTITY_GRIDS = (SamplingGrid(-2.0, 2.0, -1.5, 1.5, 5, 4), SamplingGrid(-3.0, 1.0, 0.5, 2.5, 2, 7),
                  SamplingGrid(-1.0, 1.0, -0.5, 0.5, 64, 3))


@st.composite
def retrieval_case(draw):
    """(random data, any observed and incident vectors, a nonempty ordered subset of
    the kinds, a unit q, a grid) for m in 1..6."""
    m = draw(st.integers(1, 6))
    directions = st.lists(st.booleans(), min_size=2 * m, max_size=2 * m).map(np.array)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    full = rng.standard_normal((4 * m, 4 * m)) + 1j * rng.standard_normal((4 * m, 4 * m))
    msr = MSRMatrix(m, full, 1.0, 1.0, 4 * np.pi, scene="kite@(0.0,0.0)*1.0", bc="dirichlet")
    kinds = draw(st.lists(st.sampled_from(list(IndicatorKind)), min_size=1, max_size=3,
                          unique=True))
    t = draw(st.floats(0.0, 2 * np.pi))
    return (msr, draw(directions), draw(directions), kinds, (np.cos(t), np.sin(t)),
            draw(st.sampled_from(IDENTITY_GRIDS)))


class TestRetrievedForms:
    def test_one_grid_has_a_skeleton_smaller_than_its_axis(self):
        medium = Medium(1.0, 1.0, 4 * np.pi)
        xs = IDENTITY_GRIDS[-1].xs
        for band in (2 * medium.k_p, medium.k_p + medium.k_s, 2 * medium.k_s):
            skeleton, interp = _axis_skeleton(xs, band)
            assert interp is not None and len(skeleton) < len(xs)

    @settings(max_examples=80, deadline=None)
    @given(case=retrieval_case())
    def test_equal_the_fields_of_the_retrieved_msr(self, case):
        """2 G(F|K) - G(F|K & sigma K) gives the fields of a pass over the
        reciprocity-filled data."""
        msr, observed, incident, kinds, q, grid = case
        masked = apply_mask(msr, observed, incident)
        limited = indicator_forms(masked.data, msr.m, msr.medium, grid, kinds, q)
        got = fields_from_forms(retrieved_forms(masked, limited, grid, kinds, q), msr.m, grid,
                                kinds)
        want = indicator_fields(retrieve_msr(masked).full, msr.m, msr.medium, grid, kinds, q)
        assert list(got) == list(want) == kinds
        for kind in kinds:
            top = max(1.0, want[kind].values.max())
            assert np.abs(got[kind].values - want[kind].values).max() <= 1e-12 * top, kind


class TestRetrieveMsr:
    def test_reciprocity_fill_then_zeros(self, kite_scene, tmp_path):
        """Observed arcs of a quarter, a half and three quarters, full incidence:
        measured entries stay, (row, col) with sigma(col) observed takes the
        value at (Sigma(col), Sigma(row)), every other entry is 0."""
        m = 32
        clean = synthesize_msr(kite_scene, Medium(1.0, 1.0, 4 * np.pi), m, 128)
        sig = antipode(np.arange(2 * m), m)
        image = np.ix_(np.concatenate([sig, sig + 2 * m]), np.concatenate([sig, sig + 2 * m]))
        for delta in (0.0, 0.1):
            data = add_noise(clean, delta, seed=2)
            for frac in (0.25, 0.5, 0.75):
                obs = arc(m, (0.0, 2 * np.pi * frac))
                measured = np.tile(obs[:, None], (2, 4 * m))
                filled = np.tile(~obs[:, None] & obs[sig][None, :], (2, 2))
                out = retrieve_msr(apply_mask(data, obs, chosen(m)))
                assert np.array_equal(out.full[measured], data.full[measured])
                assert np.array_equal(out.full[filled], data.full[image].T[filled])
                assert (out.full[~measured & ~filled] == 0).all()
                assert filled.any() and (~measured & ~filled).any()

                save_msr(out, tmp_path / "r.msr")
                back = load_msr(tmp_path / "r.msr")
                assert back.retrieval == "reciprocity"
                assert np.array_equal(back.full, out.full)

                zero_fill = np.where(measured, data.full, 0.0)
                assert (np.linalg.norm(out.full - clean.full)
                        < np.linalg.norm(zero_fill - clean.full)), (delta, frac)


class TestLimitedIndicator:
    def test_full_mask_matches_unrestricted(self, msr_kite_m64):
        grid = SamplingGrid(-3, 3, -3, 3, 9, 9)
        m, medium = msr_kite_m64.m, msr_kite_m64.medium
        masked = apply_mask(msr_kite_m64, chosen(m), chosen(m))
        limited = limited_indicator(masked, grid, IndicatorKind)
        full = indicator_fields(msr_kite_m64.assembled(), m, medium, grid, IndicatorKind)
        for kind in IndicatorKind:
            a, b = limited[kind].values, full[kind].values
            assert np.abs(a - b).max() <= 1e-13 * max(1.0, b.max())

    def test_single_shear_incidence_localizes(self, kite_scene, medium):
        # q = (0,1): q.d_perp = 0 degenerates the d = (1,0) column for q = (1,0)
        msr = synthesize_msr(kite_scene, medium, 128, 256)
        m = msr.m
        ss = IndicatorKind.SS
        fld = limited_indicator(apply_mask(msr, chosen(m), chosen(m, {0})),
                                SamplingGrid(-6, 6, -6, 6, 121, 121), [ss], (0.0, 1.0))[ss]
        assert np.all(np.isfinite(fld.values))
        assert fld.values.max() > 0
        d = distance_to_boundary(kite_scene, fld.argmax_point()[None, :])[0]
        assert d <= 1.0

    def test_empty_known_block_gives_zero_field(self, msr_disk_m16):
        m = msr_disk_m16.m
        # PP-kind indicator with no pp entries known: a product mask cannot make
        # the pp block alone unknown, so build that MaskedMSR directly, its
        # unknown entries 0
        known = np.ones((4 * m, 4 * m), dtype=bool)
        known[:2 * m, :2 * m] = False
        masked = MaskedMSR(msr_disk_m16, known, np.where(known, msr_disk_m16.full, 0.0))
        pp = IndicatorKind.PP
        fld = limited_indicator(masked, SamplingGrid(-2, 2, -2, 2, 5, 5), [pp], (1.0, 0.0))[pp]
        assert np.all(fld.values == 0.0)
