"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Heavy shared data sets are session fixtures.  Criteria that fix m themselves
say so; where the criterion leaves m or the grid open, the choice is stated
in the test and sized so the direction grid resolves the quantities measured
(2m above the k_s-bandwidth of the integrand).
"""

import time

import numpy as np
import pytest

from elastoscan.aperture import (
    antipode,
    apply_mask,
    limited_indicator,
    reciprocity_fill,
    retrieve_msr,
)
from elastoscan.elastic import Medium, point_source_farfield
from elastoscan.forward import (
    add_noise,
    assemble_system,
    direction_grid,
    synthesize_msr,
)
from elastoscan.geometry import (
    BoundaryCondition,
    BoundaryCurve,
    BoundaryKind,
    Scene,
    contains_points,
    distance_to_boundary,
)
from elastoscan.harness import MaskSpec
from elastoscan.indicators import (
    IndicatorKind,
    SamplingGrid,
    indicator_fields,
    indicator_values_at,
)
from oracles import circular_harmonic, funk_hecke_rhs, point_source_error
from test_indicators import naive_indicator

D = BoundaryCondition.DIRICHLET
N = BoundaryCondition.NEUMANN
Q10 = (1.0, 0.0)
FF, SS = IndicatorKind.FF, IndicatorKind.SS

_RESULTS = []


def report(num, name, ok, detail=""):
    line = f"[acceptance] criterion {num:2d} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" -- {detail}"
    _RESULTS.append(line)
    print(line)
    return ok


@pytest.fixture(scope="session", autouse=True)
def _summary():
    yield
    print("\n" + "\n".join(_RESULTS))


def scene_of(kind, bc, center=(0.0, 0.0), rho=1.0):
    return Scene(((BoundaryCurve(kind, center, rho), bc),))


def quarter_aperture(m):
    """The observed directions of the arc [0, pi/2), a boolean vector over 2m."""
    return MaskSpec(arcs=((0.0, np.pi / 2),)).directions(m)


# --------------------------------------------------------------------------
# shared heavy fixtures
# --------------------------------------------------------------------------
@pytest.fixture(scope="session")
def small_msrs(medium):
    """Criterion 8 data: kite/pear x Dirichlet/Neumann at the --small size."""
    from elastoscan.harness import SMALL_M, SMALL_N

    out = {}
    for kind in (BoundaryKind.KITE, BoundaryKind.PEAR):
        for bc in (D, N):
            scene = scene_of(kind, bc)
            msr = synthesize_msr(scene, medium, SMALL_M, SMALL_N)
            out[(kind, bc)] = (scene, add_noise(msr, 0.3, seed=1))
    return out


@pytest.fixture(scope="session")
def retrieval_setup(kite_scene):
    """Criterion 11 data: kite at omega = 4 pi, 10% noise, quarter aperture."""
    medium = Medium(1.0, 1.0, 4 * np.pi)
    m = 128
    msr = add_noise(synthesize_msr(kite_scene, medium, m, 512), 0.1, seed=3)
    masked = apply_mask(msr, quarter_aperture(m), np.ones(2 * m, dtype=bool))
    retrieved = retrieve_msr(masked)
    return msr, masked, retrieved


# --------------------------------------------------------------------------
# criteria
# --------------------------------------------------------------------------
def test_criterion_01_interior_source_exactness(medium):
    t0 = time.perf_counter()
    cases = [
        (scene_of(BoundaryKind.CIRCLE, D), 256, (0.2, -0.1), 1e-6, "dirichlet circle"),
        (scene_of(BoundaryKind.KITE, D), 512, (-0.2, 0.3), 1e-4, "dirichlet kite"),
        (scene_of(BoundaryKind.CIRCLE, N), 256, (0.2, -0.1), 1e-3, "neumann circle"),
        (scene_of(BoundaryKind.KITE, N), 512, (-0.2, 0.3), 1e-3, "neumann kite"),
    ]
    errs = {}
    for scene, n, z0, tol, label in cases:
        errs[label] = (point_source_error(assemble_system(scene, medium, n), z0), tol)
    elapsed = time.perf_counter() - t0
    ok = all(err <= tol for err, tol in errs.values()) and elapsed <= 60.0
    detail = ", ".join(f"{k}={v[0]:.2e}" for k, v in errs.items()) + f", {elapsed:.0f}s"
    assert report(1, "interior-source exactness", ok, detail)


def test_criterion_02_reciprocity(msr_kite_m64):
    t0 = time.perf_counter()
    m = msr_kite_m64.m
    sig = antipode(np.arange(2 * m), m)
    nrm = msr_kite_m64.frobenius()
    viol = max(
        np.abs(msr_kite_m64.f_pp - msr_kite_m64.f_pp[np.ix_(sig, sig)].T).max(),
        np.abs(msr_kite_m64.f_ss - msr_kite_m64.f_ss[np.ix_(sig, sig)].T).max(),
        np.abs(msr_kite_m64.f_ps - msr_kite_m64.f_sp[np.ix_(sig, sig)].T).max(),
    )
    # the block-symmetric corollary, stated on m x m partitions
    for block, other in ((msr_kite_m64.f_pp, msr_kite_m64.f_pp),
                         (msr_kite_m64.f_ss, msr_kite_m64.f_ss),
                         (msr_kite_m64.f_ps, msr_kite_m64.f_sp)):
        b11, b12 = block[:m, :m], block[:m, m:]
        b21, b22 = block[m:, :m], block[m:, m:]
        o11, o12 = other[:m, :m], other[:m, m:]
        o21, o22 = other[m:, :m], other[m:, m:]
        viol = max(viol,
                   np.abs(b11 - o22.T).max(),
                   np.abs(b22 - o11.T).max(),
                   np.abs(b12 - o12.T).max(),
                   np.abs(b21 - o21.T).max())
    elapsed = time.perf_counter() - t0
    ok = viol <= 1e-8 * nrm and elapsed <= 120.0
    assert report(2, "reciprocity of synthesized MSR", ok,
                  f"max violation {viol:.2e} vs bound {1e-8 * nrm:.2e}")


def test_criterion_03_funk_hecke(medium):
    n = 512
    phi = 2 * np.pi * np.arange(n) / n
    xhat = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
    rng = np.random.RandomState(42)
    worst = 0.0
    for k in (medium.k_p, medium.k_s):
        for alpha in range(4):
            for beta in (-alpha, alpha):
                for _ in range(5):
                    r = rng.uniform(0.2, 8.0)
                    ang = rng.uniform(0, 2 * np.pi)
                    z = r * np.array([np.cos(ang), np.sin(ang)])
                    lhs = (2 * np.pi / n) * np.sum(
                        np.exp(-1j * k * (xhat @ z)) * circular_harmonic(alpha, beta, phi))
                    worst = max(worst, abs(lhs - funk_hecke_rhs(alpha, beta, k, z)))
    assert report(3, "Funk-Hecke identity", worst <= 1e-8, f"max err {worst:.2e}")


@pytest.mark.parametrize("m", [4, 64, 256])
def test_criterion_04_test_function_norm(medium, m):
    rng = np.random.RandomState(m + 1)
    dirs = direction_grid(m)
    w = np.pi / m
    worst = 0.0
    for _ in range(100):
        z = rng.uniform(-8, 8, 2)
        ang = rng.uniform(0, 2 * np.pi)
        pp, ps = point_source_farfield(dirs, z, (np.cos(ang), np.sin(ang)), medium)
        worst = max(worst, abs(w * (np.abs(pp) ** 2 + np.abs(ps) ** 2).sum() - 2 * np.pi))
    assert report(4, f"test-function norm 2pi (m={m})", worst <= 1e-12,
                  f"max deviation {worst:.2e}")


def test_criterion_05_noise_model(msr_kite_m64):
    ok = True
    details = []
    for delta in (0.1, 0.3):
        noisy = add_noise(msr_kite_m64, delta, seed=13)
        rel = (np.linalg.norm(noisy.assembled() - msr_kite_m64.assembled())
               / np.linalg.norm(msr_kite_m64.assembled()))
        details.append(f"delta={delta}: rel={rel:.15f}")
        ok &= abs(rel - delta) <= 1e-12
        again = add_noise(msr_kite_m64, delta, seed=13)
        ok &= np.array_equal(noisy.assembled(), again.assembled())
    assert report(5, "noise model exactness + determinism", ok, "; ".join(details))


def test_criterion_06_stability_bound(msr_kite_m64):
    medium = msr_kite_m64.medium
    noisy = add_noise(msr_kite_m64, 0.3, seed=11)
    m = msr_kite_m64.m
    w = np.pi / m
    dirs = direction_grid(m)
    spec_norm = np.linalg.norm(noisy.assembled() - msr_kite_m64.assembled(), 2)
    rng = np.random.RandomState(29)
    violations = 0
    for _ in range(100):
        z = rng.uniform(-6, 6, 2)
        ang = rng.uniform(0, 2 * np.pi)
        q = (np.cos(ang), np.sin(ang))
        pp, ps = point_source_farfield(dirs, z, q, medium)
        bound = w**2 * (np.abs(pp) ** 2 + np.abs(ps) ** 2).sum() * spec_norm
        ia = indicator_values_at(np.asarray(z)[None, :], msr_kite_m64.assembled(), m,
                                 medium, q, [FF])[FF][0]
        ib = indicator_values_at(np.asarray(z)[None, :], noisy.assembled(), m,
                                 medium, q, [FF])[FF][0]
        if abs(ia - ib) > bound + 1e-12:
            violations += 1
    assert report(6, "stability bound", violations == 0, f"{violations} violations")


def test_criterion_07_oracle_equivalence(msr_kite_m64):
    medium = msr_kite_m64.medium
    grid = SamplingGrid(-2.0, 2.0, -2.0, 2.0, 5, 5)
    pts = grid.points()
    worst = 0.0
    fields = indicator_fields(msr_kite_m64.assembled(), msr_kite_m64.m, medium, grid,
                              IndicatorKind, Q10)
    for kind in IndicatorKind:
        batched = fields[kind].values.ravel()
        for idx in range(len(pts)):
            ref = naive_indicator(msr_kite_m64, pts[idx], Q10, kind, medium)
            worst = max(worst, abs(batched[idx] - ref) / max(1.0, ref))
    assert report(7, "batched = naive double sum", worst <= 1e-12, f"max rel {worst:.2e}")


def test_criterion_08_localization(small_msrs):
    """Figure-level localization at the --small preset size, delta = 0.3.

    Checked exactly as stated: argmax of each indicator within 0.3 of the
    boundary and mean normalized I^2 at distance > 2 outside below 0.2.
    The PP indicator's literal argmax sits on an interior symmetry-axis
    caustic for these shapes (5-13% above its boundary ridge), so the PP
    argmax sub-checks fail, and so does the FF argmax for the pear cavity.
    Observed sub-failures: kite/dirichlet pp argmax_dist=0.70, kite/neumann
    pp 0.55, pear/dirichlet pp 1.16, pear/neumann pp 1.03 and pear/neumann ff
    1.21.  The same five fail for m in {128, 256}, n in {256, 512}, delta in
    {0, 0.3} and q in {(1,0), (0,1), their sum}, so they are not a
    discretization, noise or polarization effect.
    """
    t0 = time.perf_counter()
    grid = SamplingGrid(-6, 6, -6, 6, 161, 161)
    pts = grid.points()
    failures = []
    per_case_seconds = []
    for (kind, bc), (scene, msr) in small_msrs.items():
        t_case = time.perf_counter()
        dist = distance_to_boundary(scene, pts)
        inside = contains_points(scene, pts)
        far_out = (~inside) & (dist > 2.0)
        label = f"{kind.value}/{bc.value}"
        fields = indicator_fields(msr.assembled(), msr.m, msr.medium, grid,
                                  (IndicatorKind.SS, IndicatorKind.PP, IndicatorKind.FF), Q10)
        for ikind, fld in fields.items():
            d = distance_to_boundary(scene, fld.argmax_point()[None, :])[0]
            mean_out = float((fld.values**2 / fld.values.max()**2).ravel()[far_out].mean())
            if d > 0.3:
                failures.append(f"{label} {ikind.value} argmax_dist={d:.2f}")
            if mean_out > 0.2:
                failures.append(f"{label} {ikind.value} mean_out={mean_out:.2f}")
        per_case_seconds.append(time.perf_counter() - t_case)
    ok = not failures and max(per_case_seconds) <= 300.0
    detail = "; ".join(failures) if failures else f"max case time {max(per_case_seconds):.0f}s"
    assert report(8, "localization (qualitative figures)", ok, detail)


def test_criterion_09_decay(kite_scene, medium):
    # m = 768 so the direction grid resolves the test-function phase at
    # distance 50 (2m >= k_s (50 + R)); smaller m aliases the tail
    msr = synthesize_msr(kite_scene, medium, 768, 384)
    grid = SamplingGrid(-6, 6, -6, 6, 81, 81)
    cen = np.array(kite_scene.components[0][0].center)
    rays = 2 * np.pi * np.arange(8) / 8
    dirvecs = np.stack([np.cos(rays), np.sin(rays)], axis=-1)
    far_pts = []
    for dv in dirvecs:
        lo, hi = 1.0, 80.0
        for _ in range(45):
            mid = 0.5 * (lo + hi)
            if distance_to_boundary(kite_scene, (cen + mid * dv)[None, :])[0] < 50.0:
                lo = mid
            else:
                hi = mid
        far_pts.append(cen + 0.5 * (lo + hi) * dv)
    far_pts = np.array(far_pts)
    fmat = msr.assembled()
    near = indicator_fields(fmat, msr.m, medium, grid, IndicatorKind, Q10)
    far = indicator_values_at(far_pts, fmat, msr.m, medium, Q10, IndicatorKind)
    worst = max(float(far[kind].max() / near[kind].values.max()) for kind in IndicatorKind)
    assert report(9, "indicator decay at distance 50", worst <= 0.1,
                  f"max normalized far value {worst:.3f}")


def test_criterion_10_reciprocity_fill_round_trip(msr_kite_m64, medium):
    m = msr_kite_m64.m
    masked = apply_mask(msr_kite_m64, quarter_aperture(m), np.ones(2 * m, dtype=bool))
    filled = reciprocity_fill(masked)
    nrm = msr_kite_m64.frobenius()
    gained = filled.mask & ~masked.mask
    worst = float(np.abs(filled.data - msr_kite_m64.full)[gained].max())
    ok = worst <= 1e-8 * nrm

    # known-set predicate, exhaustively at m = 8
    m8 = 8
    rng = np.random.RandomState(0)
    pp, ps, sp, ss = [rng.randn(16, 16) + 1j * rng.randn(16, 16) for _ in range(4)]
    from elastoscan.forward import MSRMatrix

    msr8 = MSRMatrix(m8, np.block([[pp, sp], [ps, ss]]), medium.lam, medium.mu, medium.omega,
                     scene="kite@(0.0,0.0)*1.0", bc="dirichlet")
    obs = frozenset({0, 1, 2, 3})
    filled8 = reciprocity_fill(apply_mask(msr8, np.arange(16) < 4, np.ones(16, dtype=bool)))
    predicate_ok = True
    for name in ("f_pp", "f_ss", "f_ps", "f_sp"):
        for j in range(16):
            for i in range(16):
                expect = (j in obs) or (int(antipode(i, m8)) in obs)
                predicate_ok &= bool(filled8.known[name][j, i]) == expect
    assert report(10, "reciprocity fill round trip", ok and predicate_ok,
                  f"max fill error {worst:.2e} vs bound {1e-8 * nrm:.2e}; "
                  f"known-set predicate {'ok' if predicate_ok else 'BROKEN'}")


def test_criterion_11_retrieval_improvement(retrieval_setup):
    t0 = time.perf_counter()
    msr, masked, retrieved = retrieval_setup
    grid = SamplingGrid(-6, 6, -6, 6, 161, 161)
    details = []
    ok = True
    full = indicator_fields(msr.assembled(), msr.m, msr.medium, grid, IndicatorKind, Q10)
    naive = limited_indicator(masked, grid, IndicatorKind, Q10)
    retr = indicator_fields(retrieved.assembled(), msr.m, msr.medium, grid, IndicatorKind, Q10)
    for kind in IndicatorKind:
        full_f = full[kind].values.ravel()
        naive_f = naive[kind].values.ravel()
        retr_f = retr[kind].values.ravel()
        c_naive = float(np.corrcoef(naive_f, full_f)[0, 1])
        c_retr = float(np.corrcoef(retr_f, full_f)[0, 1])
        ok &= c_retr > c_naive
        details.append(f"{kind.value}: {c_naive:.4f} -> {c_retr:.4f}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed <= 600.0
    assert report(11, "retrieval pipeline improvement", ok, "; ".join(details))


def test_criterion_12_few_incident_trend(kite_scene, medium):
    m = 128
    msr = add_noise(synthesize_msr(kite_scene, medium, m, 512), 0.1, seed=1)
    grid = SamplingGrid(-6, 6, -6, 6, 161, 161)
    q = (0.0, 1.0)       # nondegenerate for shear incidence along x
    dists = []
    for count in (1, 4, 16):
        step = (2 * m) // count
        incident = np.zeros(2 * m, dtype=bool)
        incident[::step] = True
        fld = limited_indicator(apply_mask(msr, np.ones(2 * m, dtype=bool), incident),
                                grid, [SS], q)[SS]
        dists.append(float(distance_to_boundary(kite_scene,
                                                fld.argmax_point()[None, :])[0]))
    ok = all(dists[i + 1] <= dists[i] + 0.1 for i in range(len(dists) - 1))
    assert report(12, "few-incident-direction trend", ok,
                  "argmax distances " + " -> ".join(f"{d:.3f}" for d in dists))
