import contextlib
import tracemalloc
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.special import ndtri
from hypothesis import given, settings
from hypothesis import strategies as st

from elastoscan import forward
from elastoscan._numtext import CHUNK_VALUES, format_rows
from elastoscan.aperture import apply_mask, reciprocity_fill
from elastoscan.elastic import Medium, PlaneWave, WaveMode
from elastoscan.forward import (
    MSRMatrix,
    MsrDimensionError,
    MsrFormatError,
    MsrVersionError,
    NumericError,
    _farfields,
    _incident_rhs,
    add_noise,
    assemble_system,
    cot_quadrature_weights,
    direction_grid,
    draw_noise,
    load_msr,
    log_quadrature_weights,
    save_msr,
    synthesize_msr,
)
from elastoscan.geometry import (
    BoundaryCondition,
    BoundaryCurve,
    BoundaryKind,
    Scene,
    boundary_quadrature,
)
from elastoscan.harness import MaskSpec
from oracles import point_source_error, reference_load_msr, solved_farfield

D = BoundaryCondition.DIRICHLET
N = BoundaryCondition.NEUMANN


def one_scene(kind, bc, center=(0.0, 0.0), rho=1.0):
    return Scene(((BoundaryCurve(kind, center, rho), bc),))


def density(system, incident):
    """The density system solves for one incident field, stacked [psi_x; psi_y]."""
    return system.solve(_incident_rhs(system, incident))


class TestQuadratureRules:
    @pytest.mark.parametrize("m", [1, 2, 5, 11])
    def test_log_rule_exact_on_cosines(self, m):
        n = 64
        t = 2 * np.pi * np.arange(n) / n
        r = log_quadrature_weights(n)
        idx = (0 - np.arange(n)) % n
        approx = (r[idx] * np.cos(m * t)).sum()
        assert abs(approx - (-2 * np.pi / m)) < 1e-12

    @pytest.mark.parametrize("m", [1, 2, 5, 11])
    def test_cot_rule_exact_on_fourier_modes(self, m):
        # kernel cot((tau - t)/2): cos(m tau) -> -2 pi sin(m t), sin -> +2 pi cos
        n = 64
        t = 2 * np.pi * np.arange(n) / n
        h = cot_quadrature_weights(n)
        for i in (0, 5):
            idx = (i - np.arange(n)) % n
            c = (h[idx] * np.cos(m * t)).sum()
            s = (h[idx] * np.sin(m * t)).sum()
            assert abs(c - (-2 * np.pi * np.sin(m * t[i]))) < 1e-12
            assert abs(s - 2 * np.pi * np.cos(m * t[i])) < 1e-12


class TestDirichletSystem:
    def test_matrix_symmetry_on_circle(self, medium):
        system = assemble_system(one_scene(BoundaryKind.CIRCLE, D), medium, 128)
        a = system.matrix
        assert np.linalg.norm(a - a.T) / np.linalg.norm(a) < 1e-10

    def test_density_self_convergence_on_circle(self, medium):
        scene = one_scene(BoundaryKind.CIRCLE, D)
        wave = PlaneWave(WaveMode.P, (1.0, 0.0))
        rho_c = density(assemble_system(scene, medium, 128), wave)
        rho_f = density(assemble_system(scene, medium, 256), wave)
        coarse, fine = rho_c.reshape(2, -1), rho_f.reshape(2, -1)[:, ::2]
        rel = np.linalg.norm(coarse - fine) / np.linalg.norm(fine)
        assert rel < 1e-8

    def test_interior_source_exactness(self, medium):
        system = assemble_system(one_scene(BoundaryKind.CIRCLE, D), medium, 128)
        assert point_source_error(system, (0.2, -0.1)) < 1e-6

    def test_zero_incident_zero_density(self, medium):
        class NullIncident:
            def field(self, x, med):
                return np.zeros((len(np.atleast_2d(x)), 2), complex)

            def traction(self, x, nu, med):
                return np.zeros((len(np.atleast_2d(x)), 2), complex)

        system = assemble_system(one_scene(BoundaryKind.CIRCLE, D), medium, 128)
        assert np.linalg.norm(density(system, NullIncident())) < 1e-13


class TestNeumannSystem:
    def test_interior_source_exactness_circle(self, medium):
        system = assemble_system(one_scene(BoundaryKind.CIRCLE, N), medium, 256)
        assert point_source_error(system, (0.2, -0.1)) < 1e-4

    def test_interior_source_exactness_kite(self, medium):
        system = assemble_system(one_scene(BoundaryKind.KITE, N), medium, 512)
        assert point_source_error(system, (-0.2, 0.3)) < 1e-3

    def test_farfield_self_convergence_on_circle(self, medium):
        scene = one_scene(BoundaryKind.CIRCLE, N)
        wave = PlaneWave(WaveMode.S, (0.0, 1.0))
        dirs = direction_grid(16)
        out = []
        for n in (256, 512):
            up, us = solved_farfield(assemble_system(scene, medium, n), wave, dirs)
            out.append(np.concatenate([up, us]))
        rel = np.linalg.norm(out[0] - out[1]) / np.linalg.norm(out[1])
        assert rel < 1e-6

    def test_differs_from_dirichlet(self, medium):
        scene_d = one_scene(BoundaryKind.CIRCLE, D)
        scene_n = one_scene(BoundaryKind.CIRCLE, N)
        a_d = assemble_system(scene_d, medium, 128).matrix
        a_n = assemble_system(scene_n, medium, 128).matrix
        assert np.linalg.norm(a_d - a_n) > 1.0

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_singular_system_raises(self, medium):
        system = assemble_system(one_scene(BoundaryKind.CIRCLE, D), medium, 128)
        system.matrix = np.zeros_like(system.matrix)
        system.matrix[0, 0] = 1.0
        with pytest.raises(NumericError):
            system.factorization()


class TestMixedSceneSystem:
    def test_interior_source_exactness_mixed_bcs(self, medium):
        """Two components with different conditions: a point source inside one
        makes u_in + u_sc vanish identically outside it, so both the Dirichlet
        trace and the Neumann traction cancel and the far field is -Phi_inf."""
        scene = Scene(((BoundaryCurve(BoundaryKind.CIRCLE, (-2.5, 0.0)), D),
                       (BoundaryCurve(BoundaryKind.KITE, (2.5, 0.0)), N)))
        system = assemble_system(scene, medium, 256)
        for z0 in ((-2.3, 0.1), (2.3, 0.3)):      # inside circle, inside kite
            assert point_source_error(system, z0) < 1e-3


def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


class TestInPlaceFactorization:
    """factorization() overwrites A with the LU that lu_factor gives of a copy of A."""

    @pytest.mark.parametrize("components,n", [
        (((BoundaryKind.KITE, (0.0, 0.0), D),), 64),                     # 2N = 128
        (((BoundaryKind.CIRCLE, (0.0, 0.0), N),), 96),                   # 2N = 192
        (((BoundaryKind.CIRCLE, (-2.5, 0.0), D), (BoundaryKind.KITE, (2.5, 0.0), N)), 50),
    ], ids=["dirichlet", "neumann", "mixed-2N-200"])
    def test_lu_pivots_and_rcond_equal_lu_factor_of_a_copy(self, medium, monkeypatch,
                                                           components, n):
        scene = Scene(tuple((BoundaryCurve(kind, center), bc)
                            for kind, center, bc in components))
        system = assemble_system(scene, medium, n)
        buffer = system.matrix
        a = buffer.copy()
        ref_lu, ref_piv = sla.lu_factor(a)
        ref_anorm = np.linalg.norm(a, 1)
        ref_rcond = forward._lapack.zgecon(ref_lu, ref_anorm)[0]
        zgecon, seen = forward._lapack.zgecon, []

        def recording(lu, anorm):
            out = zgecon(lu, anorm)
            seen.append((anorm, out[0]))
            return out

        monkeypatch.setattr(forward._lapack, "zgecon", recording)
        lu, piv = system.factorization()
        assert system.matrix is None
        assert np.shares_memory(lu, buffer)
        assert np.array_equal(bits(lu), bits(ref_lu))
        assert np.array_equal(piv, ref_piv)
        assert seen == [(ref_anorm, ref_rcond)]


class TestOneNorm:
    """forward._one_norm equals np.linalg.norm(a, 1) bit for bit without a float |a|."""

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 200, 512, 1000, 1024])
    def test_equals_numpy_one_norm(self, n):
        rng = np.random.default_rng(n)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a *= 10.0 ** rng.uniform(-3, 3, (n, 1))          # rows of unequal scale
        assert forward._one_norm(a) == np.linalg.norm(a, 1)


class TestSmoothDiagonalFormulas:
    """Closed-form singular-quadrature diagonals vs numerically extrapolated limits."""

    def test_single_layer_smooth_diagonal(self, medium):
        from elastoscan.elastic import bessel_j, green_radial, hankel_pack, logcoef_pack
        from elastoscan.forward import _single_layer_smooth_diag

        quad = boundary_quadrature(BoundaryCurve(BoundaryKind.KITE), 16)
        i = 3
        t0 = quad.t[i]
        from elastoscan.geometry import curve_point, curve_tangent

        kite = BoundaryCurve(BoundaryKind.KITE)

        def smooth_at(eps):
            acc = 0.0
            for sgn in (1.0, -1.0):
                tau = t0 + sgn * eps
                xt = curve_point(kite, tau)
                st = np.linalg.norm(curve_tangent(kite, tau))
                w = quad.points[i] - xt
                r = np.linalg.norm(w)
                what = w / r
                eye = np.eye(2)
                rs = np.array([r])
                hp = green_radial(rs, hankel_pack(rs, medium), medium)
                jp = green_radial(rs, logcoef_pack(bessel_j(rs, medium)), medium)
                mat = lambda p: (p[0][0] * eye + p[1][0] * np.outer(what, what)) * st
                acc = acc + mat(hp) - np.log(4 * np.sin(eps / 2) ** 2) * mat(jp)
            return acc / 2.0

        v1, v2, v3 = smooth_at(4e-3), smooth_at(2e-3), smooth_at(1e-3)
        extrap = (64 * v3 - 20 * v2 + v1) / 45
        a_diag, b_diag = _single_layer_smooth_diag(medium, quad.speeds)
        that = np.array([-quad.normals[i, 1], quad.normals[i, 0]])
        closed = quad.speeds[i] * (a_diag[i] * np.eye(2) + b_diag * np.outer(that, that))
        assert np.linalg.norm(extrap - closed) < 1e-8

    def test_cauchy_strength_matches_elastostatic_constant(self, medium):
        from elastoscan.forward import cauchy_strength

        lam = cauchy_strength(medium)
        sigma = medium.lam / (2 * (medium.lam + medium.mu))   # plane-strain Poisson
        classical = (1 - 2 * sigma) / (4 * np.pi * (1 - sigma))
        assert lam[1, 0] == pytest.approx(classical, rel=1e-14)
        assert np.allclose(lam, -lam.T)


class TestFarField:
    def test_zero_density_zero_farfield(self, medium):
        quad = boundary_quadrature(BoundaryCurve(BoundaryKind.CIRCLE), 64)
        zero = np.zeros((64, 1), complex)
        out = np.full((32, 1), np.nan, complex)
        _farfields(zero, zero, quad, medium, direction_grid(8), out)
        assert np.all(out == 0)


class TestSynthesizeMSR:
    def test_m_too_small_rejected(self, medium, circle_scene):
        with pytest.raises(ValueError):
            synthesize_msr(circle_scene, medium, 3, 128)

    def test_disk_blocks_are_circulant(self, msr_disk_m16):
        n = 2 * msr_disk_m16.m
        for block in (msr_disk_m16.f_pp, msr_disk_m16.f_ss,
                      msr_disk_m16.f_ps, msr_disk_m16.f_sp):
            idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
            mean_diag = np.array([block[idx == k].mean() for k in range(n)])
            recon = mean_diag[idx]
            assert np.linalg.norm(block - recon) <= 1e-8 * (np.linalg.norm(block) + 1)

    def test_two_component_scene_smoke(self, medium):
        scene = Scene(((BoundaryCurve(BoundaryKind.KITE, (-3.0, 3.0)), D),
                       (BoundaryCurve(BoundaryKind.PEANUT, (3.0, -3.0)), D)))
        msr = synthesize_msr(scene, medium, 8, 128)
        assert np.all(np.isfinite(msr.assembled()))
        assert msr.frobenius() > 0

    def test_norm_grows_with_obstacle_size(self, medium):
        small = synthesize_msr(one_scene(BoundaryKind.CIRCLE, D, rho=1.0), medium, 8, 128)
        big = synthesize_msr(one_scene(BoundaryKind.CIRCLE, D, rho=2.0), medium, 8, 256)
        assert big.frobenius() > small.frobenius()

    def test_reciprocity_small_case(self, medium):
        msr = synthesize_msr(one_scene(BoundaryKind.KITE, D), medium, 8, 256)
        m = msr.m
        sig = (np.arange(2 * m) + m) % (2 * m)
        nrm = msr.frobenius()
        assert np.abs(msr.f_pp - msr.f_pp[np.ix_(sig, sig)].T).max() < 1e-10 * nrm
        assert np.abs(msr.f_ss - msr.f_ss[np.ix_(sig, sig)].T).max() < 1e-10 * nrm
        assert np.abs(msr.f_ps - msr.f_sp[np.ix_(sig, sig)].T).max() < 1e-10 * nrm

    PEAK_N, PEAK_M = 64, 32          # A is 16 complex n x n arrays, the right-hand sides 8

    @classmethod
    def traced_synthesis(cls, medium, conditions, stages=None):
        """Traced peak of synthesize_msr on a two-component scene (n = 64, m = 32),
        in bytes above the traced memory before it.  Given a dict, stages receives
        the peak of each stage (span key) instead, the peak being reset at each."""
        n, m = cls.PEAK_N, cls.PEAK_M
        scene = Scene(((BoundaryCurve(BoundaryKind.KITE, (-3.0, 0.0)), conditions[0]),
                       (BoundaryCurve(BoundaryKind.CIRCLE, (3.0, 0.5), 0.8), conditions[1])))

        @contextlib.contextmanager
        def span(key):
            tracemalloc.reset_peak()
            yield
            stages[key] = tracemalloc.get_traced_memory()[1] - base

        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            synthesize_msr(scene, medium, m, n, **({} if stages is None else {"span": span}))
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()

    @pytest.mark.parametrize("conditions", [(D, N), (N, D)], ids=["dn", "nd"])
    def test_peak_memory_is_a_lu_and_one_rhs_block(self, medium, conditions):
        """Synthesis holds at most A (which its LU overwrites), one 2N x 4m
        right-hand-side block and temporaries of n x n size: the traced peak stays
        within 8 complex n x n arrays of 2 A + that block.  A kernel array kept
        next to A (16 more) or a second copy of the right-hand sides (8 more)
        breaks the bound."""
        n, m = self.PEAK_N, self.PEAK_M
        item = np.dtype(complex).itemsize
        unknowns = 2 * (2 * n)                                    # 2N
        bound = (2 * unknowns**2 + unknowns * 4 * m + 8 * n * n) * item
        peak = self.traced_synthesis(medium, conditions)
        assert peak <= bound, f"traced peak {peak} B above {bound} B"

    @pytest.mark.parametrize("conditions", [(D, N), (N, D)], ids=["dn", "nd"])
    def test_factorize_and_solve_peaks_hold_one_system_array(self, medium, conditions):
        """Traced peak of each stage, through synthesize_msr's span hook: the
        factorization stays within 4 complex n x n arrays of A (it reaches about
        2.3: the 1-norm's strip buffer and LAPACK's work arrays) and the solve
        within 8 of A + the right-hand-side block (it reaches about 6).  A float
        |A| for the 1-norm (8 more) breaks the first bound, and an LU copy beside
        A (16 more) breaks both."""
        n, m = self.PEAK_N, self.PEAK_M
        item = np.dtype(complex).itemsize
        unknowns = 2 * (2 * n)
        a, rhs, unit = unknowns**2 * item, unknowns * 4 * m * item, n * n * item
        peaks = {}
        self.traced_synthesis(medium, conditions, peaks)
        assert peaks["factorize_s"] <= a + 4 * unit, peaks
        assert peaks["solve_s"] <= a + rhs + 8 * unit, peaks

    @pytest.mark.parametrize("conditions", [(D, D), (D, N), (N, D), (N, N)],
                             ids=["dd", "dn", "nd", "nn"])
    def test_assembly_peak_holds_a_and_block_temporaries(self, medium, conditions):
        """Traced peak of the assembly stage: A and the n x n temporaries of one block
        at a time stay within 24 complex n x n arrays of A (they reach about 13.8,
        19.3, 17.4 and 22.3 for dd, dn, nd and nn).  A (N, N, 2, 2) kernel array
        beside A (16 more) breaks the bound."""
        n = self.PEAK_N
        item = np.dtype(complex).itemsize
        a, unit = (2 * (2 * n)) ** 2 * item, n * n * item
        peaks = {}
        self.traced_synthesis(medium, conditions, peaks)
        assert peaks["assemble_s"] <= a + 24 * unit, peaks


def traced_peak(fn, *args):
    """Traced peak of fn(*args) in bytes above the traced memory before it."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


class TestLoadAndNoisePeaks:
    """Traced peaks of load_msr and add_noise at m = 128 (the --small direction
    grid), on far-field-sized random data, in units of the 4m x 4m result."""

    M = 128

    @pytest.fixture(scope="class")
    def random_msr(self, msr_disk_m16):
        rng = np.random.default_rng(29)
        n = 4 * self.M
        full = 0.05 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        return replace(msr_disk_m16, m=self.M, full=full)

    def test_load_holds_the_bytes_the_numbers_and_one_offset_per_number(self, random_msr,
                                                                        tmp_path):
        """The file's bytes, the numbers, one int64 offset per number and a result's
        worth of temporaries (about 2.6 results above the bytes; a whole-file scan for
        separators, its filtered copy and whole-file token arrays reach 4.9)."""
        path = tmp_path / "r.msr"
        save_msr(random_msr, path)
        result = random_msr.full.nbytes
        peak = traced_peak(load_msr, path)
        assert peak <= path.stat().st_size + 3 * result, (peak, path.stat().st_size, result)

    def test_add_noise_holds_the_noise_buffer_that_becomes_the_result(self, random_msr):
        """One 4m x 4m buffer, which holds the normals and then the noisy operator, and
        block-sized temporaries (about 1.06 results; 4.1 with a normals array, its
        uniforms and separate noise and sum arrays)."""
        peak = traced_peak(add_noise, random_msr, 0.3, 1)
        assert peak <= 2 * random_msr.full.nbytes, peak


def one_shot_noise(msr, delta, seed):
    """add_noise with every array whole: 2n^2 Philox uniforms at once, their normals,
    R1 + i R2, and F + level N / ||N|| as one expression; the reference for the
    blockwise draw and the in-place scaling."""
    n = 4 * msr.m
    normals = ndtri(np.random.Generator(np.random.Philox(seed)).random(2 * n * n))
    noise = normals[:n * n].reshape(n, n) + 1j * normals[n * n:].reshape(n, n)
    return msr.full + delta * np.linalg.norm(msr.full) * noise / np.linalg.norm(noise)


class TestNoise:
    @pytest.mark.parametrize("seed", [0, 1, 11])
    def test_blockwise_draw_and_in_place_scaling_equal_the_one_shot_noise(self, msr_kite_m64,
                                                                        seed):
        # 4m = 256: 2 x 65536 normals, eight CHUNK_VALUES blocks of each part
        expected = one_shot_noise(msr_kite_m64, 0.3, seed)
        n = 4 * msr_kite_m64.m
        ahead = add_noise(msr_kite_m64, 0.3, seed,
                          draw_noise(seed, np.empty((n, n), dtype=complex))).full
        for got in (add_noise(msr_kite_m64, 0.3, seed).full, ahead):
            assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))

    def test_zero_delta_identity(self, msr_disk_m16):
        out = add_noise(msr_disk_m16, 0.0, seed=9)
        assert np.array_equal(out.assembled(), msr_disk_m16.assembled())

    @pytest.mark.parametrize("delta", [0.1, 0.3])
    def test_exact_relative_perturbation(self, msr_disk_m16, delta):
        out = add_noise(msr_disk_m16, delta, seed=4)
        rel = (np.linalg.norm(out.assembled() - msr_disk_m16.assembled())
               / np.linalg.norm(msr_disk_m16.assembled()))
        assert abs(rel - delta) < 1e-12

    def test_seed_determinism(self, msr_disk_m16):
        a = add_noise(msr_disk_m16, 0.2, seed=7).assembled()
        b = add_noise(msr_disk_m16, 0.2, seed=7).assembled()
        c = add_noise(msr_disk_m16, 0.2, seed=8).assembled()
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_negative_delta_rejected(self, msr_disk_m16):
        with pytest.raises(ValueError):
            add_noise(msr_disk_m16, -0.1, seed=1)

    @pytest.mark.parametrize("delta", [np.nan, np.inf])
    def test_non_finite_delta_rejected(self, msr_disk_m16, delta):
        with pytest.raises(ValueError, match="finite"):
            add_noise(msr_disk_m16, delta, seed=1)

    @pytest.mark.parametrize("level", [1e308, np.inf])
    def test_overflowing_noise_raises_numeric_error_without_warning(self, msr_disk_m16,
                                                                     level):
        # level 1e308: delta ||F|| is finite, the perturbed entries are not
        delta = min(level / np.linalg.norm(msr_disk_m16.full), 1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="overflows"):
                add_noise(msr_disk_m16, delta, seed=1)

    @pytest.mark.parametrize("delta", [1e308, np.float64(1e308)], ids=["float", "numpy"])
    def test_overflow_message_names_plain_numbers(self, msr_disk_m16, delta):
        with pytest.raises(NumericError) as info:
            add_noise(msr_disk_m16, delta, seed=1)
        assert str(info.value) == "noise of delta=1e+308 overflows: delta ||F|| = inf"

    @pytest.mark.parametrize("delta", [0.0, 0.1])
    @pytest.mark.parametrize("seed,message", [(-1, "need seed >= 0, got -1"),
                                              (1.5, "integer seed")])
    def test_bad_seed_rejected(self, msr_disk_m16, delta, seed, message):
        with pytest.raises(ValueError, match=message):
            add_noise(msr_disk_m16, delta, seed=seed)


def percent_rows(rows) -> bytes:
    """Row-by-row %-template writer: the reference for the MSR/1 data rows."""
    template = " ".join(["%.17g"] * rows.shape[1]) + "\n"
    return "".join(template % tuple(row) for row in rows.tolist()).encode()


def percent_msr(msr) -> bytes:
    """The whole MSR/1 file as the row-by-row writer produces it."""
    header = (f"#version=MSR/1\n#m={msr.m}\n#lambda={msr.lam!r}\n#mu={msr.mu!r}\n"
              f"#omega={msr.omega!r}\n#scene={msr.scene}\n#bc={msr.bc}\n"
              f"#delta={msr.delta!r}\n#seed={'none' if msr.seed is None else msr.seed}\n"
              f"#norm={msr.noise_norm}\n")
    if msr.retrieval is not None:
        header += f"#retrieval={msr.retrieval}\n"
    return header.encode() + percent_rows(np.ascontiguousarray(msr.full).view(float))


def chunked_rows(rows) -> bytes:
    """format_rows a chunk of rows at a time, as save_msr calls it."""
    step = max(1, CHUNK_VALUES // rows.shape[1])
    return b"".join(format_rows(rows[i:i + step]) for i in range(0, rows.shape[0], step))


def every_binade_rows() -> np.ndarray:
    """2**19 doubles of random bits, every binade and subnormals included, then 2**19
    spread over the array range (1e-6, 1e17): 1024 rows of 1024."""
    rng = np.random.default_rng(20261018)
    n = 2**19
    exponent = rng.integers(0, 2047, n, dtype=np.uint64)       # 0: subnormals
    bits = (rng.integers(0, 2, n, dtype=np.uint64) << np.uint64(63)) \
        | (exponent << np.uint64(52)) | rng.integers(0, 2**52, n, dtype=np.uint64)
    spread = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-6, 17, n)
    return np.concatenate([bits.view(np.float64), spread]).reshape(-1, 1024)


def edge_values() -> list[float]:
    vals = []
    for j in range(-8, 19):                       # 10**j and its neighbours
        p = float(f"1e{j}")
        vals += [p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)]
    vals += [
        2.0**53 - 2, 2.0**53, 2.0**53 + 2,
        9.9999999999999991e-06, 1.0000000000000001e-05,   # scientific / fixed at 1e-5
        99999999999999984.0, 1.0000000000000002e17,      # fixed / scientific at 1e17
        1e-14,                                            # 17 digits round up to 1e-14
        123456789012345.625, 1234567890123456.25,         # half-even ties: ...45.62, ...56.2
        1234567890123456.75, 0.30000000000000004,         # ... and ...56.8
        1.5, 0.5, 100.0, 1e16, 12345.0, 0.0001220703125,  # trailing zeros stripped
        9.9999999999999995e-07, 1e-7, 3.14e-100, 5e-324, 2.2250738585072014e-308,
        1.7976931348623157e308, 0.0, -0.0,
    ]
    return vals + [-v for v in vals]


class TestMsrNumberFormat:
    """format_rows writes exactly the bytes of "%.17g" % x."""

    def test_edge_table(self):
        vals = np.array(edge_values())
        assert format_rows(vals[None, :]) == percent_rows(vals[None, :])
        assert format_rows(vals[:, None]) == percent_rows(vals[:, None])

    def test_every_binade_and_the_fast_range(self):
        rows = every_binade_rows()
        assert format_rows(rows) == percent_rows(rows)

    def test_reciprocity_fill_zero_pattern(self, msr_disk_m16):
        # the retrieved operator of a quarter aperture: 56.25% exact zeros
        m = 32
        rng = np.random.default_rng(18)
        full = (rng.standard_normal((4 * m, 8 * m)) * 10.0 ** rng.uniform(-5, 16, (4 * m, 8 * m))
                ).view(complex)
        quarter = MaskSpec(arcs=((0.0, np.pi / 2),)).directions(m)
        filled = reciprocity_fill(apply_mask(replace(msr_disk_m16, m=m, full=full),
                                             quarter, np.ones(2 * m, bool)))
        rows = filled.data.view(float)
        assert rows.size >= 2 * CHUNK_VALUES and np.mean(rows == 0) == 0.5625
        assert chunked_rows(rows) == percent_rows(rows)

    def test_whole_chunks_of_signed_zeros(self):
        rng = np.random.default_rng(7)
        width = 256
        rows = rng.standard_normal((5 * CHUNK_VALUES // width, width))
        zeros = slice(CHUNK_VALUES // width, 3 * CHUNK_VALUES // width)   # chunks 2 and 3
        rows[zeros] = np.where(rng.integers(0, 2, rows[zeros].shape) == 1, -0.0, 0.0)
        assert np.signbit(rows[zeros]).any() and not np.signbit(rows[zeros]).all()
        assert chunked_rows(rows) == percent_rows(rows)

    def test_signed_zeros_beside_per_value_values(self):
        slow = [5e-324, -5e-324, 1e-300, -1e-300, 1e17, -1e17, np.nan, np.inf, -np.inf]
        vals = np.array([v for s in slow for v in (0.0, s, -0.0)] + [1.5, -0.0, 0.0])
        no_fast = vals[:-3].reshape(-1, 3)              # no value in (1e-6, 1e17)
        for rows in (vals[None, :], vals[:, None], no_fast):
            assert format_rows(rows) == percent_rows(rows)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                              st.floats(1e-7, 1e18), st.floats(-1e18, -1e-7),
                              st.sampled_from([0.0, -0.0])),
                    min_size=1, max_size=48))
    def test_matches_percent_format(self, values):
        vals = np.array(values)
        for rows in (vals[None, :], vals[:, None]):
            assert format_rows(rows) == percent_rows(rows)


# A small MSR/1 file (m=1: four data rows of eight numbers, lines 11-14) and the
# table of what load_msr gives for edits of it: the bits of the number edited in
# (first number of line 13) or the exception and its message.
CONTRACT_HEADER = ("#version=MSR/1\n#m=1\n#lambda=1.0\n#mu=1.0\n#omega=3.0\n"
                   "#scene=circle@(0.0,0.0)*1.0\n#bc=dirichlet\n#delta=0.0\n#seed=none\n"
                   "#norm=frobenius\n")
CONTRACT_ROWS = ["0.5 -1.25 2 3 4 5 6 7", "-0 0 1e-7 1.5e17 8 9 10 11",
                 "12 13 14 15 16 17 18 19", "0.25 0.125 20 21 22 23 24 25"]


def contract_file(token=None, row=None, line=None, text=None) -> bytes:
    """The contract file with its line 13 starting with token, or with line 13 (and
    line 14 where row/line are pairs) replaced, or text as edited."""
    rows = list(CONTRACT_ROWS)
    if token is not None:
        rows[2] = token + rows[2][rows[2].index(" "):]
    if row is not None:
        rows[2] = row
    body = CONTRACT_HEADER + "".join(r + "\n" for r in rows)
    if line is not None:
        body = body.replace(rows[3] + "\n", rows[3] + "\n" + line + "\n")
    return text(body).encode("utf-8", "surrogateescape") if text else body.encode("utf-8")


def _bad(kind, line=13):
    return MsrFormatError, f"line {line}: {kind}"


CONTRACT = {
    # any spelling float() reads gives float()'s bits
    "exponent": (contract_file("1e5"), 1e5),
    "exponent-upper": (contract_file("1E5"), 1e5),
    "plus-sign": (contract_file("+1.5"), 1.5),
    "no-integer-digits": (contract_file(".5"), 0.5),
    "no-fraction-digits": (contract_file("5."), 5.0),
    "underscore": (contract_file("1_0"), 10.0),
    "fullwidth-digit": (contract_file("\uff11"), 1.0),
    "negative-zero": (contract_file("-0"), -0.0),
    "underflow": (contract_file("0.1e-400"), 0.0),
    "beyond-17-digits": (contract_file("1.00000000000000000000001"), 1.0),
    "canonical-17-digits": (contract_file("0.30000000000000004"), 0.30000000000000004),
    "blank-line-skipped": (contract_file(text=lambda t: t.replace("\n12 ", "\n\n12 ")), 12.0),
    "comment-line-between-rows": (
        contract_file(text=lambda t: t.replace("\n12 ", "\n#note=between rows\n12 ")), 12.0),
    "no-final-newline": (contract_file(text=lambda t: t.rstrip("\n")), 12.0),
    # faults of one line
    "nan": (contract_file("nan"), _bad("non-finite entry")),
    "inf": (contract_file("inf"), _bad("non-finite entry")),
    "overflow": (contract_file("1e400"), _bad("non-finite entry")),
    "hexadecimal": (contract_file("0x10"), _bad("non-numeric entry")),
    "empty-token": (contract_file(row="12  14 15 16 17 18 19"), _bad("non-numeric entry")),
    "double-space": (contract_file(row="12  13 14 15 16 17 18 19"),
                     _bad("odd number of fields")),
    "trailing-space": (contract_file(row="12 13 14 15 16 17 18 19 "),
                       _bad("odd number of fields")),
    "tab": (contract_file(row="12\t13 14 15 16 17 18 19"), _bad("odd number of fields")),
    # a key given twice, even after the data rows, is an error, not the last one winning
    "repeated-key": (contract_file(line="#m=2"),
                     (MsrFormatError, "line 15: repeated header key 'm'")),
    "header-without-equals": (contract_file(line="#note"),
                              (MsrFormatError, "line 15: malformed header '#note'")),
    "non-utf8-byte": (contract_file(text=lambda t: t.replace("\n12 ", "\n\udcff12 ")),
                      (MsrFormatError, "not UTF-8 text: invalid start byte")),
    # the earliest faulty line is named, whatever its fault
    "two-faulty-lines": (contract_file(row="12 13 14 15 16 17 18 nan",
                                       text=lambda t: t.replace("0.125 20", "0.125  20")),
                         _bad("non-finite entry")),
    "two-faulty-lines-header-last": (contract_file("x", line="#bad"),
                                     _bad("non-numeric entry")),
    "two-faulty-lines-header-first": (
        contract_file("x", text=lambda t: t.replace("\nx ", "\n#bad\nx ")),
        (MsrFormatError, "line 13: malformed header '#bad'")),
    "dimension": (contract_file(text=lambda t: t.replace("#m=1", "#m=2")),
                  (MsrDimensionError, "expected 8 rows of 8 entries for m=2, got 4 rows "
                                      "of lengths [4]")),
    "version": (contract_file(text=lambda t: t.replace("MSR/1", "MSR/2")),
                (MsrVersionError, "unsupported version 'MSR/2'")),
}


class TestMsrPersistence:
    @pytest.mark.parametrize("row", sorted(CONTRACT))
    def test_contract_table(self, tmp_path, row):
        data, expected = CONTRACT[row]
        path = tmp_path / "c.msr"
        path.write_bytes(data)
        if isinstance(expected, tuple):
            kind, message = expected
            with pytest.raises(kind) as info:
                load_msr(path)
            assert type(info.value) is kind and str(info.value) == message
        else:
            got = load_msr(path).full.view(float)[2, 0]
            assert np.float64(got).view(np.int64) == np.float64(expected).view(np.int64)

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_contract_line_ends(self, tmp_path, newline):
        path = tmp_path / "c.msr"
        path.write_bytes(contract_file())
        plain = load_msr(path)
        path.write_bytes(contract_file().replace(b"\n", newline.encode()))
        other = load_msr(path)
        assert replace(other, full=plain.full) == replace(plain, full=plain.full)
        assert (other.scene, other.bc, other.noise_norm) == (
            "circle@(0.0,0.0)*1.0", "dirichlet", "frobenius")
        assert np.array_equal(other.full.view(np.int64), plain.full.view(np.int64))

    @pytest.mark.parametrize("name", ["msr_disk_m16", "msr_kite_m64_noisy"])
    def test_bytes_equal_row_by_row_writer(self, request, tmp_path, name):
        msr = request.getfixturevalue(name)
        path = tmp_path / "x.msr"
        save_msr(msr, path)
        assert path.read_bytes() == percent_msr(msr)

    def test_numpy_scalars_write_the_bytes_of_python_floats(self, tmp_path):
        """Lame constants, frequency, scene and delta given as numpy scalars give
        the headers of the same Python floats, which load_msr reads."""
        def noisy(num):
            scene = Scene(((BoundaryCurve(BoundaryKind.KITE, (num(0.5), num(-0.25)), num(1.0)),
                            D),))
            clean = synthesize_msr(scene, Medium(num(1.0), num(1.0), num(np.pi)), 8, 64)
            return add_noise(clean, num(0.1), 3)

        plain, numpy_ = tmp_path / "plain.msr", tmp_path / "numpy.msr"
        save_msr(noisy(float), plain)
        save_msr(noisy(np.float64), numpy_)
        assert numpy_.read_bytes() == plain.read_bytes()
        back = load_msr(numpy_)
        assert (back.lam, back.mu, back.omega, back.delta, back.scene) == (
            1.0, 1.0, np.pi, 0.1, "kite@(0.5,-0.25)*1.0")

    def test_retrieval_header_loads_verbatim(self, msr_disk_m16, tmp_path):
        # the tag of reciprocity fill, and one of a ball extrapolation (R=, nB=, alpha=)
        path = tmp_path / "r.msr"
        for tag in ("reciprocity", "R=5.0 nB=256 alpha=auto(delta=0.1)"):
            path.write_bytes(percent_msr(replace(msr_disk_m16, retrieval=tag)))
            assert load_msr(path).retrieval == tag

    def test_round_trip_is_byte_stable_with_signed_zeros(self, msr_disk_m16, tmp_path):
        full = np.zeros((8, 8), complex)
        full.real[0, 0], full.imag[0, 0] = -0.0, 1.0
        full.real[1, 2], full.imag[1, 2] = 2.5, -0.0
        full.real[3, 3], full.imag[3, 3] = -0.0, -0.0
        full[4] = msr_disk_m16.full[4, :8]
        msr = replace(msr_disk_m16, m=2, full=full)
        first, second = tmp_path / "a.msr", tmp_path / "b.msr"
        save_msr(msr, first)
        back = load_msr(first)
        save_msr(back, second)
        assert second.read_bytes() == first.read_bytes()
        assert np.array_equal(np.signbit(back.full.view(float)), np.signbit(full.view(float)))
        assert np.array_equal(back.full, full)

    def test_non_contiguous_full_is_written_by_value(self, msr_kite_m64_noisy, tmp_path):
        transposed = msr_kite_m64_noisy.full.T
        assert not transposed.flags.c_contiguous
        path = tmp_path / "t.msr"
        save_msr(replace(msr_kite_m64_noisy, full=transposed), path)
        assert path.read_bytes() == percent_msr(
            replace(msr_kite_m64_noisy, full=transposed.copy()))
        assert np.array_equal(load_msr(path).full, transposed)

    def test_round_trip_value_exact(self, msr_disk_m16, tmp_path):
        noisy = add_noise(msr_disk_m16, 0.1, seed=2)
        path = tmp_path / "disk.msr"
        save_msr(noisy, path)
        back = load_msr(path)
        assert np.array_equal(back.assembled(), noisy.assembled())
        assert back.m == noisy.m and back.delta == noisy.delta and back.seed == 2
        assert back.scene == noisy.scene and back.omega == noisy.omega

    def test_truncated_line_names_offender(self, msr_disk_m16, tmp_path):
        path = tmp_path / "x.msr"
        save_msr(msr_disk_m16, path)
        lines = path.read_text().splitlines()
        lines[12] = lines[12].rsplit(" ", 1)[0]     # drop one number: odd field count
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MsrFormatError, match="line 13"):
            load_msr(path)

    def test_missing_rows_dimension_error(self, msr_disk_m16, tmp_path):
        path = tmp_path / "x.msr"
        save_msr(msr_disk_m16, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-4]) + "\n")
        with pytest.raises(MsrDimensionError):
            load_msr(path)

    def test_header_data_mismatch_dimension_error(self, msr_disk_m16, tmp_path):
        path = tmp_path / "x.msr"
        save_msr(msr_disk_m16, path)
        text = path.read_text().replace("#m=16", "#m=8")
        path.write_text(text)
        with pytest.raises(MsrDimensionError):
            load_msr(path)

    def test_version_mismatch(self, msr_disk_m16, tmp_path):
        path = tmp_path / "x.msr"
        save_msr(msr_disk_m16, path)
        path.write_text(path.read_text().replace("MSR/1", "MSR/9"))
        with pytest.raises(MsrVersionError):
            load_msr(path)

    def test_non_numeric_entry(self, msr_disk_m16, tmp_path):
        path = tmp_path / "x.msr"
        save_msr(msr_disk_m16, path)
        lines = path.read_text().splitlines()
        parts = lines[11].split(" ")
        parts[3] = "bogus"
        lines[11] = " ".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MsrFormatError, match="line 12"):
            load_msr(path)

    @pytest.mark.parametrize("old, new, key", [
        ("#lambda=1.0", "#lambda=abc", "lambda"),
        ("#mu=1.0", "#mu=one", "mu"),
        ("#omega=", "#omega=fast", "omega"),
        ("#delta=0.0", "#delta=?", "delta"),
        ("#seed=none", "#seed=x", "seed"),
        ("#m=16", "#m=16.5", "m"),
    ])
    def test_unparsable_header_names_key(self, msr_disk_m16, tmp_path, old, new, key):
        path = tmp_path / "x.msr"
        save_msr(msr_disk_m16, path)
        lines = path.read_text().splitlines()
        lines = [new if line.startswith(old) else line for line in lines]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MsrFormatError, match=f"bad {key} header"):
            load_msr(path)

    def test_medium_rejected_header_is_format_error(self, msr_disk_m16, tmp_path):
        path = tmp_path / "x.msr"
        save_msr(msr_disk_m16, path)
        path.write_text(path.read_text().replace("#mu=1.0", "#mu=-1.0"))
        with pytest.raises(MsrFormatError, match="mu > 0"):
            load_msr(path)

    def test_header_only_m_zero_is_format_error(self, msr_disk_m16, tmp_path):
        path = tmp_path / "x.msr"
        save_msr(msr_disk_m16, path)
        header = [line for line in path.read_text().splitlines() if line.startswith("#")]
        path.write_text("\n".join(h.replace("#m=16", "#m=0") for h in header) + "\n")
        with pytest.raises(MsrFormatError, match="m >= 1"):
            load_msr(path)


def read_both(path):
    """(load_msr, reference reader) outcomes: the header fields and the bits of every
    number, or the exception type and message."""
    results = []
    for reader in (load_msr, reference_load_msr):
        try:
            msr = reader(path)
        except MsrFormatError as exc:
            results.append((type(exc), str(exc)))
        else:
            results.append(({f.name: getattr(msr, f.name) for f in fields(msr) if f.name != "full"},
                            msr.full.view(np.int64).tobytes()))
    return results


def spelled(value: float, form: int) -> str:
    """value in one of the spellings float() reads: canonical, shorter, fixed,
    scientific, with a plus sign, leading zeros or a bare point."""
    sign = "-" if np.signbit(value) else ""
    mag = abs(value)
    if form == 0:
        return "%.17g" % value
    if form == 1:
        return repr(value)
    if form == 2:
        return "%.12g" % value
    if form == 3 and mag < 1e8:
        return "%.*f" % (22 - len("%d" % mag), value)   # 22 or 23 digits in all
    if form == 4:
        return "%.16E" % value
    if form == 5:
        return sign + "00" + "%.17g" % mag
    if form == 6:
        return ("-" if sign else "+") + "%.17g" % mag
    if form == 7 and mag < 1:
        return sign + ("%.17f" % mag)[1:]        # no digit before the point
    if form == 8 and mag < 1e15:
        return sign + "%d." % mag                # no digit after the point
    return "%.17g" % value


class TestMsrReader:
    """load_msr reads each file to the bits and messages of the reference reader."""

    @staticmethod
    def file_of(msr, values, path):
        """An MSR/1 file of the values, then zeros, at the least m that holds them."""
        m = max(1, int(np.ceil(np.sqrt(len(values) / 32))))
        vals = np.zeros(32 * m * m)
        vals[:len(values)] = values
        save_msr(replace(msr, m=m, full=vals.view(complex).reshape(4 * m, 4 * m)), path)
        return path

    @staticmethod
    def assert_round_trip(path, values):
        """load_msr gives the values written and the reference bits; saving what it
        loaded writes the same bytes."""
        ours, reference = read_both(path)
        assert ours == reference
        back = load_msr(path)
        flat = back.full.view(np.float64).ravel()
        assert np.array_equal(flat[:len(values)].view(np.int64),
                              np.asarray(values, np.float64).view(np.int64))
        again = path.with_suffix(".again")
        save_msr(back, again)
        assert again.read_bytes() == path.read_bytes()

    def test_every_binade_and_the_fast_range(self, msr_disk_m16, tmp_path):
        rows = every_binade_rows()[::8, :256].copy()     # half random bits, half spread
        path = tmp_path / "binades.msr"
        save_msr(replace(msr_disk_m16, m=32, full=rows.view(complex)), path)
        self.assert_round_trip(path, rows.ravel())

    def test_edge_values(self, msr_disk_m16, tmp_path):
        vals = edge_values()
        self.assert_round_trip(self.file_of(msr_disk_m16, vals, tmp_path / "edge.msr"), vals)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                                        st.floats(1e-7, 1e18), st.floats(-1e4, 1e4),
                                        st.integers(2**53, 10**17 - 1).map(float),
                                        st.sampled_from([0.0, -0.0, 0.5, 1e16, 2.0**53 + 2])),
                              st.integers(0, 8)),
                    min_size=32, max_size=32))
    def test_spellings(self, tmp_path_factory, msr_disk_m16, pairs):
        tokens = [spelled(v, form) for v, form in pairs]
        path = tmp_path_factory.getbasetemp() / "spellings.msr"
        rows = [" ".join(tokens[i:i + 8]) for i in range(0, 32, 8)]
        path.write_text(CONTRACT_HEADER + "".join(r + "\n" for r in rows))
        ours, reference = read_both(path)
        assert ours == reference
        values = [float(t) for t in tokens]
        assert load_msr(path).full.view(np.float64).ravel().tolist() == values
        self.assert_round_trip(self.file_of(msr_disk_m16, values, path.with_suffix(".17g")),
                               values)

    @pytest.mark.parametrize("pad", [0, 9000])
    @pytest.mark.parametrize("bad_line, message", [
        (12, "line 12: non-numeric entry"),
        (15, "not UTF-8 text: invalid start byte"),
    ])
    def test_fault_before_a_non_utf8_byte(self, tmp_path, bad_line, message, pad):
        """Of a faulty line and a byte that is not UTF-8 (line 14), the earlier is
        named, whether the two lie within one text decoder's chunk (8 KiB) or not."""
        lines = contract_file().decode().splitlines()
        lines[12:12] = ["#pad=" + "p" * pad]            # line 13; data on 11, 12, 14, 15
        lines[13] = "\udcff" + lines[13]
        lines[bad_line - 1] = "x" + lines[bad_line - 1]
        path = tmp_path / "both.msr"
        path.write_bytes("\n".join(lines).encode("utf-8", "surrogateescape"))
        ours, reference = read_both(path)
        assert ours == reference == (MsrFormatError, message)

    # (kind, position, text): overwrite one character, insert text, or cut the file
    # there; "\udcff" is written as the byte 0xff, which is not UTF-8
    EDITS = st.lists(st.tuples(st.sampled_from(("set", "insert", "truncate")),
                               st.integers(min_value=0),
                               st.text(" \n\r\t#=.-+e0123456789x\uff11\xa0\udcff",
                                       min_size=1, max_size=3)),
                     min_size=1, max_size=3)

    @settings(max_examples=80, deadline=None)
    @given(edits=EDITS)
    def test_edited_files(self, tmp_path_factory, edits):
        data = contract_file().decode()
        for kind, pos, new in edits:
            pos %= len(data) + 1
            if kind == "set":
                data = data[:pos] + new[:1] + data[pos + 1:]
            elif kind == "insert":
                data = data[:pos] + new + data[pos:]
            else:
                data = data[:pos]
        path = tmp_path_factory.getbasetemp() / "edited.msr"
        path.write_bytes(data.encode("utf-8", "surrogateescape"))
        ours, reference = read_both(path)
        assert ours == reference
