import numpy as np
import pytest

from elastoscan.elastic import (
    Medium,
    PlaneWave,
    PointSource,
    WaveMode,
    greens_tensor,
    perp,
    plane_wave_field,
    plane_wave_traction,
    point_source_farfield,
    traction_tensor,
)
from oracles import central_diff


def fd_traction(field, x, nu, medium, h=1e-5):
    """T_nu of a vector field at x by central differences."""
    grad = central_diff(field, x, h)          # grad[k, i] = d_k u_i
    div = grad[0, ..., 0] + grad[1, ..., 1]
    divp = grad[0, ..., 1] - grad[1, ..., 0]  # d1 u2 - d2 u1
    nu = np.asarray(nu, float)
    nup = perp(nu)
    return (2 * medium.mu * (nu[0] * grad[0] + nu[1] * grad[1])
            + medium.lam * div * nu - medium.mu * divp * nup)


class TestMedium:
    def test_paper_wave_numbers(self):
        med = Medium(1.0, 1.0, 8 * np.pi)
        kp, ks = med.k_p, med.k_s
        assert kp == pytest.approx(14.510394913873714, abs=1e-12)
        assert ks == pytest.approx(25.132741228718345, abs=1e-12)

    def test_trivial_wave_numbers(self):
        for med, expect in ((Medium(0.0, 1.0, 1.0), (1 / np.sqrt(2), 1.0)),
                            (Medium(2.0, 1.0, 2.0), (1.0, 2.0))):
            assert (med.k_p, med.k_s) == pytest.approx(expect)

    def test_ks_exceeds_kp(self):
        med = Medium(1.0, 1.0, 8 * np.pi)
        assert med.k_s / med.k_p == pytest.approx(np.sqrt(3.0), rel=1e-14)

    @pytest.mark.parametrize("lam,mu,om", [(1.0, -1.0, 1.0), (-3.0, 1.0, 1.0),
                                           (1.0, 1.0, 0.0), (1.0, 1.0, -2.0)])
    def test_invalid_media_rejected(self, lam, mu, om):
        with pytest.raises(ValueError):
            Medium(lam, mu, om)


class TestPlaneWave:
    def test_p_at_origin(self):
        med = Medium(1.0, 1.0, 2.0)
        w = PlaneWave(WaveMode.P, (1.0, 0.0))
        assert np.allclose(plane_wave_field(w, np.zeros(2), med), [1.0, 0.0])

    def test_s_at_origin(self):
        med = Medium(1.0, 1.0, 2.0)
        w = PlaneWave(WaveMode.S, (1.0, 0.0))
        assert np.allclose(plane_wave_field(w, np.zeros(2), med), [0.0, 1.0])

    def test_nonunit_direction_rejected(self):
        with pytest.raises(ValueError):
            PlaneWave(WaveMode.P, (1.0, 1.0))

    def test_p_wave_is_curl_free_helmholtz(self):
        med = Medium(1.0, 1.0, 2.0)
        w = PlaneWave(WaveMode.P, (0.6, 0.8))
        h = 1e-4
        f = lambda y: plane_wave_field(w, y, med)
        rng = np.random.RandomState(8)
        for x in [np.array([0.3, 0.7])] + list(rng.uniform(-2, 2, (10, 2))):
            grad = central_diff(f, x, h)
            divp = grad[0, 1] - grad[1, 0]
            assert abs(divp) < 1e-6
        x = np.array([0.3, 0.7])
        e = np.eye(2)
        lap = sum(f(x + h * e[k]) + f(x - h * e[k]) for k in range(2)) - 4 * f(x)
        assert np.linalg.norm(lap / h**2 + med.k_p**2 * f(x)) < 1e-6 * med.k_p**2

    def test_s_wave_is_divergence_free(self):
        med = Medium(1.0, 1.0, 2.0)
        rng = np.random.RandomState(3)
        w = PlaneWave(WaveMode.S, (0.0, 1.0))
        for _ in range(10):
            x = rng.uniform(-2, 2, 2)
            grad = central_diff(lambda y: plane_wave_field(w, y, med), x, 1e-5)
            assert abs(grad[0, 0] + grad[1, 1]) < 1e-6


class TestPlaneWaveTraction:
    def test_p_closed_form_along_normal(self):
        med = Medium(1.3, 0.9, 2.0)
        d = np.array([0.6, 0.8])
        w = PlaneWave(WaveMode.P, tuple(d))
        got = plane_wave_traction(w, np.zeros(2), d, med)
        assert np.allclose(got, 1j * med.k_p * (med.lam + 2 * med.mu) * d)

    def test_s_closed_form_along_normal(self):
        med = Medium(1.3, 0.9, 2.0)
        d = np.array([0.6, 0.8])
        w = PlaneWave(WaveMode.S, tuple(d))
        got = plane_wave_traction(w, np.zeros(2), d, med)
        assert np.allclose(got, 1j * med.k_s * med.mu * perp(d))

    @pytest.mark.parametrize("mode", [WaveMode.P, WaveMode.S])
    def test_matches_finite_difference(self, mode):
        med = Medium(1.0, 1.0, 2.0)
        d = np.array([np.cos(0.4), np.sin(0.4)])
        nu = np.array([np.cos(1.9), np.sin(1.9)])
        x = np.array([0.2, -0.7])
        w = PlaneWave(mode, tuple(d))
        got = plane_wave_traction(w, x, nu, med)
        ref = fd_traction(lambda y: plane_wave_field(w, y, med), x, nu, med)
        assert np.linalg.norm(got - ref) < 1e-6


class TestGreensTensor:
    def test_symmetry(self):
        med = Medium(1.0, 1.0, 2.0)
        x, y = np.array([1.0, 0.0]), np.array([0.0, 0.5])
        gxy = greens_tensor(x, y, med)
        gyx = greens_tensor(y, x, med)
        assert np.allclose(gxy, gyx, atol=1e-12)
        assert np.allclose(gxy, gxy.T, atol=1e-12)

    def test_singular_at_coincidence(self):
        med = Medium(1.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            greens_tensor(np.ones(2), np.ones(2), med)

    def test_navier_residual(self):
        med = Medium(1.0, 1.0, 2.0)
        x, y = np.array([2.0, 1.0]), np.zeros(2)
        q = np.array([1.0, 0.0])
        h = 1e-3
        f = lambda z: greens_tensor(z, y, med) @ q
        e = np.eye(2)
        lap = sum(f(x + h * e[k]) + f(x - h * e[k]) for k in range(2)) - 4 * f(x)
        lap /= h**2
        div = lambda z: central_diff(f, z, h)[[0, 1], [0, 1]].sum()
        graddiv = central_diff(div, x, h)
        res = med.mu * lap + (med.lam + med.mu) * graddiv + med.omega**2 * f(x)
        assert np.linalg.norm(res) < 1e-4 * np.linalg.norm(med.omega**2 * f(x))

    def test_farfield_consistency_at_large_range(self):
        """Phi(x,0)q matches the radiating expansion built from the point-source
        far fields, with prefactor (k^2/w^2) e^{i pi/4} / sqrt(8 pi k) per mode."""
        med = Medium(1.0, 1.0, 8 * np.pi)
        q = np.array([0.3, np.sqrt(1 - 0.09)])
        xhat = np.array([np.cos(0.7), np.sin(0.7)])
        r = 200.0
        lhs = greens_tensor(r * xhat, np.zeros(2), med) @ q
        fp, fs = point_source_farfield(xhat, np.zeros(2), q, med)
        pref = lambda k: (k**2 / med.omega**2) * np.exp(1j * np.pi / 4) / np.sqrt(8 * np.pi * k)
        rhs = (pref(med.k_p) * np.exp(1j * med.k_p * r) / np.sqrt(r) * fp * xhat
               + pref(med.k_s) * np.exp(1j * med.k_s * r) / np.sqrt(r) * fs * perp(xhat))
        assert np.linalg.norm(lhs - rhs) <= 1e-3 * np.linalg.norm(lhs)

    def test_kupradze_decay_exponent(self):
        med = Medium(1.0, 1.0, 8 * np.pi)
        xhat = np.array([np.cos(0.3), np.sin(0.3)])
        radii = np.geomspace(10, 1000, 25)
        vals = [np.linalg.norm(greens_tensor(r * xhat, np.zeros(2), med) @ xhat)
                for r in radii]
        slope = np.polyfit(np.log(radii), np.log(vals), 1)[0]
        assert abs(slope + 0.5) < 0.05


class TestGreensTractionKernel:
    def test_matches_finite_difference(self):
        med = Medium(1.0, 1.0, 2.0)
        x, y = np.array([1.0, 1.0]), np.zeros(2)
        nu = np.array([0.0, 1.0])
        # the traction of Phi(x, y) in y is -M(x - y, nu): compare it column by
        # column with a finite-difference traction in y
        got = -traction_tensor(x - y, nu, med)
        cols = []
        for j in range(2):
            e = np.zeros(2)
            e[j] = 1.0
            cols.append(fd_traction(lambda z: greens_tensor(x, z, med) @ e, y, nu, med))
        ref = np.stack(cols, axis=-1)
        assert np.linalg.norm(got - ref) < 1e-5

    def test_farfield_amplitude_ratio(self):
        med = Medium(1.0, 1.0, 8 * np.pi)
        xhat = np.array([1.0, 0.0])
        nu = np.array([1.0, 0.0])
        v100 = np.linalg.norm(traction_tensor(100.0 * xhat, nu, med) @ xhat)
        v400 = np.linalg.norm(traction_tensor(400.0 * xhat, nu, med) @ xhat)
        assert abs(v400 / v100 - 0.5) < 0.1

    def test_zero_frequency_guarded(self):
        with pytest.raises(ValueError):
            Medium(1.0, 1.0, 0.0)


class TestPointSourceFarfield:
    def test_origin_source_is_real_projection(self):
        med = Medium(1.0, 1.0, 2.0)
        xhat = np.array([np.cos(1.1), np.sin(1.1)])
        q = np.array([0.0, 1.0])
        fp, fs = point_source_farfield(xhat, np.zeros(2), q, med)
        assert fp == pytest.approx(xhat @ q)

    def test_s_component_perp_projection(self):
        med = Medium(1.0, 1.0, 2.0)
        fp, fs = point_source_farfield(np.array([1.0, 0.0]), np.zeros(2),
                                       np.array([0.0, 1.0]), med)
        assert fs == pytest.approx(1.0)

    def test_magnitude_independent_of_source_point(self):
        med = Medium(1.0, 1.0, 2.0)
        xhat = np.array([np.cos(0.2), np.sin(0.2)])
        q = np.array([1.0, 0.0])
        mags = [abs(point_source_farfield(xhat, y, q, med)[0])
                for y in (np.zeros(2), np.array([3.0, -1.0]), np.array([-5.0, 2.0]))]
        assert np.allclose(mags, abs(xhat @ q), atol=1e-14)

    def test_point_source_traction_matches_fd(self):
        med = Medium(1.0, 1.0, 2.0)
        src = PointSource((0.1, -0.2), (0.6, 0.8))
        x = np.array([1.4, 0.9])
        nu = np.array([np.cos(0.5), np.sin(0.5)])
        got = src.traction(x, nu, med)
        ref = fd_traction(lambda z: src.field(z, med), x, nu, med)
        assert np.linalg.norm(got - ref) < 1e-5


class TestKernelBesselSource:
    """The real-argument packs against the same radial formulas on AMOS Bessel values."""

    @staticmethod
    def amos_packs():
        from oracles import bessel_j, hankel1

        def hankel(r, med):
            zs, zp = med.k_s * r, med.k_p * r
            return hankel1(0, zs), hankel1(1, zs), hankel1(0, zp), hankel1(1, zp)

        def logcoef(r, med):
            zs, zp = med.k_s * r, med.k_p * r
            c = 1j / np.pi
            return (c * bessel_j(0, zs), c * bessel_j(1, zs),
                    c * bessel_j(0, zp), c * bessel_j(1, zp))

        return hankel, logcoef

    @pytest.mark.parametrize("omega", [8 * np.pi, 4 * np.pi])
    def test_green_and_traction_match_amos(self, omega):
        from elastoscan.elastic import (green_of_w, green_radial, hankel_pack, logcoef_pack,
                                        traction_of_green, traction_radial)

        med = Medium(1.0, 1.0, omega)
        rng = np.random.default_rng(7)
        r = rng.uniform(0.01, 12.0, 4000)
        a, b = rng.uniform(0.0, 2 * np.pi, (2, 4000))
        w = r[:, None] * np.stack([np.cos(a), np.sin(a)], axis=-1)
        r = np.linalg.norm(w, axis=-1)
        nu = np.stack([np.cos(b), np.sin(b)], axis=-1)
        for pack, amos in zip((hankel_pack, logcoef_pack), self.amos_packs()):
            ours, theirs = pack(r, med), amos(r, med)
            green = [green_of_w(w, r, green_radial(r, p, med)) for p in (ours, theirs)]
            traction = [traction_of_green(w, r, nu, traction_radial(r, p, med), med)
                        for p in (ours, theirs)]
            for got, ref in (green, traction):
                assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_package_imports_no_complex_argument_bessel(self):
        import ast
        import pathlib

        import elastoscan

        names = set()
        for path in pathlib.Path(elastoscan.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom):
                    names.update(alias.name for alias in node.names)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
        assert not names & {"hankel1", "jv"}
