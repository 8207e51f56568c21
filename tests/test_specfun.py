import numpy as np
import pytest

from elastoscan.elastic import Medium
from oracles import (bessel_j, bessel_j_series, circular_harmonic, funk_hecke_rhs, hankel1,
                     hankel1_series)

GAMMA = np.sqrt(1.0 / (2.0 * np.pi))


class TestBesselJ:
    def test_at_zero(self):
        assert bessel_j(0, 0.0) == 1.0
        assert bessel_j(1, 0.0) == 0.0

    def test_frozen_value_at_one(self):
        # frozen from the power-series oracle
        assert abs(bessel_j(0, 1.0) - 0.765197686557967) < 1e-12

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    @pytest.mark.parametrize("x", [0.25, 1.0, 7.5, 42.0, 200.0, 500.0])
    def test_against_series_oracle(self, order, x):
        assert abs(bessel_j(order, x) - bessel_j_series(order, x)) < 1e-12

    def test_bounded_by_one(self):
        x = np.linspace(0, 400, 2000)
        for order in range(4):
            assert np.all(np.abs(bessel_j(order, x)) <= 1.0 + 1e-15)

    def test_negative_argument_rejected(self):
        with pytest.raises(ValueError):
            bessel_j(0, -1.0)

    def test_order_out_of_range(self):
        with pytest.raises(ValueError):
            bessel_j(4, 1.0)


class TestHankel1:
    def test_frozen_value_at_one(self):
        val = hankel1(0, 1.0)
        assert abs(val - (0.765197686557967 + 0.088256964215677j)) < 1e-12

    @pytest.mark.parametrize("order", [0, 1])
    @pytest.mark.parametrize("x", [1e-6, 0.1, 1.0, 25.0, 500.0])
    def test_against_series_oracle(self, order, x):
        ref = hankel1_series(order, x)
        assert abs(hankel1(order, x) - ref) <= 1e-10 * abs(ref)

    def test_derivative_identity(self):
        # d/dx H0 = -H1, by central difference at x = 2
        h = 1e-6
        fd = (hankel1(0, 2.0 + h) - hankel1(0, 2.0 - h)) / (2 * h)
        assert abs(fd + hankel1(1, 2.0)) < 1e-6

    def test_wronskian(self):
        x = 3.0
        j0, j1 = bessel_j(0, x), bessel_j(1, x)
        y0, y1 = hankel1(0, x).imag, hankel1(1, x).imag
        assert abs(j1 * y0 - j0 * y1 - 2.0 / (np.pi * x)) < 1e-10

    def test_large_argument_asymptotics(self):
        x = 200.0
        ref = np.sqrt(2.0 / (np.pi * x)) * np.exp(1j * (x - np.pi / 4))
        val = hankel1(0, x)
        assert abs(val - ref) <= 2e-3 * abs(val)

    @pytest.mark.parametrize("x", [0.0, -2.0])
    def test_nonpositive_rejected(self, x):
        with pytest.raises(ValueError):
            hankel1(0, x)

    def test_order_out_of_range(self):
        with pytest.raises(ValueError):
            hankel1(2, 1.0)


class TestCircularHarmonic:
    def test_order_zero_constant(self):
        assert circular_harmonic(0, 0, 1.234) == pytest.approx(GAMMA)

    def test_y1_minus1_at_half_pi(self):
        # gamma (x1 - i x2) at (0, 1) = -i gamma
        assert circular_harmonic(1, -1, np.pi / 2) == pytest.approx(-1j * GAMMA)

    def test_discrete_orthonormality(self):
        n = 64
        phi = 2 * np.pi * np.arange(n) / n
        inner = (2 * np.pi / n) * np.sum(
            circular_harmonic(1, 1, phi) * np.conj(circular_harmonic(2, 2, phi)))
        assert abs(inner) < 1e-14
        norm = (2 * np.pi / n) * np.sum(np.abs(circular_harmonic(3, -3, phi)) ** 2)
        assert abs(norm - 1.0) < 1e-14

    def test_beta_alpha_mismatch(self):
        with pytest.raises(ValueError):
            circular_harmonic(2, 1, 0.0)


class TestFunkHecke:
    def test_identity_on_default_medium(self):
        """Trapezoid sum of e^{-ik z.xhat} Y_a^b equals (2pi/i^a) J_a(k|z|) Y_a^b(zhat)."""
        med = Medium(1.0, 1.0, 8 * np.pi)
        n = 512
        phi = 2 * np.pi * np.arange(n) / n
        xhat = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
        rng = np.random.RandomState(5)
        for k in (med.k_p, med.k_s):
            for alpha in range(4):
                for beta in (-alpha, alpha):
                    r = rng.uniform(0.3, 8.0)
                    ang = rng.uniform(0, 2 * np.pi)
                    z = r * np.array([np.cos(ang), np.sin(ang)])
                    lhs = (2 * np.pi / n) * np.sum(
                        np.exp(-1j * k * (xhat @ z)) * circular_harmonic(alpha, beta, phi))
                    rhs = funk_hecke_rhs(alpha, beta, k, z)
                    assert abs(lhs - rhs) < 1e-8
