import numpy as np
import pytest

from elastoscan.elastic import Medium
from elastoscan.forward import assemble_system
from elastoscan.geometry import (
    BoundaryCondition,
    BoundaryCurve,
    BoundaryKind,
    Scene,
    boundary_quadrature,
    contains_points,
    curve_point,
    curve_tangent,
    scene_from_string,
)
from oracles import arc_length_adaptive, winding_number

ALL_KINDS = list(BoundaryKind)


def curve(kind, center=(0.0, 0.0), rho=1.0):
    return BoundaryCurve(kind, center, rho)


class TestCurvePoint:
    def test_circle_quarter_turn(self):
        assert np.allclose(curve_point(curve(BoundaryKind.CIRCLE), np.pi / 2), [0.0, 1.0])

    def test_peanut_at_zero(self):
        # sqrt(3 cos^2 0 + 1) = 2
        assert np.allclose(curve_point(curve(BoundaryKind.PEANUT), 0.0), [2.0, 0.0])

    def test_kite_at_pi(self):
        # cos pi + 0.65 cos 2pi - 0.65 = -1
        assert np.allclose(curve_point(curve(BoundaryKind.KITE), np.pi), [-1.0, 0.0])

    def test_pear_at_zero(self):
        assert np.allclose(curve_point(curve(BoundaryKind.PEAR), 0.0), [2.3, 0.0])

    def test_periodicity_exact_at_wrap(self):
        for kind in ALL_KINDS:
            c = curve(kind, center=(0.3, -0.8), rho=1.7)
            assert np.array_equal(curve_point(c, 0.0), curve_point(c, 2.0 * np.pi))

    def test_periodicity_generic(self):
        rng = np.random.RandomState(0)
        for kind in ALL_KINDS:
            c = curve(kind)
            t = rng.uniform(0, 2 * np.pi, 16)
            assert np.allclose(curve_point(c, t), curve_point(c, t + 2 * np.pi),
                               atol=1e-12)

    def test_translation_equivariance(self):
        v = np.array([2.5, -1.25])
        for kind in ALL_KINDS:
            base = curve(kind, center=(0.0, 0.0))
            moved = curve(kind, center=(v[0], v[1]))
            t = np.linspace(0, 2 * np.pi, 9)
            assert np.array_equal(curve_point(moved, t), curve_point(base, t) + v)
            assert np.array_equal(boundary_quadrature(moved, 64).normals,
                                  boundary_quadrature(base, 64).normals)

    def test_circle_scaling_exact(self):
        t = np.linspace(0, 2 * np.pi, 17)
        r1 = curve_point(curve(BoundaryKind.CIRCLE, rho=1.0), t)
        r2 = curve_point(curve(BoundaryKind.CIRCLE, rho=2.0), t)
        assert np.array_equal(r2, 2.0 * r1)

    def test_rho_must_be_positive(self):
        with pytest.raises(ValueError):
            BoundaryCurve(BoundaryKind.CIRCLE, (0.0, 0.0), -1.0)


class TestCurveTangent:
    def test_circle_tangent(self):
        assert np.allclose(curve_tangent(curve(BoundaryKind.CIRCLE), 0.0), [0.0, 1.0])

    @pytest.mark.parametrize("kind,t", [(BoundaryKind.KITE, 0.0),
                                        (BoundaryKind.PEANUT, np.pi / 4),
                                        (BoundaryKind.PEAR, 1.3),
                                        (BoundaryKind.CIRCLE, 2.2)])
    def test_matches_finite_difference(self, kind, t):
        c = curve(kind, center=(0.4, -0.2), rho=1.3)
        h = 1e-6
        fd = (curve_point(c, t + h) - curve_point(c, t - h)) / (2 * h)
        assert np.allclose(curve_tangent(c, t), fd, atol=1e-8)


class TestOutwardNormal:
    """The normals of boundary_quadrature, the ones the solver uses."""

    def test_circle_normal_is_radial(self):
        quad = boundary_quadrature(curve(BoundaryKind.CIRCLE), 64)
        assert np.allclose(quad.normals, np.stack([np.cos(quad.t), np.sin(quad.t)], axis=-1))

    def test_unit_norm(self):
        for kind in ALL_KINDS:
            nu = boundary_quadrature(curve(kind), 64).normals
            assert np.allclose(np.linalg.norm(nu, axis=-1), 1.0, atol=1e-14)

    def test_kite_orthogonal_and_outward(self):
        c = curve(BoundaryKind.KITE)
        quad = boundary_quadrature(c, 64)
        poly = curve_point(c, 2 * np.pi * np.arange(2048) / 2048)
        for t, x, nu in zip(quad.t, quad.points, quad.normals):
            assert abs(nu @ curve_tangent(c, t)) < 1e-12
            # winding-number outwardness: stepping along nu leaves the domain
            assert abs(winding_number(poly, x + 1e-3 * nu)) < 0.5
            assert abs(winding_number(poly, x - 1e-3 * nu)) > 0.5


class TestBoundaryQuadrature:
    def test_circle_arc_length(self):
        quad = boundary_quadrature(curve(BoundaryKind.CIRCLE), 64)
        assert abs(quad.weights.sum() - 2 * np.pi) < 1e-12

    def test_pear_arc_length_vs_adaptive(self):
        c = curve(BoundaryKind.PEAR)
        quad = boundary_quadrature(c, 256)
        exact = arc_length_adaptive(lambda t: curve_tangent(c, t))
        assert abs(quad.weights.sum() - exact) < 1e-10

    def test_weights_positive(self):
        for kind in ALL_KINDS:
            assert (boundary_quadrature(curve(kind), 64).weights > 0).all()

    @pytest.mark.parametrize("n", [4, 7, 129])
    def test_bad_n_rejected(self, n):
        with pytest.raises(ValueError):
            boundary_quadrature(curve(BoundaryKind.CIRCLE), n)

    def test_spectral_convergence(self):
        for kind in ALL_KINDS:
            c = curve(kind)
            coarse = boundary_quadrature(c, 128).weights.sum()
            fine = boundary_quadrature(c, 1024).weights.sum()
            assert abs(coarse - fine) / fine < 1e-8


class TestScene:
    def test_needs_component(self):
        with pytest.raises(ValueError):
            Scene(())

    def test_disjointness_enforced(self):
        a = (curve(BoundaryKind.CIRCLE, rho=1.0), BoundaryCondition.DIRICHLET)
        b = (curve(BoundaryKind.CIRCLE, center=(1.0, 0.0), rho=1.0),
             BoundaryCondition.DIRICHLET)
        with pytest.raises(ValueError, match="disjoint"):
            Scene((a, b))

    def test_disjoint_scene_ok(self):
        a = (curve(BoundaryKind.KITE, center=(-3.0, 3.0)), BoundaryCondition.DIRICHLET)
        b = (curve(BoundaryKind.PEANUT, center=(3.0, -3.0)), BoundaryCondition.DIRICHLET)
        quad = assemble_system(Scene((a, b)), Medium(1.0, 1.0, 2.0), 64).quadrature
        assert quad.n_nodes == 128
        assert np.array_equal(quad.component, np.repeat([0, 1], 64))

    def test_describe_round_trip(self):
        a = (curve(BoundaryKind.KITE, center=(-3.0, 3.0)), BoundaryCondition.DIRICHLET)
        b = (curve(BoundaryKind.PEANUT, center=(3.0, -3.0), rho=2.0),
             BoundaryCondition.DIRICHLET)
        scene = Scene((a, b))
        back = scene_from_string(scene.describe())
        assert [c.kind for c, _ in back.components] == [BoundaryKind.KITE, BoundaryKind.PEANUT]
        assert back.components[1][0].rho == 2.0

    def test_contains_points(self):
        scene = Scene(((curve(BoundaryKind.CIRCLE, rho=1.0), BoundaryCondition.DIRICHLET),))
        pts = np.array([[0.0, 0.0], [0.5, 0.5], [2.0, 0.0], [0.0, -1.5]])
        assert contains_points(scene, pts).tolist() == [True, True, False, False]
