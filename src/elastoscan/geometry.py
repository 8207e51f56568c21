"""Parameterized obstacle boundaries and boundary quadrature.

Four smooth closed curves (circle, peanut, pear, kite), each given by an
analytic 2pi-periodic parameterization x(t) with analytic derivative.
All parameterizations run counterclockwise; the outward normal is the
clockwise rotation of the unit tangent.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

MIN_QUADRATURE_NODES = 8
SCENE_SEPARATION_SAMPLES = 512
SCENE_SEPARATION_MIN = 1e-6


class BoundaryKind(Enum):
    CIRCLE = "circle"
    PEANUT = "peanut"
    PEAR = "pear"
    KITE = "kite"


class BoundaryCondition(Enum):
    DIRICHLET = "dirichlet"
    NEUMANN = "neumann"


@dataclass(frozen=True)
class BoundaryCurve:
    """One closed obstacle boundary: shape kind, center (a, b), size rho > 0."""

    kind: BoundaryKind
    center: tuple[float, float] = (0.0, 0.0)
    rho: float = 1.0

    def __post_init__(self) -> None:
        if not self.rho > 0:
            raise ValueError(f"rho must be positive, got {self.rho}")

    def describe(self) -> str:
        return f"{self.kind.value}@({self.center[0]!r},{self.center[1]!r})*{self.rho!r}"


def _reduce_angle(t):
    """Reduce parameter(s) to [0, 2pi); exact for t already in range."""
    t = np.asarray(t, dtype=float)
    return np.where((t >= 0.0) & (t < 2.0 * np.pi), t, np.mod(t, 2.0 * np.pi))


def curve_point(curve: BoundaryCurve, t) -> np.ndarray:
    """Boundary point x(t); t scalar or array, reduced mod 2pi. Returns (..., 2)."""
    t = _reduce_angle(t)
    ct, st = np.cos(t), np.sin(t)
    rho = curve.rho
    if curve.kind is BoundaryKind.CIRCLE:
        base = np.stack([rho * ct, rho * st], axis=-1)
    elif curve.kind is BoundaryKind.PEANUT:
        rr = rho * np.sqrt(3.0 * ct**2 + 1.0)
        base = np.stack([rr * ct, rr * st], axis=-1)
    elif curve.kind is BoundaryKind.PEAR:
        rr = rho * (2.0 + 0.3 * np.cos(3.0 * t))
        base = np.stack([rr * ct, rr * st], axis=-1)
    else:  # KITE
        base = np.stack(
            [rho * (ct + 0.65 * np.cos(2.0 * t) - 0.65), rho * 1.5 * st], axis=-1
        )
    return base + np.asarray(curve.center, dtype=float)


def curve_tangent(curve: BoundaryCurve, t) -> np.ndarray:
    """Analytic derivative x'(t). Returns (..., 2)."""
    t = _reduce_angle(t)
    ct, st = np.cos(t), np.sin(t)
    rho = curve.rho
    if curve.kind is BoundaryKind.CIRCLE:
        return np.stack([-rho * st, rho * ct], axis=-1)
    if curve.kind is BoundaryKind.PEANUT:
        root = np.sqrt(3.0 * ct**2 + 1.0)
        rr = rho * root
        drr = -3.0 * rho * st * ct / root
        return np.stack([drr * ct - rr * st, drr * st + rr * ct], axis=-1)
    if curve.kind is BoundaryKind.PEAR:
        rr = rho * (2.0 + 0.3 * np.cos(3.0 * t))
        drr = -0.9 * rho * np.sin(3.0 * t)
        return np.stack([drr * ct - rr * st, drr * st + rr * ct], axis=-1)
    return np.stack(
        [rho * (-st - 1.3 * np.sin(2.0 * t)), rho * 1.5 * ct], axis=-1
    )


@dataclass(frozen=True)
class Quadrature:
    """Trapezoidal boundary quadrature nodes for one curve or a whole scene.

    Attributes
    ----------
    t : (N,) parameter values
    points : (N, 2) boundary points
    normals : (N, 2) unit outward normals
    speeds : (N,) |x'(t_k)|
    weights : (N,) w_k = (2 pi / n_component) * |x'(t_k)|
    component : (N,) int id of the owning scene component
    """

    t: np.ndarray
    points: np.ndarray
    normals: np.ndarray
    speeds: np.ndarray
    weights: np.ndarray
    component: np.ndarray

    @property
    def n_nodes(self) -> int:
        return len(self.t)


def boundary_quadrature(curve: BoundaryCurve, n: int, component_id: int = 0) -> Quadrature:
    """Equispaced trapezoid rule on [0, 2pi): t_k = 2 pi k / n.

    n must be even and at least MIN_QUADRATURE_NODES; the rule is spectrally
    accurate for these analytic curves.
    """
    if n < MIN_QUADRATURE_NODES:
        raise ValueError(f"need n >= {MIN_QUADRATURE_NODES}, got {n}")
    if n % 2 != 0:
        raise ValueError(f"need even n, got {n}")
    t = 2.0 * np.pi * np.arange(n) / n
    points = curve_point(curve, t)
    dx = curve_tangent(curve, t)
    speeds = np.linalg.norm(dx, axis=-1)
    that = dx / speeds[:, None]
    normals = np.stack([that[:, 1], -that[:, 0]], axis=-1)
    weights = (2.0 * np.pi / n) * speeds
    comp = np.full(n, component_id, dtype=int)
    return Quadrature(t, points, normals, speeds, weights, comp)


@dataclass(frozen=True)
class Scene:
    """Union of disjoint obstacle boundaries with boundary-condition tags."""

    components: tuple[tuple[BoundaryCurve, BoundaryCondition], ...]

    def __post_init__(self) -> None:
        if len(self.components) == 0:
            raise ValueError("scene needs at least one component")
        self._check_disjoint()

    def _check_disjoint(self) -> None:
        if len(self.components) < 2:
            return
        t = 2.0 * np.pi * np.arange(SCENE_SEPARATION_SAMPLES) / SCENE_SEPARATION_SAMPLES
        samples = [curve_point(c, t) for c, _ in self.components]
        for i in range(len(samples)):
            for j in range(i + 1, len(samples)):
                d = samples[i][:, None, :] - samples[j][None, :, :]
                dmin = np.sqrt((d**2).sum(axis=-1)).min()
                if dmin <= SCENE_SEPARATION_MIN:
                    raise ValueError(
                        f"components {i} and {j} are not disjoint "
                        f"(min boundary distance {dmin:.3e})"
                    )
                # sampled distance alone misses transversal crossings; also
                # reject any boundary sample landing inside the other closure
                for a, b in ((i, j), (j, i)):
                    if _inside_polygon(samples[b], samples[a]).any():
                        raise ValueError(
                            f"components {a} and {b} are not disjoint "
                            f"(boundary of {a} enters {b})"
                        )

    def describe(self) -> str:
        return " + ".join(c.describe() for c, _ in self.components)


def scene_from_string(text: str) -> Scene:
    """Parse the canonical scene string, e.g. 'kite@(0.0,0.0)*1.0 + peanut@(3.0,-3.0)*1.0'.

    Boundary conditions are not part of the string; Dirichlet is assumed
    (callers owning per-component conditions attach them separately).
    """
    comps = []
    for piece in text.split("+"):
        piece = piece.strip()
        if not piece:
            raise ValueError("empty scene component")
        kind_s, _, rest = piece.partition("@")
        kind_s = kind_s.strip()
        try:
            kind = BoundaryKind(kind_s)
        except ValueError:
            raise ValueError(f"unknown boundary kind {kind_s!r}") from None
        center = (0.0, 0.0)
        rho = 1.0
        if rest:
            loc, _, rho_s = rest.partition("*")
            loc = loc.strip()
            if not (loc.startswith("(") and loc.endswith(")")):
                raise ValueError(f"bad center spec {loc!r}")
            a_s, _, b_s = loc[1:-1].partition(",")
            center = (float(a_s), float(b_s))
            if rho_s.strip():
                rho = float(rho_s)
        comps.append((BoundaryCurve(kind, center, rho), BoundaryCondition.DIRICHLET))
    return Scene(tuple(comps))


def _inside_polygon(poly: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Even-odd crossing test of points (M, 2) against the closed polygon poly (S, 2)."""
    chunk = 1024                           # points per (chunk, S) temporary
    x0, y0 = poly[:, 0], poly[:, 1]
    x1, y1 = np.roll(x0, -1), np.roll(y0, -1)
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = (x1 - x0) / (y1 - y0)      # not finite only on edges that never straddle
        inside = np.zeros(len(points), dtype=bool)
        for lo in range(0, len(points), chunk):
            px, py = points[lo:lo + chunk, 0:1], points[lo:lo + chunk, 1:2]
            straddle = (y0 > py) != (y1 > py)
            crossings = straddle & (px < x0 + (py - y0) * slope)
            inside[lo:lo + chunk] = crossings.sum(axis=1) % 2 == 1
    return inside


def contains_points(scene: Scene, points: np.ndarray, n_samples: int = 2048) -> np.ndarray:
    """Interior test against each component's n_samples-gon. points (M, 2) -> bool (M,)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    inside = np.zeros(len(points), dtype=bool)
    t = 2.0 * np.pi * np.arange(n_samples) / n_samples
    for curve, _ in scene.components:
        inside |= _inside_polygon(curve_point(curve, t), points)
    return inside


def distance_to_boundary(scene: Scene, points: np.ndarray, n_samples: int = 4096) -> np.ndarray:
    """Distance from each point to the nearest boundary sample. points (M,2) -> (M,)."""
    # imported here, not at the top: scipy.spatial is slow to import and only checks call this
    from scipy.spatial import cKDTree

    points = np.atleast_2d(np.asarray(points, dtype=float))
    t = 2.0 * np.pi * np.arange(n_samples) / n_samples
    samples = np.concatenate([curve_point(curve, t) for curve, _ in scene.components])
    return cKDTree(samples).query(points)[0]
