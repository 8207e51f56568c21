"""The forward solver's shared-work evaluation against its plainest form, bit for bit.

The assembly evaluates each unordered node pair's radial functions once (a
self block's upper triangle, mirrored; block (j, i) as the transpose of
block (i, j)), only the functions a kernel reads, and builds every plane
wave's right-hand side in one pass.  The references in oracles.py evaluate
every block in full and one plane wave at a time; the bit patterns of the
results must be equal, the sign of every zero included.
"""

import numpy as np
import pytest

from elastoscan.elastic import Medium, PlaneWave, PointSource, WaveMode
from elastoscan.forward import (
    _incident_rhs,
    _plane_wave_rhs,
    assemble_system,
    direction_grid,
    synthesize_msr,
)
from elastoscan.geometry import BoundaryCondition, BoundaryCurve, BoundaryKind, Scene
from oracles import (
    ref_green,
    ref_hankel,
    ref_traction,
    reference_msr_full,
    reference_rhs,
    reference_system,
)

D = BoundaryCondition.DIRICHLET
N = BoundaryCondition.NEUMANN
MEDIUM = Medium(1.0, 1.0, 2.0 * np.pi)
CURVES = (BoundaryCurve(BoundaryKind.KITE, (-3.0, 0.0), 1.0),
          BoundaryCurve(BoundaryKind.CIRCLE, (3.0, 0.5), 0.8),
          BoundaryCurve(BoundaryKind.PEANUT, (0.0, 3.5), 1.0))
# bc per component: 1-, 2- and 3-component scenes, all-Dirichlet, all-Neumann and
# mixed, so that cross blocks of each kind appear in both orders
CONDITIONS = [(D,), (N,), (D, D), (N, N), (D, N), (N, D), (D, N, D), (N, D, N)]


def scene_of(conditions) -> Scene:
    return Scene(tuple(zip(CURVES, conditions)))


def same_bits(a, b) -> bool:
    """Equal bit patterns: int64 views, so that -0.0 and 0.0 differ."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def label(conditions) -> str:
    return "".join(bc.value[0] for bc in conditions)


@pytest.mark.parametrize("conditions", CONDITIONS, ids=label)
def test_matrix_equals_full_block_evaluation(conditions):
    scene = scene_of(conditions)
    got = assemble_system(scene, MEDIUM, 48).matrix
    assert same_bits(got, reference_system(scene, MEDIUM, 48).matrix)


@pytest.mark.parametrize("conditions", [(D, N, D), (N, D, N)], ids=label)
def test_batched_rhs_equals_one_wave_at_a_time(conditions):
    system = assemble_system(scene_of(conditions), MEDIUM, 48)
    dirs = direction_grid(8)
    rhs = _plane_wave_rhs(system, dirs)
    assert rhs.shape == (2 * system.n_nodes, 4 * 8)
    for i, d in enumerate(dirs):
        for k, mode in enumerate((WaveMode.P, WaveMode.S)):
            direction = (float(d[0]), float(d[1]))
            column = rhs[:, k * len(dirs) + i]
            assert same_bits(column, _incident_rhs(system, PlaneWave(mode, direction)))
            assert same_bits(column, reference_rhs(system, mode, direction))


@pytest.mark.parametrize("conditions", [(D,), (N,), (D, N)], ids=label)
def test_synthesized_msr_equals_reference(conditions):
    scene = scene_of(conditions)
    got = synthesize_msr(scene, MEDIUM, 8, 64).full
    assert same_bits(got, reference_msr_full(scene, MEDIUM, 8, 64))


def test_point_source_field_and_traction_equal_reference():
    rng = np.random.default_rng(12)
    x = rng.uniform(-4.0, 4.0, (300, 2))
    nu = rng.normal(size=(300, 2))
    nu /= np.linalg.norm(nu, axis=-1, keepdims=True)
    src = PointSource((0.3, -0.4), (0.6, 0.8))
    q = np.array(src.polarization)
    w = x - np.array(src.position)
    assert same_bits(src.field(x, MEDIUM), ref_green(w, MEDIUM, ref_hankel) @ q)
    assert same_bits(src.traction(x, nu, MEDIUM), ref_traction(w, nu, MEDIUM) @ q)
