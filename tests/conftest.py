import ctypes
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from elastoscan import (
    BoundaryCondition,
    BoundaryCurve,
    BoundaryKind,
    Medium,
    Scene,
    add_noise,
    synthesize_msr,
)

OMEGA_DEFAULT = 8.0 * np.pi


@pytest.fixture(scope="session")
def medium():
    return Medium(1.0, 1.0, OMEGA_DEFAULT)


@pytest.fixture(scope="session")
def kite_scene():
    return Scene(((BoundaryCurve(BoundaryKind.KITE), BoundaryCondition.DIRICHLET),))


@pytest.fixture(scope="session")
def pear_scene():
    return Scene(((BoundaryCurve(BoundaryKind.PEAR), BoundaryCondition.DIRICHLET),))


@pytest.fixture(scope="session")
def circle_scene():
    return Scene(((BoundaryCurve(BoundaryKind.CIRCLE), BoundaryCondition.DIRICHLET),))


@pytest.fixture(scope="session")
def msr_kite_m64(kite_scene, medium):
    """Clean kite/Dirichlet MSR at m=64, n=512: the workhorse data set."""
    return synthesize_msr(kite_scene, medium, 64, 512)


@pytest.fixture(scope="session")
def msr_kite_m64_noisy(msr_kite_m64):
    return add_noise(msr_kite_m64, 0.3, seed=11)


@pytest.fixture(scope="session")
def msr_disk_m16(medium):
    """Origin-centered unit disk at m=16, n=128 (discrete rotational symmetry)."""
    scene = Scene(((BoundaryCurve(BoundaryKind.CIRCLE), BoundaryCondition.DIRICHLET),))
    return synthesize_msr(scene, medium, 16, 128)


@pytest.fixture(scope="class")
def one_blas_thread():
    """numpy's OpenBLAS at one thread for a test class, where its thread symbols exist.

    With more threads OpenBLAS may split a product differently by its row count, and
    so round a row differently; at one thread a row's bits do not depend on the rows
    around it.
    """
    libs = Path(np.__file__).parent.parent.joinpath("numpy.libs").glob("*openblas*")
    for lib in map(ctypes.CDLL, map(str, libs)):
        get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        set_threads = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        if get is not None and set_threads is not None:
            before = get()
            set_threads(1)
            try:
                yield
            finally:
                set_threads(before)
            return
    yield
