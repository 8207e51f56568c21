import contextlib
import ctypes
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
import scipy

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


@pytest.fixture(autouse=True)
def no_thread_left():
    """Every test ends with no thread it started still alive: each command shuts its
    writer's worker down, whether it succeeds or fails."""
    before = set(threading.enumerate())
    yield
    assert set(threading.enumerate()) <= before


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


@contextlib.contextmanager
def blas_threads(count: int):
    """numpy's and scipy's bundled OpenBLAS at count threads in the with-block, where
    their thread symbols exist; yields whether both copies were set."""
    restore = []
    for pkg, suffix in ((np, "64_"), (scipy, "")):
        libs = Path(pkg.__file__).parent.parent.joinpath(f"{pkg.__name__}.libs").glob("*openblas*")
        for lib in map(ctypes.CDLL, map(str, libs)):
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            set_threads = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
            if get is not None and set_threads is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                restore.append((set_threads, get()))
                set_threads(count)
                break
    try:
        yield len(restore) == 2
    finally:
        for set_threads, before in restore:
            set_threads(before)


@pytest.fixture(scope="class")
def one_blas_thread():
    """numpy's and scipy's bundled OpenBLAS at one thread for a test class, where their
    thread symbols exist; the value is whether both copies were pinned.

    With more threads OpenBLAS may split a product differently by its row count, and
    so round a row differently; at one thread a row's bits do not depend on the rows
    around it.  numpy's copy runs the indicator products, scipy's the LU.
    """
    with blas_threads(1) as pinned:
        yield pinned
