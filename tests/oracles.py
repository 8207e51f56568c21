"""Independent test oracles: brute-force series, finite differences, quadrature.

These deliberately avoid the code paths they check: Bessel/Neumann values come
from explicit power series in high-precision arithmetic, derivatives from
central differences, arc lengths from adaptive quadrature, and interiority
from a polygonal winding number.

The Bessel/Hankel/circular-harmonic wrappers at the end are thin,
domain-checked scipy.special calls (J up to order 3, H^(1) up to order 1,
Y_a^b = sqrt(1/2pi) e^{i b phi}) on scipy's complex-argument AMOS routines
(jv, hankel1).  The package itself calls the real-argument Cephes j0/j1/y0/y1
instead, so these stay an independent oracle for its kernels as well as the
closed sides of the Funk-Hecke checks, and are themselves checked against the
series above.
"""

import mpmath as mp
import numpy as np
from scipy import special as _sp
from scipy.integrate import quad

EULER = mp.mpf(
    "0.57721566490153286060651209008240243104215933593992359880576723488486772677767"
)


def _dps_for(x: float) -> int:
    # series terms grow like e^x before cancelling down to O(x^-1/2)
    return int(0.46 * abs(x)) + 60


def bessel_j_series(order: int, x: float) -> float:
    """J_order(x) by the defining power series, summed to convergence."""
    with mp.workdps(_dps_for(x)):
        z = mp.mpf(x)
        half = z / 2
        term = half**order / mp.factorial(order)
        total = term
        m = 0
        while abs(term) > mp.mpf(10) ** (-mp.mp.dps + 10) or m < 4:
            m += 1
            term *= -(half**2) / (m * (m + order))
            total += term
            if m > 10000:
                raise RuntimeError("series did not converge")
        return float(total)


def bessel_y_series(order: int, x: float) -> float:
    """Y_0 or Y_1 by the logarithmic series (DLMF 10.8.1)."""
    if order not in (0, 1):
        raise ValueError("series oracle implements orders 0 and 1 only")
    with mp.workdps(_dps_for(x)):
        z = mp.mpf(x)
        half = z / 2
        logterm = mp.log(half)

        # J_order at working precision
        term = half**order / mp.factorial(order)
        jsum = term
        m = 0
        while abs(term) > mp.mpf(10) ** (-mp.mp.dps + 10) or m < 4:
            m += 1
            term *= -(half**2) / (m * (m + order))
            jsum += term

        def psi(k):          # digamma at integer k: -gamma + H_{k-1}
            return -EULER + mp.fsum(mp.mpf(1) / i for i in range(1, k))

        tail = mp.mpf(0)
        k = 0
        term = half**order
        while True:
            c = (psi(k + 1) + psi(order + k + 1)) * term / (
                mp.factorial(k) * mp.factorial(order + k))
            tail += c
            k += 1
            term *= -(half**2)
            if k > 4 and abs(c) < mp.mpf(10) ** (-mp.mp.dps + 10):
                break
            if k > 10000:
                raise RuntimeError("series did not converge")

        front = mp.mpf(0)
        if order == 1:
            front = -(1 / half) / mp.pi       # -(z/2)^{-1} (0)!/0! / pi

        val = front + (2 / mp.pi) * logterm * jsum - tail / mp.pi
        return float(val)


def hankel1_series(order: int, x: float) -> complex:
    return complex(bessel_j_series(order, x), bessel_y_series(order, x))


def central_diff(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Gradient of a (possibly vector-valued) field at a 2-point by central differences."""
    x = np.asarray(x, dtype=float)
    cols = []
    for k in range(2):
        e = np.zeros(2)
        e[k] = h
        cols.append((np.asarray(f(x + e)) - np.asarray(f(x - e))) / (2 * h))
    return np.stack(cols, axis=0)     # [k, ...] = d/dx_k f


def arc_length_adaptive(curve_tangent_fn, tol: float = 1e-13) -> float:
    """Adaptive-quadrature arc length of a 2pi-periodic parameterization."""
    speed = lambda t: float(np.linalg.norm(curve_tangent_fn(t)))
    total, err = quad(speed, 0.0, 2.0 * np.pi, epsabs=tol, epsrel=tol, limit=400)
    return total


def winding_number(poly: np.ndarray, point: np.ndarray) -> float:
    """Winding number of a sampled closed curve around a point."""
    a = poly - point[None, :]
    b = np.roll(a, -1, axis=0)
    ang = np.arctan2(a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0], (a * b).sum(axis=1))
    return float(ang.sum() / (2.0 * np.pi))


GAMMA_HARMONIC = np.sqrt(1.0 / (2.0 * np.pi))
MAX_BESSEL_ORDER = 3
MAX_HANKEL_ORDER = 1


def bessel_j(order: int, x):
    """J_order(x) for order 0..3 and real x >= 0."""
    if order not in range(MAX_BESSEL_ORDER + 1):
        raise ValueError(f"order must be 0..{MAX_BESSEL_ORDER}, got {order}")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("negative argument not supported")
    out = _sp.jv(order, x)
    return out if out.shape else float(out)


def hankel1(order: int, x):
    """H^(1)_order(x) = J_order(x) + i Y_order(x) for order 0..1 and x > 0."""
    if order not in range(MAX_HANKEL_ORDER + 1):
        raise ValueError(f"order must be 0..{MAX_HANKEL_ORDER}, got {order}")
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("argument must be positive (branch point at 0)")
    out = _sp.hankel1(order, x)
    return out if out.shape else complex(out)


def circular_harmonic(alpha: int, beta: int, phi):
    """Y_alpha^beta(phi) = gamma e^{i beta phi}, gamma = sqrt(1/2pi), |beta| = alpha."""
    if alpha not in range(MAX_BESSEL_ORDER + 1):
        raise ValueError(f"alpha must be 0..{MAX_BESSEL_ORDER}, got {alpha}")
    if abs(beta) != alpha:
        raise ValueError(f"need |beta| = alpha, got alpha={alpha}, beta={beta}")
    phi = np.asarray(phi, dtype=float)
    out = GAMMA_HARMONIC * np.exp(1j * beta * phi)
    return out if out.shape else complex(out)


def funk_hecke_rhs(alpha: int, beta: int, k: float, z: np.ndarray):
    """(2 pi / i^alpha) J_alpha(k |z|) Y_alpha^beta(z-hat), the closed side of
    the Funk-Hecke identity for the circular integral of e^{-i k z.xhat} Y_alpha^beta."""
    z = np.asarray(z, dtype=float)
    rz = float(np.hypot(z[0], z[1]))
    phi_z = float(np.arctan2(z[1], z[0]))
    return (2.0 * np.pi / 1j**alpha) * bessel_j(alpha, k * rz) * circular_harmonic(alpha, beta, phi_z)
