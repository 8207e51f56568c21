"""Limited-aperture machinery: masking, reciprocity fill, Tikhonov retrieval.

Far-field data have one layout, the 4m x 4m operator F = [[F_pp, F_sp],
[F_ps, F_ss]] of MSRMatrix.full; a limited data set is that operator with a
known-entry mask of the same shape.  The reciprocity relations

    u_pp(xhat, d) = u_pp(-d, -xhat),  u_ss likewise,  u_ps(xhat, d) = u_sp(-d, -xhat)

become, with the antipode map sigma(i) = ((i+m-1) mod 2m)+1 on the direction
grid and Sigma = [sigma, sigma + 2m] on the rows and columns of F, one map

    F = F[Sigma, Sigma]^T,

so unmeasured entries can be copied from measured ones.  What reciprocity
cannot reach is extrapolated by solving the severely ill-posed far-field
equations of the auxiliary ball operator

    (S_k c)(xhat_j) = sum_l w_l e^{-i k xhat_j . y_l} c_l = u(xhat_j)

on the measured rows by Tikhonov-regularized normal equations and predicting
the missing rows; measured entries are never overwritten.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .forward import MSRMatrix, blocks, direction_grid
from .geometry import scene_from_string
from .indicators import IndicatorField, IndicatorKind, SamplingGrid, indicator_fields


@dataclass(frozen=True)
class ApertureMask:
    """Observed / incident direction index sets (0-based, within 0..2m-1)."""

    observed: frozenset[int]
    incident: frozenset[int]

    def __post_init__(self) -> None:
        if not self.observed or not self.incident:
            raise ValueError("mask sets must be nonempty")
        if min(self.observed) < 0 or min(self.incident) < 0:
            raise ValueError("mask indices must be nonnegative")

    def validate_for(self, m: int) -> None:
        top = 2 * m
        if max(self.observed) >= top or max(self.incident) >= top:
            raise ValueError(f"mask indices must be < {top}")

    @staticmethod
    def full(m: int) -> "ApertureMask":
        idx = frozenset(range(2 * m))
        return ApertureMask(idx, idx)

    @staticmethod
    def from_arcs(m: int, observed_arcs, incident_arcs) -> "ApertureMask":
        """Arcs are (start, end) in radians, end exclusive, wrap-aware; None = full."""
        theta = np.pi * np.arange(2 * m) / m

        def pick(arcs):
            if arcs is None:
                return frozenset(range(2 * m))
            sel = np.zeros(2 * m, dtype=bool)
            for a, b in arcs:
                span = (b - a) % (2 * np.pi)
                if span == 0.0:
                    span = 2 * np.pi
                sel |= ((theta - a) % (2 * np.pi)) < span - 1e-12
                sel |= np.isclose((theta - a) % (2 * np.pi), 0.0)
            return frozenset(np.flatnonzero(sel).tolist())

        return ApertureMask(pick(observed_arcs), pick(incident_arcs))


def antipode(i, m: int):
    """sigma: index of the opposite direction, an involution on 0..2m-1."""
    return (np.asarray(i) + m) % (2 * m)


@dataclass(frozen=True)
class MaskedMSR:
    """MSR with a known-entry mask; unknown values are absent (NaN-filled).

    mask and data share the 4m x 4m layout of MSRMatrix.full.
    """

    base: MSRMatrix
    mask: np.ndarray       # (4m, 4m) bool
    data: np.ndarray       # (4m, 4m) complex, NaN where unknown

    @property
    def m(self) -> int:
        return self.base.m

    @property
    def known(self) -> dict[str, np.ndarray]:
        """Block name -> view of mask."""
        return blocks(self.mask, self.m)

    @property
    def values(self) -> dict[str, np.ndarray]:
        """Block name -> view of data."""
        return blocks(self.data, self.m)

    def assembled_known(self) -> np.ndarray:
        """The operator with unknown entries as zeros (the restricted-sum convention)."""
        return np.where(self.mask, self.data, 0.0)


def apply_mask(msr: MSRMatrix, mask: ApertureMask) -> MaskedMSR:
    """Mark entry (j, i) of every block known iff j in observed and i in incident."""
    mask.validate_for(msr.m)
    n = 2 * msr.m
    obs = np.zeros(n, dtype=bool)
    obs[list(mask.observed)] = True
    inc = np.zeros(n, dtype=bool)
    inc[list(mask.incident)] = True
    known = np.tile(obs[:, None] & inc[None, :], (2, 2))
    return MaskedMSR(msr, known, np.where(known, msr.full, np.nan))


def reciprocity_fill(masked: MaskedMSR) -> MaskedMSR:
    """Fill unknown entries from their reciprocity images where those are known.

    The image of F is F[Sigma, Sigma]^T; Sigma is an involution, so the pass
    is idempotent and never touches a known entry.
    """
    m = masked.m
    sig = antipode(np.arange(2 * m), m)
    sigma = np.concatenate([sig, sig + 2 * m])
    image = np.ix_(sigma, sigma)
    return MaskedMSR(masked.base, masked.mask | masked.mask[image].T,
                     np.where(masked.mask, masked.data, masked.data[image].T))


def tikhonov_alpha_default(a_obs: np.ndarray, noise_delta: float = 0.0) -> float:
    """Default regularization: max(1e-8, delta^2) * trace(A^H A) / n_B.

    The noise-matched floor keeps the severely ill-posed extrapolation from
    amplifying measurement noise into the predicted rows.
    """
    scale = float(np.sum(np.abs(a_obs) ** 2)) / a_obs.shape[1]
    return max(1e-8, noise_delta**2) * scale


def tikhonov_retrieve(masked: MaskedMSR, ball_radius: float, n_boundary: int = 256,
                      alpha: float | None = None) -> MSRMatrix:
    """Extrapolate unknown entries via the ball far-field operator.

    Per row half and column: solve (A^H A + alpha I) c = A^H u over the known
    rows (A[j, l] = w_l e^{-i k xhat_j . y_l}, k of the received component:
    k_p for the p rows, k_s for the s rows), then predict unknown rows as
    A_full c.  Known entries are kept verbatim.  Columns of a row half
    sharing a known-row pattern share one factorization.
    """
    if alpha is not None and not (np.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be finite and positive, got {alpha}")
    if not n_boundary >= 1:
        raise ValueError(f"need n_boundary >= 1, got {n_boundary}")
    scene = scene_from_string(masked.base.scene)
    circ = scene.circumradius()
    if not (np.isfinite(ball_radius) and ball_radius > circ):
        raise ValueError(f"ball radius {ball_radius} must be finite and exceed "
                         f"the scene circumradius {circ:.3f}")

    medium = masked.base.medium
    n2m = 2 * masked.m
    dirs = direction_grid(masked.m)
    tb = 2.0 * np.pi * np.arange(n_boundary) / n_boundary
    yb = ball_radius * np.stack([np.cos(tb), np.sin(tb)], axis=-1)   # (nB, 2)
    wb = 2.0 * np.pi * ball_radius / n_boundary

    full = masked.assembled_known()
    for half, k in ((slice(0, n2m), medium.k_p), (slice(n2m, 2 * n2m), medium.k_s)):
        a_full = wb * np.exp(-1j * k * (dirs @ yb.T))                # (2m, nB)
        vals, known, filled = masked.data[half], masked.mask[half], full[half]
        todo = np.flatnonzero(~known.all(axis=0) & known.any(axis=0))
        patterns: dict[bytes, list[int]] = {}
        for i in todo:
            patterns.setdefault(known[:, i].tobytes(), []).append(i)
        for pat, cols in patterns.items():
            rows = np.frombuffer(pat, dtype=bool)
            a_obs = a_full[rows]
            alpha_eff = (tikhonov_alpha_default(a_obs, masked.base.delta)
                         if alpha is None else alpha)
            gram = a_obs.conj().T @ a_obs + alpha_eff * np.eye(n_boundary)
            rhs = a_obs.conj().T @ vals[np.ix_(rows, cols)]
            coef = np.linalg.solve(gram, rhs)                        # (nB, ncols)
            filled[np.ix_(~rows, cols)] = (a_full @ coef)[~rows]

    alpha_desc = (f"auto(delta={masked.base.delta!r})" if alpha is None else repr(alpha))
    return replace(masked.base, full=full,
                   retrieval=f"R={ball_radius!r} nB={n_boundary} alpha={alpha_desc}")


def limited_indicator(masked: MaskedMSR, grid: SamplingGrid, kinds, q=(1.0, 0.0)
                      ) -> dict[IndicatorKind, IndicatorField]:
    """Indicator fields restricted to known (j, i) pairs (unknown ones contribute zero)."""
    return indicator_fields(masked.assembled_known(), masked.m, masked.base.medium, grid,
                            kinds, q)
