"""Limited-aperture machinery: masking, reciprocity fill, Tikhonov retrieval.

The reciprocity relations

    u_pp(xhat, d) = u_pp(-d, -xhat),  u_ss likewise,  u_ps(xhat, d) = u_sp(-d, -xhat)

become, on the direction grid with the antipode map sigma(i) = ((i+m-1) mod 2m)+1,

    F_pp[j, i] = F_pp[sigma(i), sigma(j)],   F_ps[j, i] = F_sp[sigma(i), sigma(j)],

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

from .forward import MSRMatrix
from .geometry import scene_from_string
from .indicators import IndicatorField, IndicatorKind, SamplingGrid, indicator_fields

BLOCK_NAMES = ("f_pp", "f_ps", "f_sp", "f_ss")
RECIPROCAL_BLOCK = {"f_pp": "f_pp", "f_ss": "f_ss", "f_ps": "f_sp", "f_sp": "f_ps"}


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
    """MSR with per-entry known flags; unknown values are absent (NaN-filled)."""

    base: MSRMatrix
    known: dict            # block name -> (2m, 2m) bool
    values: dict           # block name -> (2m, 2m) complex, NaN where unknown

    @property
    def m(self) -> int:
        return self.base.m

    def known_matrix(self, name: str) -> np.ndarray:
        """Block with unknown entries as zeros (the restricted-sum convention)."""
        vals = self.values[name]
        return np.where(self.known[name], vals, 0.0)

    def assembled_known(self) -> np.ndarray:
        n = 2 * self.m
        out = np.zeros((2 * n, 2 * n), dtype=complex)
        out[:n, :n] = self.known_matrix("f_pp")
        out[:n, n:] = self.known_matrix("f_sp")
        out[n:, :n] = self.known_matrix("f_ps")
        out[n:, n:] = self.known_matrix("f_ss")
        return out


def apply_mask(msr: MSRMatrix, mask: ApertureMask) -> MaskedMSR:
    """Mark entry (j, i) known iff j in observed and i in incident, per block."""
    mask.validate_for(msr.m)
    n = 2 * msr.m
    obs = np.zeros(n, dtype=bool)
    obs[list(mask.observed)] = True
    inc = np.zeros(n, dtype=bool)
    inc[list(mask.incident)] = True
    known2d = obs[:, None] & inc[None, :]
    known = {}
    values = {}
    for name in BLOCK_NAMES:
        known[name] = known2d.copy()
        vals = getattr(msr, name).copy()
        vals[~known2d] = np.nan
        values[name] = vals
    return MaskedMSR(msr, known, values)


def reciprocity_fill(masked: MaskedMSR) -> MaskedMSR:
    """Fill unknown entries from their reciprocity images where those are known.

    sigma is an involution, so the pass is idempotent and never touches a
    known entry.
    """
    m = masked.m
    idx = np.arange(2 * m)
    sig = antipode(idx, m)
    known = {k: v.copy() for k, v in masked.known.items()}
    values = {k: v.copy() for k, v in masked.values.items()}
    for name in BLOCK_NAMES:
        src = RECIPROCAL_BLOCK[name]
        # source entry for (j, i) is src[sigma(i), sigma(j)]
        src_vals = masked.values[src][np.ix_(sig, sig)].T
        src_known = masked.known[src][np.ix_(sig, sig)].T
        fill = ~known[name] & src_known
        values[name][fill] = src_vals[fill]
        known[name][fill] = True
    return MaskedMSR(masked.base, known, values)


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

    Per block and incident column: solve (A^H A + alpha I) c = A^H u over the
    known rows (A[j, l] = w_l e^{-i k xhat_j . y_l}, k of the received
    component: k_p for pp/sp, k_s for ps/ss), then predict unknown rows as
    A_full c.  Known entries are kept verbatim.  Columns sharing a known-row
    pattern share one factorization.
    """
    if alpha is not None and not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if not n_boundary >= 1:
        raise ValueError(f"need n_boundary >= 1, got {n_boundary}")
    scene = scene_from_string(masked.base.scene)
    circ = scene.circumradius()
    if not ball_radius > circ:
        raise ValueError(
            f"ball radius {ball_radius} must exceed the scene circumradius {circ:.3f}")

    medium = masked.base.medium
    m = masked.m
    n2m = 2 * m
    from .forward import direction_grid

    dirs = direction_grid(m)
    tb = 2.0 * np.pi * np.arange(n_boundary) / n_boundary
    yb = ball_radius * np.stack([np.cos(tb), np.sin(tb)], axis=-1)   # (nB, 2)
    wb = 2.0 * np.pi * ball_radius / n_boundary

    kernels = {
        "f_pp": medium.k_p, "f_sp": medium.k_p,
        "f_ps": medium.k_s, "f_ss": medium.k_s,
    }
    out_blocks = {}
    for name in BLOCK_NAMES:
        k = kernels[name]
        a_full = wb * np.exp(-1j * k * (dirs @ yb.T))                # (2m, nB)
        vals = masked.values[name]
        known = masked.known[name]
        filled = np.where(known, vals, 0.0)
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
            pred = a_full @ coef                                     # (2m, ncols)
            block_cols = filled[:, cols]
            block_cols[~rows] = pred[~rows]
            filled[:, cols] = block_cols
        out_blocks[name] = filled

    alpha_desc = (f"auto(delta={masked.base.delta!r})" if alpha is None else repr(alpha))
    return replace(masked.base, f_pp=out_blocks["f_pp"], f_ps=out_blocks["f_ps"],
                   f_sp=out_blocks["f_sp"], f_ss=out_blocks["f_ss"],
                   retrieval=f"R={ball_radius!r} nB={n_boundary} alpha={alpha_desc}")


def limited_indicator(masked: MaskedMSR, grid: SamplingGrid, kinds, q=(1.0, 0.0)
                      ) -> dict[IndicatorKind, IndicatorField]:
    """Indicator fields restricted to known (j, i) pairs (unknown ones contribute zero)."""
    return indicator_fields(masked.assembled_known(), masked.m, masked.base.medium, grid,
                            kinds, q)
