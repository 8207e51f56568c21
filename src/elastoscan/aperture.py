"""Limited-aperture machinery: masking, reciprocity fill, limited-data indicators.

Far-field data have one layout, the 4m x 4m operator F = [[F_pp, F_sp],
[F_ps, F_ss]] of MSRMatrix.full; a limited data set is that operator with a
known-entry mask of the same shape.  The reciprocity relations

    u_pp(xhat, d) = u_pp(-d, -xhat),  u_ss likewise,  u_ps(xhat, d) = u_sp(-d, -xhat)

become, with the antipode map sigma(i) = ((i+m-1) mod 2m)+1 on the direction
grid and Sigma = [sigma, sigma + 2m] on the rows and columns of F, one map

    F = F[Sigma, Sigma]^T,

so unmeasured entries can be copied from measured ones.  What reciprocity
cannot reach stays unknown: the indicators read it as zero, the
restricted-sum convention of MaskedMSR.assembled_known().  Extrapolating it
from the measured rows does not help: the far-field modes outside the
aperture are the ones a band-limited fit over a limited arc cannot determine
(Slepian-Pollak concentration), and on clean kite data every truncated-SVD
setting tried left a larger error on those entries than zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forward import MSRMatrix, blocks
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


def limited_indicator(masked: MaskedMSR, grid: SamplingGrid, kinds, q=(1.0, 0.0)
                      ) -> dict[IndicatorKind, IndicatorField]:
    """Indicator fields restricted to known (j, i) pairs (unknown ones contribute zero)."""
    return indicator_fields(masked.assembled_known(), masked.m, masked.base.medium, grid,
                            kinds, q)


def tikhonov_retrieve(masked: MaskedMSR) -> MSRMatrix:
    """harness.retrieve_msr, under the name bench/tracing.py lists as its retrieval target.

    Nothing in the package calls it; it goes when that target names
    harness.retrieve_msr.
    """
    from .harness import retrieve_msr
    return retrieve_msr(masked)
