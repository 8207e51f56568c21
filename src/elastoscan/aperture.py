"""Limited-aperture machinery: masking, reciprocity fill, limited-data indicators.

An aperture is two boolean vectors of length 2m over the direction grid, the
observed and the incident directions (harness.MaskSpec.directions builds them).
Far-field data have one layout, the 4m x 4m operator F = [[F_pp, F_sp],
[F_ps, F_ss]] of MSRMatrix.full; a limited data set is that operator with a
known-entry mask of the same shape and every unknown entry 0.  The reciprocity
relations

    u_pp(xhat, d) = u_pp(-d, -xhat),  u_ss likewise,  u_ps(xhat, d) = u_sp(-d, -xhat)

become, with the antipode map sigma(i) = ((i+m-1) mod 2m)+1 on the direction
grid and Sigma = [sigma, sigma + 2m] on the rows and columns of F, one map

    F = F[Sigma, Sigma]^T,

so unmeasured entries can be copied from measured ones.  What reciprocity
cannot reach stays unknown and 0, which is how the indicators read it (the
restricted sum over known pairs).  Extrapolating it from the measured rows
does not help: the far-field modes outside the aperture are the ones a
band-limited fit over a limited arc cannot determine (Slepian-Pollak
concentration), and on clean kite data every truncated-SVD setting tried left
a larger error on those entries than zero.

The indicators of the retrieved data need no pass over the filled operator.
Let K be the known entries and sigma K = {(J, I) : (Sigma I, Sigma J) in K}
their reciprocity images; the fill copies F_ab[j, i] <- F_ba[sigma i, sigma j]
into the entries of sigma K outside K, which are the images of K outside
sigma K.  The test functions flip under the antipode, phi_c(sigma theta) =
-conj phi_c(theta) for c = p, s (the phase e^{-ik z.theta} and the weights
q.theta and q.theta_perp all change sign or conjugate), so

    conj phi_a(theta_j) phi_b(theta_i) = conj phi_b(theta_{sigma i}) phi_a(theta_{sigma j}),

and a filled entry adds to the form phi_a^H F_ab phi_b what its image adds to
phi_b^H F_ba phi_a.  With G(F|S) the forms of F restricted to the entries S,

    G_ab(filled) = G_ab(F|K) + G_ba(F|K) - G_ba(F|K & sigma K).

pp and ss map to themselves and ps and sp to each other, so each output kind
(PP, SS, and FF, the sum of all four) is G_ret = 2 G(F|K) - G(F|K & sigma K),
for any observed x incident aperture.  The harness keeps the forms of the
limited pass, and retrieved_forms adds one pass over the doubly known entries
K & sigma K, whose live direction classes are far fewer: with every incident
direction they are observed x sigma(observed), 64 x 64 classes of 129 x 129 at
quarter aperture and m = 128.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forward import MSRMatrix, blocks
from .indicators import (IndicatorField, IndicatorKind, SamplingGrid, indicator_fields,
                         indicator_forms)


def antipode(i, m: int):
    """sigma: index of the opposite direction, an involution on 0..2m-1."""
    return (np.asarray(i) + m) % (2 * m)


@dataclass(frozen=True)
class MaskedMSR:
    """MSR with a known-entry mask; unknown entries of data are 0.

    mask and data share the 4m x 4m layout of MSRMatrix.full.
    """

    base: MSRMatrix
    mask: np.ndarray       # (4m, 4m) bool
    data: np.ndarray       # (4m, 4m) complex, 0 where unknown

    @property
    def m(self) -> int:
        return self.base.m

    @property
    def known(self) -> dict[str, np.ndarray]:
        """Block name -> view of mask (bench/tracing.py counts filled entries with it)."""
        return blocks(self.mask, self.m)


def apply_mask(msr: MSRMatrix, observed: np.ndarray, incident: np.ndarray) -> MaskedMSR:
    """Mark entry (j, i) of every block known iff observed[j] and incident[i].

    observed and incident are boolean vectors over the 2m directions.
    """
    known = np.tile(observed[:, None] & incident[None, :], (2, 2))
    return MaskedMSR(msr, known, np.where(known, msr.full, 0.0))


def _image(m: int):
    """The index of F[Sigma, Sigma], whose transpose is the reciprocity image of F."""
    sig = antipode(np.arange(2 * m), m)
    sigma = np.concatenate([sig, sig + 2 * m])
    return np.ix_(sigma, sigma)


def reciprocity_fill(masked: MaskedMSR) -> MaskedMSR:
    """Fill unknown entries from their reciprocity images where those are known.

    The image of F is F[Sigma, Sigma]^T; Sigma is an involution, so the pass
    is idempotent and never touches a known entry.  An unknown entry whose
    image is unknown too takes the image's 0.
    """
    image = _image(masked.m)
    return MaskedMSR(masked.base, masked.mask | masked.mask[image].T,
                     np.where(masked.mask, masked.data, masked.data[image].T))


def retrieved_forms(masked: MaskedMSR, limited: dict[str, np.ndarray], grid: SamplingGrid,
                    kinds, q) -> dict[str, np.ndarray]:
    """The complex forms of reciprocity_fill(masked).data on the grid, for the kinds.

    limited holds the forms indicator_forms gives for masked.data on that grid with
    the same kinds and q.  One more pass, over the entries known together with
    their image (K & sigma K), gives the rest: G_ret = 2 G(F|K) - G(F|K & sigma K)
    for PP, SS and FF (see the module docstring).
    """
    image = _image(masked.m)
    both = masked.mask & masked.mask[image].T
    doubly = indicator_forms(np.where(both, masked.data, 0.0), masked.m, masked.base.medium,
                             grid, kinds, q)
    return {kind.value: 2.0 * limited[kind.value] - doubly[kind.value] for kind in kinds}


def limited_indicator(masked: MaskedMSR, grid: SamplingGrid, kinds, q=(1.0, 0.0)
                      ) -> dict[IndicatorKind, IndicatorField]:
    """Indicator fields restricted to known (j, i) pairs (unknown ones are 0).

    Nothing in the package calls it; the pipeline keeps the complex forms of
    harness.forms_of for retrieved_forms.  It stays as the target bench/tracing.py names.
    """
    return indicator_fields(masked.data, masked.m, masked.base.medium, grid, kinds, q)


def tikhonov_retrieve(masked: MaskedMSR) -> MSRMatrix:
    """harness.retrieve_msr, under the name bench/tracing.py lists as its retrieval target.

    Nothing in the package calls it; it goes when that target names
    harness.retrieve_msr.
    """
    from .harness import retrieve_msr
    return retrieve_msr(masked)
