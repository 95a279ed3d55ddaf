"""Hypothesis sets encoding "the structure is absent", and projections.

A localized set replaces the masked region by a normalized-convolution
inpainting band with an energy cap; a background set pins the masked
(background) pixels into a low-intensity interval. Both carry a
surrogate image: the MAP estimate with the structure replaced, a
canonical member of the set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import scipy.ndimage as ndi

from ._pd import DualBlock, WarmProjector
from .operators import (
    LinearMap,
    PixelMask,
    attach_norm_bound,
    build_inpainting,
    mask_select,
    residual_map,
)
from .prox import IntervalBox, L2Ball, project_box, project_l2_ball

__all__ = [
    "StructureSet",
    "StructureProjector",
    "build_localized_set",
    "build_background_set",
    "background_mask",
    "project_localized",
    "project_background",
]


@dataclass
class StructureSet:
    """Convex structure-absent set with its surrogate member.

    ``kind`` is "localized" (inpainting band plus energy ball plus
    nonnegativity) or "background" (interval on the masked pixels plus
    nonnegativity). ``interval`` constrains the inpainting residual for
    localized sets and the masked pixel values for background sets.
    """

    kind: str
    mask: PixelMask
    interval: IntervalBox
    surrogate: np.ndarray = field(repr=False)
    inpaint: LinearMap | None = field(default=None, repr=False)
    residual_op: LinearMap | None = field(default=None, repr=False)
    energy_ball: L2Ball | None = field(default=None, repr=False)

    @property
    def n_pixels(self) -> int:
        return self.mask.n_pixels

    def residual(self, x: np.ndarray) -> float:
        """Worst constraint violation of x in intensity units."""
        x = np.asarray(x).ravel()
        worst = float(np.max(-x, initial=0.0))
        if self.kind == "localized":
            r = self.residual_op.forward(x)
            lo = np.asarray(self.interval.lo)
            hi = np.asarray(self.interval.hi)
            worst = max(worst, float(np.max(lo - r, initial=0.0)),
                        float(np.max(r - hi, initial=0.0)))
            ball = self.energy_ball
            over = np.linalg.norm(x[self.mask.indices] - ball.center) - ball.radius
            worst = max(worst, float(over) / max(1.0, ball.radius))
        else:
            v = x[self.mask.indices]
            lo = np.asarray(self.interval.lo)
            hi = np.asarray(self.interval.hi)
            worst = max(worst, float(np.max(lo - v, initial=0.0)),
                        float(np.max(v - hi, initial=0.0)))
        return max(worst, 0.0)

    def projector(self, tol: float = 1e-8, max_iters: int = 5000,
                  gamma: float = 1.0):
        if self.kind == "background":
            return lambda x: project_background(self, x)
        return StructureProjector(self, tol=tol, max_iters=max_iters,
                                  gamma=gamma)


class StructureProjector(WarmProjector):
    """Warm-started primal-dual projection onto a localized structure set."""

    def __init__(self, sset: StructureSet, tol: float = 1e-8,
                 max_iters: int = 5000, gamma: float = 1.0):
        if sset.kind != "localized":
            raise ValueError("primal-dual projector is for localized sets")
        ball = sset.energy_ball
        super().__init__(IntervalBox(0.0, np.inf), [
            DualBlock(sset.residual_op,
                      lambda z: project_box(z, sset.interval)),
            DualBlock(mask_select(sset.mask),
                      lambda z: project_l2_ball(z, ball)),
        ], tol, max_iters, gamma)


def build_localized_set(x_map: np.ndarray, mask: PixelMask,
                        kernel_sizes: Sequence[int] = (3, 7, 11),
                        tau: float | None = None,
                        theta: float | None = None) -> StructureSet:
    """Structure-absent set for a spatially localized structure.

    The inpainting operator predicts the masked pixels from the rest of
    the image; members must stay within +-tau of that prediction, keep
    the masked energy inside a ball of radius theta around zero, and be
    nonnegative. Defaults: tau is the standard deviation of the MAP's
    inpainting residual, theta the norm of the inpainted patch (inflated
    by 1e-6 so the surrogate is strictly inside). Raises if the surrogate
    fails its own set's constraints.
    """
    x_map = np.asarray(x_map, dtype=float).ravel()
    if x_map.size != mask.n_pixels:
        raise ValueError("MAP estimate does not match the mask grid")
    inpaint = build_inpainting(mask, kernel_sizes)
    res_op = residual_map(mask, inpaint)
    attach_norm_bound(res_op)

    comp = mask.complement()
    inpainted = inpaint.forward(x_map[comp.indices])
    residual_vec = x_map[mask.indices] - inpainted
    if tau is None:
        tau = float(np.std(residual_vec))
    if theta is None:
        theta = float(np.linalg.norm(inpainted)) * (1.0 + 1e-6)

    surrogate = x_map.copy()
    surrogate[mask.indices] = inpainted
    ball = L2Ball(0.0, theta)
    sset = StructureSet(
        kind="localized",
        mask=mask,
        interval=IntervalBox(-tau, tau),
        surrogate=surrogate,
        inpaint=inpaint,
        residual_op=res_op,
        energy_ball=ball,
    )
    # the energy cap may need widening when tau/theta were overridden
    gap = np.linalg.norm(surrogate[mask.indices] - ball.center) - ball.radius
    if gap > 0:
        sset.energy_ball = L2Ball(0.0, theta + gap * (1.0 + 1e-6))
    bad = sset.residual(surrogate)
    if bad > 1e-8:
        raise ValueError(
            f"surrogate violates the structure set (residual {bad:.3e})"
        )
    return sset


def background_mask(x_map: np.ndarray, rows: int, cols: int,
                    threshold_frac: float = 1e-3,
                    dilation_radius: int = 7) -> PixelMask:
    """Background support: complement of the dilated bright-pixel set.

    Bright pixels are those above threshold_frac times the maximum; they
    are dilated with the discrete disk of the given radius (pixel offsets
    with Euclidean norm <= radius).
    """
    if not (0.0 < threshold_frac < 1.0):
        raise ValueError("threshold_frac must be in (0, 1)")
    img = np.asarray(x_map, dtype=float).reshape(rows, cols)
    bright = img > threshold_frac * img.max()
    if bright.any():
        r = int(dilation_radius)
        grid = np.arange(-r, r + 1)
        dy, dx = np.meshgrid(grid, grid, indexing="ij")
        disk = dy ** 2 + dx ** 2 <= r ** 2
        bright = ndi.binary_dilation(bright, structure=disk)
    back = ~bright
    if not back.any():
        raise ValueError("background mask is empty (structures cover the image)")
    return PixelMask.from_boolean(back)


def build_background_set(x_map: np.ndarray, rows: int, cols: int,
                         threshold_frac: float = 1e-3,
                         dilation_radius: int = 7,
                         vartheta: float = 1e-2,
                         mask: PixelMask | None = None) -> StructureSet:
    """Structure-absent set for the low-intensity background.

    The background mask is derived from the MAP estimate (threshold then
    disk dilation) unless given explicitly. Members keep their masked
    pixels in [0, vartheta ||M(x)||_2 / N_M] and are nonnegative; the
    surrogate zeroes the background of the MAP estimate.
    """
    x_map = np.asarray(x_map, dtype=float).ravel()
    if x_map.size != rows * cols:
        raise ValueError("MAP estimate does not match the grid")
    if mask is None:
        mask = background_mask(x_map, rows, cols, threshold_frac,
                               dilation_radius)
    if mask.n_selected == 0:
        raise ValueError("background mask is empty")
    values = x_map[mask.indices]
    tau_hi = vartheta * float(np.linalg.norm(values)) / mask.n_selected
    surrogate = x_map.copy()
    surrogate[mask.indices] = 0.0
    sset = StructureSet(
        kind="background",
        mask=mask,
        interval=IntervalBox(0.0, tau_hi),
        surrogate=surrogate,
    )
    bad = sset.residual(surrogate)
    if bad > 1e-8:
        raise ValueError(
            f"surrogate violates the background set (residual {bad:.3e})"
        )
    return sset


def project_localized(sset: StructureSet, x: np.ndarray, tol: float = 1e-8,
                      max_iters: int = 5000, gamma: float = 1.0) -> np.ndarray:
    """Closest point of a localized structure set to x."""
    return sset.projector(tol=tol, max_iters=max_iters, gamma=gamma)(x)


def project_background(sset: StructureSet, x: np.ndarray) -> np.ndarray:
    """Closed-form projection onto a background set.

    Masked pixels clip into [max(lo, 0), hi]; the remaining pixels clip
    to the nonnegative half-line.
    """
    if sset.kind != "background":
        raise ValueError("closed-form projection is for background sets")
    x = np.asarray(x, dtype=float).ravel()
    out = np.maximum(x, 0.0)
    lo = np.maximum(np.asarray(sset.interval.lo, dtype=float), 0.0)
    hi = np.asarray(sset.interval.hi, dtype=float)
    out[sset.mask.indices] = np.clip(x[sset.mask.indices], lo, hi)
    return out
