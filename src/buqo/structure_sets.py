"""Hypothesis sets encoding "the structure is absent", and projections.

A :class:`LocalizedSet` replaces the masked region by a
normalized-convolution inpainting band with an energy cap; a
:class:`BackgroundSet` pins the masked (background) pixels into a
low-intensity interval. Both carry a surrogate image: the MAP estimate
with the structure replaced, a canonical member of the set.
:func:`build_structure_set` builds either from a parsed structure spec.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar, Sequence

import numpy as np

from ._pd import INNER_MAX_ITERS, INNER_TOL, DualBlock, WarmProjector, residual
from .operators import (
    INPAINT_KERNEL_SIZES,
    LinearMap,
    PixelMask,
    attach_norm_bound,
    build_inpainting,
    mask_select,
    residual_map,
)
from .prox import NONNEGATIVE, IntervalBox, L2Ball, project_box

__all__ = [
    "STRUCTURE_KINDS",
    "StructureSet",
    "LocalizedSet",
    "BackgroundSet",
    "StructureProjector",
    "build_localized_set",
    "build_background_set",
    "build_structure_set",
    "structure_params",
    "background_mask",
    "project_background",
]

# the background support: pixels above this fraction of the MAP's maximum
# are bright, and the disk of this radius around them is not background
BACKGROUND_THRESHOLD_FRAC = 1e-3
BACKGROUND_DILATION_RADIUS = 7


@dataclass
class StructureSet:
    """Convex structure-absent set with its surrogate member.

    ``interval`` constrains the inpainting residual of a
    :class:`LocalizedSet` and the masked pixel values of a
    :class:`BackgroundSet`; members of either are also nonnegative.
    """

    mask: PixelMask
    interval: IntervalBox
    surrogate: np.ndarray = field(repr=False)

    def __post_init__(self):
        bad = self.residual(self.surrogate)
        if not bad <= 1e-8:
            raise ValueError(
                f"surrogate violates the structure set (residual {bad:.3e})")

    @property
    def n_pixels(self) -> int:
        return self.mask.n_pixels

    def residual(self, x: np.ndarray) -> float:
        """Worst violation of x of the kind's ``box`` and ``blocks``."""
        return residual(x, self.box, self.blocks)


@dataclass
class LocalizedSet(StructureSet):
    """Inpainting band plus energy ball plus nonnegativity."""

    box: ClassVar[IntervalBox] = NONNEGATIVE

    inpaint: LinearMap = field(repr=False)
    residual_op: LinearMap = field(repr=False)
    energy_ball: L2Ball = field(repr=False)

    @property
    def blocks(self) -> list[DualBlock]:
        """The inpainting band and the energy ball of the masked pixels."""
        return [DualBlock(self.residual_op, self.interval),
                DualBlock(mask_select(self.mask), self.energy_ball)]

    def projector(self, tol: float = INNER_TOL,
                  max_iters: int = INNER_MAX_ITERS):
        return StructureProjector(self, tol, max_iters)


@dataclass
class BackgroundSet(StructureSet):
    """Interval on the masked pixels plus nonnegativity: one box."""

    blocks: ClassVar[tuple] = ()

    @cached_property
    def box(self) -> IntervalBox:
        """Per-pixel bounds: [max(lo, 0), hi] on the mask, NONNEGATIVE off it."""
        lo, hi = np.full((2, self.n_pixels), [[NONNEGATIVE.lo], [NONNEGATIVE.hi]])
        lo[self.mask.indices] = np.maximum(self.interval.lo, NONNEGATIVE.lo)
        hi[self.mask.indices] = self.interval.hi
        return IntervalBox(lo, hi)

    def projector(self, tol: float = INNER_TOL,
                  max_iters: int = INNER_MAX_ITERS):
        return lambda x: project_background(self, x)


class StructureProjector(WarmProjector):
    """Warm-started primal-dual projection onto a localized structure set.

    The dual step is fixed at gamma = 1; any positive gamma gives the
    same projection and sets only the iteration count.
    """

    gamma = 1.0


def build_localized_set(x_map: np.ndarray, mask: PixelMask,
                        kernel_sizes: Sequence[int] = INPAINT_KERNEL_SIZES,
                        tau: float | None = None,
                        theta: float | None = None) -> LocalizedSet:
    """Structure-absent set for a spatially localized structure.

    The inpainting operator predicts the masked pixels from the rest of
    the image; members must stay within +-tau of that prediction, keep
    the masked energy inside a ball of radius theta around zero, and be
    nonnegative. Defaults: tau is the standard deviation of the MAP's
    inpainting residual, theta the norm of the inpainted patch (inflated
    by 1e-6 so the surrogate is strictly inside). Raises ValueError if
    the surrogate fails its own set's constraints, as it does for a theta
    below the norm of the inpainted patch.
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
    return LocalizedSet(mask=mask, interval=IntervalBox(-tau, tau),
                        surrogate=surrogate, inpaint=inpaint,
                        residual_op=res_op, energy_ball=L2Ball(0.0, theta))


def background_mask(x_map: np.ndarray, rows: int, cols: int,
                    threshold_frac: float = BACKGROUND_THRESHOLD_FRAC,
                    dilation_radius: int = BACKGROUND_DILATION_RADIUS) -> PixelMask:
    """Background support: complement of the dilated bright-pixel set.

    Bright pixels are those above threshold_frac times the maximum; they
    are dilated with the discrete disk of the given radius (pixel offsets
    with Euclidean norm <= radius); nothing beyond the border is bright.
    """
    if not (0.0 < threshold_frac < 1.0):
        raise ValueError("threshold_frac must be in (0, 1)")
    if dilation_radius < 0:
        raise ValueError(
            f"dilation_radius must be nonnegative, got {dilation_radius}")
    img = np.asarray(x_map, dtype=float).reshape(rows, cols)
    bright = img > threshold_frac * img.max()
    if bright.any():
        r = int(dilation_radius)
        grid = np.arange(-r, r + 1)
        dy, dx = np.meshgrid(grid, grid, indexing="ij")
        # OR of the zero-padded image shifted by every disk offset
        padded = np.pad(bright, r)
        bright = np.zeros_like(bright)
        for oy, ox in np.argwhere(dy ** 2 + dx ** 2 <= r ** 2):
            bright |= padded[oy:oy + rows, ox:ox + cols]
    back = ~bright
    if not back.any():
        raise ValueError("background mask is empty (structures cover the image)")
    return PixelMask.from_boolean(back)


def build_background_set(x_map: np.ndarray, rows: int, cols: int,
                         threshold_frac: float = BACKGROUND_THRESHOLD_FRAC,
                         dilation_radius: int = BACKGROUND_DILATION_RADIUS,
                         vartheta: float = 1e-2,
                         mask: PixelMask | None = None) -> BackgroundSet:
    """Structure-absent set for the low-intensity background.

    The background mask is derived from the MAP estimate (threshold then
    disk dilation) unless given explicitly; a given mask on another grid
    than rows x cols raises ValueError. Members keep their masked
    pixels in [0, vartheta ||M(x)||_2 / N_M] and are nonnegative; the
    surrogate zeroes the background of the MAP estimate.
    """
    x_map = np.asarray(x_map, dtype=float).ravel()
    if x_map.size != rows * cols:
        raise ValueError("MAP estimate does not match the grid")
    if mask is not None and (mask.rows, mask.cols) != (rows, cols):
        raise ValueError(f"background mask is on a {mask.rows}x{mask.cols} "
                         f"grid, the image on {rows}x{cols}")
    if mask is None:
        mask = background_mask(x_map, rows, cols, threshold_frac,
                               dilation_radius)
    if mask.n_selected == 0:
        raise ValueError("background mask is empty")
    values = x_map[mask.indices]
    tau_hi = vartheta * float(np.linalg.norm(values)) / mask.n_selected
    surrogate = x_map.copy()
    surrogate[mask.indices] = 0.0
    return BackgroundSet(mask=mask, interval=IntervalBox(0.0, tau_hi),
                         surrogate=surrogate)


STRUCTURE_KINDS = ("localized", "background")


def structure_params(kind: str) -> dict:
    """The parameters a spec of ``kind`` may set, with their defaults:
    its builder's keyword parameters other than ``mask``."""
    builder = {"localized": build_localized_set,
               "background": build_background_set}[kind]
    params = inspect.signature(builder).parameters.values()
    return {p.name: p.default for p in params
            if p.default is not p.empty and p.name != "mask"}


def build_structure_set(x_map: np.ndarray, spec) -> StructureSet:
    """Set for a StructureSet (returned as is), a PixelMask (a localized
    structure) or a parsed structure spec (see ``buqo.io.StructureSpec``).

    The spec's kind picks the builder and its ``params`` are that
    builder's keywords: a key the builder does not take raises
    TypeError naming the key.
    """
    if isinstance(spec, StructureSet):
        return spec
    if isinstance(spec, PixelMask):
        return build_localized_set(x_map, spec)
    # named at each call, so a rebound builder (a tracing wrapper) is used
    mask, params = spec.mask, getattr(spec, "params", None) or {}
    if spec.kind == "localized":
        return build_localized_set(x_map, mask, **params)
    if spec.kind == "background":
        # an empty background mask means "derive it from the MAP estimate"
        return build_background_set(x_map, mask.rows, mask.cols, mask=mask if
                                    mask.n_selected else None, **params)
    raise ValueError(f"unknown structure kind {spec.kind!r}")


def project_background(sset: BackgroundSet, x: np.ndarray) -> np.ndarray:
    """Closed-form projection onto a background set: a clip into its box."""
    if not isinstance(sset, BackgroundSet):
        raise ValueError("closed-form projection is for background sets")
    return project_box(np.ravel(x), sset.box)
