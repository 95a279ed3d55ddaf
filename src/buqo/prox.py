"""The sets whose closed-form dual steps the primal-dual solvers take,
and closed-form Euclidean projections onto them.

The dual step of the primal-dual iteration for a term f = i_C (the
indicator of a set C) is the prox of gamma f*. By the Moreau identity it
is vt - gamma P_C(vt / gamma) = vt - P_{gamma C}(vt): what is left of vt
after projecting it onto the set scaled by gamma. Each set's
``dual_prox(gamma)`` computes that residual directly, with the scaled
set built once per call. The l1-ball projection is that step read back
through the identity at gamma = 1, P_C(x) = x - dual_prox(1)(x); the
box and the l2 ball keep their own closed forms, since x minus the
residual loses digits when the set is small beside x. For
f = w ||.||_1 (:class:`L1Norm`), f* is the
indicator of the l-inf ball of radius w, so its dual step is the
projection onto that ball, for every gamma. A dual step may overwrite
its argument and return it; ``violation(z)`` is <= 0 on the set, > 0 off it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

DualProx = Callable[[np.ndarray], np.ndarray]

__all__ = [
    "IntervalBox",
    "NONNEGATIVE",
    "L2Ball",
    "L1Levelset",
    "L1Norm",
    "project_box",
    "project_l2_ball",
    "project_l1_levelset",
]


@dataclass(frozen=True)
class IntervalBox:
    """Componentwise interval [lo, hi]; bounds broadcast over the vector."""

    lo: float | np.ndarray = -np.inf
    hi: float | np.ndarray = np.inf

    def __post_init__(self):
        if not np.all(np.asarray(self.lo) <= np.asarray(self.hi)):
            raise ValueError("interval requires lo <= hi componentwise")

    def dual_prox(self, gamma: float) -> DualProx:
        """vt -> vt - clip(vt, gamma lo, gamma hi), the dual step of i_box."""
        lo, hi = gamma * np.asarray(self.lo), gamma * np.asarray(self.hi)

        def prox(vt):
            vt -= np.clip(vt, lo, hi)
            return vt

        return prox

    def violation(self, z: np.ndarray) -> float:
        """Largest distance of a component of z outside [lo, hi] (0 inside)."""
        return max(float(np.max(self.lo - z, initial=0.0)),
                   float(np.max(z - self.hi, initial=0.0)))


# the nonnegative orthant: every image of the model lies in it
NONNEGATIVE = IntervalBox(0.0, np.inf)


def _excess(norm: float, size: float) -> float:
    """norm - size, relative to size when 0 < size < inf (never NaN)."""
    return (norm - size) / size if 0.0 < size < np.inf else norm - size


@dataclass(frozen=True)
class L2Ball:
    """The set of z with ||z - c||^2 + offset <= r^2: center c (vector or
    scalar), radius r, and the energy ``offset`` that a fold of the data
    takes out of the residual (see ``operators.masked_dft``)."""

    center: float | np.ndarray
    radius: float
    offset: float = 0.0

    def __post_init__(self):
        if not self.radius >= 0:
            raise ValueError("ball radius must be nonnegative")

    @property
    def inner_radius(self) -> float:
        """sqrt(r^2 - offset), the radius of the set around c."""
        return math.sqrt(self.radius ** 2 - self.offset) if self.offset else self.radius

    def dual_prox(self, gamma: float) -> DualProx:
        """vt -> d max(0, 1 - gamma r' / ||d||) with d = vt - gamma c, the dual
        step of the indicator of B(c, r'), r' = ``inner_radius``; complex too."""
        center, radius = gamma * np.asarray(self.center), gamma * self.inner_radius

        def prox(vt):
            vt -= center
            norm = np.linalg.norm(vt)
            if norm <= radius:
                vt.fill(0.0)
            else:
                vt *= 1.0 - radius / norm
            return vt

        return prox

    def violation(self, z: np.ndarray) -> float:
        """The excess sqrt(||z - c||^2 + offset) - r, relative to r (see
        ``_excess``)."""
        norm = math.hypot(np.linalg.norm(z - self.center), math.sqrt(self.offset))
        return _excess(norm, self.radius)


@dataclass(frozen=True)
class L1Levelset:
    """Sublevel set { u : ||u||_1 <= level }."""

    level: float

    def __post_init__(self):
        if not self.level >= 0:
            raise ValueError("l1 level must be nonnegative")

    def dual_prox(self, gamma: float) -> DualProx:
        """vt -> clip(vt, -t, t), the dual step of the indicator of the l1
        ball: t is the threshold of vt at level gamma * level, and the step
        is 0 when vt lies in that scaled ball (vt itself at level 0). Each
        threshold search starts from the step's previous threshold, which
        moves little between the iterations of one solve."""
        level = gamma * self.level
        theta = 0.0

        def prox(vt):
            nonlocal theta
            mags = np.abs(vt)
            if mags.sum() <= level:
                vt.fill(0.0)
            elif level > 0.0:
                theta = _l1_threshold(mags, level, theta)
                np.clip(vt, -theta, theta, out=vt)
            return vt

        return prox

    def violation(self, z: np.ndarray) -> float:
        """The excess ||z||_1 - level, relative to level (see ``_excess``)."""
        return _excess(float(np.sum(np.abs(z))), self.level)


@dataclass(frozen=True)
class L1Norm:
    """The weighted norm u -> weight ||u||_1, weight > 0."""

    weight: float

    def __post_init__(self):
        if not self.weight > 0:
            raise ValueError("l1_weight must be positive")

    def dual_prox(self, gamma: float) -> DualProx:
        """vt -> clip(vt, -weight, weight), the dual step of weight ||.||_1:
        the projection onto the l-inf ball of radius ``weight``, the domain
        of its conjugate, whatever gamma."""
        weight = self.weight

        def prox(vt):
            np.clip(vt, -weight, weight, out=vt)
            return vt

        return prox


def project_box(x: np.ndarray, box: IntervalBox) -> np.ndarray:
    """Componentwise clip of x into [lo, hi]."""
    return np.clip(np.asarray(x, dtype=float), box.lo, box.hi)


def project_l2_ball(x: np.ndarray, ball: L2Ball) -> np.ndarray:
    """Radial projection onto the ball; supports complex vectors."""
    x = np.asarray(x)
    d = x - ball.center
    norm = np.linalg.norm(d)
    if norm <= ball.inner_radius:
        return x.copy()
    return ball.center + d * (ball.inner_radius / norm)


def _l1_threshold(mags: np.ndarray, level: float, start: float = 0.0) -> float:
    """The theta > 0 with sum(max(mags - theta, 0)) = level.

    For nonnegative ``mags`` with sum(mags) > level > 0. Michelot's pivot
    loop, without sorting (Condat, Math. Prog. 2016): theta is the mean
    excess over the level of the entries above the last theta. In exact
    arithmetic, from any theta at or below the root, each step raises
    theta and shrinks the set of entries above it; the loop ends when
    that set stops shrinking, and theta is then the same expression over
    the same final set whatever the start. Rounding can let an entry
    within an ulp of theta drop out and come back, so the test is "not
    smaller", not "equal": the loop then ends, and it runs at most
    ``mags.size + 1`` times, plus one pass for a ``start``. The set is
    kept as a mask on the full array, whose sum is a dot product: cheaper
    than compacting it when most entries stay in it.

    The loop starts from 0, or, given a ``start`` > 0 (the previous root
    of a slowly moving sequence), from one pivot step taken at the start:
    theta -> sum(max(mags - theta, 0)) is convex, so that step lands at or
    below the root. A step below 0 starts the loop from 0, as does a start
    that no entry exceeds. Over the region dual steps of a 64x64 POCS
    test, the previous root as the start took 3.1 passes per call, the
    pivot's included, against 5.3 from 0, for the same theta.
    """
    mags = mags.ravel()
    theta = 0.0
    if start > 0.0:
        keep = mags > start
        kept = np.count_nonzero(keep)
        if kept:
            theta = max((mags @ keep - level) / kept, 0.0)
    kept_before = mags.size + 1
    while True:
        keep = mags > theta
        kept = np.count_nonzero(keep)
        # kept == 0 only when rounding put theta at the largest entry
        if kept >= kept_before or kept == 0:
            return theta
        theta, kept_before = (mags @ keep - level) / kept, kept


def project_l1_levelset(x: np.ndarray, levelset: L1Levelset) -> np.ndarray:
    """Euclidean projection onto the l1 ball of radius ``levelset.level``.

    Moreau's identity at gamma = 1, x = P_C(x) + (x - P_C(x)), read the
    other way: the projection is what the dual step
    ``levelset.dual_prox(1.0)`` leaves of x. The step runs on a copy, so
    x is not written.
    """
    x = np.asarray(x, dtype=float)
    return x - levelset.dual_prox(1.0)(x.copy())
