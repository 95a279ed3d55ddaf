"""Closed-form Euclidean projections used by every sub-solver, and the
closed-form dual steps of the primal-dual solvers.

The dual step of the primal-dual iteration for a term f = i_C (the
indicator of a set C) is the prox of gamma f*. By the Moreau identity it
is vt - gamma P_C(vt / gamma) = vt - P_{gamma C}(vt): what is left of vt
after projecting it onto the set scaled by gamma. The ``*_dual_prox``
factories compute that residual directly, with the scaled set built once.
For f = w ||.||_1, f* is the indicator of the l-inf ball of radius w, so
its dual step is the projection onto that ball, for every gamma.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

DualProx = Callable[[np.ndarray], np.ndarray]

__all__ = [
    "IntervalBox",
    "L2Ball",
    "L1Levelset",
    "project_box",
    "box_violation",
    "project_l2_ball",
    "project_l1_levelset",
    "box_dual_prox",
    "l1_norm_dual_prox",
    "l2_ball_dual_prox",
    "l1_levelset_dual_prox",
]


@dataclass(frozen=True)
class IntervalBox:
    """Componentwise interval [lo, hi]; bounds broadcast over the vector."""

    lo: float | np.ndarray = -np.inf
    hi: float | np.ndarray = np.inf

    def __post_init__(self):
        if np.any(np.asarray(self.lo) > np.asarray(self.hi)):
            raise ValueError("interval requires lo <= hi componentwise")


@dataclass(frozen=True)
class L2Ball:
    """Euclidean ball of given center (vector or scalar) and radius."""

    center: float | np.ndarray
    radius: float

    def __post_init__(self):
        if self.radius < 0:
            raise ValueError("ball radius must be nonnegative")


@dataclass(frozen=True)
class L1Levelset:
    """Sublevel set { u : ||u||_1 <= level }."""

    level: float

    def __post_init__(self):
        if self.level < 0:
            raise ValueError("l1 level must be nonnegative")


def project_box(x: np.ndarray, box: IntervalBox) -> np.ndarray:
    """Componentwise clip of x into [lo, hi]."""
    return np.clip(np.asarray(x, dtype=float), box.lo, box.hi)


def box_violation(x: np.ndarray, box: IntervalBox) -> float:
    """Largest distance of a component of x outside [lo, hi] (0 inside)."""
    x = np.asarray(x)
    return max(float(np.max(np.asarray(box.lo) - x, initial=0.0)),
               float(np.max(x - np.asarray(box.hi), initial=0.0)))


def project_l2_ball(x: np.ndarray, ball: L2Ball) -> np.ndarray:
    """Radial projection onto the ball; supports complex vectors."""
    x = np.asarray(x)
    d = x - ball.center
    norm = np.linalg.norm(d)
    if norm <= ball.radius:
        return x.copy()
    if norm == 0.0:
        return np.broadcast_to(ball.center, x.shape).astype(x.dtype).copy()
    return ball.center + d * (ball.radius / norm)


def _l1_threshold(mags: np.ndarray, level: float) -> float:
    """The theta > 0 with sum(max(mags - theta, 0)) = level.

    For nonnegative ``mags`` with sum(mags) > level > 0. Michelot's pivot
    loop, without sorting (Condat, Math. Prog. 2016): theta is the mean
    excess over the level of the entries above the last theta, starting
    from theta = 0. In exact arithmetic each step raises theta and
    shrinks the set of entries above it; the loop ends when that set
    stops shrinking. Rounding can let an entry within an ulp of theta
    drop out and come back, so the test is "not smaller", not "equal":
    the loop then ends, and it runs at most ``mags.size + 1`` times.
    The set is kept as a mask on the full array, whose sum is a dot
    product: cheaper than compacting it when most entries stay in it.
    """
    mags = mags.ravel()
    theta, kept_before = 0.0, mags.size + 1
    while True:
        keep = mags > theta
        kept = np.count_nonzero(keep)
        # kept == 0 only when rounding put theta at the largest entry
        if kept >= kept_before or kept == 0:
            return theta
        theta, kept_before = (mags @ keep - level) / kept, kept


def project_l1_levelset(x: np.ndarray, levelset: L1Levelset) -> np.ndarray:
    """Euclidean projection onto the l1 ball of radius ``levelset.level``.

    A soft threshold at the level that makes the l1 norm hit the budget
    (``_l1_threshold``); points already inside are returned unchanged.
    """
    x = np.asarray(x, dtype=float)
    beta = levelset.level
    mags = np.abs(x)
    if mags.sum() <= beta:
        return x.copy()
    if beta == 0.0:
        return np.zeros_like(x)
    theta = _l1_threshold(mags, beta)
    return np.sign(x) * np.maximum(mags - theta, 0.0)


# Each dual prox may overwrite its argument and return it.

def box_dual_prox(box: IntervalBox, gamma: float) -> DualProx:
    """vt -> vt - clip(vt, gamma lo, gamma hi), the dual step of i_box."""
    lo, hi = gamma * np.asarray(box.lo), gamma * np.asarray(box.hi)

    def prox(vt):
        vt -= np.clip(vt, lo, hi)
        return vt

    return prox


def l1_norm_dual_prox(weight: float, gamma: float) -> DualProx:
    """vt -> clip(vt, -weight, weight), the dual step of weight ||.||_1:
    the projection onto the l-inf ball of radius ``weight``, the domain
    of its conjugate, whatever gamma."""

    def prox(vt):
        np.clip(vt, -weight, weight, out=vt)
        return vt

    return prox


def l2_ball_dual_prox(ball: L2Ball, gamma: float) -> DualProx:
    """vt -> d max(0, 1 - gamma r / ||d||) with d = vt - gamma c, the dual
    step of the indicator of the ball B(c, r); real or complex."""
    center, radius = gamma * np.asarray(ball.center), gamma * ball.radius

    def prox(vt):
        vt -= center
        norm = np.linalg.norm(vt)
        if norm <= radius:
            vt.fill(0.0)
        else:
            vt *= 1.0 - radius / norm
        return vt

    return prox


def l1_levelset_dual_prox(levelset: L1Levelset, gamma: float) -> DualProx:
    """vt -> clip(vt, -t, t), the dual step of the indicator of the l1
    ball: t is the threshold of vt at level gamma * level, and the step
    is 0 when vt lies in that scaled ball (vt itself at level 0)."""
    level = gamma * levelset.level

    def prox(vt):
        mags = np.abs(vt)
        if mags.sum() <= level:
            vt.fill(0.0)
        elif level > 0.0:
            t = _l1_threshold(mags, level)
            np.clip(vt, -t, t, out=vt)
        return vt

    return prox
