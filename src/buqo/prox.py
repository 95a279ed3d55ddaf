"""Closed-form Euclidean projections used by every sub-solver."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "IntervalBox",
    "L2Ball",
    "L1Levelset",
    "project_box",
    "box_violation",
    "project_l2_ball",
    "project_l1_levelset",
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


def project_l1_levelset(x: np.ndarray, levelset: L1Levelset) -> np.ndarray:
    """Euclidean projection onto the l1 ball of radius ``levelset.level``.

    Uses the sort-based exact Lagrange multiplier (soft threshold at the
    level that makes the l1 norm hit the budget); points already inside
    are returned unchanged. Ties at the threshold resolve by the
    sorted-prefix rule.
    """
    x = np.asarray(x, dtype=float)
    beta = levelset.level
    mags = np.abs(x)
    if mags.sum() <= beta:
        return x.copy()
    if beta == 0.0:
        return np.zeros_like(x)
    u = np.sort(mags)[::-1]
    cumsum = np.cumsum(u)
    j = np.arange(1, u.size + 1)
    rho = np.max(np.flatnonzero(u * j > cumsum - beta)) + 1
    theta = (cumsum[rho - 1] - beta) / rho
    return np.sign(x) * np.maximum(mags - theta, 0.0)
