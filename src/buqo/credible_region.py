"""Conservative posterior credible region and the projection onto it.

The region bundles the data-fit ball, the weighted analysis-l1 level
set and nonnegativity; its threshold is assembled analytically
from the MAP estimate. Projections run the primal-dual sub-solver with
warm-startable dual variables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from ._pd import INNER_MAX_ITERS, INNER_TOL, DualBlock, WarmProjector, residual
from .map_solver import FEASIBILITY_SLACK, MapProblem
from .prox import NONNEGATIVE, IntervalBox, L1Levelset

__all__ = [
    "CredibleRegion",
    "RegionProjector",
    "compute_tau_alpha",
    "compute_epsilon_bound",
    "build_region",
]


def compute_tau_alpha(alpha: float, n: int) -> float:
    """Concentration threshold sqrt(16 log(3/alpha) / n).

    Valid for alpha in (4 exp(-n/3), 1); outside that interval the
    underlying bound does not hold and a ValueError is raised.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    lower = 4.0 * math.exp(-n / 3.0)
    if not (lower < alpha < 1.0):
        raise ValueError(
            f"alpha={alpha} outside the validity interval "
            f"({lower:.3e}, 1) for n={n}"
        )
    return math.sqrt(16.0 * math.log(3.0 / alpha) / n)


def compute_epsilon_bound(sigma: float, m: int) -> float:
    """Noise-energy bound sigma * (2m + 2 sqrt(4m))^(1/2).

    Two standard deviations above the mean of the chi-square law of the
    squared noise norm (2m degrees of freedom), so it holds with high
    probability for complex white noise of per-part std sigma.
    """
    if not 0 < sigma < math.inf:
        raise ValueError("sigma must be positive and finite")
    if m < 1:
        raise ValueError("m must be at least 1")
    return sigma * math.sqrt(2.0 * m + 2.0 * math.sqrt(4.0 * m))


@dataclass
class CredibleRegion:
    """Convex credible region of the observation ``problem``: the box, its
    data ball ``problem.fit`` and the l1 level set of its Psi."""

    alpha: float
    tau_alpha: float
    eta_tilde: float
    lam: float
    x_map: np.ndarray = field(repr=False)
    problem: MapProblem = field(repr=False)
    box: ClassVar[IntervalBox] = NONNEGATIVE

    @property
    def blocks(self) -> list[DualBlock]:
        """The l1 level set of Psi x and the problem's data ball ``fit``."""
        return [DualBlock(self.problem.psi, L1Levelset(self.eta_tilde / self.lam)),
                self.problem.fit]

    def residual(self, x: np.ndarray) -> float:
        """Worst violation of x of the box and of ``blocks`` (0 inside)."""
        return residual(x, self.box, self.blocks)

    def projector(self, tol: float = INNER_TOL,
                  max_iters: int = INNER_MAX_ITERS) -> "RegionProjector":
        return RegionProjector(self, tol, max_iters)


class RegionProjector(WarmProjector):
    """Warm-started projection onto a credible region.

    The dual step gamma = 4 trades primal against dual progress; it is
    robust for the ball + level-set pair (several times faster than 1 on
    hard geometries, same fixed point).
    """

    gamma = 4.0


def build_region(x_map: np.ndarray, lam: float, alpha: float,
                 problem: MapProblem) -> CredibleRegion:
    """Assemble the credible region from a feasible MAP estimate.

    The threshold is lam * ||Psi x||_1 + n (tau_alpha + 1). Raises if the
    estimate violates the data-fit ball (beyond the relative slack
    ``map_solver.FEASIBILITY_SLACK``),
    since the construction requires a feasible anchor point.
    """
    x_map = np.asarray(x_map, dtype=float).ravel()
    if not lam > 0:
        raise ValueError("lam must be positive")
    n = problem.n_pixels
    tau = compute_tau_alpha(alpha, n)
    gap = problem.feasibility_gap(x_map)
    if gap > FEASIBILITY_SLACK * problem.epsilon:
        raise ValueError(
            f"MAP estimate infeasible: data residual exceeds epsilon by {gap:.3e}"
        )
    eta = lam * float(np.sum(np.abs(problem.psi.forward(x_map)))) + n * (tau + 1.0)
    return CredibleRegion(
        alpha=alpha,
        tau_alpha=tau,
        eta_tilde=eta,
        lam=lam,
        x_map=x_map,
        problem=problem,
    )

