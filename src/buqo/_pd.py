"""Shared primal-dual forward-backward (Condat–Vũ) core.

Solves min_u h(u) + i_box(u) + sum_i f_i(A_i u) where each f_i has a
closed-form prox. For a projection onto the box and the sets
{A_i u in C_i}, h is 1/2 ||u - anchor||^2; the MAP estimate has no h.
The dual updates use the Moreau identity, so each block only needs the
primal prox of its function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .operators import LinearMap
from .prox import IntervalBox, project_box


@dataclass
class DualBlock:
    """One linearly-composed term f(A u): operator plus prox.

    ``project`` is the prox of f at step 1/gamma; for the indicator of
    a set that is the projection onto the set.
    """

    op: LinearMap
    project: Callable[[np.ndarray], np.ndarray]

    def zero_dual(self) -> np.ndarray:
        dtype = complex if self.op.complex_output else float
        return np.zeros(self.op.out_dim, dtype=dtype)


def check_limits(tol: float, max_iters: int) -> None:
    """Reject a tolerance <= 0 (or NaN) and an iteration limit < 1."""
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    if not max_iters >= 1:
        raise ValueError(f"max_iters must be at least 1, got {max_iters!r}")


def pd_step_sizes(blocks: list[DualBlock], gamma: float = 1.0) -> tuple[float, float]:
    """Step sizes saturating sigma * (1/2 + gamma * sum ||A_i||^2) < 1."""
    total = sum(b.op.norm_bound ** 2 for b in blocks)
    sigma = 0.99 / (0.5 + gamma * total)
    return sigma, gamma


def pd_steps(u: np.ndarray, box: IntervalBox, blocks: list[DualBlock],
             duals: list[np.ndarray], gamma: float = 1.0,
             anchor: np.ndarray | None = None) -> Iterator[tuple]:
    """Endless Condat–Vũ iteration from ``u``, updating ``duals`` in place.

    Each step yields (new point, previous point, [A_i bar]), where bar is
    the extrapolated point 2 * new - previous. Without ``anchor`` there
    is no smooth term.
    """
    sigma, gamma = pd_step_sizes(blocks, gamma)
    while True:
        grad = None if anchor is None else u - anchor
        for b, v in zip(blocks, duals):
            adj = b.op.adjoint(v)
            if b.op.complex_output:
                adj = np.real(adj)
            grad = adj if grad is None else grad + adj
        u_new = project_box(u - sigma * grad, box)
        bar = 2.0 * u_new - u
        images = [b.op.forward(bar) for b in blocks]
        for k, (b, image) in enumerate(zip(blocks, images)):
            vt = duals[k] + gamma * image
            duals[k] = vt - gamma * b.project(vt / gamma)
        yield u_new, u, images
        u = u_new


def project_intersection(
    anchor: np.ndarray,
    box: IntervalBox,
    blocks: list[DualBlock],
    tol: float = 1e-8,
    max_iters: int = 5000,
    duals: list[np.ndarray] | None = None,
    gamma: float = 1.0,
    u0: np.ndarray | None = None,
) -> tuple[np.ndarray, list[np.ndarray], bool, int]:
    """Run the primal-dual iteration; returns (point, duals, converged, iters).

    ``duals`` and ``u0`` warm-start the dual and primal variables (inputs
    are not mutated; fresh arrays are returned). Stops on relative primal
    change <= tol, with the box projection applied at the last primal step
    so the output lies in the box exactly.
    """
    start = anchor if u0 is None else u0
    u = project_box(np.asarray(start, dtype=float), box)
    if duals is None:
        duals = [b.zero_dual() for b in blocks]
    else:
        duals = [np.array(d, copy=True) for d in duals]
    steps = pd_steps(u, box, blocks, duals, gamma, anchor)
    converged = False
    it = 0
    prev_change = 0.0
    for it, (u, u_prev, _) in zip(range(1, max_iters + 1), steps):
        change = np.linalg.norm(u - u_prev)
        # Stop when the estimated distance to the fixed point (geometric
        # tail change * q / (1 - q)) is below tol, not merely the step
        # size: a slowly contracting iteration can satisfy the naive test
        # while still far from the solution. Iteration 1 is excluded since
        # zero-initialized duals cannot have acted on the primal yet.
        if it >= 2:
            scale = max(np.linalg.norm(u), 1e-300)
            q = min(change / prev_change, 0.999) if prev_change > 0 else 0.0
            tail = change * q / (1.0 - q)
            if change <= tol * scale and tail <= tol * scale:
                converged = True
                break
        prev_change = change
    return u, duals, converged, it


class WarmProjector:
    """Projection onto box ∩ {A_i u in C_i}, warm-started across calls.

    Keeps the duals and the last point between calls, so successive
    projections along a slowly-moving outer iteration start near their
    solution; each call still iterates to its own tolerance.
    """

    def __init__(self, box: IntervalBox, blocks: list[DualBlock],
                 tol: float, max_iters: int, gamma: float):
        self.box = box
        self.blocks = blocks
        self.tol = tol
        self.max_iters = max_iters
        self.gamma = gamma
        self.duals: list[np.ndarray] | None = None
        self.last_point: np.ndarray | None = None
        self.converged = True
        self.inner_iterations = 0

    def __call__(self, x: np.ndarray) -> np.ndarray:
        point, self.duals, self.converged, its = project_intersection(
            np.asarray(x, dtype=float).ravel(), self.box, self.blocks,
            tol=self.tol, max_iters=self.max_iters, duals=self.duals,
            gamma=self.gamma, u0=self.last_point)
        self.last_point = point
        self.inner_iterations += its
        return point
