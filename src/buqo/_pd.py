"""Shared primal-dual forward-backward (Condat–Vũ) core.

Solves min_u h(u) + i_box(u) + sum_i f_i(A_i u) where each f_i has a
closed-form prox and h, if any, a beta-Lipschitz gradient. Each client
passes its own h and primal step: the MAP has no h (beta = 0), a
projection of x has h = 1/2 ||u - x||^2 (beta = 1), and a pair problem
may couple its halves. Each block holds its term f_i, a set or norm from
``prox`` whose ``dual_prox(gamma)`` is the prox of gamma f_i* in closed
form, and its ``violation`` for :func:`residual`.

The iteration converges when the primal step sigma and the dual step
gamma satisfy sigma * (beta/2 + gamma * sum ||A_i||^2) < 1 (for each
component, given a sigma per component); for a given gamma,
:func:`pd_step_sizes` takes the largest such sigma (times 0.99).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .operators import LinearMap
from .prox import IntervalBox, L1Levelset, L1Norm, L2Ball, project_box


@dataclass
class DualBlock:
    """One linearly-composed term f(A u): operator plus term.

    ``term`` is the set C of f = i_C, or the weighted norm f itself.
    ``term.dual_prox(gamma)`` returns the prox of gamma f*;
    :func:`pd_steps` builds it once, for its own gamma. The returned
    step may overwrite its argument and return it.
    """

    op: LinearMap
    term: IntervalBox | L2Ball | L1Levelset | L1Norm

    def zero_dual(self) -> np.ndarray:
        dtype = complex if self.op.complex_output else float
        return np.zeros(self.op.out_dim, dtype=dtype)


# default tolerance and iteration limit of the inner projections
INNER_TOL = 1e-8
INNER_MAX_ITERS = 5000


def check_limits(tol: float, max_iters: int) -> None:
    """Reject a tolerance <= 0, infinite or NaN, and an iteration limit
    that is not an integer (a bool included) or is < 1."""
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    if (isinstance(max_iters, bool) or not isinstance(max_iters, (int, np.integer))
            or max_iters < 1):
        raise ValueError(f"max_iters must be an integer >= 1, got {max_iters!r}")


def residual(x: np.ndarray, box: IntervalBox, blocks: list[DualBlock]) -> float:
    """Worst ``violation`` of box ∩ {A_i x in C_i} at x (0 for a member)."""
    x = np.asarray(x).ravel()
    return max([box.violation(x)] + [b.term.violation(b.op.forward(x)) for b in blocks])


def pd_step_sizes(blocks: list[DualBlock], gamma: float, beta: float) -> float:
    """The primal step sigma = 0.99 / (beta/2 + gamma * sum ||A_i||^2).

    It saturates, up to the factor 0.99, the step condition
    sigma * (beta/2 + gamma * sum ||A_i||^2) < 1, where beta is the
    Lipschitz constant of the smooth term's gradient (0 without one).
    """
    total = sum(b.op.norm_bound ** 2 for b in blocks)
    return 0.99 / (0.5 * beta + gamma * total)


def pd_steps(u: np.ndarray, box: IntervalBox, blocks: list[DualBlock],
             duals: list[np.ndarray], sigma: float | np.ndarray, gamma: float,
             gradient: Callable | None = None) -> Iterator[tuple]:
    """Endless Condat–Vũ iteration from ``u``, updating ``duals`` in place.

    ``sigma`` is the primal step, a number or one per component of ``u``,
    and ``gamma`` the dual step (see :func:`pd_step_sizes`); ``gradient(u,
    out)`` writes the smooth term's gradient at u into ``out`` (None: no
    smooth term). Each step yields (new point, previous point, [A_i bar]),
    where bar is the extrapolated point 2 * new - previous. The gradient,
    the extrapolated point and the dual temporaries live in buffers reused
    across steps: the arrays held in ``duals`` on entry become scratch,
    while yielded arrays are never written again.
    """
    dual_steps = [b.term.dual_prox(gamma) for b in blocks]
    grad = np.empty_like(u)
    bar = np.empty_like(u)
    scratch = [np.empty_like(v) for v in duals]
    while True:
        if gradient is None:
            grad.fill(0.0)
        else:
            gradient(u, grad)
        for b, v in zip(blocks, duals):
            grad += b.op.adjoint(v)
        grad *= sigma
        u_new = np.subtract(u, grad)
        np.clip(u_new, box.lo, box.hi, out=u_new)
        np.multiply(u_new, 2.0, out=bar)
        bar -= u
        images = [b.op.forward(bar) for b in blocks]
        for k, (dual_step, image) in enumerate(zip(dual_steps, images)):
            vt = scratch[k]
            np.multiply(image, gamma, out=vt)
            vt += duals[k]
            scratch[k] = duals[k]
            duals[k] = dual_step(vt)
        yield u_new, u, images
        u = u_new


def project_intersection(anchor: np.ndarray, box: IntervalBox, blocks: list[DualBlock],
                         tol: float, max_iters: int, duals: list[np.ndarray],
                         gamma: float) -> tuple[np.ndarray, list[np.ndarray], bool, int]:
    """Project ``anchor``; returns (point, duals, converged, iters).

    Starts from the dual variables ``duals``, a list that the iteration
    updates in place and that is returned (see :func:`pd_steps`), and
    from the primal point they imply, P_box(anchor - sum A_i* v_i). Stops
    on relative primal change <= tol, with the box projection applied at
    the last primal step so the output lies in the box exactly.
    """
    u = project_box(anchor - sum(b.op.adjoint(v) for b, v in zip(blocks, duals)), box)
    steps = pd_steps(u, box, blocks, duals, pd_step_sizes(blocks, gamma, beta=1.0),
                     gamma, lambda v, out: np.subtract(v, anchor, out=out))
    converged = False
    it = 0
    prev_change = 0.0
    for it, (u, u_prev, _) in zip(range(1, max_iters + 1), steps):
        change = np.linalg.norm(u - u_prev)
        # Stop when the estimated distance to the fixed point (geometric
        # tail change * q / (1 - q)) is below tol, not merely the step
        # size: a slowly contracting iteration can satisfy the naive test
        # while still far from the solution. Iteration 1 is excluded: from
        # the start point its gradient is only the box's clip of
        # anchor - sum A_i* v_i, so its change tells nothing.
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

    Keeps the duals between calls, zero before the first, so successive
    projections along a slowly-moving outer iteration start near their
    solution (see :func:`project_intersection`). A call iterates to
    ``tol``, or to a looser per-call tolerance (never a tighter one).
    ``converged`` is the last call's flag; ``inner_iterations`` sums the
    calls' iterations and ``unconverged_calls`` counts the calls that
    stopped at ``max_iters``. Limits that :func:`check_limits` refuses
    raise ValueError.
    """

    gamma: float  # the dual step; each subclass fixes its own

    def __init__(self, sset, tol: float, max_iters: int):
        check_limits(tol, max_iters)
        self.box = sset.box
        self.blocks = sset.blocks
        self.tol = tol
        self.max_iters = max_iters
        self.duals = [b.zero_dual() for b in self.blocks]
        self.converged = True
        self.inner_iterations = 0
        self.unconverged_calls = 0

    def __call__(self, x: np.ndarray, tol: float | None = None) -> np.ndarray:
        tol = self.tol if tol is None else max(self.tol, tol)
        point, _, self.converged, its = project_intersection(
            np.asarray(x, dtype=float).ravel(), self.box, self.blocks, tol=tol,
            max_iters=self.max_iters, duals=self.duals, gamma=self.gamma)
        self.inner_iterations += its
        self.unconverged_calls += not self.converged
        return point
