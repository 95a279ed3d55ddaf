"""Shared primal-dual forward-backward (Condat–Vũ) core.

Solves min_u h(u) + i_box(u) + sum_i f_i(A_i u) where each f_i has a
closed-form prox. For a projection onto the box and the sets
{A_i u in C_i}, h is 1/2 ||u - anchor||^2, whose gradient is
beta-Lipschitz with beta = 1; the MAP estimate has no h (beta = 0).
Each block supplies its dual step, the prox of gamma f_i*, in closed
form for the gamma of the iteration: a ``prox.*_dual_prox`` factory,
for the projectors and the MAP alike.

The iteration converges when the primal step sigma and the dual step
gamma satisfy sigma * (beta/2 + gamma * sum ||A_i||^2) < 1; for a given
gamma, :func:`pd_step_sizes` takes the largest such sigma (times 0.99).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .operators import LinearMap
from .prox import DualProx, IntervalBox, project_box


@dataclass
class DualBlock:
    """One linearly-composed term f(A u): operator plus dual step.

    ``dual_prox(gamma)`` returns the prox of gamma f*; :func:`pd_steps`
    builds it once, for its own gamma, so the dual step is set in one
    place. The returned step may overwrite its argument and return it.
    It is a ``prox.*_dual_prox`` factory with its set or weight bound
    (``functools.partial``).
    """

    op: LinearMap
    dual_prox: Callable[[float], DualProx]

    def zero_dual(self) -> np.ndarray:
        dtype = complex if self.op.complex_output else float
        return np.zeros(self.op.out_dim, dtype=dtype)


def check_limits(tol: float, max_iters: int) -> None:
    """Reject a tolerance <= 0 (or NaN) and an iteration limit < 1."""
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    if not max_iters >= 1:
        raise ValueError(f"max_iters must be at least 1, got {max_iters!r}")


def pd_step_sizes(blocks: list[DualBlock], gamma: float, beta: float) -> float:
    """The primal step sigma = 0.99 / (beta/2 + gamma * sum ||A_i||^2).

    It saturates, up to the factor 0.99, the step condition
    sigma * (beta/2 + gamma * sum ||A_i||^2) < 1, where beta is the
    Lipschitz constant of the smooth term's gradient (0 without one).
    """
    total = sum(b.op.norm_bound ** 2 for b in blocks)
    return 0.99 / (0.5 * beta + gamma * total)


def pd_steps(u: np.ndarray, box: IntervalBox, blocks: list[DualBlock],
             duals: list[np.ndarray], gamma: float = 1.0,
             anchor: np.ndarray | None = None) -> Iterator[tuple]:
    """Endless Condat–Vũ iteration from ``u``, updating ``duals`` in place.

    Each step yields (new point, previous point, [A_i bar]), where bar is
    the extrapolated point 2 * new - previous. Without ``anchor`` there
    is no smooth term (beta = 0); with it, h = 1/2 ||u - anchor||^2
    (beta = 1). The gradient, the extrapolated point and the dual
    temporaries live in buffers reused across steps: the arrays held in
    ``duals`` on entry become scratch, while yielded arrays are never
    written again.
    """
    sigma = pd_step_sizes(blocks, gamma, beta=0.0 if anchor is None else 1.0)
    dual_steps = [b.dual_prox(gamma) for b in blocks]
    grad = np.empty_like(u)
    bar = np.empty_like(u)
    scratch = [np.empty_like(v) for v in duals]
    while True:
        if anchor is None:
            grad.fill(0.0)
        else:
            np.subtract(u, anchor, out=grad)
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

    Keeps the duals between calls. A call for a new point x starts from
    the primal point those duals imply for it, P_box(x - sum A_i* v_i),
    so successive projections along a slowly-moving outer iteration start
    near their solution. A call iterates to ``tol``, or to a looser
    per-call tolerance (never a tighter one). ``converged`` is the last
    call's flag; ``inner_iterations`` sums the calls' iterations and
    ``unconverged_calls`` counts the calls that stopped at ``max_iters``.
    """

    def __init__(self, box: IntervalBox, blocks: list[DualBlock],
                 tol: float, max_iters: int, gamma: float):
        self.box = box
        self.blocks = blocks
        self.tol = tol
        self.max_iters = max_iters
        self.gamma = gamma
        self.duals: list[np.ndarray] | None = None
        self.converged = True
        self.inner_iterations = 0
        self.unconverged_calls = 0

    def __call__(self, x: np.ndarray, tol: float | None = None) -> np.ndarray:
        tol = self.tol if tol is None else max(self.tol, tol)
        x = np.asarray(x, dtype=float).ravel()
        u0 = None
        if self.duals is not None:
            u0 = x - sum(b.op.adjoint(v) for b, v in zip(self.blocks, self.duals))
        point, self.duals, self.converged, its = project_intersection(
            x, self.box, self.blocks, tol=tol, max_iters=self.max_iters,
            duals=self.duals, gamma=self.gamma, u0=u0)
        self.inner_iterations += its
        self.unconverged_calls += not self.converged
        return point
