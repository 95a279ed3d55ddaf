"""MAP estimation by primal-dual forward-backward iteration.

The estimate minimizes ||Psi x||_1 subject to x >= 0 (``prox.NONNEGATIVE``)
and ||Phi x - y|| <= epsilon. The l1 weight only scales the objective
of a constrained problem, so the minimizer does not depend on it; the
regularization weight is computed afterwards from the estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._pd import DualBlock, check_limits, pd_step_sizes, pd_steps
from .operators import LinearMap
from .prox import NONNEGATIVE, L1Norm, L2Ball, project_box

__all__ = ["MapProblem", "SolverDiagnostics", "solve_map", "compute_lambda"]

# default tolerance and iteration limit of the MAP solve
MAP_TOL = 1e-6
MAP_MAX_ITERS = 20000
# relative slack of the data-fit ball: a MAP estimate counts as feasible
# when ||Phi x - y|| <= (1 + FEASIBILITY_SLACK) epsilon; solve_map
# certifies this, and build_region refuses an estimate beyond it
FEASIBILITY_SLACK = 1e-6


@dataclass(frozen=True)
class MapProblem:
    """One observation: data-fit ball, analysis operator and the image
    ``grid`` that Phi or Psi records (None when neither does). ``fit``,
    the solvers' data ball, is built here, folded when Phi has a ``fold``
    (onto the half spectrum, or onto the image grid for a fully sampled
    masked DFT; see ``operators.masked_dft``). Data that even the best
    real image misses by more than epsilon raise ValueError naming that
    distance; a Phi without a ``fold`` is not checked. The fields cannot
    be assigned, so a changed observation is a new one
    (``dataclasses.replace``), with its own ``fit``."""

    phi: LinearMap
    psi: LinearMap
    data: np.ndarray
    epsilon: float
    fit: DualBlock = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "data",
                           np.asarray(self.data, dtype=complex).ravel())
        if not 0 < self.epsilon < np.inf:
            raise ValueError("epsilon must be positive and finite")
        if not np.all(np.isfinite(self.data)):
            raise ValueError("data must be finite")
        if self.phi.out_dim != self.data.size:
            raise ValueError("data length does not match the operator")
        if self.phi.in_dim != self.psi.in_dim:
            raise ValueError("phi and psi act on different image spaces")
        if self.phi.grid and self.psi.grid and self.phi.grid != self.psi.grid:
            raise ValueError("phi is on a {}x{} grid, psi on {}x{}".format(
                *self.phi.grid, *self.psi.grid))
        op, center, offset, floor = (self.phi.fold(self.data) if self.phi.fold
                                     else (self.phi, self.data, 0.0, 0.0))
        if floor > self.epsilon ** 2:
            raise ValueError("no real image fits the data: the best real fit "
                             f"misses it by {math.sqrt(floor):.6g} > "
                             f"epsilon = {self.epsilon:.6g}")
        object.__setattr__(self, "fit",
                           DualBlock(op, L2Ball(center, self.epsilon, offset)))

    @property
    def grid(self) -> tuple[int, int] | None:
        return self.phi.grid or self.psi.grid

    @property
    def n_pixels(self) -> int:
        return self.phi.in_dim

    def feasibility_gap(self, x: np.ndarray) -> float:
        """max(0, ||Phi x - y|| - epsilon)."""
        r = np.linalg.norm(self.phi.forward(x) - self.data)
        return max(0.0, float(r - self.epsilon))


@dataclass
class SolverDiagnostics:
    iterations: int
    primal_residuals: np.ndarray
    feasibility_gap: float
    objective: float
    converged: bool
    gamma: float


def _dual_step(x0: np.ndarray, problem: MapProblem, l1_weight: float) -> float:
    """gamma = 8 * l1_weight * sqrt(n_coeffs) / ||x0|| (see solve_map)."""
    primal_scale = (float(np.linalg.norm(x0))
                    or max(float(np.linalg.norm(problem.data)), problem.epsilon))
    return 8.0 * float(l1_weight) * math.sqrt(problem.psi.out_dim) / primal_scale


def solve_map(problem: MapProblem, tol: float = MAP_TOL,
              max_iters: int = MAP_MAX_ITERS,
              l1_weight: float = 1.0) -> tuple[np.ndarray, SolverDiagnostics]:
    """Compute the MAP estimate of a ball-constrained analysis-l1 problem.

    Iterates on the data ball ``problem.fit`` until the relative primal
    change drops below ``tol`` and the exact ``problem.feasibility_gap``,
    computed only when the change passes, is at most FEASIBILITY_SLACK *
    epsilon; at ``max_iters`` the last iterate is returned with
    ``converged`` False. ``diag.objective`` is ||Psi x||_1 of the returned
    x, which is nonnegative exactly. Raises ValueError for a ``tol`` <= 0
    or a ``max_iters`` not an integer >= 1.

    ``l1_weight`` scales the objective; since the rest of the problem is
    a pair of hard constraints, the minimizer does not depend on it.

    The iteration starts from x0, the back-projection Phi^T y clipped to
    x >= 0, with zero duals. Its dual step is

        gamma = 8 * l1_weight * sqrt(n_coeffs) / ||x0||,

    n_coeffs being the length of Psi x; the primal step follows from it
    (``_pd.pd_step_sizes``). The l1 dual is bounded by ``l1_weight`` per
    coefficient whatever the data, while the primal scales with the data,
    so gamma balances the dual scale against the primal one. The factor 8
    is measured: on the benchmark and acceptance instances the iteration
    count is flat for gamma in 32..128, and the rule lands at 45..64.

    The iteration is invariant to scale: scaling y and epsilon by c
    scales x0 by c and gamma by 1/c, and scaling ``l1_weight`` by c
    scales the duals and gamma by c. Either way the iterates are the same
    up to rounding, so the iteration count is the same and the estimate
    is c x (or x). If ||x0|| is 0 (zero data, or a back-projection that
    the clip zeroes), the primal scale falls back to
    max(||y||, epsilon), which is positive and scales with the data too,
    so gamma stays finite. ``diag.gamma`` reports the step taken.
    """
    check_limits(tol, max_iters)
    blocks = [DualBlock(problem.psi, L1Norm(l1_weight)), problem.fit]
    x = project_box(problem.phi.adjoint(problem.data), NONNEGATIVE)
    gamma = _dual_step(x, problem, l1_weight)
    gap_tol = FEASIBILITY_SLACK * problem.epsilon
    steps = pd_steps(x, NONNEGATIVE, blocks, [b.zero_dual() for b in blocks],
                     pd_step_sizes(blocks, gamma, beta=0.0), gamma)

    residuals = []
    converged = False
    for it, (x, x_prev, _) in zip(range(1, max_iters + 1), steps):
        change = np.linalg.norm(x - x_prev) / max(np.linalg.norm(x), 1e-300)
        residuals.append(change)
        # iteration 1 cannot move the primal (duals start at zero)
        if it >= 2 and change <= tol and problem.feasibility_gap(x) <= gap_tol:
            converged = True
            break

    diag = SolverDiagnostics(
        iterations=it,
        primal_residuals=np.asarray(residuals),
        feasibility_gap=problem.feasibility_gap(x),
        objective=float(np.sum(np.abs(problem.psi.forward(x)))),
        converged=converged,
        gamma=gamma,
    )
    return x, diag


def compute_lambda(x_map: np.ndarray, psi: LinearMap) -> float:
    """Maximum-likelihood regularization weight: n_pixels / ||Psi x||_1."""
    l1 = float(np.sum(np.abs(psi.forward(np.asarray(x_map).ravel()))))
    if not 0.0 < l1 < np.inf:
        raise ValueError(f"degenerate MAP estimate: ||Psi x||_1 = {l1:g}, "
                         "regularization weight undefined")
    return psi.in_dim / l1
