"""MAP estimation by primal-dual forward-backward iteration.

The estimate minimizes ||Psi x||_1 subject to x in the constraint box
and ||Phi x - y|| <= epsilon. The l1 weight only scales the objective
of a constrained problem, so the minimizer does not depend on it; the
regularization weight is computed afterwards from the estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ._pd import DualBlock, check_limits, pd_steps
from .operators import LinearMap
from .prox import (IntervalBox, L2Ball, l1_norm_dual_prox, l2_ball_dual_prox,
                   project_box)

__all__ = ["MapProblem", "SolverDiagnostics", "solve_map", "compute_lambda"]


@dataclass
class MapProblem:
    """Data-fit ball, analysis operator and constraint set for one problem."""

    phi: LinearMap
    psi: LinearMap
    data: np.ndarray
    epsilon: float
    constraint: IntervalBox = field(default_factory=lambda: IntervalBox(0.0, np.inf))

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=complex).ravel()
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.phi.out_dim != self.data.size:
            raise ValueError("data length does not match the operator")
        if self.phi.in_dim != self.psi.in_dim:
            raise ValueError("phi and psi act on different image spaces")

    @property
    def n_pixels(self) -> int:
        return self.phi.in_dim

    def feasibility_gap(self, x: np.ndarray) -> float:
        """max(0, ||Phi x - y|| - epsilon)."""
        return self._gap_of_measurements(self.phi.forward(x))

    def _gap_of_measurements(self, phi_x: np.ndarray) -> float:
        r = np.linalg.norm(phi_x - self.data)
        return max(0.0, float(r - self.epsilon))


@dataclass
class SolverDiagnostics:
    iterations: int
    primal_residuals: np.ndarray
    feasibility_gap: float
    objective_series: np.ndarray
    converged: bool
    gamma: float


def _dual_step(x0: np.ndarray, problem: MapProblem, l1_weight: float) -> float:
    """gamma = 8 * l1_weight * sqrt(n_coeffs) / ||x0|| (see solve_map)."""
    primal_scale = (float(np.linalg.norm(x0))
                    or max(float(np.linalg.norm(problem.data)), problem.epsilon))
    return 8.0 * float(l1_weight) * math.sqrt(problem.psi.out_dim) / primal_scale


def solve_map(problem: MapProblem, tol: float = 1e-6,
              max_iters: int = 20000,
              l1_weight: float = 1.0) -> tuple[np.ndarray, SolverDiagnostics]:
    """Compute the MAP estimate of a ball-constrained analysis-l1 problem.

    Iterates until the relative primal change drops below ``tol`` and the
    feasibility gap is at most 1e-6 * epsilon. If ``max_iters`` is reached
    first, the best iterate seen (feasible with lowest objective, else
    smallest gap) is returned with ``converged`` False. The output lies in
    the constraint box exactly. Raises ValueError for a ``tol`` <= 0 or a
    ``max_iters`` < 1.

    ``l1_weight`` scales the objective; since the rest of the problem is
    a pair of hard constraints, the minimizer does not depend on it.

    The iteration starts from x0, the box-clipped back-projection
    Phi^T y, with zero duals. Its dual step is

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
    the box clips away), the primal scale falls back to
    max(||y||, epsilon), which is positive and scales with the data too,
    so gamma stays finite. ``diag.gamma`` reports the step taken.
    """
    if l1_weight <= 0:
        raise ValueError("l1_weight must be positive")
    check_limits(tol, max_iters)
    phi, psi, y, eps = problem.phi, problem.psi, problem.data, problem.epsilon
    box = problem.constraint
    x = project_box(phi.adjoint(y), box)
    gamma = _dual_step(x, problem, l1_weight)
    blocks = [
        DualBlock(psi, partial(l1_norm_dual_prox, l1_weight)),
        DualBlock(phi, partial(l2_ball_dual_prox, L2Ball(y, eps))),
    ]
    gap_tol = 1e-6 * eps

    # x_new = (bar + x) / 2, so Psi x and Phi x follow by linearity
    psi_x = psi.forward(x)
    phi_x = phi.forward(x)
    steps = pd_steps(x, box, blocks, [b.zero_dual() for b in blocks], gamma)

    residuals = []
    objectives = []
    best = (np.inf, np.inf, x)
    converged = False
    it = 0
    for it, (x, x_prev, (psi_bar, phi_bar)) in zip(range(1, max_iters + 1), steps):
        change = np.linalg.norm(x - x_prev) / max(np.linalg.norm(x), 1e-300)
        psi_x = 0.5 * (psi_bar + psi_x)
        phi_x = 0.5 * (phi_bar + phi_x)
        gap = problem._gap_of_measurements(phi_x)
        objective = float(np.sum(np.abs(psi_x)))
        residuals.append(change)
        objectives.append(objective)
        score = (0.0, objective) if gap <= gap_tol else (gap, np.inf)
        if score < best[:2]:
            best = (*score, x)
        # iteration 1 cannot move the primal (duals start at zero)
        if it >= 2 and change <= tol and gap <= gap_tol:
            # the tracked Phi x carries rounding; certify on the exact gap
            phi_x = phi.forward(x)
            gap = problem._gap_of_measurements(phi_x)
            if gap <= gap_tol:
                converged = True
                break

    if not converged:
        x = best[2]
        gap = problem.feasibility_gap(x)
    diag = SolverDiagnostics(
        iterations=it,
        primal_residuals=np.asarray(residuals),
        feasibility_gap=gap,
        objective_series=np.asarray(objectives),
        converged=converged,
        gamma=gamma,
    )
    return x, diag


def compute_lambda(x_map: np.ndarray, psi: LinearMap) -> float:
    """Maximum-likelihood regularization weight: n_pixels / ||Psi x||_1."""
    l1 = float(np.sum(np.abs(psi.forward(np.asarray(x_map).ravel()))))
    if l1 == 0.0:
        raise ValueError("degenerate MAP estimate: ||Psi x||_1 = 0, "
                         "regularization weight undefined")
    return psi.in_dim / l1
