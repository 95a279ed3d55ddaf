"""Independent slow oracles shared by the test modules.

These deliberately avoid the algorithms used by the package: the l1
projection is reproduced by dual bisection and by a batched alternating
projected-subgradient method; the Db8 transform by an explicit tap loop
over the periodic filter bank; intersection projections by a per-instance
projected-subgradient method on dense operators, optionally polished by
a generic trust-region NLP solve (still independent of the package's
primal-dual iterations). The MAP oracle is the opposite kind: the
primal-dual iteration written out operation by operation, with its own
bin-by-bin fold of the data ball, so that a refactoring of the solver
can be held to the same iterates bit for bit.
"""

import numpy as np
from scipy.optimize import LinearConstraint, NonlinearConstraint, minimize

from buqo.prox import NONNEGATIVE


def l1_projection_bisection(x, beta, iters=200):
    """Exact-to-machine l1-ball projection via bisection on the threshold."""
    x = np.asarray(x, dtype=float)
    if np.abs(x).sum() <= beta:
        return x.copy()
    lo, hi = 0.0, float(np.abs(x).max())
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if np.maximum(np.abs(x) - mid, 0.0).sum() > beta:
            lo = mid
        else:
            hi = mid
    t = 0.5 * (lo + hi)
    return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)


def l1_projection_subgradient_batch(X, betas, iters=200000):
    """Alternating Polyak projected-subgradient, vectorized over instances.

    Feasibility violations take a Polyak step along the l1 subgradient;
    feasible iterates take a diminishing gradient step on the distance
    objective. The best feasible iterate is returned per instance.
    """
    X = np.asarray(X, dtype=float)
    betas = np.asarray(betas, dtype=float)
    U = np.zeros_like(X)
    best = np.zeros_like(X)
    best_f = np.full(X.shape[0], np.inf)
    k_obj = np.zeros(X.shape[0])
    for _ in range(iters):
        g = np.abs(U).sum(axis=1) - betas
        viol = g > 1e-14 * np.maximum(1.0, betas)
        if viol.any():
            D = np.sign(U[viol])
            D[D == 0] = 1.0
            U[viol] -= (g[viol] / (D * D).sum(axis=1))[:, None] * D
        feas = ~viol
        if feas.any():
            diff = U[feas] - X[feas]
            f = 0.5 * (diff * diff).sum(axis=1)
            idx = np.flatnonzero(feas)
            upd = f < best_f[idx]
            best_f[idx[upd]] = f[upd]
            best[idx[upd]] = U[idx[upd]]
            k_obj[feas] += 1.0
            U[feas] -= (1.0 / (k_obj[feas] + 1.0))[:, None] * diff
    return best


def _filter_bank_axis(block, lo, hi, adjoint):
    """One periodic two-channel level along the last axis, tap by tap.

    Analysis: approx[k] = sum_t lo[t] x[(2k + t) mod n] and
    detail[k] = sum_t hi[t] x[(2k + t) mod n], stored as [approx, detail].
    The adjoint scatters each coefficient back along the same taps.
    """
    n = block.shape[-1]
    half = n // 2
    out = np.zeros_like(block)
    for k in range(half):
        for t in range(len(lo)):
            j = (2 * k + t) % n
            if adjoint:
                out[..., j] += lo[t] * block[..., k] + hi[t] * block[..., half + k]
            else:
                out[..., k] += lo[t] * block[..., j]
                out[..., half + k] += hi[t] * block[..., j]
    return out


def filter_bank_2d(x, rows, cols, levels, lo, hi, adjoint=False):
    """Multilevel separable periodic wavelet transform (or its adjoint).

    Each level filters the current top-left r x c block along rows, then
    along columns, and the next level recurses into the approximation
    quadrant; the adjoint undoes the levels and axes in reverse order.
    """
    a = np.asarray(x, dtype=float).reshape(rows, cols).copy()
    sizes = [(rows >> lv, cols >> lv) for lv in range(levels)]
    for r, c in (reversed(sizes) if adjoint else sizes):
        block = a[:r, :c]
        if adjoint:
            block = _filter_bank_axis(block.T, lo, hi, adjoint).T
            block = _filter_bank_axis(block, lo, hi, adjoint)
        else:
            block = _filter_bank_axis(block, lo, hi, adjoint)
            block = _filter_bank_axis(block.T, lo, hi, adjoint).T
        a[:r, :c] = block
    return a.ravel()


def fold_by_bins(pattern, y):
    """The data-ball fold of a masked DFT, built bin by bin.

    Bin k of a rows x cols grid lands on the half-spectrum slot k when
    its column kx is at most cols // 2, else on the slot -k, read
    conjugated. Each slot that bins land on is one entry, in slot order:
    k and -k of an interior column land on one slot, whose entry has
    weight sqrt(2) and center (y_k + conj y_-k) / sqrt(2), and add their
    spread about their mean to the offset. Returns (read, unread, center,
    offset): ``read`` takes the measurements Phi x to the folded ones,
    and ``unread`` takes folded data v to u with Phi* u = Phi_h* v.
    """
    rows, cols, m = pattern.rows, pattern.cols, pattern.n_selected
    slots = {}
    for entry, k in enumerate(pattern.indices):
        ky, kx = divmod(int(k), cols)
        if kx <= cols // 2:
            slots.setdefault((ky, kx), []).append((entry, False))
        else:
            slots.setdefault(((-ky) % rows, (-kx) % cols), []).append((entry, True))
    order = sorted(slots)
    # each slot is read at one bin: its own if selected, else its mirror
    rep = np.array([min(slots[s], key=lambda e: e[1])[0] for s in order])
    rep_conj = np.array([all(conj for _, conj in slots[s]) for s in order])
    count = np.array([len(slots[s]) for s in order])
    weight = np.sqrt(count)

    def read(z):
        return np.where(rep_conj, np.conj(z[rep]), z[rep]) * weight

    def unread(v):
        u = np.zeros(m, dtype=complex)
        u[rep] = np.where(rep_conj, np.conj(v), v * weight)
        return u

    seen, slot_of, totals = np.zeros(m, dtype=complex), np.zeros(m, dtype=int), []
    for j, s in enumerate(order):
        total = 0j
        for entry, conj in slots[s]:
            seen[entry] = np.conj(y[entry]) if conj else y[entry]
            slot_of[entry] = j
            total += seen[entry]
        totals.append(total)
    totals = np.array(totals)
    spread = seen - (totals / count)[slot_of]
    return read, unread, totals / weight, float(np.vdot(spread, spread).real)


def map_iterations(problem, iters, pattern=None, image=False):
    """``iters`` steps of the MAP's Condat–Vũ iteration, one loop.

    Starts, like ``solve_map``, from the box-clipped back-projection x0
    of the data with zero duals, takes the dual step
    gamma = 8 sqrt(len(Psi x)) / ||x0|| (unit l1 weight) and the primal
    step 0.99 / (gamma (||Psi||^2 + ||Phi||^2)) (no smooth term), and
    takes both dual steps in closed form. Given the ``pattern`` of a
    masked-DFT Phi, the data-ball dual lives on the folded data y_h of
    :func:`fold_by_bins`, read by its Phi_h, whose ball has radius
    sqrt(epsilon^2 - offset); else on y itself. With ``image`` as well (a
    full pattern) it lives on the image grid: the ball's operator is
    x -> (x, 0) and its center (z, ||Phi_h z - y_h||), z = Phi_h* y_h.
    Returns per-iteration lists of the iterates, the relative primal
    changes and the exact feasibility gaps max(0, ||Phi x - y|| - epsilon).
    """
    phi, psi, y, eps = problem.phi, problem.psi, problem.data, problem.epsilon
    fit_forward, fit_adjoint = phi.forward, lambda v: np.real(phi.adjoint(v))  # noqa: E731
    center, radius = y, eps
    if pattern is not None:
        read, unread, center, offset = fold_by_bins(pattern, y)
        radius = np.sqrt(eps ** 2 - offset)
        fit_forward = lambda x: read(phi.forward(x))  # noqa: E731
        fit_adjoint = lambda v: np.real(phi.adjoint(unread(v)))  # noqa: E731
        if image:
            z = fit_adjoint(center)
            center = np.append(z, np.linalg.norm(fit_forward(z) - center))
            fit_forward = lambda x: np.append(x, 0.0)  # noqa: E731
            fit_adjoint = lambda v: v[:-1]  # noqa: E731
    lo, hi = NONNEGATIVE.lo, NONNEGATIVE.hi
    x = np.clip(np.real(phi.adjoint(y)), lo, hi)
    gamma = 8.0 * np.sqrt(psi.out_dim) / np.linalg.norm(x)
    sigma = 0.99 / (gamma * (psi.norm_bound ** 2 + phi.norm_bound ** 2))
    v_psi = np.zeros(psi.out_dim)
    v_fit = np.zeros(center.size, dtype=center.dtype)
    xs, changes, gaps = [], [], []
    for _ in range(iters):
        grad = psi.adjoint(v_psi) + fit_adjoint(v_fit)
        x_new = np.clip(x - sigma * grad, lo, hi)
        bar = 2.0 * x_new - x
        psi_bar, fit_bar = psi.forward(bar), fit_forward(bar)
        # closed-form dual steps: the l1 dual is clipped to the unit
        # l-inf ball; the data-ball dual is d shrunk radially by
        # gamma * radius (0 inside), with d = v + gamma Phi bar - gamma y
        v_psi = np.clip(v_psi + gamma * psi_bar, -1.0, 1.0)
        d = v_fit + gamma * fit_bar - gamma * center
        r = np.linalg.norm(d)
        v_fit = (np.zeros_like(d) if r <= gamma * radius
                 else d * (1.0 - gamma * radius / r))
        changes.append(np.linalg.norm(x_new - x) / max(np.linalg.norm(x_new), 1e-300))
        x = x_new
        xs.append(x)
        gaps.append(max(0.0, float(np.linalg.norm(phi.forward(x) - y) - eps)))
    return xs, changes, gaps


def best_real_misfit(op, y):
    """min over real x of ||A x - y||^2, by least squares on the explicit
    real matrix [Re A; Im A] of a complex-output map (test-scale only)."""
    mat = dense_matrix(op)
    stacked = np.vstack([mat.real, mat.imag])
    data = np.concatenate([np.real(y), np.imag(y)])
    x = np.linalg.lstsq(stacked, data, rcond=None)[0]
    return float(np.sum((stacked @ x - data) ** 2))


def dense_matrix(op):
    """Column-by-column dense assembly of a LinearMap (test-scale only)."""
    dtype = complex if op.complex_output else float
    mat = np.zeros((op.out_dim, op.in_dim), dtype=dtype)
    for j in range(op.in_dim):
        e = np.zeros(op.in_dim)
        e[j] = 1.0
        mat[:, j] = op.forward(e)
    return mat


def subgradient_project_region(region, z, iters=300000):
    """Projected-subgradient projection onto a credible region.

    Projects onto the nonnegativity box exactly each step; the ball and
    level-set constraints get Polyak feasibility steps on their worst
    violation; feasible iterates take diminishing steps toward z.
    """
    problem = region.problem
    n = problem.n_pixels
    phi_mat = dense_matrix(problem.phi)
    psi_mat = dense_matrix(problem.psi)
    y, eps = problem.data, problem.epsilon
    lam, eta = region.lam, region.eta_tilde
    u = np.maximum(np.asarray(z, dtype=float), 0.0)
    best = u.copy()
    best_f = np.inf
    k_obj = 0
    for _ in range(iters):
        ball_res = phi_mat @ u - y
        nrm = np.linalg.norm(ball_res)
        g1 = nrm - eps
        w = psi_mat @ u
        g2 = lam * np.abs(w).sum() - eta
        if g1 > 1e-13 and g1 >= g2:
            d = np.real(phi_mat.conj().T @ (ball_res / nrm))
            u = np.maximum(u - (g1 / (d @ d)) * d, 0.0)
        elif g2 > 1e-13:
            d = lam * (psi_mat.T @ np.sign(w))
            u = np.maximum(u - (g2 / (d @ d)) * d, 0.0)
        else:
            f = 0.5 * np.dot(u - z, u - z)
            if f < best_f:
                best_f, best = f, u.copy()
            k_obj += 1
            u = np.maximum(u - (1.0 / (k_obj + 1.0)) * (u - z), 0.0)
    return best


def subgradient_project_localized(sset, z, iters=300000):
    """Projected-subgradient projection onto a localized structure set."""
    n = sset.n_pixels
    lbar = dense_matrix(sset.residual_op)
    lo = np.broadcast_to(np.asarray(sset.interval.lo, dtype=float),
                         (sset.mask.n_selected,))
    hi = np.broadcast_to(np.asarray(sset.interval.hi, dtype=float),
                         (sset.mask.n_selected,))
    theta = sset.energy_ball.radius
    center = sset.energy_ball.center
    midx = sset.mask.indices
    u = np.maximum(np.asarray(z, dtype=float), 0.0)
    best = u.copy()
    best_f = np.inf
    k_obj = 0
    for _ in range(iters):
        r = lbar @ u
        over = np.maximum(r - hi, 0.0)
        under = np.maximum(lo - r, 0.0)
        g1 = max(over.max(initial=0.0), under.max(initial=0.0))
        mb = u[midx] - center
        nrm = np.linalg.norm(mb)
        g2 = nrm - theta
        if g1 >= g2 and g1 > 1e-13:
            i = int(np.argmax(np.maximum(over, under)))
            sign = 1.0 if over[i] >= under[i] else -1.0
            d = sign * lbar[i]
            u = np.maximum(u - (g1 / (d @ d)) * d, 0.0)
        elif g2 > 1e-13:
            d = np.zeros(n)
            d[midx] = mb / nrm
            u = np.maximum(u - (g2 / (d @ d)) * d, 0.0)
        else:
            f = 0.5 * np.dot(u - z, u - z)
            if f < best_f:
                best_f, best = f, u.copy()
            k_obj += 1
            u = np.maximum(u - (1.0 / (k_obj + 1.0)) * (u - z), 0.0)
    return best


def nlp_polish_region(region, z, start):
    """Generic trust-region refinement of a region-projection estimate.

    Reformulates the l1 level set exactly through the split w = a - b of
    the orthonormal analysis coefficients, leaving smooth/linear
    constraints only. Used to polish the projected-subgradient output to
    well below the acceptance tolerance.
    """
    problem = region.problem
    n = problem.n_pixels
    phi_mat = dense_matrix(problem.phi)
    psi_mat = dense_matrix(problem.psi)
    y, eps = problem.data, problem.epsilon
    lam, eta = region.lam, region.eta_tilde
    psi_t = psi_mat.T
    fwd = phi_mat @ psi_t  # measurements of synthesized coefficients
    split = np.concatenate([np.eye(n), -np.eye(n)], axis=1)

    def unpack(ab):
        return psi_t @ (split @ ab)

    def objective(ab):
        d = unpack(ab) - z
        return 0.5 * d @ d

    def gradient(ab):
        g = psi_mat @ (unpack(ab) - z)
        return np.concatenate([g, -g])

    def ball(ab):
        r = fwd @ (split @ ab) - y
        return np.array([np.real(np.vdot(r, r))])

    def ball_jac(ab):
        r = fwd @ (split @ ab) - y
        return (2.0 * np.real((fwd @ split).conj().T @ r))[None, :]

    constraints = [
        LinearConstraint(psi_t @ split, 0.0, np.inf),
        LinearConstraint(lam * np.ones((1, 2 * n)), -np.inf, eta),
        NonlinearConstraint(ball, -np.inf, eps ** 2, jac=ball_jac),
    ]
    w0 = psi_mat @ np.asarray(start, dtype=float)
    ab0 = np.concatenate([np.maximum(w0, 0.0), np.maximum(-w0, 0.0)])
    result = minimize(objective, ab0, jac=gradient, method="trust-constr",
                      constraints=constraints, bounds=[(0.0, None)] * (2 * n),
                      options={"maxiter": 3000, "gtol": 1e-12, "xtol": 1e-14})
    return unpack(result.x)


def nlp_polish_localized(sset, z, start):
    """Generic trust-region refinement of a structure-projection estimate."""
    n = sset.n_pixels
    lbar = dense_matrix(sset.residual_op)
    lo = np.broadcast_to(np.asarray(sset.interval.lo, dtype=float),
                         (sset.mask.n_selected,))
    hi = np.broadcast_to(np.asarray(sset.interval.hi, dtype=float),
                         (sset.mask.n_selected,))
    theta = sset.energy_ball.radius
    center = sset.energy_ball.center
    midx = sset.mask.indices

    def ball(u):
        d = u[midx] - center
        return np.array([d @ d])

    def ball_jac(u):
        g = np.zeros((1, n))
        g[0, midx] = 2.0 * (u[midx] - center)
        return g

    constraints = [
        LinearConstraint(lbar, lo, hi),
        NonlinearConstraint(ball, -np.inf, theta ** 2, jac=ball_jac),
    ]
    result = minimize(lambda u: 0.5 * np.dot(u - z, u - z),
                      np.maximum(np.asarray(start, dtype=float), 0.0),
                      jac=lambda u: u - z, method="trust-constr",
                      constraints=constraints, bounds=[(0.0, None)] * n,
                      options={"maxiter": 3000, "gtol": 1e-12, "xtol": 1e-14})
    return result.x
