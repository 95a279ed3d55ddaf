import dataclasses

import numpy as np
import pytest

from buqo._pd import DualBlock, check_limits, pd_step_sizes, pd_steps
from buqo.credible_region import build_region
from buqo.engine import compute_rho, run_buqo
from buqo.map_solver import compute_lambda, solve_map
from buqo.operators import LinearMap
from buqo.prox import IntervalBox
from buqo.structure_sets import build_localized_set

from instances import (bright_source_mask, counting, small_localized_set,
                       small_map_problem, workload_problem)


def truth_region(seed=41):
    """A region anchored on the truth (a member of the data ball), not on
    a MAP estimate, so that it does not move with the MAP solver."""
    problem, truth = small_map_problem(seed=seed)
    return build_region(truth, compute_lambda(truth, problem.psi), 0.1,
                        problem), truth


def test_pd_step_sizes_saturate_the_step_condition():
    problem, _ = small_map_problem(seed=40)
    blocks = [DualBlock(problem.psi, None), DualBlock(problem.phi, None)]
    total = problem.psi.norm_bound ** 2 + problem.phi.norm_bound ** 2
    # a smooth term of Lipschitz constant 1 (the projectors' anchor term)
    assert pd_step_sizes(blocks, 4.0, beta=1.0) == 0.99 / (0.5 + 4.0 * total)
    # no smooth term (the MAP)
    assert pd_step_sizes(blocks, 64.0, beta=0.0) == 0.99 / (64.0 * total)


@pytest.mark.parametrize("max_iters", [2.5, 1000.0, True])
def test_check_limits_refuses_a_non_integer_iteration_limit(max_iters):
    with pytest.raises(ValueError, match="max_iters must be an integer"):
        check_limits(1e-6, max_iters)


@pytest.mark.parametrize("max_iters", [1000, np.int64(1000)])
def test_check_limits_accepts_an_integer_iteration_limit(max_iters):
    check_limits(1e-6, max_iters)


@pytest.mark.parametrize("limits", [{"max_iters": 0}, {"max_iters": 2.5},
                                    {"tol": 0.0}])
def test_projectors_refuse_bad_limits(limits):
    # max_iters = 0 returned the clipped start, a non-member, and 2.5
    # failed only at the first call
    region, _ = truth_region()
    sset, _, _ = small_localized_set(seed=41)
    for target in (region, sset):
        with pytest.raises(ValueError, match=next(iter(limits))):
            target.projector(**limits)


def projections(projector, anchor):
    """Inner counts, norms and first moments of a cold, then a warm-started
    projection of two points off ``anchor``."""
    w = np.arange(1.0, anchor.size + 1)
    out = []
    for x in (anchor + 2.0, 0.5 * anchor + 1.5):
        before = projector.inner_iterations
        p = projector(x)
        assert projector.converged
        out.append((projector.inner_iterations - before,
                    float(np.linalg.norm(p)), float(p @ w)))
    return out


def assert_same_projections(got, expected):
    for (its, norm, moment), (its_ref, norm_ref, moment_ref) in zip(got, expected):
        assert its == its_ref
        np.testing.assert_allclose([norm, moment], [norm_ref, moment_ref],
                                   rtol=1e-12)


def test_region_projector_keeps_its_steps():
    region, truth = truth_region()
    assert_same_projections(projections(region.projector(tol=1e-10), truth), [
        (177, 2.3184866251837484, 76.34204880473054),
        (162, 2.2916938415515884, 76.12685134057782)])


def test_structure_projector_keeps_its_steps():
    sset, x_map, _ = small_localized_set(seed=41)
    assert_same_projections(projections(sset.projector(tol=1e-10), x_map), [
        (301, 6.329556023808231, 217.00229233897895),
        (255, 4.702027041389908, 165.04728704685039)])


def test_projector_dual_step_is_read_at_each_call():
    # the blocks carry no gamma of their own: changing the projector's
    # step changes the iteration, not the point it converges to
    region, truth = truth_region()
    projector = region.projector(tol=1e-10)
    x = truth + 2.0
    point = projector(x)
    iterations = projector.inner_iterations
    projector.duals = [b.zero_dual() for b in projector.blocks]
    projector.gamma = 1.0
    np.testing.assert_allclose(projector(x), point, rtol=1e-6)
    assert projector.inner_iterations - iterations != iterations


def on_half(op, half, n):
    """``op`` acting on half ``half`` (0 or 1) of a stacked pair in R^2n."""
    part = slice(half * n, (half + 1) * n)

    def adjoint(v):
        out = np.zeros(2 * n)
        out[part] = op.adjoint(v)
        return out

    return LinearMap(2 * n, op.out_dim, lambda u: op.forward(u[part]), adjoint,
                     op.norm_bound, op.complex_output)


def pair_problem(region, sset, gamma):
    """min 1/2 ||x_C - x_S||^2 over C x S, on u = (x_C, x_S): the stacked
    box and blocks of the region and the set, one primal step per half
    (the coupling's gradient is 2-Lipschitz) and that gradient."""
    n = region.x_map.size
    lo, hi, blocks, sigma = [], [], [], []
    for half, target in enumerate((region, sset)):
        lo.append(np.broadcast_to(target.box.lo, n))
        hi.append(np.broadcast_to(target.box.hi, n))
        blocks += [DualBlock(on_half(b.op, half, n), b.term) for b in target.blocks]
        sigma.append(np.full(n, pd_step_sizes(target.blocks, gamma, beta=2.0)))

    def coupling(u, out):
        np.subtract(u[:n], u[n:], out=out[:n])
        np.negative(out[:n], out=out[n:])

    box = IntervalBox(np.concatenate(lo), np.concatenate(hi))
    return box, blocks, np.concatenate(sigma), coupling


@pytest.mark.parametrize("kind, smooth", [
    ("region", False), ("region", True), ("set", False), ("set", True),
    ("pair", True)])
def test_pd_steps_never_write_a_yielded_array(kind, smooth):
    region, truth = truth_region()
    sset, x_map, _ = small_localized_set(seed=41)
    if kind == "pair":
        # the coupling gradient writes into the driver's buffer
        gamma = 1.0
        box, blocks, sigma, gradient = pair_problem(region, sset, gamma)
        anchor = np.concatenate([truth, x_map]) + 2.0
    else:
        target, x = (region, truth) if kind == "region" else (sset, x_map)
        gamma, anchor = target.projector().gamma, x + 2.0
        box, blocks = target.box, target.blocks
        sigma = pd_step_sizes(blocks, gamma, beta=1.0 if smooth else 0.0)
        gradient = (lambda u, out: np.subtract(u, anchor, out=out)) if smooth else None
    steps = pd_steps(np.maximum(anchor, 0.0), box, blocks,
                     [b.zero_dual() for b in blocks], sigma, gamma, gradient)
    kept = []
    for _, (u, u_prev, images) in zip(range(8), steps):
        kept += [(a, a.copy()) for a in (u, u_prev, *images)]
    for a, snapshot in kept:
        np.testing.assert_array_equal(a, snapshot)


def test_pair_problem_on_the_workload_matches_pocs():
    # the seed-0 64x64 bright test: Condat–Vũ on the pair (x_C, x_S) at
    # gamma = 1, from (x_map, surrogate) with zero duals, stopped when
    # both halves change by < 1e-6 relative and both are members to 1e-6
    problem, mask = workload_problem(), bright_source_mask()
    x_map, _ = solve_map(problem)
    region = build_region(x_map, compute_lambda(x_map, problem.psi), 0.01, problem)
    sset = build_localized_set(x_map, mask)
    box, blocks, sigma, coupling = pair_problem(region, sset, 1.0)
    n = x_map.size
    steps = pd_steps(np.concatenate([x_map, sset.surrogate]), box, blocks,
                     [b.zero_dual() for b in blocks], sigma, 1.0, coupling)
    for it, (u, u_prev, _) in zip(range(1, 5001), steps):
        halves = ((u[:n], u_prev[:n], region), (u[n:], u_prev[n:], sset))
        if (all(np.linalg.norm(a - b) < 1e-6 * np.linalg.norm(a) for a, b, _ in halves)
                and all(t.residual(a) <= 1e-6 for a, _, t in halves)):
            break
    assert it == 327
    pocs = run_buqo(problem, mask, alpha=0.01, eta=0.03, x_map=x_map,
                    outer_max_iters=250, inner_tol=1e-7, inner_max_iters=3000)
    assert compute_rho(u[:n], u[n:], x_map, sset.surrogate) == pytest.approx(
        pocs.rho_alpha, rel=1e-3)


def test_projector_operator_budget_per_iteration():
    region, truth = truth_region()
    psi, psi_calls = counting(region.problem.psi)
    phi, phi_calls = counting(region.problem.phi)
    sset, x_map, _ = small_localized_set(seed=41)
    res, res_calls = counting(sset.residual_op)
    cases = [
        (dataclasses.replace(region, problem=dataclasses.replace(
            region.problem, psi=psi, phi=phi)).projector(tol=1e-10),
         truth, [psi_calls, phi_calls]),
        (dataclasses.replace(sset, residual_op=res).projector(tol=1e-10),
         x_map, [res_calls]),
    ]
    for projector, x, calls in cases:
        for point in (x + 2.0, 0.5 * x + 1.5):
            for c in calls:
                c.update(forward=0, adjoint=0)
            before = projector.inner_iterations
            projector(point)
            its = projector.inner_iterations - before
            # one forward (of the extrapolated point) and one adjoint per
            # iteration; every call, the first included, adds one adjoint
            # for its start point
            for c in calls:
                assert c == {"forward": its, "adjoint": its + 1}


@pytest.mark.parametrize("kind", ["region", "set"])
def test_projector_call_tolerance_is_never_tighter(kind):
    if kind == "region":
        target, x = truth_region()
    else:
        target, x, _ = small_localized_set(seed=41)
    x = x + 2.0
    exact = target.projector()
    point = exact(x)
    loose = target.projector()
    near = loose(x, tol=1e-4)
    assert 0 < loose.inner_iterations < exact.inner_iterations
    assert np.linalg.norm(near - point) <= 1e-3 * np.linalg.norm(point)
    # a tighter tolerance than the projector's own is ignored
    tight = target.projector()
    np.testing.assert_array_equal(tight(x, tol=1e-12), point)
    assert tight.inner_iterations == exact.inner_iterations


def test_warm_projector_counts_unconverged_calls():
    region, truth = truth_region()
    projector = region.projector(tol=1e-10, max_iters=1)
    for k in (1, 2, 3):
        projector(truth + k)
        assert not projector.converged
        assert (projector.unconverged_calls, projector.inner_iterations) == (k, k)
    projector.max_iters = 5000
    projector(truth + 4.0)
    assert projector.converged
    assert projector.unconverged_calls == 3
