import dataclasses

import numpy as np
import pytest

from buqo._pd import DualBlock, pd_step_sizes, pd_steps
from buqo.credible_region import build_region
from buqo.map_solver import compute_lambda

from instances import counting, small_localized_set, small_map_problem


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
        (199, 2.318486625184885, 76.34204880497963),
        (162, 2.2916938415520294, 76.1268513405585)])


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


@pytest.mark.parametrize("anchored", [True, False])
@pytest.mark.parametrize("kind", ["region", "set"])
def test_pd_steps_never_write_a_yielded_array(kind, anchored):
    if kind == "region":
        region, x = truth_region()
        projector = region.projector()
    else:
        sset, x, _ = small_localized_set(seed=41)
        projector = sset.projector()
    anchor = x + 2.0
    steps = pd_steps(np.maximum(anchor, 0.0), projector.box, projector.blocks,
                     [b.zero_dual() for b in projector.blocks],
                     projector.gamma, anchor if anchored else None)
    kept = []
    for _, (u, u_prev, images) in zip(range(8), steps):
        kept += [(a, a.copy()) for a in (u, u_prev, *images)]
    for a, snapshot in kept:
        np.testing.assert_array_equal(a, snapshot)


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
