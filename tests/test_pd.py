import numpy as np

from buqo._pd import DualBlock, pd_step_sizes
from buqo.credible_region import build_region
from buqo.map_solver import compute_lambda

from instances import small_localized_set, small_map_problem


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
    # anchored on the truth (a member of the data ball), not on a MAP
    # estimate, so that the region does not move with the MAP solver
    problem, truth = small_map_problem(seed=41)
    region = build_region(truth, compute_lambda(truth, problem.psi), 0.1, problem)
    assert_same_projections(projections(region.projector(tol=1e-10), truth), [
        (199, 2.318486625184885, 76.34204880497963),
        (164, 2.291693841578595, 76.12685134055212)])


def test_structure_projector_keeps_its_steps():
    sset, x_map, _ = small_localized_set(seed=41)
    assert_same_projections(projections(sset.projector(tol=1e-10), x_map), [
        (301, 6.329556023808231, 217.00229233897895),
        (255, 4.702027041389908, 165.04728704685039)])
