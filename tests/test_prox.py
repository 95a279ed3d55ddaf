import numpy as np
import pytest

from buqo.prox import (
    IntervalBox,
    L1Levelset,
    L2Ball,
    _l1_threshold,
    box_dual_prox,
    l1_levelset_dual_prox,
    l1_norm_dual_prox,
    l2_ball_dual_prox,
    project_box,
    project_l1_levelset,
    project_l2_ball,
)

from oracles import l1_projection_bisection

NONNEG = IntervalBox(0.0, np.inf)


def all_projections(rng, n):
    """(projection, random feasible point sampler) pairs on R^n."""
    box = IntervalBox(-1.0, 2.0)
    ball = L2Ball(rng.standard_normal(n), 1.5)
    lev = L1Levelset(2.0)

    def feas_box():
        return rng.uniform(-1.0, 2.0, n)

    def feas_ball():
        d = rng.standard_normal(n)
        d /= np.linalg.norm(d)
        return ball.center + ball.radius * rng.uniform(0, 1) ** (1 / n) * d

    def feas_lev():
        w = rng.dirichlet(np.ones(n)) * lev.level * rng.uniform(0, 1)
        return w * rng.choice([-1.0, 1.0], n)

    return [
        (lambda x: project_box(x, box), feas_box),
        (lambda x: project_l2_ball(x, ball), feas_ball),
        (lambda x: project_l1_levelset(x, lev), feas_lev),
    ]


# ---------------------------------------------------------------------------
# box

def test_box_clips_to_nonnegative():
    out = project_box(np.array([-1.0, 2.0]), NONNEG)
    np.testing.assert_array_equal(out, [0.0, 2.0])


def test_box_interior_point_unchanged():
    x = np.array([0.5, 1.0, 0.1])
    np.testing.assert_array_equal(project_box(x, NONNEG), x)


def test_box_symmetric_clip():
    out = project_box(np.array([5.0, -5.0]), IntervalBox(-1.0, 1.0))
    np.testing.assert_array_equal(out, [1.0, -1.0])


def test_box_rejects_crossed_bounds():
    with pytest.raises(ValueError):
        IntervalBox(1.0, -1.0)


# ---------------------------------------------------------------------------
# l2 ball

def test_ball_radial_scaling():
    out = project_l2_ball(np.array([3.0, 4.0]), L2Ball(0.0, 1.0))
    np.testing.assert_allclose(out, [0.6, 0.8], atol=1e-15)


def test_ball_interior_unchanged():
    ball = L2Ball(np.array([1.0, 1.0]), 2.0)
    x = np.array([1.5, 1.2])
    np.testing.assert_array_equal(project_l2_ball(x, ball), x)


def test_ball_complex_modulus_scaling():
    out = project_l2_ball(np.array([3.0 + 4.0j]), L2Ball(0.0, 1.0))
    np.testing.assert_allclose(out, [0.6 + 0.8j], atol=1e-15)


def test_ball_rejects_negative_radius():
    with pytest.raises(ValueError):
        L2Ball(0.0, -1.0)


# ---------------------------------------------------------------------------
# l1 level set

def test_l1_axis_point():
    out = project_l1_levelset(np.array([3.0, 0.0]), L1Levelset(1.0))
    np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-12)


def test_l1_off_axis_point_brute_force():
    # oracle: dense grid search over the l1 ball
    x = np.array([2.0, 1.0])
    grid = np.linspace(-1.0, 1.0, 2001)
    best, best_d = None, np.inf
    for u1 in grid:
        rem = 1.0 - abs(u1)
        for u2 in (rem, -rem, 0.0, min(rem, x[1]), max(-rem, min(rem, x[1]))):
            d = (x[0] - u1) ** 2 + (x[1] - u2) ** 2
            if d < best_d:
                best_d, best = d, (u1, u2)
    out = project_l1_levelset(x, L1Levelset(1.0))
    np.testing.assert_allclose(out, best, atol=2e-3)
    np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-12)


def test_l1_feasible_point_unchanged():
    x = np.array([0.2, -0.3, 0.1])
    np.testing.assert_array_equal(project_l1_levelset(x, L1Levelset(1.0)), x)


def test_l1_zero_level():
    out = project_l1_levelset(np.array([1.0, -2.0]), L1Levelset(0.0))
    np.testing.assert_array_equal(out, [0.0, 0.0])


def test_l1_matches_bisection_oracle():
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = rng.integers(1, 40)
        x = rng.standard_normal(n) * rng.uniform(0.2, 5.0)
        beta = rng.uniform(0.0, 4.0)
        got = project_l1_levelset(x, L1Levelset(beta))
        expected = l1_projection_bisection(x, beta)
        np.testing.assert_allclose(got, expected, atol=1e-10)


def test_l1_budget_respected():
    rng = np.random.default_rng(2)
    for _ in range(50):
        x = rng.standard_normal(20) * 3.0
        beta = rng.uniform(0.0, 2.0)
        out = project_l1_levelset(x, L1Levelset(beta))
        assert np.abs(out).sum() <= beta + 1e-10 * max(1.0, beta)


def sort_rule_threshold(mags, level):
    """The threshold by the sorted-prefix rule (the former implementation)."""
    u = np.sort(mags)[::-1]
    cumsum = np.cumsum(u)
    rho = np.max(np.flatnonzero(u * np.arange(1, u.size + 1) > cumsum - level)) + 1
    return (cumsum[rho - 1] - level) / rho


def threshold_cases():
    rng = np.random.default_rng(6)
    cases = [
        (np.full(7, 0.3), 1.0),                        # all magnitudes equal
        (np.array([2.0, 2.0, 1.0, 1.0, 0.5]), 1.5),    # ties above and below
        (np.array([3.0, 1.0, 1.0, 1.0]), 2.5),         # ties at the threshold
        (np.array([0.0, 0.0, 4.0, 0.0, 1.0]), 2.0),    # zeros
        (np.array([5.0]), 1e-3),
        # rounding moves theta across 0.1 and back: kept 3, 2, 3
        (np.array([0.1, 1.0, 1.0]), 1.8),
    ]
    for _ in range(50):
        n = int(rng.integers(1, 60))
        mags = np.abs(rng.standard_normal(n)) * rng.uniform(0.1, 10.0)
        mags[rng.random(n) < 0.3] = 0.0
        mags[rng.random(n) < 0.3] = mags.max()   # ties at the top
        if mags.sum() > 0:
            cases.append((mags, rng.uniform(0.01, 0.99) * mags.sum()))
    return cases


def test_l1_threshold_matches_sort_rule_and_bisection():
    for mags, level in threshold_cases():
        theta = _l1_threshold(mags, level)
        assert theta == pytest.approx(sort_rule_threshold(mags, level),
                                      rel=1e-12, abs=1e-14 * mags.max())
        assert np.maximum(mags - theta, 0.0).sum() == pytest.approx(level, rel=1e-12)
        np.testing.assert_allclose(project_l1_levelset(mags, L1Levelset(level)),
                                   l1_projection_bisection(mags, level),
                                   atol=1e-12 * mags.max())


# ---------------------------------------------------------------------------
# closed-form dual steps

def moreau(project, gamma):
    """The dual step by the Moreau identity, vt - gamma P(vt / gamma)."""
    return lambda vt: vt - gamma * project(vt / gamma)


def soft_threshold(z, t):
    return np.sign(z) * np.maximum(np.abs(z) - t, 0.0)


def dual_step_cases():
    """(closed-form dual step, Moreau form, vt sampler) triples; each
    sampler draws points scaled to land inside and outside the set.
    For the weighted l1 norm the Moreau form soft-thresholds vt / gamma
    at weight / gamma, the prox of the norm at step 1 / gamma."""
    rng = np.random.default_rng(7)
    n = 12
    center = rng.standard_normal(n) + 1j * rng.standard_normal(n)

    def real(scale):
        return rng.standard_normal(n) * scale

    def cplx(scale):
        return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * scale

    cases = []
    for gamma in (0.25, 1.0, 4.0):
        for lo, hi in ((-1.0, 2.0), (-np.inf, 0.5), (0.0, np.inf),
                       (-np.inf, np.inf)):
            box = IntervalBox(lo, hi)
            cases.append((box_dual_prox(box, gamma),
                          moreau(lambda z, b=box: project_box(z, b), gamma), real))
        for ball, sample in ((L2Ball(0.0, 2.0), real),
                             (L2Ball(center.real, 1.5), real),
                             (L2Ball(0.0, 2.0), cplx),
                             (L2Ball(center, 1.5), cplx),
                             (L2Ball(center, 0.0), cplx)):
            cases.append((l2_ball_dual_prox(ball, gamma),
                          moreau(lambda z, b=ball: project_l2_ball(z, b), gamma),
                          (lambda scale, s=sample, c=ball.center, g=gamma:
                           g * c + s(scale))))
        for level in (0.0, 0.5, 3.0):
            lev = L1Levelset(level)
            cases.append((l1_levelset_dual_prox(lev, gamma),
                          moreau(lambda z, v=lev: project_l1_levelset(z, v), gamma),
                          real))
        for weight in (0.5, 1.0, 7.3):
            cases.append((l1_norm_dual_prox(weight, gamma),
                          moreau(lambda z, w=weight, g=gamma: soft_threshold(z, w / g),
                                 gamma),
                          real))
    return cases


def test_dual_steps_match_the_moreau_form():
    for closed, reference, sample in dual_step_cases():
        for scale in (0.01, 0.1, 1.0, 10.0):
            vt = sample(scale)
            expected = reference(vt)
            got = closed(vt.copy())
            assert got.dtype == vt.dtype
            np.testing.assert_allclose(got, expected, rtol=1e-12,
                                       atol=1e-12 * np.abs(vt).max())


@pytest.mark.parametrize("gamma", [1.0, 2.0, 4.0])
def test_l1_dual_step_ends_when_rounding_revives_an_entry(gamma):
    # gamma * level rounds to 1.8, where the pivot loop's count of kept
    # entries goes 3, 2, 3 (the entry 0.1 sits within an ulp of theta)
    vt = np.array([0.1, 1.0, 1.0])
    levelset = L1Levelset(1.8 / gamma)
    expected = moreau(lambda z: project_l1_levelset(z, levelset), gamma)(vt)
    np.testing.assert_allclose(l1_levelset_dual_prox(levelset, gamma)(vt.copy()),
                               expected, rtol=1e-12, atol=1e-15)


def test_dual_steps_inside_the_scaled_set_are_zero():
    gamma = 2.0
    vt = np.array([0.3, -0.2, 0.1])
    for prox in (box_dual_prox(IntervalBox(-1.0, 1.0), gamma),
                 l2_ball_dual_prox(L2Ball(0.0, 1.0), gamma),
                 l1_levelset_dual_prox(L1Levelset(1.0), gamma)):
        np.testing.assert_array_equal(prox(vt.copy()), 0.0)
    # level 0: the scaled set is {0}, so the step returns vt
    np.testing.assert_array_equal(
        l1_levelset_dual_prox(L1Levelset(0.0), gamma)(vt.copy()), vt)


# ---------------------------------------------------------------------------
# shared properties

def test_idempotence_all_projections():
    rng = np.random.default_rng(3)
    for proj, _ in all_projections(rng, 8):
        for _ in range(20):
            x = rng.standard_normal(8) * 4.0
            once = proj(x)
            np.testing.assert_allclose(proj(once), once, atol=1e-12)


def test_nonexpansiveness_all_projections():
    rng = np.random.default_rng(4)
    for proj, _ in all_projections(rng, 8):
        for _ in range(20):
            x = rng.standard_normal(8) * 3.0
            z = rng.standard_normal(8) * 3.0
            lhs = np.linalg.norm(proj(x) - proj(z))
            assert lhs <= np.linalg.norm(x - z) + 1e-12


def test_optimality_against_random_feasible_points():
    rng = np.random.default_rng(5)
    for proj, sample in all_projections(rng, 8):
        for _ in range(5):
            x = rng.standard_normal(8) * 4.0
            px = proj(x)
            dist = np.linalg.norm(x - px)
            for _ in range(100):
                u = sample()
                assert dist <= np.linalg.norm(x - u) + 1e-10
