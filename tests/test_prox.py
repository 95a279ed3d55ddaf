import numpy as np
import pytest

from buqo import prox
from buqo.engine import run_buqo
from buqo.map_solver import solve_map
from buqo.prox import (
    IntervalBox,
    L1Levelset,
    L1Norm,
    L2Ball,
    _l1_threshold,
    project_box,
    project_l1_levelset,
    project_l2_ball,
)

from instances import bright_source_mask, workload_problem
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


@pytest.mark.parametrize("make", [
    lambda: IntervalBox(np.nan, 0.0),
    lambda: IntervalBox(0.0, np.nan),
    lambda: IntervalBox(0.0, np.array([1.0, np.nan])),
    lambda: L2Ball(0.0, np.nan),
    lambda: L1Levelset(np.nan),
    lambda: L1Norm(0.0),
    lambda: L1Norm(np.nan),
], ids=["box-lo", "box-hi", "box-hi-entry", "ball-radius", "l1-level",
        "l1-weight-zero", "l1-weight"])
def test_sets_refuse_nan_bounds(make):
    # a NaN bound fails every comparison, so "lo > hi" or "radius < 0"
    # alone would let it through
    with pytest.raises(ValueError):
        make()


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


def test_l1_threshold_is_the_same_from_any_start():
    # one pivot step from the start, then the loop: the same theta, to the
    # bit, as from 0, whether the start lies below, at or above the root,
    # at 0 or above the largest entry
    for mags, level in threshold_cases():
        root = _l1_threshold(mags, level)
        top = mags.max()
        for start in (0.0, 0.5 * root, np.nextafter(root, 0.0), root,
                      np.nextafter(root, np.inf), 0.5 * (root + top), top, 2.0 * top):
            assert _l1_threshold(mags, level, start) == root


def test_l1_levelset_dual_step_warm_starts_to_the_cold_threshold(monkeypatch):
    # the seed-0 64x64 bright POCS test: each region dual step starts its
    # threshold search at the previous step's threshold, and lands on the
    # threshold a search from 0 gives, to the bit
    calls = []   # (warm start, same theta as from 0)

    def recording(mags, level, start=0.0):
        theta = _l1_threshold(mags, level, start)
        calls.append((start > 0.0, theta == _l1_threshold(mags, level)))
        return theta

    problem = workload_problem()
    x_map, _ = solve_map(problem)
    monkeypatch.setattr(prox, "_l1_threshold", recording)
    run_buqo(problem, bright_source_mask(), alpha=0.01, eta=0.03, mode="pocs",
             x_map=x_map, outer_max_iters=250, inner_tol=1e-7, inner_max_iters=3000)
    monkeypatch.undo()
    # a cold start only at the first dual step of each projection
    warm = sum(w for w, _ in calls)
    assert len(calls) > 500 and warm > 0.95 * len(calls)
    assert all(same for _, same in calls)


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
            cases.append((box.dual_prox(gamma),
                          moreau(lambda z, b=box: project_box(z, b), gamma), real))
        for ball, sample in ((L2Ball(0.0, 2.0), real),
                             (L2Ball(center.real, 1.5), real),
                             (L2Ball(0.0, 2.0), cplx),
                             (L2Ball(center, 1.5), cplx),
                             (L2Ball(center, 0.0), cplx)):
            cases.append((ball.dual_prox(gamma),
                          moreau(lambda z, b=ball: project_l2_ball(z, b), gamma),
                          (lambda scale, s=sample, c=ball.center, g=gamma:
                           g * c + s(scale))))
        for level in (0.0, 0.5, 3.0):
            lev = L1Levelset(level)
            cases.append((lev.dual_prox(gamma),
                          moreau(lambda z, v=lev: project_l1_levelset(z, v), gamma),
                          real))
        for weight in (0.5, 1.0, 7.3):
            cases.append((L1Norm(weight).dual_prox(gamma),
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
    np.testing.assert_allclose(levelset.dual_prox(gamma)(vt.copy()),
                               expected, rtol=1e-12, atol=1e-15)


def test_dual_steps_inside_the_scaled_set_are_zero():
    gamma = 2.0
    vt = np.array([0.3, -0.2, 0.1])
    for term in (IntervalBox(-1.0, 1.0), L2Ball(0.0, 1.0), L1Levelset(1.0)):
        np.testing.assert_array_equal(term.dual_prox(gamma)(vt.copy()), 0.0)
    # level 0: the scaled set is {0}, so the step returns vt
    np.testing.assert_array_equal(
        L1Levelset(0.0).dual_prox(gamma)(vt.copy()), vt)


# ---------------------------------------------------------------------------
# membership violation

def test_violation_is_nonpositive_on_members_and_positive_outside():
    rng = np.random.default_rng(11)
    n = 7
    box = IntervalBox(-rng.uniform(0, 1, n), rng.uniform(0, 1, n))
    ball = L2Ball(rng.standard_normal(n), 1.5)
    lev = L1Levelset(2.0)
    for _ in range(50):
        member = rng.uniform(box.lo, box.hi)
        assert box.violation(member) == 0.0
        assert box.violation(member + 2.0) > 0.0
        d = rng.standard_normal(n)
        d /= np.linalg.norm(d)
        assert ball.violation(ball.center + rng.uniform(0, 1.5) * d) <= 0.0
        assert ball.violation(ball.center + 1.51 * d) > 0.0
        w = rng.dirichlet(np.ones(n)) * rng.choice([-1.0, 1.0], n)
        assert lev.violation(rng.uniform(0, 2.0) * w) <= 0.0
        assert lev.violation(2.01 * w) > 0.0


def test_violations_match_the_relative_excess_formulas():
    rng = np.random.default_rng(12)
    z = rng.standard_normal(9)
    lo, hi = -rng.uniform(0, 1, 9), rng.uniform(0, 1, 9)
    for box in (IntervalBox(lo, hi), IntervalBox(-0.5, 0.25), NONNEG):
        expected = max(float(np.max(np.asarray(box.lo) - z, initial=0.0)),
                       float(np.max(z - np.asarray(box.hi), initial=0.0)))
        assert box.violation(z) == expected
    ball = L2Ball(rng.standard_normal(9), 0.7)
    assert ball.violation(z) == pytest.approx(
        (np.linalg.norm(z - ball.center) - 0.7) / 0.7, rel=1e-14)
    assert L2Ball(0.0, 2.0).violation(np.array([3.0 + 4.0j])) == 1.5
    assert L1Levelset(0.5).violation(z) == pytest.approx(
        (np.abs(z).sum() - 0.5) / 0.5, rel=1e-14)


def test_ball_offset_shrinks_the_set_not_the_measured_radius():
    # ||z - c||^2 + offset <= r^2: the set is B(c, sqrt(r^2 - offset)),
    # while the violation measures sqrt(||z - c||^2 + offset) against r
    rng = np.random.default_rng(13)
    center = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    ball = L2Ball(center, 5.0, offset=9.0)
    assert ball.inner_radius == 4.0 and L2Ball(center, 5.0).inner_radius == 5.0
    direction = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    direction /= np.linalg.norm(direction)
    for dist, excess in ((4.0, 0.0), (0.0, -0.4), (np.sqrt(55.0), 0.6)):
        assert ball.violation(center + dist * direction) == pytest.approx(
            excess, abs=1e-15)
    plain = L2Ball(center, 4.0)
    np.testing.assert_array_equal(
        project_l2_ball(center + 6.0 * direction, ball),
        project_l2_ball(center + 6.0 * direction, plain))
    for gamma in (0.25, 1.0, 4.0):
        for scale in (0.1, 1.0, 10.0):
            vt = gamma * center + scale * direction
            np.testing.assert_array_equal(ball.dual_prox(gamma)(vt.copy()),
                                          plain.dual_prox(gamma)(vt.copy()))


def test_violation_is_absolute_at_size_zero_and_never_nan():
    z = np.array([3.0, -4.0])
    assert L2Ball(0.0, 0.0).violation(z) == 5.0
    assert L1Levelset(0.0).violation(z) == 7.0
    assert L2Ball(0.0, np.inf).violation(z) == -np.inf
    assert L1Levelset(np.inf).violation(z) == -np.inf
    assert IntervalBox().violation(z) == 0.0


# ---------------------------------------------------------------------------
# shared properties

def test_idempotence_all_projections():
    rng = np.random.default_rng(3)
    for proj, _ in all_projections(rng, 8):
        for _ in range(20):
            x = rng.standard_normal(8) * 4.0
            x_before = x.copy()
            once = proj(x)
            # a projection never writes its input (the l1 one runs a dual
            # step, which works in place, on a copy)
            np.testing.assert_array_equal(x, x_before)
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
