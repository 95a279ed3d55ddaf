import inspect
from dataclasses import replace

import numpy as np
import pytest

import buqo.engine
from buqo._pd import WarmProjector
from buqo.cli import RunConfig
from buqo.io import StructureSpec
from buqo.credible_region import CredibleRegion, build_region
from buqo.engine import (
    BuqoError,
    RunSettings,
    compute_rho,
    decide,
    run_buqo,
    run_fb_distance,
    run_pocs,
)
from buqo.map_solver import MapProblem, compute_lambda, solve_map
from buqo.operators import (PixelMask, SamplingPattern, build_inpainting,
                            db8_analysis, masked_dft)
from buqo.sim import ExperimentSpec, add_noise
from buqo.structure_sets import (BackgroundSet, LocalizedSet, background_mask,
                                 build_background_set, build_localized_set)

from instances import (Disk, bright_source_mask, perfbench_spans,
                       small_localized_set, small_map_problem, small_region,
                       workload_problem)


def pipeline_16(seed, bright=3.0, sigma2=1e-4, ratio=1.0):
    """Full-pipeline fixture on a 16x16 grid with a 2x2 bright block."""
    rng = np.random.default_rng(seed)
    rows = cols = 16
    truth = np.abs(rng.standard_normal(rows * cols)) * 0.02
    block = [7 * cols + 7, 7 * cols + 8, 8 * cols + 7, 8 * cols + 8]
    truth[block] += bright
    if ratio >= 1.0:
        pattern = SamplingPattern(rows, cols, np.arange(rows * cols))
    else:
        from buqo.sim import gaussian_random_pattern
        pattern = gaussian_random_pattern(rows, cols, ratio, seed=seed)
    phi = masked_dft(pattern)
    psi = db8_analysis(rows, cols, 2)
    y = add_noise(phi.forward(truth), sigma2, seed=seed + 1)
    from buqo.credible_region import compute_epsilon_bound
    eps = compute_epsilon_bound(np.sqrt(sigma2), phi.out_dim)
    problem = MapProblem(phi, psi, y, eps)
    mask = PixelMask(rows, cols, block)
    return problem, mask, truth


# ---------------------------------------------------------------------------
# POCS on analytic disks

def test_pocs_intersecting_disks_reach_common_point():
    a = Disk([0.0, 0.0], 1.0)
    b = Disk([1.0, 0.0], 1.0)
    x_region, x_set, iters, stop, deltas = run_pocs(
        a.project, b.project, np.array([5.0, 4.0]), tol=1e-9, max_iters=10000)
    assert deltas[-1] <= 1e-6
    assert np.linalg.norm(x_region - x_set) <= 1e-6
    assert np.linalg.norm(a.project(x_set) - x_set) <= 1e-6
    assert np.linalg.norm(b.project(x_set) - x_set) <= 1e-6


def test_pocs_disjoint_disks_realize_distance():
    a = Disk([0.0, 0.0], 1.0)
    b = Disk([3.0, 0.0], 1.0)
    x_region, x_set, iters, stop, deltas = run_pocs(
        a.project, b.project, np.array([3.0, 1.0]), tol=1e-10, max_iters=20000)
    assert deltas[-1] == pytest.approx(1.0, abs=1e-6)
    np.testing.assert_allclose(x_region, [1.0, 0.0], atol=1e-5)
    np.testing.assert_allclose(x_set, [2.0, 0.0], atol=1e-5)


def test_pocs_fixed_point_stops_fast():
    a = Disk([0.0, 0.0], 1.0)
    b = Disk([1.0, 0.0], 1.0)
    x0 = np.array([0.5, 0.0])
    x_region, x_set, iters, stop, deltas = run_pocs(a.project, b.project, x0,
                                                    tol=1e-8, max_iters=100)
    assert iters <= 2
    assert deltas[-1] <= 1e-8
    np.testing.assert_allclose(x_set, x0, atol=1e-12)


@pytest.mark.parametrize("run", [run_pocs, run_fb_distance])
def test_outer_loops_refuse_a_non_callable_projector(run):
    a = Disk([0.0, 0.0], 1.0)
    starts = [np.zeros(2)] * (1 if run is run_pocs else 2)
    with pytest.raises(TypeError):
        run(a.project, object(), *starts)


@pytest.mark.parametrize("run", [run_pocs, run_fb_distance])
@pytest.mark.parametrize("limits", [
    {"max_iters": 0}, {"max_iters": -1},
    {"tol": 0.0}, {"tol": -1e-5}, {"tol": float("nan")},
    {"tol": float("inf")},
])
def test_outer_loops_reject_bad_limits(run, limits):
    # a zero budget would return a None or an unprojected point
    a = Disk([0.0, 0.0], 1.0)
    b = Disk([3.0, 0.0], 1.0)
    starts = [b.center] * (1 if run is run_pocs else 2)
    with pytest.raises(ValueError, match=next(iter(limits))):
        run(a.project, b.project, *starts, **limits)


# ---------------------------------------------------------------------------
# FB distance on analytic disks

def test_fb_intersecting_disks():
    a = Disk([0.0, 0.0], 1.0)
    b = Disk([1.0, 0.0], 1.0)
    x_region, x_set, iters, stop, deltas = run_fb_distance(
        a.project, b.project, np.array([-1.0, 0.0]), np.array([2.0, 0.0]),
        gamma=0.5, tol=1e-9, max_iters=50000)
    assert np.linalg.norm(x_region - x_set) <= 1e-5


def test_fb_disjoint_disks_distance_one():
    a = Disk([0.0, 0.0], 1.0)
    b = Disk([3.0, 0.0], 1.0)
    x_region, x_set, iters, stop, deltas = run_fb_distance(
        a.project, b.project, np.array([0.0, 1.0]), np.array([3.0, 1.0]),
        gamma=0.5, tol=1e-10, max_iters=50000)
    assert deltas[-1] == pytest.approx(1.0, abs=1e-5)


def test_fb_rejects_bad_gamma():
    # FISTA's momentum needs a step in (0, 1/2]
    a = Disk([0.0, 0.0], 1.0)
    for gamma in (0.0, float("nan"), 0.5000001, 0.9, 1.0):
        with pytest.raises(ValueError, match="gamma"):
            run_fb_distance(a.project, a.project, a.center, a.center,
                            gamma=gamma)
    *_, deltas = run_fb_distance(a.project, a.project, a.center, a.center,
                                 gamma=0.5)
    assert deltas[-1] == 0.0


# ---------------------------------------------------------------------------
# rho and the decision rule

def test_rho_zero_when_points_coincide():
    p = np.array([1.0, 2.0])
    assert compute_rho(p, p, np.array([3.0, 0.0]), np.array([0.0, 0.0])) == 0.0


def test_rho_ratio_arithmetic():
    region_pt = np.array([0.0, 0.0])
    set_pt = np.array([1.0, 0.0])
    x_map = np.array([4.0, 0.0])
    surrogate = np.array([0.0, 0.0])
    assert compute_rho(region_pt, set_pt, x_map, surrogate) == pytest.approx(0.25)


def test_rho_errors_on_zero_structure_energy():
    x = np.array([1.0, 1.0])
    with pytest.raises(ValueError, match="no structure energy"):
        compute_rho(x, x, x, x)


def test_decide_not_rejected_small_rho():
    decision, text = decide(0.0007, 0.03, 0.01)
    assert decision == "not_rejected"
    assert "fail to reject" in text


def test_decide_rejected_large_rho():
    decision, text = decide(0.9658, 0.03, 0.01)
    assert decision == "rejected"
    assert "96.58%" in text


def test_decide_zero_rho_not_rejected():
    decision, _ = decide(0.0, 0.03, 0.01)
    assert decision == "not_rejected"


def test_decide_refuses_nan_rho():
    # NaN > eta is False, which would read as "not rejected"
    with pytest.raises(ValueError, match="rho"):
        decide(float("nan"), 0.03, 0.01)


def test_decide_monotone_in_eta():
    rho = 0.05
    d_low, _ = decide(rho, 0.01, 0.01)
    d_high, _ = decide(rho, 0.10, 0.01)
    assert d_low == "rejected" and d_high == "not_rejected"


# ---------------------------------------------------------------------------
# engine invariants on a real pipeline

def test_pocs_outputs_are_members_and_deltas_near_monotone():
    region, problem, _ = small_region(seed=33)
    sset, x_map_set, _ = small_localized_set(seed=33)
    # share the grid: rebuild the structure on the region's own MAP estimate
    mask = PixelMask(4, 4, [5, 6])
    sset = build_localized_set(region.x_map, mask, kernel_sizes=[3])
    x_region, x_set, iters, stop, deltas = run_pocs(
        region.projector(tol=1e-9, max_iters=50000),
        sset.projector(tol=1e-9, max_iters=50000), sset.surrogate,
        tol=1e-6, max_iters=500)
    assert region.residual(x_region) <= 1e-5
    assert sset.residual(x_set) <= 1e-5
    assert (np.diff(deltas) <= 10 * 1e-6 + 1e-12).all()
    assert stop in ("iterate_change", "distance_change")


def test_run_buqo_bright_source_rejected():
    problem, mask, truth = pipeline_16(seed=50, bright=3.0, sigma2=1e-4)
    outcome = run_buqo(problem, mask, alpha=0.01, mode="pocs", eta=0.03,
                       map_tol=1e-8, map_max_iters=60000,
                       outer_tol=1e-5, outer_max_iters=500)
    assert outcome.decision == "rejected"
    assert outcome.rho_alpha > 0.03
    assert outcome.narrative.startswith("H0 rejected")


def test_run_buqo_empty_mask_not_rejected():
    problem, _, truth = pipeline_16(seed=51, bright=3.0, sigma2=1e-3,
                                    ratio=0.6)
    empty_mask = PixelMask(16, 16, [2 * 16 + 12, 2 * 16 + 13])
    outcome = run_buqo(problem, empty_mask, alpha=0.01, mode="pocs", eta=0.03,
                       map_tol=1e-7, map_max_iters=60000,
                       outer_tol=1e-5, outer_max_iters=500)
    assert outcome.decision == "not_rejected"
    assert outcome.rho_alpha <= 0.03


def test_run_buqo_rho_matches_recomputation():
    problem, mask, _ = pipeline_16(seed=52, bright=2.0, sigma2=1e-4)
    x_map, diag = solve_map(problem, tol=1e-8, max_iters=60000)
    assert diag.converged
    lam = compute_lambda(x_map, problem.psi)
    region = build_region(x_map, lam, 0.01, problem)
    sset = build_localized_set(x_map, mask)
    x_region, x_set, *_ = run_pocs(region.projector(), sset.projector(),
                                   sset.surrogate, tol=1e-5, max_iters=500)
    rho = compute_rho(x_region, x_set, x_map, sset.surrogate)
    expected = (np.linalg.norm(x_set - x_region)
                / np.linalg.norm(x_map - sset.surrogate))
    assert rho == pytest.approx(expected, rel=1e-12)
    outcome = run_buqo(problem, mask, alpha=0.01, x_map=x_map,
                       outer_tol=1e-5, outer_max_iters=500)
    assert outcome.rho_alpha == pytest.approx(rho, rel=1e-6)


def test_run_buqo_takes_a_prebuilt_structure_set():
    problem, mask, _ = pipeline_16(seed=52, bright=2.0, sigma2=1e-4)
    x_map, diag = solve_map(problem, tol=1e-8, max_iters=60000)
    assert diag.converged
    settings = dict(alpha=0.01, x_map=x_map, outer_tol=1e-5,
                    outer_max_iters=500)
    from_mask = run_buqo(problem, mask, **settings)
    prebuilt = run_buqo(problem, build_localized_set(x_map, mask), **settings)
    assert prebuilt.rho_alpha == from_mask.rho_alpha
    assert prebuilt.decision == from_mask.decision


def test_run_buqo_reads_a_non_square_grid_without_rows_and_cols():
    problem, _ = small_map_problem(seed=34, rows=4, cols=8)
    mask = PixelMask(4, 8, [10, 11])
    settings = dict(alpha=0.1, outer_max_iters=5, inner_max_iters=50)
    explicit = run_buqo(problem, mask, rows=4, cols=8, **settings)
    # the grid the operators record, the Fourier map's when the analysis
    # operator records none, or the mask's when neither does
    bare = replace(problem, psi=replace(problem.psi, grid=None))
    neither = replace(bare, phi=replace(problem.phi, grid=None))
    assert (bare.grid, neither.grid) == ((4, 8), None)
    for implicit in (run_buqo(problem, mask, **settings),
                     run_buqo(bare, mask, **settings),
                     run_buqo(neither, mask, **settings)):
        assert implicit.rho_alpha == explicit.rho_alpha
        assert implicit.iterations == explicit.iterations
        np.testing.assert_array_equal(implicit.x_set, explicit.x_set)
    # with no grid recorded, a mask of another pixel count is refused
    # before the MAP, not by the set builder after it
    with pytest.raises(BuqoError, match="4x4 grid, the problem has 32 pixels"):
        run_buqo(neither, PixelMask(4, 4, [5, 6]), **settings)


def test_undersized_theta_is_refused_not_widened():
    region, problem, _ = small_region(seed=33)
    mask = PixelMask(4, 4, [5, 6])
    theta = 0.5 * build_localized_set(region.x_map, mask).energy_ball.radius
    assert theta > 0.0
    with pytest.raises(ValueError, match="surrogate violates"):
        build_localized_set(region.x_map, mask, theta=theta)
    spec = StructureSpec("localized", mask, {"theta": theta})
    with pytest.raises(BuqoError) as err:
        run_buqo(problem, spec, alpha=0.1, x_map=region.x_map, rows=4, cols=4)
    assert err.value.stage == "set"
    assert "surrogate violates" in str(err.value)


@pytest.mark.parametrize("mode", ["pocs", "fb"])
def test_run_buqo_counts_inner_projections_cut_short(mode):
    problem, mask, _ = pipeline_16(seed=52, bright=2.0, sigma2=1e-4)
    x_map, _ = solve_map(problem, tol=1e-8, max_iters=60000)
    settings = dict(alpha=0.01, mode=mode, x_map=x_map, outer_max_iters=3)
    outcome = run_buqo(problem, mask, **settings)
    assert outcome.inner_unconverged == 0
    assert "approximate" not in outcome.narrative
    # one primal-dual iteration never converges (iteration 1 cannot
    # test), so both projections of every outer iteration stop short
    outcome = run_buqo(problem, mask, inner_max_iters=1, **settings)
    assert outcome.inner_unconverged == 2 * outcome.iterations
    assert outcome.narrative.endswith(
        f"({outcome.inner_unconverged} inner projections stopped at "
        "inner_max_iters = 1; rho is approximate)")


def test_run_buqo_narrative_names_an_outer_loop_cut_short():
    problem, mask, _ = pipeline_16(seed=52, bright=2.0, sigma2=1e-4)
    x_map, _ = solve_map(problem, tol=1e-8, max_iters=60000)
    outcome = run_buqo(problem, mask, alpha=0.01, x_map=x_map,
                       outer_max_iters=3)
    assert outcome.stop_reason == "max_iters"
    assert outcome.narrative.endswith(
        "(the outer loop stopped at outer_max_iters = 3 before its stop "
        "test passed)")
    outcome = run_buqo(problem, mask, alpha=0.01, x_map=x_map,
                       outer_tol=1e-5, outer_max_iters=500)
    assert outcome.stop_reason != "max_iters"
    assert "outer_max_iters" not in outcome.narrative


class RecordingProjector(WarmProjector):
    """A projector that records the tolerance each call ran at."""

    def __init__(self, projector: WarmProjector):
        # a projector holds the box and blocks it was built from
        super().__init__(projector, projector.tol, projector.max_iters)
        self.gamma = projector.gamma
        self.tols = []

    def __call__(self, x, tol=None):
        self.tols.append(self.tol if tol is None else max(self.tol, tol))
        return super().__call__(x, tol)


class RecordingCall:
    """A closed-form projector that records the keywords of each call."""

    def __init__(self, projector):
        self.projector_fn = projector
        self.keywords = []

    def __call__(self, x, **kwargs):
        self.keywords.append(kwargs)
        return self.projector_fn(x)


@pytest.mark.parametrize("max_iters", [500, 3])
@pytest.mark.parametrize("run", [run_pocs, run_fb_distance])
def test_outer_loops_stop_on_a_full_tolerance_lap(run, max_iters):
    problem, mask, _ = pipeline_16(seed=52, bright=2.0, sigma2=1e-4)
    x_map, _ = solve_map(problem, tol=1e-8, max_iters=60000)
    region = build_region(x_map, compute_lambda(x_map, problem.psi), 0.01,
                          problem)
    sset = build_localized_set(x_map, mask)
    inner_tol = 1e-8
    projectors = [RecordingProjector(s.projector(tol=inner_tol))
                  for s in (region, sset)]
    starts = ((sset.surrogate,) if run is run_pocs else
              (region.x_map, sset.surrogate))
    _, _, iters, stop, _ = run(*projectors, *starts, tol=1e-5,
                               max_iters=max_iters)
    assert (stop == "max_iters") == (max_iters == 3)
    for p in projectors:
        assert len(p.tols) == iters
        # early laps run loose, the last one at full tolerance
        assert p.tols[0] > inner_tol
        assert p.tols[-1] == inner_tol

    # a mixed pair: the region's laps follow the same schedule, while the
    # closed-form background projection is always called as p(x)
    bset = build_background_set(x_map, 16, 16, threshold_frac=0.3,
                                dilation_radius=1)
    region_p = RecordingProjector(region.projector(tol=inner_tol))
    set_p = RecordingCall(bset.projector(tol=inner_tol))
    starts = ((bset.surrogate,) if run is run_pocs else
              (region.x_map, bset.surrogate))
    _, _, iters, stop, _ = run(region_p, set_p, *starts, tol=1e-5,
                               max_iters=max_iters)
    assert (stop == "max_iters") == (max_iters == 3)
    assert len(region_p.tols) == iters
    assert region_p.tols[0] > inner_tol
    assert region_p.tols[-1] == inner_tol
    assert set_p.keywords == [{}] * iters


def test_inexact_laps_keep_the_exact_answer_for_fewer_iterations():
    problem, mask, _ = pipeline_16(seed=50, bright=3.0, sigma2=1e-4)
    x_map, _ = solve_map(problem, tol=1e-8, max_iters=60000)
    region = build_region(x_map, compute_lambda(x_map, problem.psi), 0.01,
                          problem)
    sset = build_localized_set(x_map, mask)
    limits = RunSettings()
    region_p = region.projector(tol=limits.inner_tol,
                                max_iters=limits.inner_max_iters)
    set_p = sset.projector(tol=limits.inner_tol,
                           max_iters=limits.inner_max_iters)
    # plain callables are never handed a tolerance: every lap is exact
    x_region, x_set, *_ = run_pocs(lambda x: region_p(x), lambda x: set_p(x),
                                   sset.surrogate, tol=limits.outer_tol,
                                   max_iters=limits.outer_max_iters)
    rho = compute_rho(x_region, x_set, x_map, sset.surrogate)
    exact_iterations = region_p.inner_iterations + set_p.inner_iterations

    outcome = run_buqo(problem, mask, alpha=0.01, x_map=x_map)
    assert outcome.decision == decide(rho, 0.03, 0.01)[0] == "rejected"
    assert outcome.rho_alpha == pytest.approx(rho, rel=1e-4)
    assert 0 < outcome.inner_iterations < exact_iterations


def plain_fb(project_region, project_set, x0_region, x0_set, gamma, tol,
             max_iters):
    """Forward-backward without momentum, driven through the shared outer
    loop: run_fb_distance's step with beta_k = 0 on every lap."""
    def step(project_region, project_set, a, b):
        return (project_region((1.0 - gamma) * a + gamma * b),
                project_set((1.0 - gamma) * b + gamma * a))

    return buqo.engine._outer_loop((project_region, project_set), step,
                                   x0_region.copy(), x0_set.copy(), tol,
                                   max_iters)


def fb_runs(problem, mask, gamma, max_iters, inner=None, map_limits=None):
    """run_fb_distance and plain_fb on fresh projectors of one instance:
    per run its pair, laps, stop reason, deltas and the projectors."""
    x_map, diag = solve_map(problem, **(map_limits or {}))
    assert diag.converged
    region = build_region(x_map, compute_lambda(x_map, problem.psi), 0.01,
                          problem)
    sset = build_localized_set(x_map, mask)
    runs = []
    for run in (run_fb_distance, plain_fb):
        projectors = (region.projector(**(inner or {})),
                      sset.projector(**(inner or {})))
        runs.append((*run(*projectors, region.x_map, sset.surrogate,
                          gamma=gamma, tol=1e-5, max_iters=max_iters),
                     projectors))
    return runs, x_map, sset.surrogate


def test_fb_momentum_takes_fewer_laps_for_the_same_rho():
    # the seed-0 64x64 bright test at the benchmark's solver settings;
    # the 16x16 instances converge in too few laps to show the gain
    runs, x_map, surrogate = fb_runs(workload_problem(), bright_source_mask(),
                                     0.5, 250, inner=dict(tol=1e-7, max_iters=3000))
    results = []
    for x_region, x_set, laps, stop, _, projectors in runs:
        assert stop != "max_iters"
        assert sum(p.unconverged_calls for p in projectors) == 0
        results.append((laps, sum(p.inner_iterations for p in projectors),
                        compute_rho(x_region, x_set, x_map, surrogate)))
    (laps, iterations, rho), (plain_laps, plain_iterations, plain_rho) = results
    assert laps < plain_laps
    assert iterations < plain_iterations
    assert rho == pytest.approx(plain_rho, rel=1e-4)


def test_run_buqo_invalid_alpha_raises_region_stage():
    problem, mask, _ = pipeline_16(seed=53)
    with pytest.raises(BuqoError) as err:
        run_buqo(problem, mask, alpha=3.0)
    assert err.value.stage == "region"


@pytest.mark.parametrize("name, value, stage", [
    ("eta", float("nan"), "engine"),
    ("eta", -1.0, "engine"),
    ("alpha", 3.0, "region"),
    ("alpha", 0.0, "region"),
    ("eta", float("inf"), "engine"),
])
def test_run_buqo_rejects_bad_eta_and_alpha_before_solving(
        monkeypatch, name, value, stage):
    problem, mask, _ = pipeline_16(seed=55)

    def no_solve(*args, **kwargs):
        raise AssertionError("a solve started before eta and alpha were checked")

    monkeypatch.setattr(buqo.engine, "solve_map", no_solve)
    with pytest.raises(BuqoError) as err:
        run_buqo(problem, mask, **{name: value})
    assert err.value.stage == stage
    assert name in str(err.value)


@pytest.mark.parametrize("eta", [float("nan"), -0.01, float("inf")])
def test_bad_eta_is_refused_everywhere(eta):
    # a NaN or infinite eta would leave every test "not rejected"
    with pytest.raises(ValueError, match="eta"):
        decide(0.5, eta, 0.01)
    with pytest.raises(ValueError, match="eta"):
        ExperimentSpec(eta=eta)
    with pytest.raises(ValueError, match="eta"):
        RunConfig(eta=eta)


@pytest.mark.parametrize("alpha", [3.0, 0.0, float("nan")])
def test_experiment_spec_refuses_bad_alpha(alpha):
    # a grid would otherwise record the same error in every cell
    with pytest.raises(ValueError, match="alpha"):
        ExperimentSpec(alpha=alpha)


def test_experiment_spec_refuses_an_unknown_mode():
    # a grid would otherwise record the same error in every cell
    with pytest.raises(ValueError, match="'bogus'"):
        ExperimentSpec(mode="bogus")


def test_run_settings_keywords_are_all_nine_settings():
    spec = ExperimentSpec(alpha=0.05, eta=0.1, mode="fb", outer_max_iters=7)
    keywords = spec.keywords()
    assert list(keywords) == ["map_tol", "map_max_iters", "outer_tol",
                              "outer_max_iters", "inner_tol",
                              "inner_max_iters", "alpha", "eta", "mode"]
    assert RunSettings(**keywords) == RunSettings(alpha=0.05, eta=0.1,
                                                  mode="fb", outer_max_iters=7)


def test_public_solver_defaults_are_the_settings_defaults():
    settings = RunSettings()
    for fn, prefix in ((solve_map, "map"),
                       (CredibleRegion.projector, "inner"),
                       (LocalizedSet.projector, "inner"),
                       (BackgroundSet.projector, "inner"),
                       (run_pocs, "outer"), (run_fb_distance, "outer")):
        params = inspect.signature(fn).parameters
        for limit in ("tol", "max_iters"):
            assert params[limit].default == getattr(
                settings, f"{prefix}_{limit}"), (fn.__qualname__, limit)


def test_each_default_is_declared_once():
    def default(fn, name):
        return inspect.signature(fn).parameters[name].default

    settings = RunSettings()
    for name in ("alpha", "eta", "mode"):
        assert default(run_buqo, name) == getattr(settings, name), name
    # RunConfig's experiment fields under ExperimentSpec's names
    config, spec = RunConfig(), ExperimentSpec()
    for mine, theirs in (("seed", "seed"), ("rows", "rows"), ("cols", "cols"),
                         ("phantom", "phantom"),
                         ("pattern_kind", "pattern_kind"),
                         ("levels", "wavelet_levels"),
                         ("grid_ratios", "sampling_ratios"),
                         ("grid_variances", "noise_variances")):
        assert getattr(config, mine) == getattr(spec, theirs), mine
    for (fn, other), name in (
            ((build_inpainting, build_localized_set), "kernel_sizes"),
            ((background_mask, build_background_set), "threshold_frac"),
            ((background_mask, build_background_set), "dilation_radius"),
            ((run_fb_distance, run_buqo), "gamma")):
        assert default(fn, name) == default(other, name), name


def test_run_buqo_misspelt_keyword_is_a_type_error(monkeypatch):
    problem, mask, _ = pipeline_16(seed=55)

    def no_solve(*args, **kwargs):
        raise AssertionError("a solve started before the keywords were checked")

    monkeypatch.setattr(buqo.engine, "solve_map", no_solve)
    with pytest.raises(TypeError, match="bogus"):
        run_buqo(problem, mask, bogus=1)


def test_run_buqo_bad_mode_raises_engine_stage():
    problem, mask, _ = pipeline_16(seed=54)
    with pytest.raises(BuqoError) as err:
        run_buqo(problem, mask, mode="dykstra")
    assert err.value.stage == "engine"


@pytest.mark.parametrize("name, value, stage", [
    ("map_tol", 0.0, "map"),
    ("map_tol", float("inf"), "map"),
    ("map_max_iters", 0, "map"),
    ("outer_tol", -1e-5, "engine"),
    ("outer_max_iters", 0, "engine"),
    ("inner_tol", 0.0, "engine"),
    ("inner_tol", float("inf"), "engine"),
    ("inner_max_iters", 0, "engine"),
    # a limit that is not an integer once failed only after the MAP solve
    ("map_max_iters", True, "map"),
    ("outer_max_iters", 1000.0, "engine"),
    ("inner_max_iters", 2.5, "engine"),
])
def test_run_buqo_rejects_bad_solver_settings_before_solving(
        monkeypatch, name, value, stage):
    # a zero inner budget would decide on unprojected points
    problem, mask, _ = pipeline_16(seed=55)

    def no_solve(*args, **kwargs):
        raise AssertionError("a solve started before the settings were checked")

    monkeypatch.setattr(buqo.engine, "solve_map", no_solve)
    with pytest.raises(BuqoError) as err:
        run_buqo(problem, mask, **{name: value})
    assert err.value.stage == stage
    assert name in str(err.value)
    # the settings, the grid spec and the CLI config refuse the same value
    for cls in (RunSettings, ExperimentSpec, RunConfig):
        with pytest.raises(BuqoError) as err:
            cls(**{name: value})
        assert err.value.stage == stage
        assert name in str(err.value)


@pytest.mark.parametrize("kind, params, key", [
    ("localized", {"tua": 0.05}, "tua"),          # misspelled tau
    ("localized", {"vartheta": 1e-2}, "vartheta"),  # a background key
    ("background", {"tau": 0.1}, "tau"),          # a localized key
])
def test_run_buqo_unknown_spec_key_fails_set_stage(kind, params, key):
    region, problem, _ = small_region(seed=33)
    spec = StructureSpec(kind, PixelMask(4, 4, [5, 6]), params)
    with pytest.raises(BuqoError) as err:
        run_buqo(problem, spec, alpha=0.1, x_map=region.x_map, rows=4, cols=4)
    assert err.value.stage == "set"
    assert repr(key) in str(err.value)


@pytest.mark.parametrize("structure, nan_pixel, stage", [
    (StructureSpec("localized", PixelMask(4, 4, [5, 6]),
                   {"tau": float("nan")}), False, "set"),
    (StructureSpec("localized", PixelMask(4, 4, [5, 6]),
                   {"theta": float("nan")}), False, "set"),
    (PixelMask(4, 4, [5, 6]), True, "map"),
], ids=["tau", "theta", "x_map"])
def test_run_buqo_refuses_nan_inputs(structure, nan_pixel, stage):
    # each would otherwise run the outer budget on NaN iterates and end
    # "not rejected" at rho = nan
    region, problem, _ = small_region(seed=33)
    x_map = region.x_map.copy()
    if nan_pixel:
        x_map[7] = np.nan
    with pytest.raises(BuqoError) as err:
        run_buqo(problem, structure, alpha=0.1, x_map=x_map, rows=4, cols=4,
                 outer_max_iters=5, inner_max_iters=50)
    assert err.value.stage == stage


@pytest.mark.parametrize("make, given, other", [
    (lambda block, image: PixelMask(8, 32, block), {}, "8x32"),
    (lambda block, image: StructureSpec("localized", PixelMask(8, 32, block), {}),
     {}, "8x32"),
    (lambda block, image: StructureSpec(
        "background", PixelMask(32, 8, []),
        {"threshold_frac": 0.3, "dilation_radius": 1}), {}, "32x8"),
    (lambda block, image: build_localized_set(image, PixelMask(8, 32, block)),
     {}, "8x32"),
    # a mask on the problem's grid, with rows and cols naming another
    (lambda block, image: PixelMask(16, 16, block), {"rows": 8, "cols": 32},
     "8x32"),
], ids=["mask", "localized-spec", "background-spec", "prebuilt-set",
        "rows-cols"])
def test_run_buqo_refuses_a_mask_from_another_grid(make, given, other,
                                                   monkeypatch):
    # the flat indices fit a 16x16 image, but the inpainting windows and
    # the background dilation would come from the other grid's geometry
    problem, mask, truth = pipeline_16(seed=50, bright=3.0, sigma2=1e-4)

    def no_solve(*args, **kwargs):
        raise AssertionError("a solve started before the grid was checked")

    monkeypatch.setattr(buqo.engine, "solve_map", no_solve)
    with pytest.raises(BuqoError) as err:
        run_buqo(problem, make(mask.indices, truth), alpha=0.01,
                 outer_max_iters=3, **given)
    assert err.value.stage == "set"
    assert f"on a {other} grid, the problem on 16x16" in str(err.value)


# ---------------------------------------------------------------------------
# the benchmark's trace contract

def test_benchmark_tracer_counts_match_the_outcome():
    # perfbench/spans.py counts iterations by rebinding library names; a
    # rename that drops one would leave the benchmark's counts at zero
    spans = perfbench_spans()
    problem, mask, _ = pipeline_16(seed=52, bright=2.0, sigma2=1e-4)
    x_map, _ = solve_map(problem, tol=1e-8, max_iters=60000)
    modes = ("pocs", "fb")
    tracer = spans.Tracer()
    tracer.install()
    try:
        # looked up on the module, so the call goes through the tracer
        outcomes = [buqo.engine.run_buqo(problem, mask, alpha=0.01, mode=mode,
                                         x_map=x_map) for mode in modes]
    finally:
        tracer.uninstall()
    counts = tracer.test_counts(list(modes))
    for mode, outcome in zip(modes, outcomes):
        assert outcome.inner_iterations > 0
        assert (counts[f"{mode}.region_inner_iters"]
                + counts[f"{mode}.set_inner_iters"]) == outcome.inner_iterations
        assert counts[f"{mode}.outer_iters"] == outcome.iterations
        assert counts[f"{mode}.stop_reason"] == outcome.stop_reason
