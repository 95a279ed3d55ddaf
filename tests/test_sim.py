import numpy as np
import pytest

import buqo.engine
import buqo.sim
from buqo.engine import BuqoError, run_buqo
from buqo.io import StructureSpec
from buqo.operators import PixelMask
from buqo.sim import (
    ExperimentSpec,
    add_noise,
    cartesian_pattern,
    coil_sensitivities,
    gaussian_random_pattern,
    make_phantom,
    phantom_layout,
    run_grid,
    sample_noise,
    sampling_pattern,
)
from buqo.credible_region import compute_epsilon_bound
from buqo.map_solver import FEASIBILITY_SLACK, solve_map
from buqo.sim import N_COILS, _observation_seeds, build_problem

from instances import perfbench_spans


# ---------------------------------------------------------------------------
# sampling patterns

def test_gaussian_pattern_full_ratio_selects_everything():
    p = gaussian_random_pattern(16, 16, 1.0, seed=0)
    assert p.n_selected == 256
    np.testing.assert_array_equal(p.indices, np.arange(256))


def test_gaussian_pattern_deterministic():
    a = gaussian_random_pattern(32, 32, 0.3, seed=5)
    b = gaussian_random_pattern(32, 32, 0.3, seed=5)
    np.testing.assert_array_equal(a.indices, b.indices)
    c = gaussian_random_pattern(32, 32, 0.3, seed=6)
    assert not np.array_equal(a.indices, c.indices)


def test_gaussian_pattern_empirical_std():
    p = gaussian_random_pattern(256, 256, 0.1, seed=7)
    assert p.n_selected == round(0.1 * 256 * 256)
    freqs = p.signed_frequencies().astype(float)
    std = freqs.ravel().std()
    target = 0.25 * 128
    assert abs(std - target) <= 0.1 * target


def test_gaussian_pattern_count_and_ratio_validation():
    p = gaussian_random_pattern(32, 32, 0.25, seed=1)
    assert p.n_selected == 256
    with pytest.raises(ValueError):
        gaussian_random_pattern(32, 32, 0.0, seed=1)
    with pytest.raises(ValueError):
        gaussian_random_pattern(32, 32, 1.5, seed=1)


def test_gaussian_pattern_fallback_flagged():
    with pytest.warns(RuntimeWarning, match="lowest unused"):
        p = gaussian_random_pattern(8, 8, 0.95, seed=2)
    assert p.fallback_filled
    assert p.n_selected == round(0.95 * 64)


@pytest.mark.parametrize("rows, cols, ratio, seed, expected", [
    (8, 8, 0.2, 3, [0, 1, 7, 8, 15, 16, 23, 25, 41, 54, 56, 57, 63]),
    (6, 10, 0.5, 4, [0, 1, 2, 3, 4, 7, 8, 9, 10, 11, 12, 13, 17, 18, 19,
                     20, 21, 22, 27, 29, 41, 42, 49, 50, 51, 52, 53, 55,
                     58, 59]),
])
def test_gaussian_pattern_indices_pinned(rows, cols, ratio, seed, expected):
    p = gaussian_random_pattern(rows, cols, ratio, seed)
    assert not p.fallback_filled
    np.testing.assert_array_equal(p.indices, expected)


def test_gaussian_pattern_fallback_indices_pinned():
    # the draws leave high frequencies unused; the fallback fills the
    # lowest of them, so only the 12 highest stay out
    with pytest.warns(RuntimeWarning, match="lowest unused"):
        p = gaussian_random_pattern(12, 10, 0.9, seed=1)
    assert p.fallback_filled
    np.testing.assert_array_equal(
        np.setdiff1d(np.arange(120), p.indices),
        [45, 54, 55, 56, 63, 65, 66, 67, 74, 75, 76, 85])


def test_cartesian_full_grid():
    p = cartesian_pattern(16, 16, freq_factor=1.0, phase_factor=1.0)
    assert p.n_selected == 256


def test_cartesian_64_lines():
    p = cartesian_pattern(256, 256, freq_factor=1.0, phase_factor=4.0)
    rows_used = np.unique(p.indices // 256)
    assert rows_used.size == 64
    assert p.n_selected == 64 * 256


def test_cartesian_defaults_match_published_count():
    p = cartesian_pattern(256, 256)
    assert abs(p.n_selected - 21248) <= 0.05 * 21248


@pytest.mark.parametrize("ratio", [0.25, 0.5, 1.0])
def test_sampling_pattern_cartesian_undersamples_the_phase_axis(ratio):
    # the ratio is the sampled share of the lines, full rows of the grid
    p = sampling_pattern("cartesian", 32, 48, ratio, seed=9)
    q = cartesian_pattern(32, 48, freq_factor=1.0, phase_factor=1.0 / ratio)
    assert (p.rows, p.cols) == (32, 48)
    np.testing.assert_array_equal(p.indices, q.indices)
    assert p.n_selected == round(ratio * 32) * 48


# ---------------------------------------------------------------------------
# noise

def test_add_noise_vanishes_in_zero_limit():
    y = np.ones(64, dtype=complex)
    out = add_noise(y, 1e-30, seed=3)
    np.testing.assert_allclose(out, y, atol=1e-12)


def test_add_noise_empirical_variance():
    y = np.zeros(100000, dtype=complex)
    out = add_noise(y, 0.04, seed=4)
    assert abs(out.real.var() - 0.04) <= 0.05 * 0.04
    assert abs(out.imag.var() - 0.04) <= 0.05 * 0.04


def test_add_noise_deterministic():
    y = np.ones(32, dtype=complex)
    np.testing.assert_array_equal(add_noise(y, 0.01, seed=9),
                                  add_noise(y, 0.01, seed=9))


def test_sample_noise_keeps_total_energy():
    assert sample_noise(0.01, 4096, 4096) == (
        0.01, compute_epsilon_bound(0.1, 4096))
    variance, epsilon = sample_noise(0.01, 4096, 1024)
    assert variance == pytest.approx(0.04, rel=1e-15)
    assert epsilon == compute_epsilon_bound(np.sqrt(variance), 1024)
    with pytest.raises(ValueError):
        sample_noise(0.0, 4096, 1024)
    with pytest.raises(ValueError):
        sample_noise(0.01, 1024, 4096)


def test_noise_levels_refuse_nan():
    # NaN or infinite noise would write non-finite measurements and a
    # non-finite data-ball radius
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="sigma"):
            compute_epsilon_bound(bad, 16)
        with pytest.raises(ValueError, match="sigma2"):
            sample_noise(bad, 16, 16)
        with pytest.raises(ValueError, match="sigma2"):
            add_noise(np.zeros(4, dtype=complex), bad, seed=0)
        with pytest.raises(ValueError, match="noise variances"):
            ExperimentSpec(noise_variances=(1e-3, bad))


def test_build_problem_noise_bound_independent_of_ratio():
    # sigma2 is the per-part variance at full sampling, so the data-ball
    # radius tracks the (fixed) total noise energy, not the sample count
    spec = ExperimentSpec(rows=64, cols=64)
    truth = make_phantom("compact", 64, 64, seed=0)
    full = compute_epsilon_bound(np.sqrt(0.01), 64 * 64)
    at_one = build_problem(spec, truth, 1.0, 0.01, 1, 2)
    assert at_one.phi.out_dim == 64 * 64
    assert at_one.epsilon == full
    at_half = build_problem(spec, truth, 0.5, 0.01, 1, 2)
    assert at_half.phi.out_dim == 64 * 64 // 2
    assert at_half.epsilon == pytest.approx(full, rel=0.01)
    noise = np.linalg.norm(at_half.data - at_half.phi.forward(truth))
    assert noise <= at_half.epsilon


def test_build_problem_multicoil_stacks_n_coils_patterns():
    # each of the N_COILS coils samples its own half of the 32x32 grid
    spec = ExperimentSpec(rows=32, cols=32, pattern_kind="multicoil",
                          wavelet_levels=2)
    truth = make_phantom("compact", 32, 32, seed=0)
    problem = build_problem(spec, truth, 0.5, 0.01, 1, 2)
    assert problem.phi.out_dim == N_COILS * 512
    assert problem.phi.norm_bound <= 1.0 + 1e-12
    x_map, diag = solve_map(problem)
    assert diag.converged
    assert problem.feasibility_gap(x_map) <= FEASIBILITY_SLACK * problem.epsilon


# ---------------------------------------------------------------------------
# phantoms

def test_phantom_range_and_normalization():
    for kind in ("compact", "brain"):
        img = make_phantom(kind, 64, 64, seed=11)
        assert img.min() >= 0.0
        assert img.max() == pytest.approx(1.0, abs=1e-12)


def test_phantom_deterministic():
    a = make_phantom("compact", 64, 64, seed=12)
    b = make_phantom("compact", 64, 64, seed=12)
    np.testing.assert_array_equal(a, b)


def test_phantom_declared_sources_appear_verbatim():
    img = make_phantom("compact", 64, 64, seed=13).reshape(64, 64)
    layout = phantom_layout("compact", 64, 64, seed=13)
    for (py, px, amp, _w, _core) in layout["bright"]:
        assert img[py, px] == pytest.approx(amp, abs=1e-9)


def test_phantom_keeps_reserved_block_empty():
    img = make_phantom("compact", 64, 64, seed=14).reshape(64, 64)
    block = img[int(64 * 0.70):int(64 * 0.90), int(64 * 0.70):int(64 * 0.90)]
    assert block.max() < 0.02


def test_phantom_rejects_tiny_dims():
    with pytest.raises(ValueError):
        make_phantom("compact", 16, 16, seed=0)


def test_coil_sensitivities_unit_energy():
    profiles = coil_sensitivities(32, 32)
    energy = sum(p ** 2 for p in profiles)
    np.testing.assert_allclose(energy, 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# grid runner

def grid_mask(source=0, half=2):
    layout = phantom_layout("compact", 32, 32, seed=70)
    py, px = layout["bright"][source][:2]
    sel = np.zeros((32, 32), dtype=bool)
    sel[py - half:py + half + 1, px - half:px + half + 1] = True
    return PixelMask.from_boolean(sel)


def small_spec(**overrides):
    base = dict(
        rows=32, cols=32, phantom="compact", pattern_kind="gaussian",
        sampling_ratios=(1.0,), noise_variances=(1e-4,),
        structures=(grid_mask(),), alpha=0.01, eta=0.03, seed=70,
        wavelet_levels=2, map_tol=1e-7, map_max_iters=40000,
        outer_tol=1e-5, outer_max_iters=300,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def test_grid_single_cell_equals_direct_run():
    spec = small_spec()
    report = run_grid(spec)
    assert len(report.cells) == 1
    cell = report.cells[0]
    assert cell.error is None

    truth = make_phantom(spec.phantom, spec.rows, spec.cols, spec.seed)
    pattern_seed, noise_seed = _observation_seeds(spec.seed, 0, 0)
    problem = build_problem(spec, truth, 1.0, 1e-4, pattern_seed, noise_seed)
    outcome = run_buqo(problem, spec.structures[0], alpha=spec.alpha,
                       mode=spec.mode, eta=spec.eta, rows=32, cols=32,
                       map_tol=spec.map_tol, map_max_iters=spec.map_max_iters,
                       outer_tol=spec.outer_tol,
                       outer_max_iters=spec.outer_max_iters,
                       inner_tol=spec.inner_tol,
                       inner_max_iters=spec.inner_max_iters)
    assert cell.outcome.rho_alpha == pytest.approx(outcome.rho_alpha,
                                                   rel=1e-12)
    assert cell.outcome.decision == outcome.decision


def test_grid_reproducible_and_failures_recorded():
    spec = small_spec(sampling_ratios=(0.9, 1.0), map_max_iters=20000)
    with pytest.warns(RuntimeWarning, match="lowest unused"):
        r1 = run_grid(spec)
    with pytest.warns(RuntimeWarning, match="lowest unused"):
        r2 = run_grid(spec)
    assert r1.table() == r2.table()
    assert all(c.error is None for c in r1.cells)

    # an invalid alpha fails every cell but the grid still completes
    bad = small_spec(alpha=0.9999999)
    bad.alpha = 3.0
    report = run_grid(bad)
    assert all(c.error is not None for c in report.cells)
    assert "validity interval" in report.cells[0].error


def test_grid_table_layout():
    spec = small_spec()
    report = run_grid(spec)
    lines = report.table().strip().split("\n")
    assert lines[0].split("\t") == ["ratio", "sigma2", "structure",
                                    "rho_percent", "decision", "iterations",
                                    "stop_reason"]
    assert len(lines) == 2
    timing = report.timing().strip().split("\n")
    assert timing[0].split("\t") == ["ratio", "sigma2", "structure",
                                     "runtime_s", "inner_iterations"]
    assert int(timing[1].split("\t")[4]) == report.cells[0].outcome.inner_iterations > 0


def test_grid_table_writes_a_failed_cell_as_error_columns(monkeypatch):
    def fail(*args, **kwargs):
        raise BuqoError("set", "mask\ton the\nborder")

    monkeypatch.setattr(buqo.sim, "run_buqo", fail)
    report = run_grid(small_spec())
    (cell,) = report.cells
    assert cell.outcome is None
    # tabs and newlines of the message would break the table's layout
    assert report.table().split("\n")[1] == (
        "1\t0.0001\tstructure0\terror\terror\terror\t[set] mask on the border")


def two_structure_spec(**overrides):
    """Two bright sources scrutinised on each of two observations."""
    base = dict(structures=(grid_mask(0), grid_mask(1)),
                noise_variances=(1e-4, 2e-4))
    base.update(overrides)
    return small_spec(**base)


def test_grid_structures_share_one_observation_and_map(monkeypatch):
    solve_map = buqo.engine.solve_map
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return solve_map(*args, **kwargs)

    monkeypatch.setattr(buqo.engine, "solve_map", counted)
    spec = two_structure_spec()
    report = run_grid(spec)
    assert len(calls) == len(spec.sampling_ratios) * len(spec.noise_variances)
    assert all(c.error is None for c in report.cells)

    alone = run_grid(small_spec(noise_variances=spec.noise_variances))
    truth = make_phantom(spec.phantom, spec.rows, spec.cols, spec.seed)
    for j, sigma2 in enumerate(spec.noise_variances):
        first, second = report.cells[2 * j:2 * j + 2]
        assert second.outcome.x_map is first.outcome.x_map
        # the second structure is tested on the first one's observation
        problem = build_problem(spec, truth, 1.0, sigma2,
                                *_observation_seeds(spec.seed, 0, j))
        outcome = run_buqo(problem, spec.structures[1], rows=32, cols=32,
                           x_map=first.outcome.x_map, **spec.keywords())
        assert second.outcome.decision == outcome.decision == "rejected"
        assert second.outcome.rho_alpha == pytest.approx(outcome.rho_alpha,
                                                          rel=1e-12)
        # and the first structure's cell is that of a one-structure grid
        mine, single = first.outcome, alone.cells[j].outcome
        assert (mine.rho_alpha, mine.iterations, mine.stop_reason) == (
            single.rho_alpha, single.iterations, single.stop_reason)


def test_grid_failed_map_is_recorded_by_every_structure(monkeypatch):
    solve_map = buqo.engine.solve_map
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return solve_map(*args, **kwargs)

    monkeypatch.setattr(buqo.engine, "solve_map", counted)
    report = run_grid(two_structure_spec(noise_variances=(1e-4,),
                                         map_max_iters=1))
    # the failed solve is handed on, not repeated
    assert len(calls) == 1
    assert [c.structure for c in report.cells] == ["structure0", "structure1"]
    for cell in report.cells:
        assert cell.outcome is None
        assert cell.error.startswith(
            "[map] MAP solver did not converge in 1 iterations")


def test_grid_structure_failing_after_its_map_hands_the_map_on(monkeypatch):
    events = []
    solve_map, test = buqo.engine.solve_map, buqo.sim.run_buqo

    def counted_map(*args, **kwargs):
        events.append("map")
        return solve_map(*args, **kwargs)

    def counted_test(*args, **kwargs):
        events.append("test")
        return test(*args, **kwargs)

    monkeypatch.setattr(buqo.engine, "solve_map", counted_map)
    monkeypatch.setattr(buqo.sim, "run_buqo", counted_test)
    # a mask on the border fails the set stage, after the MAP is solved
    spec = small_spec(noise_variances=(0.01,),
                      structures=(PixelMask(32, 32, [0, 1]), grid_mask(half=3)))
    report = run_grid(spec)
    # one solve, inside the first structure's test
    assert events == ["test", "map", "test"]
    failed, second = report.cells
    assert failed.error.startswith("[set] ")
    monkeypatch.undo()
    alone = run_grid(small_spec(noise_variances=(0.01,),
                                structures=(grid_mask(half=3),))).cells[0]
    assert alone.error is None
    mine, theirs = second.outcome, alone.outcome
    assert (mine.rho_alpha, mine.decision, mine.iterations,
            mine.stop_reason) == (theirs.rho_alpha, theirs.decision,
                                  theirs.iterations, theirs.stop_reason)


def test_grid_failed_build_is_recorded_by_every_structure(monkeypatch):
    build = buqo.sim.build_problem
    failed = []

    def build_full_sampling_only(spec, truth, ratio, *args):
        if ratio < 1.0:
            failed.append(ratio)
            raise ValueError("no scanner time")
        return build(spec, truth, ratio, *args)

    monkeypatch.setattr(buqo.sim, "build_problem", build_full_sampling_only)
    report = run_grid(two_structure_spec(sampling_ratios=(0.5, 1.0),
                                         noise_variances=(1e-4,)))
    assert [c.error for c in report.cells[:2]] == ["no scanner time"] * 2
    assert failed == [0.5]
    assert all(c.error is None for c in report.cells[2:])


@pytest.mark.parametrize("overrides, duplicate", [
    ({"sampling_ratios": (0.5, 0.5000001)}, "sampling ratio '0.5'"),
    ({"noise_variances": (1e-4, 1e-4)}, "noise variance '0.0001'"),
    ({"structures": (StructureSpec("localized", grid_mask(0), name="src"),
                     StructureSpec("localized", grid_mask(1), name="src"))},
     "structure name 'src'"),
    # an unnamed structure is named after its index
    ({"structures": (StructureSpec("localized", grid_mask(0), name="structure1"),
                     grid_mask(1))},
     "structure name 'structure1'"),
])
def test_spec_refuses_cells_of_one_name(overrides, duplicate):
    with pytest.raises(ValueError, match=f"share the {duplicate}"):
        small_spec(**overrides)


def test_spec_refuses_a_structure_on_another_grid():
    # a grid would otherwise solve each MAP, then record the same set
    # error in every cell
    wide = StructureSpec("localized", PixelMask(16, 64, grid_mask().indices),
                         name="wide")
    with pytest.raises(ValueError, match="structure 'wide' is on a 16x64 "
                                         "grid, the experiment on 32x32"):
        small_spec(structures=(grid_mask(), wide))


def test_benchmark_tracer_charges_a_shared_map_to_its_first_test():
    # perfbench/spans.py gives each run_buqo call its own test; the MAP
    # solved in the first structure's test must not leak into the second
    spans = perfbench_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        # looked up on the module, so the call goes through the tracer
        report = buqo.sim.run_grid(two_structure_spec(noise_variances=(1e-4,)))
    finally:
        tracer.uninstall()
    names = ["first", "second"]
    counts = tracer.test_counts(names)
    assert counts["first.map_iters"] > 0
    assert "second.map_iters" not in counts
    for name, cell in zip(names, report.cells):
        assert counts[f"{name}.outer_iters"] == cell.outcome.iterations
        assert counts[f"{name}.stop_reason"] == cell.outcome.stop_reason
        assert (counts[f"{name}.region_inner_iters"]
                + counts[f"{name}.set_inner_iters"]) == cell.outcome.inner_iterations
