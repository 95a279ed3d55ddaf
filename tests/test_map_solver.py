import dataclasses

import numpy as np
import pytest

from buqo import map_solver
from buqo._pd import pd_steps
from buqo.map_solver import MapProblem, compute_lambda, solve_map
from buqo.operators import (LinearMap, SamplingPattern, db8_analysis,
                            masked_dft, multicoil_map)
from buqo.sim import add_noise, gaussian_random_pattern

from instances import counting, workload_problem
from oracles import best_real_misfit, map_iterations


def identity_map(n):
    return LinearMap(n, n, lambda x: np.asarray(x, dtype=float).copy(),
                     lambda y: np.asarray(y, dtype=float).copy(),
                     norm_bound=1.0)


def full_dft(rows, cols):
    return masked_dft(SamplingPattern(rows, cols, np.arange(rows * cols)))


def sparse_truth(rows, cols, seed, k=6):
    rng = np.random.default_rng(seed)
    psi = db8_analysis(rows, cols, 1)
    w = np.zeros(rows * cols)
    w[rng.choice(rows * cols, size=k, replace=False)] = rng.uniform(0.5, 2.0, k)
    return np.maximum(psi.adjoint(w), 0.0), psi


def test_solve_map_feasibility_with_loose_ball():
    rows = cols = 8
    phi = full_dft(rows, cols)
    truth, psi = sparse_truth(rows, cols, seed=0)
    y = phi.forward(truth)
    problem = MapProblem(phi, psi, y, epsilon=2.0)
    x, diag = solve_map(problem, tol=1e-8, max_iters=20000)
    assert diag.converged
    assert diag.feasibility_gap <= 1e-6 * 2.0
    assert diag.feasibility_gap == problem.feasibility_gap(x)
    assert np.linalg.norm(phi.forward(x) - y) <= 2.0 * (1 + 1e-6)
    assert x.min() >= 0.0
    # the logged objective is the one of x itself
    assert diag.objective == np.abs(psi.forward(x)).sum()


def test_solve_map_recovers_truth_noiseless_tiny_ball():
    rows = cols = 8
    phi = full_dft(rows, cols)
    truth, psi = sparse_truth(rows, cols, seed=1)
    y = phi.forward(truth)
    problem = MapProblem(phi, psi, y, epsilon=1e-5)
    x, diag = solve_map(problem, tol=1e-9, max_iters=60000)
    assert diag.converged
    # invertible-operator oracle: the unitary map pins x to the truth
    assert np.linalg.norm(x - truth) <= 1e-4


def undersampled_problem(scale=1.0):
    """16x16 problem at ratio 0.6; ``scale`` multiplies the data and epsilon."""
    rows = cols = 16
    pattern = gaussian_random_pattern(rows, cols, 0.6, seed=3)
    phi = masked_dft(pattern)
    truth, psi = sparse_truth(rows, cols, seed=3, k=12)
    y = add_noise(phi.forward(truth), 1e-4, seed=4)
    eps = 0.01 * np.sqrt(2 * phi.out_dim + 2 * np.sqrt(4 * phi.out_dim))
    return MapProblem(phi, psi, scale * y, scale * eps)


def test_solve_map_objective_weight_invariance():
    problem = undersampled_problem()
    x1, d1 = solve_map(problem, tol=1e-9, max_iters=60000)
    x2, d2 = solve_map(problem, tol=1e-9, max_iters=60000, l1_weight=7.3)
    assert d1.converged and d2.converged
    # the dual step scales with the weight, so the iteration does not change
    assert d1.iterations == d2.iterations
    rel = np.linalg.norm(x1 - x2) / np.linalg.norm(x1)
    assert rel <= 1e-3


def test_solve_map_data_scale_invariance():
    x1, d1 = solve_map(undersampled_problem(), tol=1e-9, max_iters=60000)
    x2, d2 = solve_map(undersampled_problem(100.0), tol=1e-9, max_iters=60000)
    assert d1.converged and d2.converged
    assert d1.iterations == d2.iterations
    assert np.linalg.norm(x2 - 100.0 * x1) <= 1e-12 * np.linalg.norm(x2)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_solve_map_zero_data_takes_a_finite_step():
    rows = cols = 8
    phi = full_dft(rows, cols)
    psi = db8_analysis(rows, cols, 1)
    problem = MapProblem(phi, psi, np.zeros(phi.out_dim), epsilon=1e-3)
    x, diag = solve_map(problem, tol=1e-8)
    assert diag.converged and diag.iterations == 2
    assert np.isfinite(diag.gamma) and diag.gamma > 0
    np.testing.assert_array_equal(x, np.zeros(rows * cols))


def test_solve_map_flags_nonconvergence():
    rows = cols = 8
    phi = full_dft(rows, cols)
    truth, psi = sparse_truth(rows, cols, seed=5)
    y = phi.forward(truth) + 0.3
    problem = MapProblem(phi, psi, y, epsilon=1e-3)
    x, diag = solve_map(problem, tol=1e-12, max_iters=5)
    assert not diag.converged
    assert diag.iterations == 5
    assert len(diag.primal_residuals) == 5
    assert diag.objective == np.abs(psi.forward(x)).sum()


@pytest.mark.parametrize("iters", [5, 12])
def test_solve_map_operator_budget_per_iteration(iters):
    rows = cols = 8
    phi, phi_calls = counting(full_dft(rows, cols))
    truth, psi = sparse_truth(rows, cols, seed=5)
    psi, psi_calls = counting(psi)
    y = phi.forward(truth) + 0.3
    phi_calls["forward"] = 0
    problem = MapProblem(phi, psi, y, epsilon=1e-3)
    _, diag = solve_map(problem, tol=1e-12, max_iters=iters)
    assert not diag.converged and diag.iterations == iters
    # one adjoint and one forward (of the extrapolated point) per iteration;
    # set-up: Phi* y; the end: the last iterate's gap and objective
    assert psi_calls == {"forward": iters + 1, "adjoint": iters}
    assert phi_calls == {"forward": iters + 1, "adjoint": iters + 1}


@pytest.mark.parametrize("epsilon, tol, max_iters", [
    (1e-3, 1e-12, 5), (1e-3, 1e-12, 40), (0.5, 1e-8, 20000)])
def test_solve_map_matches_loop_oracle(epsilon, tol, max_iters):
    rows = cols = 8
    full = SamplingPattern(rows, cols, np.arange(rows * cols))
    # the grid minus one bin: its mirror (1, 1) keeps a slot of weight 1
    short = SamplingPattern(rows, cols, np.arange(rows * cols - 1))
    truth, psi = sparse_truth(rows, cols, seed=5)
    # the counting wrapper has no fold: the plain ball on all 64 bins; the
    # full masked DFT folds them onto the 8x8 image and one entry, the
    # short one its 63 bins onto 40 half-spectrum slots
    cases = [(counting(masked_dft(full))[0], None, False, 64),
             (masked_dft(full), full, True, 65),
             (masked_dft(short), short, False, 40)]
    for op, pattern, image, entries in cases:
        problem = MapProblem(op, psi, op.forward(truth) + 0.3, epsilon=epsilon)
        assert problem.fit.op.out_dim == entries
        x, diag = solve_map(problem, tol=tol, max_iters=max_iters)
        xs, changes, gaps = map_iterations(problem, diag.iterations, pattern, image)
        np.testing.assert_array_equal(diag.primal_residuals, changes)
        # the last iterate, converged or not
        np.testing.assert_array_equal(x, xs[-1])
        assert diag.feasibility_gap == gaps[-1]
        assert diag.objective == np.abs(psi.forward(x)).sum()
        # the stop test: the first iteration from 2 on whose change and
        # exact gap both pass
        passing = [k + 1 for k in range(1, len(changes))
                   if changes[k] <= tol and gaps[k] <= 1e-6 * epsilon]
        if diag.converged:
            assert diag.iterations < max_iters and passing == [diag.iterations]
        else:
            assert diag.iterations == max_iters and passing == []


def full_pattern_problem(name):
    """A fully sampled observation and its pattern: the 8x8 loop-oracle
    instance, or the benchmark's 64x64 one."""
    if name == "workload":
        return workload_problem(), SamplingPattern(64, 64, np.arange(64 * 64))
    full = SamplingPattern(8, 8, np.arange(64))
    phi = masked_dft(full)
    truth, psi = sparse_truth(8, 8, seed=5)
    return MapProblem(phi, psi, phi.forward(truth) + 0.3, epsilon=0.5), full


@pytest.mark.parametrize("name", ["8x8", "workload"])
def test_solve_map_on_a_full_pattern_matches_the_half_fold(name, monkeypatch):
    # the image fold takes the half fold's steps: solve_map's iterates
    # stay within 1e-12 of the half-spectrum replay's, and the replay's
    # stop test first passes at solve_map's count
    problem, pattern = full_pattern_problem(name)
    assert problem.fit.op.out_dim == problem.n_pixels + 1
    iterates = []

    def recording(*args):
        for step in pd_steps(*args):
            iterates.append(step[0])
            yield step

    monkeypatch.setattr(map_solver, "pd_steps", recording)
    x, diag = solve_map(problem)
    assert diag.converged and len(iterates) == diag.iterations
    xs, changes, gaps = map_iterations(problem, diag.iterations, pattern)
    for mine, theirs in zip(iterates, xs):
        assert np.linalg.norm(mine - theirs) <= 1e-12 * np.linalg.norm(theirs)
    passing = [k + 1 for k in range(1, len(changes))
               if changes[k] <= 1e-6 and gaps[k] <= 1e-6 * problem.epsilon]
    assert passing == [diag.iterations]


@pytest.mark.parametrize("limits", [
    {"tol": 0.0}, {"tol": -1.0}, {"tol": float("nan")},
    {"max_iters": 0}, {"max_iters": -5}, {"tol": float("inf")},
])
def test_solve_map_rejects_bad_limits(limits):
    rows = cols = 8
    phi = full_dft(rows, cols)
    truth, psi = sparse_truth(rows, cols, seed=5)
    problem = MapProblem(phi, psi, phi.forward(truth), epsilon=1e-3)
    with pytest.raises(ValueError, match=next(iter(limits))):
        solve_map(problem, **limits)


def test_solve_map_deterministic():
    rows = cols = 8
    pattern = gaussian_random_pattern(rows, cols, 0.7, seed=9)
    phi = masked_dft(pattern)
    truth, psi = sparse_truth(rows, cols, seed=9)
    y = add_noise(phi.forward(truth), 1e-3, seed=10)
    problem = MapProblem(phi, psi, y, epsilon=0.5)
    xa, da = solve_map(problem, tol=1e-8, max_iters=5000)
    xb, db = solve_map(problem, tol=1e-8, max_iters=5000)
    np.testing.assert_array_equal(xa, xb)
    assert da.iterations == db.iterations


def test_solve_map_objective_bounded_and_running_min_monotone():
    rows = cols = 8
    with pytest.warns(RuntimeWarning, match="lowest unused"):
        pattern = gaussian_random_pattern(rows, cols, 0.8, seed=11)
    phi = masked_dft(pattern)
    truth, psi = sparse_truth(rows, cols, seed=11)
    y = add_noise(phi.forward(truth), 1e-3, seed=12)
    problem = MapProblem(phi, psi, y, epsilon=0.5)
    x, diag = solve_map(problem, tol=1e-8, max_iters=5000)
    xs, _, _ = map_iterations(problem, diag.iterations, pattern)
    objectives = [np.abs(psi.forward(x_k)).sum() for x_k in xs]
    assert np.isfinite(objectives).all()
    running = np.minimum.accumulate(objectives)
    assert (np.diff(running) <= 0).all()
    np.testing.assert_array_equal(x, xs[-1])
    assert diag.objective == objectives[-1]


def test_map_problem_cannot_be_assigned_and_replace_rebuilds_its_ball():
    phi = full_dft(4, 4)
    problem = MapProblem(phi, db8_analysis(4, 4, 1), phi.forward(np.ones(16)), 1.0)
    for name, value in (("data", np.zeros(16)), ("epsilon", 2.0), ("fit", None)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(problem, name, value)
    zero = dataclasses.replace(problem, data=np.zeros(16))
    assert np.abs(problem.fit.term.center).max() > 0
    np.testing.assert_array_equal(zero.fit.term.center, 0.0)


def test_map_problem_validation():
    phi = full_dft(4, 4)
    psi = db8_analysis(4, 4, 1)
    with pytest.raises(ValueError):
        MapProblem(phi, psi, np.zeros(16), epsilon=0.0)
    with pytest.raises(ValueError):
        MapProblem(phi, psi, np.zeros(5), epsilon=1.0)
    # the same pixel count on another grid: the Fourier map reads 4x4
    # images, the wavelet transform 2x8 ones
    with pytest.raises(ValueError, match="4x4 grid, psi on 2x8"):
        MapProblem(phi, db8_analysis(2, 8, 1), np.zeros(16), epsilon=1.0)


def test_map_problem_grid_is_the_one_its_operators_record():
    pattern = SamplingPattern(4, 8, np.arange(32))
    coils = multicoil_map([pattern, pattern],
                          [np.full((4, 8), np.sqrt(0.5))] * 2)
    psi = db8_analysis(4, 8, 1)
    for phi in (masked_dft(pattern), coils):
        assert phi.grid == (4, 8)
        for analysis in (psi, identity_map(32)):
            assert MapProblem(phi, analysis, np.zeros(phi.out_dim), 1.0).grid == (4, 8)
    assert MapProblem(identity_map(32), psi, np.zeros(32), 1.0).grid == (4, 8)
    assert MapProblem(identity_map(32), identity_map(32), np.zeros(32), 1.0).grid is None


def test_map_problem_refuses_nan():
    phi = full_dft(4, 4)
    psi = db8_analysis(4, 4, 1)
    with pytest.raises(ValueError, match="epsilon"):
        MapProblem(phi, psi, np.zeros(16), epsilon=np.nan)
    data = np.zeros(16, dtype=complex)
    data[3] = np.nan
    with pytest.raises(ValueError, match="finite"):
        MapProblem(phi, psi, data, epsilon=1.0)


def test_map_problem_refuses_a_ball_without_real_images():
    # 0.05j on every bin of a real image's spectrum: a purely imaginary
    # constant, which no real image reaches, so ||Phi x - y||^2 >= 64 *
    # 0.05^2 = 0.16 for every real x. The 24 interior conjugate pairs of
    # an 8x8 grid, which disagree by 0.1 each, hold c = 24 * 0.1^2 / 2 =
    # 0.12 of it; the pairs of column 0 and of the Nyquist column and the
    # four self-conjugate bins hold the rest
    phi = full_dft(8, 8)
    truth, psi = sparse_truth(8, 8, seed=0)
    y = phi.forward(truth) + 0.05j
    for epsilon in (0.3, 0.35):
        with pytest.raises(ValueError,
                           match=rf"misses it by 0\.4 > epsilon = {epsilon}$"):
            MapProblem(phi, psi, y, epsilon=epsilon)
    problem = MapProblem(phi, psi, y, epsilon=0.41)
    assert problem.fit.term.offset == pytest.approx(0.12, rel=1e-12)


def real_fit_patterns():
    rng = np.random.default_rng(3)
    return {
        "full": SamplingPattern(8, 8, np.arange(64)),
        "random-32": SamplingPattern(8, 8, rng.choice(64, 32, replace=False)),
        # the pair (1, 0) and (7, 0) of column 0, and nothing else
        "column-0-pair": SamplingPattern(8, 8, [8, 56]),
    }


@pytest.mark.parametrize("name", list(real_fit_patterns()))
def test_map_problem_refuses_data_beyond_the_best_real_fit(name):
    # 0.05j on every sampled bin: the best real fit misses the data by
    # more than the interior conjugate pairs' disagreement sqrt(c)
    phi = masked_dft(real_fit_patterns()[name])
    truth, psi = sparse_truth(8, 8, seed=0)
    y = phi.forward(truth) + 0.05j
    best = best_real_misfit(phi, y)
    offset = phi.fold(y)[2]
    assert best > offset + 1e-3
    # refused just below the least misfit, built just above it
    with pytest.raises(ValueError, match="best real fit misses it by"):
        MapProblem(phi, psi, y, epsilon=0.999 * np.sqrt(best))
    problem = MapProblem(phi, psi, y, epsilon=1.001 * np.sqrt(best))
    assert problem.fit.term.offset == offset


# ---------------------------------------------------------------------------
# compute_lambda

def test_compute_lambda_formula_small():
    psi = identity_map(4)
    x = np.array([1.0, -1.0, 0.0, 0.0])
    assert compute_lambda(x, psi) == pytest.approx(2.0)


def test_compute_lambda_unit_case():
    psi = identity_map(4)
    x = np.array([1.0, 1.0, 1.0, 1.0])
    assert compute_lambda(x, psi) == pytest.approx(1.0)


def test_compute_lambda_recomputation_oracle():
    rows = cols = 16
    psi = db8_analysis(rows, cols, 2)
    rng = np.random.default_rng(6)
    x = np.abs(rng.standard_normal(rows * cols))
    lam = compute_lambda(x, psi)
    assert lam == pytest.approx(256.0 / np.abs(psi.forward(x)).sum(), rel=1e-12)


def test_compute_lambda_degenerate_errors():
    psi = identity_map(4)
    with pytest.raises(ValueError, match="degenerate"):
        compute_lambda(np.zeros(4), psi)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_compute_lambda_refuses_a_non_finite_estimate(bad):
    with pytest.raises(ValueError, match="degenerate"):
        compute_lambda(np.array([1.0, bad, 0.0, 2.0]), identity_map(4))
