import numpy as np
import pytest

from buqo.map_solver import MapProblem, compute_lambda, solve_map
from buqo.operators import LinearMap, db8_analysis, masked_dft, SamplingPattern
from buqo.sim import add_noise, gaussian_random_pattern

from instances import counting
from oracles import map_iterations


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
    # the logged objective (tracked by linearity) is the one of x itself
    exact = np.abs(psi.forward(x)).sum()
    assert diag.objective_series[-1] == pytest.approx(exact, rel=1e-12)


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
    assert len(diag.objective_series) == 5


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
    # set-up: Phi* y, then Psi x0 and Phi x0; the end: the best iterate's gap
    assert psi_calls == {"forward": iters + 1, "adjoint": iters}
    assert phi_calls == {"forward": iters + 2, "adjoint": iters + 1}


@pytest.mark.parametrize("epsilon, tol, max_iters", [
    (1e-3, 1e-12, 5), (1e-3, 1e-12, 40), (0.5, 1e-8, 20000)])
def test_solve_map_matches_loop_oracle(epsilon, tol, max_iters):
    rows = cols = 8
    phi = full_dft(rows, cols)
    truth, psi = sparse_truth(rows, cols, seed=5)
    problem = MapProblem(phi, psi, phi.forward(truth) + 0.3, epsilon=epsilon)
    x, diag = solve_map(problem, tol=tol, max_iters=max_iters)
    xs, changes, objectives, gaps = map_iterations(problem, diag.iterations)
    np.testing.assert_array_equal(diag.primal_residuals, changes)
    np.testing.assert_array_equal(diag.objective_series, objectives)
    if diag.converged:
        assert diag.iterations < max_iters
        np.testing.assert_array_equal(x, xs[-1])
    else:
        # the first feasible iterate of lowest objective, else the first
        # one of smallest gap
        feasible = [k for k, gap in enumerate(gaps) if gap <= 1e-6 * epsilon]
        best = (min(feasible, key=objectives.__getitem__) if feasible
                else int(np.argmin(gaps)))
        np.testing.assert_array_equal(x, xs[best])


@pytest.mark.parametrize("limits", [
    {"tol": 0.0}, {"tol": -1.0}, {"tol": float("nan")},
    {"max_iters": 0}, {"max_iters": -5},
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
    _, diag = solve_map(problem, tol=1e-8, max_iters=5000)
    assert np.isfinite(diag.objective_series).all()
    running = np.minimum.accumulate(diag.objective_series)
    assert (np.diff(running) <= 0).all()


def test_map_problem_validation():
    phi = full_dft(4, 4)
    psi = db8_analysis(4, 4, 1)
    with pytest.raises(ValueError):
        MapProblem(phi, psi, np.zeros(16), epsilon=0.0)
    with pytest.raises(ValueError):
        MapProblem(phi, psi, np.zeros(5), epsilon=1.0)


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
