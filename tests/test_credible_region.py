import math

import numpy as np
import pytest

from buqo.credible_region import (
    CredibleRegion,
    build_region,
    compute_epsilon_bound,
    compute_tau_alpha,
    project_region,
)
from buqo.map_solver import compute_lambda, solve_map

from instances import small_map_problem, small_region
from oracles import subgradient_project_region


# ---------------------------------------------------------------------------
# scalar formulas

def test_tau_alpha_rejects_out_of_range():
    with pytest.raises(ValueError):
        compute_tau_alpha(3.0, 1024)
    with pytest.raises(ValueError):
        compute_tau_alpha(1e-12, 16)  # below 4 exp(-16/3)


def test_tau_alpha_algebraic_identity():
    n = 256
    alpha = 3.0 * math.exp(-n / 16.0)
    assert compute_tau_alpha(alpha, n) == pytest.approx(1.0, abs=1e-12)


def test_tau_alpha_high_precision_value():
    # oracle: direct high-precision evaluation of sqrt(16 log(3/alpha)/n)
    expected = math.sqrt(16.0 * math.log(300.0) / 65536.0)
    got = compute_tau_alpha(0.01, 65536)
    assert got == pytest.approx(expected, abs=1e-12)
    assert got == pytest.approx(0.037316551531815095, abs=1e-9)


def test_epsilon_bound_unit_case():
    assert compute_epsilon_bound(1.0, 1) == pytest.approx(math.sqrt(6.0),
                                                          abs=1e-12)


def test_epsilon_bound_high_precision_value():
    expected = 0.1 * math.sqrt(2 * 32768 + 2 * math.sqrt(4 * 32768))
    got = compute_epsilon_bound(0.1, 32768)
    assert got == pytest.approx(expected, abs=1e-12)
    assert got == pytest.approx(25.741032874369093, abs=1e-9)


def test_epsilon_bound_linear_in_sigma():
    assert compute_epsilon_bound(0.4, 512) == pytest.approx(
        2.0 * compute_epsilon_bound(0.2, 512), rel=1e-14)


# ---------------------------------------------------------------------------
# region construction

def test_build_region_threshold_with_zero_l1_term():
    problem, _ = small_map_problem(seed=2)
    problem.data = np.zeros(problem.phi.out_dim, dtype=complex)
    x_map = np.zeros(16)
    region = build_region(x_map, lam=1.0, alpha=0.1, problem=problem)
    tau = compute_tau_alpha(0.1, 16)
    assert region.eta_tilde == pytest.approx(16.0 * (tau + 1.0), rel=1e-14)


def test_build_region_map_is_member():
    region, problem, _ = small_region(seed=3)
    # the MAP solve guarantees the ball within 1e-6 relative slack
    assert region.residual(region.x_map) <= 1e-6


def test_build_region_matches_recomputation_oracle():
    rows = cols = 16
    with pytest.warns(RuntimeWarning, match="lowest unused"):
        problem, _ = small_map_problem(seed=4, rows=rows, cols=cols, levels=2)
    x_map, diag = solve_map(problem, tol=1e-9, max_iters=60000)
    assert diag.converged
    lam = compute_lambda(x_map, problem.psi)
    region = build_region(x_map, lam, 0.05, problem)
    l1 = np.abs(problem.psi.forward(x_map)).sum()
    tau = math.sqrt(16.0 * math.log(3.0 / 0.05) / 256.0)
    assert region.eta_tilde == pytest.approx(lam * l1 + 256.0 * (tau + 1.0),
                                             rel=1e-12)


def test_build_region_rejects_infeasible_map():
    problem, _ = small_map_problem(seed=5)
    bad = np.full(16, 50.0)
    with pytest.raises(ValueError, match="infeasible"):
        build_region(bad, lam=1.0, alpha=0.1, problem=problem)


def test_eta_monotone_in_alpha():
    region_small, problem, _ = small_region(seed=6, alpha=0.05)
    lam = region_small.lam
    region_big = build_region(region_small.x_map, lam, 0.5, problem)
    assert region_small.eta_tilde >= region_big.eta_tilde


# ---------------------------------------------------------------------------
# projection onto the region

def test_project_region_member_fixed_point():
    region, _, _ = small_region(seed=7)
    x = region.x_map
    out = project_region(region, x, tol=1e-10, max_iters=20000)
    assert np.linalg.norm(out - x) <= 1e-6 * max(1.0, np.linalg.norm(x))


def test_project_region_membership_contract():
    region, _, _ = small_region(seed=8)
    rng = np.random.default_rng(0)
    z = region.x_map + rng.standard_normal(16) * 3.0
    out = project_region(region, z, tol=1e-10, max_iters=50000)
    assert region.residual(out) <= 1e-6


def test_project_region_matches_subgradient_oracle():
    region, _, _ = small_region(seed=9)
    rng = np.random.default_rng(1)
    z = region.x_map + rng.standard_normal(16) * 1.5
    got = project_region(region, z, tol=1e-12, max_iters=200000)
    oracle = subgradient_project_region(region, z, iters=300000)
    rel = np.linalg.norm(got - oracle) / np.linalg.norm(got)
    assert rel <= 1e-4


def test_project_region_idempotent_within_tolerance():
    region, _, _ = small_region(seed=10)
    rng = np.random.default_rng(2)
    z = region.x_map + rng.standard_normal(16)
    tol = 1e-9
    once = project_region(region, z, tol=tol, max_iters=100000)
    twice = project_region(region, once, tol=tol, max_iters=100000)
    assert np.linalg.norm(twice - once) <= 10 * tol * max(1.0, np.linalg.norm(once))


def test_project_region_firmly_nonexpansive_spot_check():
    region, _, _ = small_region(seed=11)
    rng = np.random.default_rng(3)
    for _ in range(3):
        x = region.x_map + rng.standard_normal(16)
        z = region.x_map + rng.standard_normal(16)
        px = project_region(region, x, tol=1e-11, max_iters=100000)
        pz = project_region(region, z, tol=1e-11, max_iters=100000)
        lhs = np.linalg.norm(px - pz) ** 2
        rhs = float(np.dot(px - pz, x - z))
        assert lhs <= rhs + 1e-6


def test_region_projector_warm_start_reuses_duals():
    region, _, _ = small_region(seed=12)
    rng = np.random.default_rng(4)
    z = region.x_map + rng.standard_normal(16) * 2.0
    proj = region.projector(tol=1e-10, max_iters=100000)
    first = proj(z)
    cold_total = proj.inner_iterations
    second = proj(z + 1e-3 * rng.standard_normal(16))
    warm_iters = proj.inner_iterations - cold_total
    assert warm_iters < cold_total
    assert region.residual(second) <= 1e-6
