"""Acceptance suite: one test per criterion, each at its stated tolerance.

A summary line per criterion is printed at the end of the pytest run
(see conftest.pytest_terminal_summary). The end-to-end criteria use the
fixed-seed 64x64 compact-sources phantom; module-scoped fixtures share
the expensive grid across criteria.
"""

import functools
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import buqo
from buqo import io as bio
from buqo.credible_region import (
    build_region,
    compute_epsilon_bound,
    compute_tau_alpha,
)
from buqo.engine import compute_rho, run_fb_distance, run_pocs
from buqo.map_solver import MapProblem, compute_lambda, solve_map
from buqo.operators import (
    PixelMask,
    SamplingPattern,
    build_inpainting,
    db8_analysis,
    dot_test,
    masked_dft,
    multicoil_map,
    residual_map,
)
from buqo.prox import (
    IntervalBox,
    L1Levelset,
    L2Ball,
    project_box,
    project_l1_levelset,
    project_l2_ball,
)
from buqo.sim import (
    ExperimentSpec,
    add_noise,
    coil_sensitivities,
    gaussian_random_pattern,
    make_phantom,
    run_grid,
)
from buqo.structure_sets import build_localized_set

from conftest import record_criterion
from instances import Disk, bright_source_mask, small_localized_set, small_region
from oracles import (
    l1_projection_subgradient_batch,
    nlp_polish_localized,
    nlp_polish_region,
    subgradient_project_localized,
    subgradient_project_region,
)


def criterion(number, description):
    """Record the pass/fail status of one acceptance criterion."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record_criterion(number, description, False)
            result = fn(*args, **kwargs)
            record_criterion(number, description, True)
            return result

        return wrapper

    return decorate


# ---------------------------------------------------------------------------
# 1. operator correctness

@criterion(1, "operator adjoint/orthonormality suite at 1e-10, under 10 s")
def test_criterion_1_operators():
    start = time.perf_counter()
    rows = cols = 16
    patterns = [gaussian_random_pattern(rows, cols, 0.5, seed=s)
                for s in range(4)]
    mask_img = np.zeros((rows, cols), dtype=bool)
    mask_img[6:10, 6:10] = True
    mask = PixelMask.from_boolean(mask_img)
    inpaint = build_inpainting(mask)
    ops = {
        "masked_dft": masked_dft(patterns[0]),
        "multicoil": multicoil_map(patterns, coil_sensitivities(rows, cols)),
        "db8": db8_analysis(rows, cols, 2),
        "inpainting": inpaint,
        "residual": residual_map(mask, inpaint),
    }
    for name, op in ops.items():
        defect = dot_test(op, n_probes=20, seed=17)
        assert defect < 1e-10, f"{name} adjoint defect {defect:.2e}"

    psi = ops["db8"]
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.standard_normal(rows * cols)
        w = psi.forward(x)
        assert abs(np.linalg.norm(w) - np.linalg.norm(x)) < 1e-10
        assert np.linalg.norm(psi.adjoint(w) - x) < 1e-10

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f} s"


# ---------------------------------------------------------------------------
# 2. projection suite

@criterion(2, "projection properties + l1 vs subgradient oracle, under 30 s")
def test_criterion_2_projections():
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    box = IntervalBox(-1.0, 1.5)
    ball = L2Ball(rng.standard_normal(10), 2.0)
    lev = L1Levelset(1.5)
    projections = [
        (lambda x: project_box(x, box),
         lambda: rng.uniform(-1.0, 1.5, 10)),
        (lambda x: project_l2_ball(x, ball),
         lambda: ball.center + 2.0 * rng.uniform(0, 1) ** 0.1
         * (lambda d: d / np.linalg.norm(d))(rng.standard_normal(10))),
        (lambda x: project_l1_levelset(x, lev),
         lambda: rng.choice([-1, 1], 10) * rng.dirichlet(np.ones(10)) * 1.5
         * rng.uniform(0, 1)),
    ]
    for proj, sample in projections:
        for _ in range(20):
            x = rng.standard_normal(10) * 3.0
            z = rng.standard_normal(10) * 3.0
            px, pz = proj(x), proj(z)
            assert np.linalg.norm(proj(px) - px) <= 1e-12
            assert np.linalg.norm(px - pz) <= np.linalg.norm(x - z) + 1e-12
            dist = np.linalg.norm(x - px)
            for _ in range(20):
                assert dist <= np.linalg.norm(x - sample()) + 1e-10

    # 50 random 10-dimensional instances against the subgradient oracle
    X = rng.standard_normal((50, 10)) * rng.uniform(0.5, 3.0, size=(50, 1))
    betas = rng.uniform(0.1, 3.0, size=50)
    oracle = l1_projection_subgradient_batch(X, betas, iters=200000)
    for x, beta, expected in zip(X, betas, oracle):
        got = project_l1_levelset(x, L1Levelset(beta))
        assert np.linalg.norm(got - expected) <= 1e-4

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"criterion 2 took {elapsed:.1f} s"


# ---------------------------------------------------------------------------
# 3. analytic POCS oracle

@criterion(3, "two-disk POCS: distance and limit points, under 1 s")
def test_criterion_3_pocs_analytic():
    start = time.perf_counter()
    a = Disk([0.0, 0.0], 1.0)
    b = Disk([3.0, 0.0], 1.0)
    x_r, x_s, _, _, deltas = run_pocs(a.project, b.project, np.array([3.5, 2.0]),
                                      tol=1e-10, max_iters=50000)
    assert abs(deltas[-1] - 1.0) <= 1e-6
    assert np.linalg.norm(x_r - [1.0, 0.0]) <= 1e-5
    assert np.linalg.norm(x_s - [2.0, 0.0]) <= 1e-5

    c = Disk([1.0, 0.0], 1.0)
    x_r, x_s, _, _, deltas = run_pocs(a.project, c.project, np.array([5.0, -3.0]),
                                      tol=1e-9, max_iters=50000)
    assert deltas[-1] <= 1e-6
    common = x_s
    assert np.linalg.norm(a.project(common) - common) <= 1e-6
    assert np.linalg.norm(c.project(common) - common) <= 1e-6

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"criterion 3 took {elapsed:.2f} s"


# ---------------------------------------------------------------------------
# 4. sub-solver oracle equivalence

@criterion(4, "region/structure projections vs subgradient oracle, under 2 min")
def test_criterion_4_subsolver_oracles():
    # the projected-subgradient stage locates the solution; a generic
    # trust-region solve polishes it below the 1e-4 tolerance, and the
    # two stages must agree with each other (oracle self-consistency)
    start = time.perf_counter()
    for seed in range(5):
        region, _, _ = small_region(seed=60 + seed)
        rng = np.random.default_rng(seed)
        z = region.x_map + rng.standard_normal(16) * 1.5
        got = region.projector(tol=1e-12, max_iters=200000)(z)
        rough = subgradient_project_region(region, z, iters=150000)
        oracle = nlp_polish_region(region, z, rough)
        assert np.linalg.norm(rough - oracle) <= 5e-3 * np.linalg.norm(oracle)
        rel = np.linalg.norm(got - oracle) / np.linalg.norm(got)
        assert rel <= 1e-4, f"region projection seed {seed}: {rel:.2e}"
    for seed in range(5):
        sset, x_map, _ = small_localized_set(seed=80 + seed)
        rng = np.random.default_rng(100 + seed)
        z = x_map + rng.standard_normal(16) * 1.5
        got = sset.projector(tol=1e-12, max_iters=200000)(z)
        rough = subgradient_project_localized(sset, z, iters=150000)
        oracle = nlp_polish_localized(sset, z, rough)
        assert np.linalg.norm(rough - oracle) <= 5e-3 * np.linalg.norm(oracle)
        rel = np.linalg.norm(got - oracle) / np.linalg.norm(got)
        assert rel <= 1e-4, f"structure projection seed {seed}: {rel:.2e}"
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"criterion 4 took {elapsed:.1f} s"


# ---------------------------------------------------------------------------
# 5. scalar formulas

@criterion(5, "threshold/bound formulas vs high-precision oracles")
def test_criterion_5_formulas():
    # NOTE: the stated target 0.037318 +- 1e-6 is inconsistent with the
    # defining formula sqrt(16 log(3/alpha)/n), whose value is
    # 0.0373165515...; the oracle value is enforced at the same 1e-6.
    tau_oracle = math.sqrt(16.0 * math.log(3.0 / 0.01) / 65536.0)
    assert abs(tau_oracle - 0.037316551531815095) < 1e-12
    assert abs(compute_tau_alpha(0.01, 65536) - tau_oracle) <= 1e-6

    eps_oracle = 0.1 * math.sqrt(2.0 * 32768 + 2.0 * math.sqrt(4.0 * 32768))
    assert abs(compute_epsilon_bound(0.1, 32768) - eps_oracle) <= 1e-3
    assert abs(compute_epsilon_bound(0.1, 32768) - 25.741) <= 1e-3

    region, problem, _ = small_region(seed=90)
    l1 = float(np.sum(np.abs(problem.psi.forward(region.x_map))))
    tau = compute_tau_alpha(region.alpha, 16)
    assert region.eta_tilde == region.lam * l1 + 16.0 * (tau + 1.0)


# ---------------------------------------------------------------------------
# 6. MAP solver

@criterion(6, "MAP recovery/feasibility/weight-invariance, under 1 min")
def test_criterion_6_map_solver():
    start = time.perf_counter()
    problems = []

    # noiseless fully-sampled 8x8 with a vanishing ball radius
    rows = cols = 8
    rng = np.random.default_rng(7)
    psi = db8_analysis(rows, cols, 1)
    w = np.zeros(rows * cols)
    w[rng.choice(rows * cols, size=6, replace=False)] = rng.uniform(0.5, 2, 6)
    truth = np.maximum(psi.adjoint(w), 0.0)
    phi = masked_dft(SamplingPattern(rows, cols, np.arange(rows * cols)))
    problem = MapProblem(phi, psi, phi.forward(truth), epsilon=1e-5)
    x, diag = solve_map(problem, tol=1e-9, max_iters=60000)
    assert diag.converged
    assert np.linalg.norm(x - truth) <= 1e-4
    problems.append((problem, x))

    # weight-invariance of the minimizer on a fixed-seed 16x16 problem
    rows = cols = 16
    psi16 = db8_analysis(rows, cols, 2)
    truth16 = make_phantom("compact", 32, 32, seed=1).reshape(32, 32)[::2, ::2]
    pattern = gaussian_random_pattern(rows, cols, 0.7, seed=2)
    phi16 = masked_dft(pattern)
    y16 = add_noise(phi16.forward(truth16.ravel()), 1e-4, seed=3)
    eps16 = compute_epsilon_bound(1e-2, phi16.out_dim)
    problem16 = MapProblem(phi16, psi16, y16, eps16)
    x1, d1 = solve_map(problem16, tol=1e-9, max_iters=60000)
    x2, d2 = solve_map(problem16, tol=1e-9, max_iters=60000, l1_weight=5.0)
    assert d1.converged and d2.converged
    assert np.linalg.norm(x1 - x2) / np.linalg.norm(x1) <= 1e-3
    problems.extend([(problem16, x1), (problem16, x2)])

    for problem, estimate in problems:
        residual = np.linalg.norm(problem.phi.forward(estimate) - problem.data)
        assert residual <= problem.epsilon * (1.0 + 1e-6)

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"criterion 6 took {elapsed:.1f} s"


# ---------------------------------------------------------------------------
# 7. end-to-end qualitative reproduction (64x64 grid)

GRID_SEED = 0
GRID_ROWS = GRID_COLS = 64


def empty_background_mask():
    sel = np.zeros((GRID_ROWS, GRID_COLS), dtype=bool)
    sel[48:53, 48:53] = True
    return PixelMask.from_boolean(sel)


@pytest.fixture(scope="module")
def grid_report():
    # paper-protocol tolerances; the outer cap and the slightly relaxed
    # inner solves keep the near-tangent cells inside the runtime budget
    # (see the grid-runtime note in the solver docstrings)
    spec = ExperimentSpec(
        rows=GRID_ROWS, cols=GRID_COLS, phantom="compact",
        pattern_kind="gaussian", sampling_ratios=(0.5, 0.75, 1.0),
        noise_variances=(0.01, 0.02, 0.03),
        structures=(bright_source_mask(GRID_SEED, GRID_ROWS, GRID_COLS),),
        alpha=0.01, eta=0.03, mode="pocs", seed=GRID_SEED,
        wavelet_levels=3, outer_max_iters=250,
        inner_tol=1e-7, inner_max_iters=3000,
    )
    start = time.perf_counter()
    report = run_grid(spec)
    report.elapsed = time.perf_counter() - start
    return report


@criterion(7, "64x64 end-to-end: reject/not-reject and grid trend, under 20 min")
def test_criterion_7_end_to_end(grid_report):
    start = time.perf_counter()
    assert all(c.error is None for c in grid_report.cells), [
        c.error for c in grid_report.cells if c.error]
    cells = {(c.ratio, c.sigma2): c.outcome for c in grid_report.cells}
    rho_percent = {key: 100.0 * o.rho_alpha for key, o in cells.items()}

    # (a) genuine bright source rejected at full sampling, low noise
    best = cells[(1.0, 0.01)]
    assert best.decision == "rejected"
    assert rho_percent[(1.0, 0.01)] > 3.0

    # (b) mask over structure-free background fails to reject
    spec = grid_report.spec
    truth = make_phantom(spec.phantom, spec.rows, spec.cols, spec.seed)
    from buqo.sim import _observation_seeds, build_problem
    from buqo.engine import run_buqo
    ps, ns = _observation_seeds(spec.seed, 0, 2)
    problem = build_problem(spec, truth, 0.5, 0.03, ps, ns)
    outcome = run_buqo(problem, empty_background_mask(), alpha=0.01,
                       eta=0.03, rows=spec.rows, cols=spec.cols,
                       outer_max_iters=250, inner_tol=1e-7,
                       inner_max_iters=3000)
    assert outcome.decision == "not_rejected"
    assert outcome.rho_alpha <= 0.03

    # (c) trend: rho nondecreasing in the sampling ratio, nonincreasing in
    # the noise variance, allowing at most one adjacent-cell violation
    ratios = sorted({c.ratio for c in grid_report.cells})
    variances = sorted({c.sigma2 for c in grid_report.cells})
    violations = 0
    for s2 in variances:
        for lo, hi in zip(ratios, ratios[1:]):
            if rho_percent[(lo, s2)] > rho_percent[(hi, s2)] + 1e-9:
                violations += 1
    for r in ratios:
        for lo, hi in zip(variances, variances[1:]):
            if rho_percent[(r, hi)] > rho_percent[(r, lo)] + 1e-9:
                violations += 1
    assert violations <= 1, (
        f"{violations} trend violations; table:\n{grid_report.table()}")

    elapsed = grid_report.elapsed + (time.perf_counter() - start)
    assert elapsed < 1200.0, f"criterion 7 took {elapsed:.0f} s"


# ---------------------------------------------------------------------------
# 8. POCS / FB consistency

@criterion(8, "POCS and FB(0.5) distances agree within 1e-3 on 16x16 problems")
def test_criterion_8_pocs_fb_consistency():
    for seed in (101, 102, 103):
        rng = np.random.default_rng(seed)
        rows = cols = 16
        truth = np.abs(rng.standard_normal(rows * cols)) * 0.02
        block = [7 * cols + 7, 7 * cols + 8, 8 * cols + 7, 8 * cols + 8]
        truth[block] += 3.0
        phi = masked_dft(SamplingPattern(rows, cols, np.arange(rows * cols)))
        psi = db8_analysis(rows, cols, 2)
        y = add_noise(phi.forward(truth), 1e-4, seed=seed + 1)
        eps = compute_epsilon_bound(1e-2, phi.out_dim)
        problem = MapProblem(phi, psi, y, eps)
        x_map, diag = solve_map(problem, tol=1e-8, max_iters=60000)
        assert diag.converged
        lam = compute_lambda(x_map, psi)
        region = build_region(x_map, lam, 0.01, problem)
        sset = build_localized_set(x_map, PixelMask(rows, cols, block))
        *_, d_pocs = run_pocs(region.projector(), sset.projector(),
                              sset.surrogate, tol=1e-6, max_iters=2000)
        *_, d_fb = run_fb_distance(region.projector(), sset.projector(),
                                   region.x_map, sset.surrogate, gamma=0.5,
                                   tol=1e-6, max_iters=4000)
        d1, d2 = d_pocs[-1], d_fb[-1]
        assert d1 > 0.0
        assert abs(d1 - d2) <= 1e-3 * max(d1, d2), (seed, d1, d2)


# ---------------------------------------------------------------------------
# 9. noise-bound coverage

@criterion(9, "noise norm within the analytic bound in >= 95% of 1000 draws")
def test_criterion_9_noise_bound():
    m = 2048
    sigma2 = 0.01
    eps = compute_epsilon_bound(np.sqrt(sigma2), m)
    clean = np.zeros(m, dtype=complex)
    hits = sum(
        np.linalg.norm(add_noise(clean, sigma2, seed=s)) <= eps
        for s in range(1000)
    )
    assert hits >= 950, f"only {hits}/1000 draws within the bound"


# ---------------------------------------------------------------------------
# 10. grid determinism through the CLI

@criterion(10, "grid CLI rerun is byte-identical (tables and images)")
def test_criterion_10_grid_determinism(tmp_path):
    mask = PixelMask(32, 32, [10 * 32 + 10, 10 * 32 + 11])
    spec_path = tmp_path / "s.struct"
    bio.write_structure_spec(
        spec_path, bio.StructureSpec("localized", mask,
                                     {"kernel_sizes": (3, 7, 11)}))
    cfg_path = tmp_path / "grid.cfg"
    bio.write_config(cfg_path, {
        "rows": 32, "cols": 32, "phantom": "compact",
        "pattern.kind": "gaussian", "levels": 2, "seed": 7,
        "grid.ratios": (1.0,), "grid.variances": (1e-4, 3e-4),
        "structures": str(spec_path),
        "map.tol": 1e-7, "map.max.iters": 40000,
        "outer.max.iters": 300,
    })
    # the child imports the same buqo as this process, installed or not
    src = str(Path(buqo.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    outs = []
    for name in ("g1", "g2"):
        out = tmp_path / name
        child = subprocess.run(
            [sys.executable, "-m", "buqo.cli", "grid",
             "--config", str(cfg_path), "--out", str(out)],
            capture_output=True, text=True, env=env,
        )
        assert child.returncode == 0, child.stderr
        outs.append(out)
    table1 = (outs[0] / "grid_table.tsv").read_bytes()
    table2 = (outs[1] / "grid_table.tsv").read_bytes()
    assert table1 == table2
    images1 = sorted(p.relative_to(outs[0]) for p in outs[0].rglob("*.img"))
    images2 = sorted(p.relative_to(outs[1]) for p in outs[1].rglob("*.img"))
    assert images1 == images2 and images1
    for rel in images1:
        assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes()
