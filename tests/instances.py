"""Shared small problem instances for the solver and acceptance tests."""

import importlib.util
from pathlib import Path

import numpy as np

from buqo.credible_region import build_region, compute_epsilon_bound
from buqo.map_solver import MapProblem, compute_lambda, solve_map
from buqo.operators import LinearMap, PixelMask, db8_analysis, masked_dft
from buqo.sim import (ExperimentSpec, add_noise, build_problem,
                      gaussian_random_pattern, make_phantom, phantom_layout)
from buqo.structure_sets import build_localized_set


class Disk:
    """Analytic disk with an exact projection (outer-loop test double)."""

    def __init__(self, center, radius):
        self.center = np.asarray(center, dtype=float)
        self.radius = radius

    def project(self, x):
        d = np.asarray(x, dtype=float) - self.center
        n = np.linalg.norm(d)
        if n <= self.radius:
            return np.asarray(x, dtype=float).copy()
        return self.center + d * (self.radius / n)


def counting(op):
    """``op`` with its forward and adjoint calls counted."""
    calls = {"forward": 0, "adjoint": 0}

    def forward(x):
        calls["forward"] += 1
        return op.forward(x)

    def adjoint(y):
        calls["adjoint"] += 1
        return op.adjoint(y)

    wrapped = LinearMap(op.in_dim, op.out_dim, forward, adjoint, op.norm_bound,
                        op.complex_output)
    return wrapped, calls


def small_map_problem(seed, rows=4, cols=4, ratio=0.8, sigma2=0.0025,
                      levels=1):
    """Tiny Fourier problem with a nonnegative wavelet-sparse-ish truth."""
    rng = np.random.default_rng(seed)
    pattern = gaussian_random_pattern(rows, cols, ratio, seed=seed)
    phi = masked_dft(pattern)
    psi = db8_analysis(rows, cols, levels)
    truth = np.abs(rng.standard_normal(rows * cols)) * 0.5
    y = add_noise(phi.forward(truth), sigma2, seed=seed + 1)
    eps = compute_epsilon_bound(np.sqrt(sigma2), phi.out_dim)
    return MapProblem(phi, psi, y, eps), truth


def small_region(seed, alpha=0.1, **kwargs):
    """Credible region built on a solved small instance."""
    problem, truth = small_map_problem(seed, **kwargs)
    x_map, diag = solve_map(problem, tol=1e-10, max_iters=100000)
    assert diag.converged
    lam = compute_lambda(x_map, problem.psi)
    return build_region(x_map, lam, alpha, problem), problem, truth


def small_localized_set(seed, rows=4, cols=4, bright=2.0):
    """Localized structure set on a tiny image with a 2-pixel structure."""
    rng = np.random.default_rng(seed)
    x_map = np.abs(rng.standard_normal(rows * cols)) * 0.4
    k = (rows // 2 - 1) * cols + (cols // 2 - 1)  # interior even on 4x4
    x_map[k] += bright
    x_map[k + 1] += 0.75 * bright
    mask = PixelMask(rows, cols, [k, k + 1])
    return build_localized_set(x_map, mask, kernel_sizes=[3]), x_map, mask


def perfbench_spans():
    """The benchmark's tracer module, ``perfbench/spans.py``, loaded read-only."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bright_source_mask(seed=0, rows=64, cols=64):
    """The criterion-7 mask: 9x9 pixels centred on the phantom's first
    bright source."""
    py, px = phantom_layout("compact", rows, cols, seed)["bright"][0][:2]
    sel = np.zeros((rows, cols), dtype=bool)
    sel[py - 4:py + 5, px - 4:px + 5] = True
    return PixelMask.from_boolean(sel)


def workload_problem(seed=0, rows=64, cols=64):
    """The benchmark's observation: a ``compact`` phantom sampled at ratio
    1.0 with sigma2 0.01 and Db8 at 3 levels, the pattern and noise seeds
    derived from ``seed`` as ``buqo simulate`` derives them."""
    spec = ExperimentSpec(rows=rows, cols=cols, wavelet_levels=3)
    truth = make_phantom("compact", rows, cols, seed)
    seeds = np.random.SeedSequence([seed]).generate_state(2)
    return build_problem(spec, truth, 1.0, 0.01, *map(int, seeds))
