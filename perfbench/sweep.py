"""Kernel sweep: per-call time of the hot kernels at n = 64, 128, 256.

Each kernel runs on fixed random inputs drawn from the run's seed and
is timed call by call; the median is reported. Next to each time stand
the kernel's operation count and bytes moved, computed from a simple
model (not measured). They are printed and kept in the run record, not
reported as metrics, since no change to the program can move them:

- Db8 forward/adjoint, 16 taps, 3 levels: each level filters its r x c
  block along both axes, 2 flops per tap per output, so 64 r c flops;
  each axis pass reads and writes the block once (16 r c bytes), and the
  block is copied in and out of the coefficient array (16 r c bytes).
- masked DFT forward/adjoint at full sampling (m = N = n^2 bins):
  5 N log2 N flops for the complex FFT; the FFT reads and writes N
  complex values and the bin gather or zero-fill moves m more each way,
  so 32 N + 32 m bytes.
- l1-ball projection of N = n^2 Db8 coefficients: N log2 N comparisons
  for the sort plus 8 N elementwise flops; 8 passes over N float64
  values, 64 N bytes.
"""

from __future__ import annotations

import math
from statistics import median
from time import perf_counter

import numpy as np

import buqo

SIZES = (64, 128, 256)
LEVELS = 3
BUDGET_S = 0.15   # timing budget per kernel and size
MIN_CALLS = 5


def _per_call_us(fn, arg) -> float:
    fn(arg)   # first call pays for lazy set-up and cold caches
    times = []
    stop = perf_counter() + BUDGET_S
    while len(times) < MIN_CALLS or perf_counter() < stop:
        start = perf_counter()
        fn(arg)
        times.append(perf_counter() - start)
    return 1e6 * median(times)


def _model(n: int) -> dict:
    N = n * n
    db8_flop = sum(64 * (N >> (2 * lv)) for lv in range(LEVELS))
    db8_bytes = sum(48 * (N >> (2 * lv)) for lv in range(LEVELS))
    dft_flop = 5 * N * math.log2(N)
    dft_bytes = 32 * N + 32 * N
    l1_flop = N * math.log2(N) + 8 * N
    return {
        "db8_fwd": (db8_flop, db8_bytes), "db8_adj": (db8_flop, db8_bytes),
        "dft_fwd": (dft_flop, dft_bytes), "dft_adj": (dft_flop, dft_bytes),
        "l1_proj": (l1_flop, 64 * N),
    }


def run_sweep(seed: int) -> tuple[dict, dict]:
    """Returns (per-call µs by metric name, computed flop and bytes by name)."""
    rng = np.random.default_rng([seed, 0x5EED])
    times, computed = {}, {}
    for n in SIZES:
        x = rng.random(n * n)
        psi = buqo.db8_analysis(n, n, LEVELS)
        phi = buqo.masked_dft(buqo.gaussian_random_pattern(n, n, 1.0, seed))
        w = psi.forward(x)
        y = phi.forward(x)
        # half the l1 norm, so the projection is active
        levelset = buqo.L1Levelset(0.5 * float(np.sum(np.abs(w))))
        kernels = {
            "db8_fwd": (psi.forward, x),
            "db8_adj": (psi.adjoint, w),
            "dft_fwd": (phi.forward, x),
            "dft_adj": (phi.adjoint, y),
            "l1_proj": (lambda z: buqo.project_l1_levelset(z, levelset), w),
        }
        model = _model(n)
        for name, (fn, arg) in kernels.items():
            key = f"sweep.{name}.n{n}.us"
            flop, nbytes = model[name]
            times[key] = _per_call_us(fn, arg)
            computed[key] = {"flop_computed": flop, "bytes_computed": nbytes}
    return times, computed
