"""Synthetic-experiment harness: phantoms, sampling patterns, noise, grids.

Everything here is a pure function of its parameters and a seed, so
whole experiment grids are bit-reproducible.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .credible_region import compute_epsilon_bound, compute_tau_alpha
from .engine import SolverSettings, TestOutcome, run_buqo
from .map_solver import MapProblem
from .operators import SamplingPattern, db8_analysis, masked_dft, multicoil_map

__all__ = [
    "ExperimentSpec",
    "GridCell",
    "GridReport",
    "gaussian_random_pattern",
    "cartesian_pattern",
    "sampling_pattern",
    "add_noise",
    "sample_noise",
    "make_phantom",
    "phantom_layout",
    "coil_sensitivities",
    "run_grid",
]


def gaussian_random_pattern(rows: int, cols: int, ratio: float,
                            seed: int) -> SamplingPattern:
    """Random low-frequency-weighted sampling pattern.

    Draws round(ratio * N) unique grid frequencies from a rounded
    zero-mean Gaussian with per-axis std of 0.25 times the maximum
    frequency, rejecting duplicates and out-of-grid draws. If uniqueness
    cannot be met within the draw budget, the remaining slots are filled
    with the lowest unused frequencies and the pattern is flagged.
    """
    if not (0.0 < ratio <= 1.0):
        raise ValueError("ratio must lie in (0, 1]")
    n = rows * cols
    target = int(round(ratio * n))
    if target >= n:
        return SamplingPattern(rows, cols, np.arange(n))
    rng = np.random.default_rng(seed)
    std_y = 0.25 * (rows / 2.0)
    std_x = 0.25 * (cols / 2.0)
    taken = np.zeros(n, dtype=bool)
    count = 0
    drawn = 0
    budget = max(200 * target, 10000)
    while count < target and drawn < budget:
        batch = max(2 * (target - count), 1024)
        ky = np.rint(rng.normal(0.0, std_y, size=batch)).astype(np.int64)
        kx = np.rint(rng.normal(0.0, std_x, size=batch)).astype(np.int64)
        drawn += batch
        ok = ((ky >= -(rows // 2)) & (ky <= (rows - 1) // 2)
              & (kx >= -(cols // 2)) & (kx <= (cols - 1) // 2))
        flat = (ky[ok] % rows) * cols + (kx[ok] % cols)
        # the batch's unused frequencies, each at its first draw, in order
        uniq, first = np.unique(flat, return_index=True)
        new = flat[np.sort(first[~taken[uniq]])][:target - count]
        taken[new] = True
        count += new.size
    fallback = count < target
    if fallback:
        ky, kx = SamplingPattern(rows, cols, np.arange(n)).signed_frequencies().T
        order = np.argsort(ky ** 2 + kx ** 2, kind="stable")
        taken[order[~taken[order]][:target - count]] = True
        warnings.warn(
            "gaussian_random_pattern: uniqueness budget exhausted; filled "
            "remaining slots with the lowest unused frequencies",
            RuntimeWarning,
        )
    return SamplingPattern(rows, cols, np.flatnonzero(taken),
                           fallback_filled=fallback)


def cartesian_pattern(rows: int, cols: int, freq_factor: float = 1.0 / 1.3,
                      phase_factor: float = 4.0) -> SamplingPattern:
    """Cartesian line pattern with frequency/phase undersampling factors.

    Lines run along the frequency-encoding axis (full rows of the grid,
    thinned by the nearest-integer stride of ``freq_factor``); the line
    count preserves the total measurement budget
    rows * cols / (phase_factor * freq_factor), which a discrete grid
    cannot realize through per-line oversampling when freq_factor < 1.
    """
    if freq_factor <= 0 or phase_factor <= 0:
        raise ValueError("undersampling factors must be positive")
    stride = max(1, int(round(freq_factor)))
    line_cols = np.arange(0, cols, stride)
    budget = rows * cols / (phase_factor * freq_factor)
    n_lines = int(np.clip(round(budget / line_cols.size), 1, rows))
    line_rows = np.unique((np.arange(n_lines) * rows // n_lines).astype(np.int64))
    flat = (line_rows[:, None] * cols + line_cols[None, :]).ravel()
    return SamplingPattern(rows, cols, flat)


def sampling_pattern(kind: str, rows: int, cols: int, ratio: float,
                     seed: int) -> SamplingPattern:
    """Single-coil pattern of ``kind``, "gaussian" or "cartesian", at ``ratio``.

    Raises ValueError for an unknown kind or a ratio outside (0, 1].
    """
    if not 0.0 < ratio <= 1.0:
        raise ValueError(f"ratio must lie in (0, 1], got {ratio!r}")
    if kind == "gaussian":
        return gaussian_random_pattern(rows, cols, ratio, seed)
    if kind == "cartesian":
        return cartesian_pattern(rows, cols, phase_factor=1.0 / ratio)
    raise ValueError(f"unknown pattern kind {kind!r}")


def add_noise(clean: np.ndarray, sigma2: float, seed: int) -> np.ndarray:
    """Add complex white noise of per-part variance sigma2."""
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    clean = np.asarray(clean, dtype=complex).ravel()
    rng = np.random.default_rng(seed)
    sigma = np.sqrt(sigma2)
    real = rng.normal(0.0, sigma, size=clean.size)
    imag = rng.normal(0.0, sigma, size=clean.size)
    return clean + real + 1j * imag


def sample_noise(sigma2: float, n_full: int, m: int) -> tuple[float, float]:
    """Per-sample noise variance and data-ball radius for m of n_full samples.

    ``sigma2`` is the per-part noise variance at full sampling (m equal
    to n_full, the measurement count at ratio 1). The total noise energy
    2 * n_full * sigma2 is held fixed at every sample count, so each of
    the m samples gets per-part variance sigma2 * n_full / m and the
    bound is :func:`compute_epsilon_bound` at that std. Sampling then
    changes how much of the signal is seen, not the input SNR; at m equal
    to n_full the variance is sigma2 itself.
    """
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    if not (1 <= m <= n_full):
        raise ValueError("need 1 <= m <= n_full samples")
    variance = sigma2 * (n_full / m)
    return variance, compute_epsilon_bound(float(np.sqrt(variance)), m)


def _gaussian_bump(rows, cols, cy, cx, sigma):
    y = np.arange(rows)[:, None] - cy
    x = np.arange(cols)[None, :] - cx
    return np.exp(-(y ** 2 + x ** 2) / (2.0 * sigma ** 2))


def _plateau_bump(rows, cols, cy, cx, radius, rolloff):
    """Flat disk of the given radius with a Gaussian edge rolloff."""
    y = np.arange(rows)[:, None] - cy
    x = np.arange(cols)[None, :] - cx
    r = np.sqrt(y ** 2 + x ** 2)
    return np.exp(-np.maximum(r - radius, 0.0) ** 2 / (2.0 * rolloff ** 2))


def phantom_layout(kind: str, rows: int, cols: int, seed: int) -> dict:
    """Deterministic source declarations used by :func:`make_phantom`.

    For the compact-sources phantom: bright sources are (row, col,
    amplitude, rolloff, core_radius) tuples whose amplitude appears
    verbatim as the pixel value at (row, col) (core_radius 0 means a
    plain Gaussian bump); the block rows [0.68, 0.92) x cols
    [0.68, 0.92) of the grid is kept free of all sources.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x9e37]))
    if kind == "compact":
        jitter = lambda: rng.uniform(-0.02, 0.02)
        # the first source is a bright compact plateau placed away from
        # the diffuse emission, so a modest mask covers it plus a dark
        # ring; entries are (row, col, amplitude, rolloff, core_radius)
        bright = [
            (int(rows * (0.70 + jitter())), int(cols * (0.22 + jitter())), 1.0,
             0.7, max(2.0, rows / 25.0)),
            (int(rows * (0.20 + jitter())), int(cols * (0.60 + jitter())), 0.75,
             1.4, 0.0),
            (int(rows * (0.42 + jitter())), int(cols * (0.55 + jitter())), 0.6,
             1.3, 0.0),
        ]
        faint = [
            (int(rows * (0.60 + jitter())), int(cols * (0.52 + jitter())), 0.030,
             1.2),
            (int(rows * (0.15 + jitter())), int(cols * (0.15 + jitter())), 0.022,
             1.2),
            (int(rows * (0.55 + jitter())), int(cols * (0.80 + jitter())), 0.026,
             1.2),
        ]
        extended = (int(rows * 0.38), int(cols * 0.34), 0.12, rows / 4.5)
        return {"bright": bright, "faint": faint, "extended": extended}
    if kind == "brain":
        return {
            "ellipses": [
                (rows / 2, cols / 2, rows * 0.42, cols * 0.34, 0.0, 0.8),
                (rows / 2, cols / 2, rows * 0.36, cols * 0.28, 0.0, 0.2),
                (rows * 0.40, cols * 0.42, rows * 0.10, cols * 0.07, 0.4, 0.35),
                (rows * 0.42, cols * 0.60, rows * 0.09, cols * 0.06, -0.4, -0.25),
                (rows * 0.65, cols * 0.50, rows * 0.06, cols * 0.05, 0.0, 0.45),
            ]
        }
    raise ValueError(f"unknown phantom kind {kind!r}")


def make_phantom(kind: str, rows: int, cols: int, seed: int = 0) -> np.ndarray:
    """Nonnegative synthetic test image with max intensity 1.

    "compact" stacks bright compact sources, faint background sources
    and a smooth extended emission; "brain" is a piecewise-smooth
    ellipse phantom. Fully determined by (kind, rows, cols, seed).
    """
    if rows < 32 or cols < 32:
        raise ValueError("phantom dims must be at least 32")
    layout = phantom_layout(kind, rows, cols, seed)
    if kind == "compact":
        cy, cx, amp, width = layout["extended"]
        img = amp * _gaussian_bump(rows, cols, cy, cx, width)
        for (py, px, a, w) in layout["faint"]:
            img = img + a * _gaussian_bump(rows, cols, py, px, w)
        for (py, px, a, w, core) in layout["bright"]:
            if core > 0:
                bump = _plateau_bump(rows, cols, py, px, core, w)
            else:
                bump = _gaussian_bump(rows, cols, py, px, w)
            img = np.maximum(img, a * bump)
        img = img / img.max()
        return img.ravel()
    if kind == "brain":
        y = np.arange(rows)[:, None]
        x = np.arange(cols)[None, :]
        img = np.zeros((rows, cols))
        for (cy, cx, ay, ax, angle, value) in layout["ellipses"]:
            dy, dx = y - cy, x - cx
            c, s = np.cos(angle), np.sin(angle)
            ry = (c * dy + s * dx) / ay
            rx = (-s * dy + c * dx) / ax
            img[ry ** 2 + rx ** 2 <= 1.0] += value
        # Gaussian blur, sigma 0.8 and radius 3, one pass per axis
        taps = np.exp(-0.5 / 0.8 ** 2 * np.arange(-3, 4) ** 2)
        taps /= taps.sum()
        padded = np.pad(img, 3, mode="symmetric")
        img = sum(t * padded[k:k + rows] for k, t in enumerate(taps))
        img = sum(t * img[:, k:k + cols] for k, t in enumerate(taps))
        img = np.maximum(img, 0.0)
        img = img / img.max()
        return img.ravel()
    raise ValueError(f"unknown phantom kind {kind!r}")


def coil_sensitivities(rows: int, cols: int, n_coils: int = 4) -> list[np.ndarray]:
    """Smooth half-plane-weighted coil profiles with unit pointwise energy.

    One broad Gaussian per image edge, normalized so the pointwise sum
    of squares equals 1 (which keeps the stacked operator nonexpansive).
    """
    centers = [
        (0.0, cols / 2.0),
        (rows - 1.0, cols / 2.0),
        (rows / 2.0, 0.0),
        (rows / 2.0, cols - 1.0),
    ]
    if n_coils > len(centers):
        raise ValueError("at most four coil profiles are defined")
    width = 0.8 * max(rows, cols)
    profiles = [_gaussian_bump(rows, cols, cy, cx, width)
                for (cy, cx) in centers[:n_coils]]
    energy = np.sqrt(sum(p ** 2 for p in profiles))
    return [p / energy for p in profiles]


@dataclass
class ExperimentSpec(SolverSettings):
    """Grid-experiment description (all randomness flows from ``seed``).

    Each entry of ``noise_variances`` is the per-part noise variance at
    full sampling; the total noise energy is the same at every entry of
    ``sampling_ratios`` (see :func:`sample_noise`), so the two grid axes
    vary sampling and input SNR independently. Empty or bad grid axes,
    a negative or NaN ``eta`` and an ``alpha`` outside the concentration
    bound's validity interval raise ValueError, bad solver settings
    BuqoError (see SolverSettings).
    """

    rows: int = 64
    cols: int = 64
    phantom: str = "compact"
    pattern_kind: str = "gaussian"
    sampling_ratios: Sequence[float] = (0.5, 0.75, 1.0)
    noise_variances: Sequence[float] = (0.01, 0.02, 0.03)
    structures: Sequence = ()
    alpha: float = 0.01
    eta: float = 0.03
    mode: str = "pocs"
    seed: int = 0
    wavelet_levels: int = 3
    n_coils: int = 4

    def __post_init__(self):
        super().__post_init__()
        if not (len(self.sampling_ratios) and len(self.noise_variances)):
            raise ValueError("the grid needs at least one sampling ratio "
                             "and one noise variance")
        if any(not (0.0 < r <= 1.0) for r in self.sampling_ratios):
            raise ValueError("sampling ratios must lie in (0, 1]")
        if any(v <= 0 for v in self.noise_variances):
            raise ValueError("noise variances must be positive")
        if not self.eta >= 0:
            raise ValueError(f"eta must be nonnegative, got {self.eta}")
        compute_tau_alpha(self.alpha, self.rows * self.cols)


@dataclass
class GridCell:
    ratio: float
    sigma2: float
    structure: str
    rho_percent: float | None
    decision: str | None
    iterations: int | None
    stop_reason: str | None
    runtime_s: float
    error: str | None = None
    outcome: TestOutcome | None = field(default=None, repr=False)


@dataclass
class GridReport:
    spec: ExperimentSpec
    cells: list[GridCell]

    def table(self) -> str:
        """Deterministic tab-separated table (no wall-clock columns)."""
        lines = ["ratio\tsigma2\tstructure\trho_percent\tdecision\titerations\tstop_reason"]
        for c in self.cells:
            if c.error is None:
                lines.append(
                    f"{c.ratio:g}\t{c.sigma2:g}\t{c.structure}\t"
                    f"{c.rho_percent:.6f}\t{c.decision}\t{c.iterations}\t{c.stop_reason}"
                )
            else:
                lines.append(
                    f"{c.ratio:g}\t{c.sigma2:g}\t{c.structure}\t"
                    f"error\terror\terror\t{c.error}"
                )
        return "\n".join(lines) + "\n"

    def timing(self) -> str:
        """Wall time and inner primal-dual iterations of each cell."""
        lines = ["ratio\tsigma2\tstructure\truntime_s\tinner_iterations"]
        for c in self.cells:
            inner = "error" if c.outcome is None else c.outcome.inner_iterations
            lines.append(f"{c.ratio:g}\t{c.sigma2:g}\t{c.structure}\t"
                         f"{c.runtime_s:.3f}\t{inner}")
        return "\n".join(lines) + "\n"


def _cell_seeds(master: int, i: int, j: int, k: int) -> tuple[int, int]:
    ss = np.random.SeedSequence([master, i, j, k])
    a, b = ss.generate_state(2)
    return int(a), int(b)


def build_problem(spec: ExperimentSpec, truth: np.ndarray, ratio: float,
                  sigma2: float, pattern_seed: int, noise_seed: int) -> MapProblem:
    """Measurement problem for one grid cell (pattern, noise, bound).

    ``sigma2`` is the per-part noise variance at full sampling: the m
    samples drawn at ``ratio`` share the total noise energy of a fully
    sampled acquisition (per-sample variance sigma2 * N / m, with N the
    measurement count at ratio 1), and epsilon bounds that noise (see
    :func:`sample_noise`).
    """
    rows, cols = spec.rows, spec.cols
    n_full = rows * cols
    if spec.pattern_kind == "multicoil":
        child = np.random.SeedSequence(pattern_seed).generate_state(spec.n_coils)
        patterns = [gaussian_random_pattern(rows, cols, ratio, int(s))
                    for s in child]
        phi = multicoil_map(patterns, coil_sensitivities(rows, cols, spec.n_coils))
        n_full *= spec.n_coils
    else:
        phi = masked_dft(sampling_pattern(spec.pattern_kind, rows, cols, ratio,
                                          pattern_seed))
    variance, epsilon = sample_noise(sigma2, n_full, phi.out_dim)
    y = add_noise(phi.forward(truth), variance, noise_seed)
    psi = db8_analysis(rows, cols, spec.wavelet_levels)
    return MapProblem(phi, psi, y, epsilon)


def run_grid(spec: ExperimentSpec) -> GridReport:
    """Run the full (ratio, variance, structure) grid of hypothesis tests.

    Per-cell failures are recorded in the report and do not stop the
    remaining cells. Inputs that would fail every cell alike (no
    structures, a bad phantom, pattern kind or wavelet depth) raise
    ValueError before the first cell. Per-cell seeds derive
    deterministically from the master seed and the cell index.
    """
    if not spec.structures:
        raise ValueError("experiment spec declares no structures")
    truth = make_phantom(spec.phantom, spec.rows, spec.cols, spec.seed)
    # a fully sampled trial problem: only spec-wide inputs can make it fail
    build_problem(spec, truth, 1.0, 1.0, 0, 0)
    cells: list[GridCell] = []
    for i, ratio in enumerate(spec.sampling_ratios):
        for j, sigma2 in enumerate(spec.noise_variances):
            for k, structure in enumerate(spec.structures):
                name = getattr(structure, "name", None) or f"structure{k}"
                pattern_seed, noise_seed = _cell_seeds(spec.seed, i, j, k)
                start = time.perf_counter()
                try:
                    problem = build_problem(spec, truth, ratio, sigma2,
                                            pattern_seed, noise_seed)
                    outcome = run_buqo(
                        problem, structure, alpha=spec.alpha, mode=spec.mode,
                        eta=spec.eta, rows=spec.rows, cols=spec.cols,
                        **spec.limits())
                    cells.append(GridCell(
                        ratio=ratio, sigma2=sigma2, structure=name,
                        rho_percent=100.0 * outcome.rho_alpha,
                        decision=outcome.decision,
                        iterations=outcome.iterations,
                        stop_reason=outcome.stop_reason,
                        runtime_s=time.perf_counter() - start,
                        outcome=outcome,
                    ))
                except Exception as exc:
                    cells.append(GridCell(
                        ratio=ratio, sigma2=sigma2, structure=name,
                        rho_percent=None, decision=None, iterations=None,
                        stop_reason=None,
                        runtime_s=time.perf_counter() - start,
                        error=str(exc).replace("\t", " ").replace("\n", " "),
                    ))
    return GridReport(spec=spec, cells=cells)
