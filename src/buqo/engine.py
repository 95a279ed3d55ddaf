"""Outer feasibility loop and the hypothesis decision.

Alternating projections (or accelerated forward-backward, FISTA with a
gap restart) between the credible region and the structure-absent set
either find a common point or realize the distance between the sets;
the normalized distance is then compared against the decision
threshold. The loops know only the two projection maps, P_C and P_S,
and an explicit start: one loop, ``_outer_loop``, serves both modes,
each supplying its start pair and its step. ``run_buqo`` builds the
projectors from the sets (``region.projector(...)``,
``sset.projector(...)``) and reads their inner counters afterwards.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from functools import partial

import numpy as np

from ._pd import INNER_MAX_ITERS, INNER_TOL, WarmProjector, check_limits
from .credible_region import build_region, compute_tau_alpha
from .map_solver import (MAP_MAX_ITERS, MAP_TOL, MapProblem,
                         SolverDiagnostics, compute_lambda, solve_map)
from .structure_sets import build_structure_set

__all__ = [
    "TestOutcome",
    "BuqoError",
    "RunSettings",
    "run_pocs",
    "run_fb_distance",
    "compute_rho",
    "decide",
    "run_buqo",
]

# the outer loops: alternating projections and forward-backward
MODES = ("pocs", "fb")
# forward-backward's step toward the other set, in (0, 1/2]: FISTA's
# step bound 1/L, with L = 2 the Lipschitz constant of the gradient of
# 1/2 ||a - b||^2 in the pair (a, b)
FB_GAMMA = 0.5

REJECTED = "rejected"
NOT_REJECTED = "not_rejected"

STOP_ITERATE = "iterate_change"
STOP_DISTANCE = "distance_change"
STOP_MAX_ITERS = "max_iters"

# Inexact inner projections. Alternating projections and forward-backward
# still converge when the inner errors shrink with the outer progress
# (Combettes, Optimization 2004; Villa, Salzo, Baldassarre and Verri,
# SIAM J. Optim. 2013), so lap k of an outer loop solves its iterative
# projections only to
#     max(inner_tol, min(INEXACT_CAP, INEXACT_FACTOR * s_{k-1})),
# where s_{k-1} is the larger relative change of the two outer iterates
# in lap k-1 and s_0 = INEXACT_CAP. The loop stops only on a lap run at
# inner_tol (see _outer_loop), so the returned pair is as accurate as
# with every lap at inner_tol.
INEXACT_FACTOR = 0.01
INEXACT_CAP = 1e-3


class BuqoError(RuntimeError):
    """Pipeline failure labelled with the stage that raised it.

    ``x_map`` is the MAP estimate a failed :func:`run_buqo` had solved or
    been given, None when the test failed before its map stage ended.
    """

    x_map: np.ndarray | None = None

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


@contextmanager
def _stage(stage: str, prefix: str = ""):
    """Re-raise any exception of the block, a BuqoError excepted, as a
    BuqoError labelled ``stage``, its message prefixed with ``prefix``."""
    try:
        yield
    except BuqoError:
        raise
    except Exception as exc:
        raise BuqoError(stage, f"{prefix}{exc}") from exc


@dataclass
class RunSettings:
    """The settings of one hypothesis test: the tolerance and iteration
    limit of the MAP, outer and inner solvers, the credible region's
    significance ``alpha``, the threshold ``eta`` on rho_alpha and the
    outer loop ``mode`` (one of MODES).

    A tolerance <= 0, infinite or NaN, or an iteration limit that is not
    an integer >= 1, raises :class:`BuqoError` with stage "map" for the
    ``map_*`` fields and "engine" for the others, naming the field. Then
    an ``alpha`` outside (0, 1), a negative, NaN or infinite ``eta`` and
    an unknown ``mode`` raise ValueError naming the field.
    """

    map_tol: float = MAP_TOL
    map_max_iters: int = MAP_MAX_ITERS
    outer_tol: float = 1e-5
    outer_max_iters: int = 2000
    inner_tol: float = INNER_TOL
    inner_max_iters: int = INNER_MAX_ITERS
    alpha: float = 0.01
    eta: float = 0.03
    mode: str = "pocs"

    def __post_init__(self):
        for prefix in ("map", "outer", "inner"):
            # "tol must ..." / "max_iters must ..." gain the field prefix
            with _stage("map" if prefix == "map" else "engine", f"{prefix}_"):
                check_limits(getattr(self, f"{prefix}_tol"),
                             getattr(self, f"{prefix}_max_iters"))
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        self.check_eta(self.eta)
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")

    def keywords(self) -> dict:
        """The nine settings as keyword arguments, e.g. for :func:`run_buqo`."""
        return {f.name: getattr(self, f.name) for f in fields(RunSettings)}

    @staticmethod
    def check_eta(eta: float) -> None:
        """Refuse a negative, NaN or infinite eta: no test rejects at NaN or inf."""
        if not 0 <= eta < np.inf:
            raise ValueError(f"eta must be finite and nonnegative, got {eta}")

    def map_estimate(
            self, problem: MapProblem) -> tuple[np.ndarray, SolverDiagnostics]:
        """The MAP estimate and its diagnostics, solved at the ``map_*``
        limits; an estimate that did not converge raises BuqoError "map"."""
        with _stage("map"):
            x_map, diag = solve_map(problem, tol=self.map_tol,
                                    max_iters=self.map_max_iters)
        if not diag.converged:
            raise BuqoError("map", "MAP solver did not converge in "
                            f"{diag.iterations} iterations (feasibility gap "
                            f"{diag.feasibility_gap:.3e})")
        return x_map, diag


@dataclass
class TestOutcome:
    rho_alpha: float
    distance: float
    decision: str
    alpha: float
    eta: float
    x_region: np.ndarray = field(repr=False)
    x_set: np.ndarray = field(repr=False)
    iterations: int
    stop_reason: str
    delta_series: np.ndarray = field(repr=False)
    narrative: str = ""
    # inner projections that stopped at inner_max_iters; when > 0, rho
    # rests on approximate projections
    inner_unconverged: int = 0
    # primal-dual iterations of both inner projectors
    inner_iterations: int = 0
    # the MAP estimate the test ran against, passed in or solved; another
    # structure observed in the same reconstruction can reuse it
    x_map: np.ndarray | None = field(default=None, repr=False)


def _rel(numerator: float, denominator: float) -> float:
    # an exact-zero change counts as converged even against a zero norm
    if numerator == 0.0:
        return 0.0
    return numerator / denominator if denominator > 0.0 else np.inf


def _rel_change(new: np.ndarray, old: np.ndarray) -> float:
    return _rel(float(np.linalg.norm(new - old)), float(np.linalg.norm(new)))


def _point(x0) -> np.ndarray:
    """A flat float copy of a start point."""
    return np.asarray(x0, dtype=float).ravel().copy()


def _outer_loop(projectors, step, a, b, tol, max_iters):
    """The outer loop that :func:`run_pocs` and :func:`run_fb_distance` share.

    ``projectors`` is the pair (P_C, P_S) of callables and (a, b) the
    start pair; ``step(project_region, project_set, a, b)`` returns the
    next pair. The loop stops when the larger relative change of the two
    iterates, or the relative change of the gap delta_k = ||a_k - b_k||,
    falls below ``tol``, on a lap run at full inner tolerance (see
    INEXACT_FACTOR).

    Only iterative projectors (:class:`~buqo._pd.WarmProjector`) take a
    tolerance; the others project in closed form, are called as ``p(x)``
    and never make a lap loose. A lap runs at the projectors' own
    tolerance once the schedule reaches it, after a stop test passed on
    a loose lap, and at ``max_iters``.
    Raises ValueError for a ``tol`` <= 0 or a ``max_iters`` not an integer >= 1.
    """
    check_limits(tol, max_iters)
    floor = min((p.tol for p in projectors if isinstance(p, WarmProjector)),
                default=np.inf)
    change = INEXACT_CAP
    exact = False
    deltas: list[float] = []
    stop = STOP_MAX_ITERS
    it = 0
    for it in range(1, max_iters + 1):
        lap_tol = min(INEXACT_CAP, INEXACT_FACTOR * change)
        loose = not (exact or it == max_iters or lap_tol <= floor)
        lap = [partial(p, tol=lap_tol) if loose and isinstance(p, WarmProjector)
               else p for p in projectors]
        a_new, b_new = step(*lap, a, b)
        deltas.append(float(np.linalg.norm(a_new - b_new)))

        change = max(_rel_change(a_new, a), _rel_change(b_new, b))
        iterate_ok = change < tol
        delta_ok = len(deltas) >= 2 and _rel(
            abs(deltas[-1] - deltas[-2]), deltas[-1]) < tol

        a, b = a_new, b_new
        if iterate_ok or delta_ok:
            if not loose:
                stop = STOP_ITERATE if iterate_ok else STOP_DISTANCE
                break
            # a stop test passed on a loose lap: finish at full tolerance
            exact = True
    return a, b, it, stop, np.asarray(deltas)


def run_pocs(project_region, project_set, x0: np.ndarray,
             tol=RunSettings.outer_tol, max_iters=RunSettings.outer_max_iters):
    """Alternate the projections P_C (``project_region``) and P_S
    (``project_set``), starting with P_C at ``x0``, from the pair
    (``x0``, ``x0``).

    Stops when both relative iterate changes fall below ``tol``, or
    when the relative change of the gap delta_k does, whichever happens
    first, on a lap whose projections ran at full tolerance (see
    INEXACT_FACTOR). Returns (x_region, x_set, iterations, stop_reason,
    deltas).
    Raises ValueError for a ``tol`` <= 0 or a ``max_iters`` not an integer >= 1.
    """
    def step(project_region, project_set, a, b):
        a = project_region(b)
        return a, project_set(a)

    x0 = _point(x0)
    return _outer_loop((project_region, project_set), step, x0, x0, tol,
                       max_iters)


def run_fb_distance(project_region, project_set, x0_region: np.ndarray,
                    x0_set: np.ndarray, gamma: float = FB_GAMMA,
                    tol=RunSettings.outer_tol,
                    max_iters=RunSettings.outer_max_iters):
    """Forward-backward iteration on the squared distance between the sets,
    with projections P_C (``project_region``) and P_S (``project_set``).

    Starts from the pair (``x0_region``, ``x0_set``). Each side moves a
    fraction ``gamma`` in (0, 1/2] toward the other, from FISTA's
    extrapolated pair (Beck and Teboulle 2009), and is projected back;
    the pair converges to the minimizing pair of the distance problem.
    Lap k steps from z_k + beta_k (z_k - z_{k-1}), with
    beta_k = (t_k - 1) / t_{k+1} and t_{k+1} = (1 + sqrt(1 + 4 t_k^2)) / 2
    from t_1 = 1, and t goes back to 1 whenever the gap ||a - b|| grows
    (O'Donoghue and Candes 2015). A ``gamma`` above 1/2, FISTA's step
    bound, would make the momentum diverge.
    Same return convention and stopping criteria as :func:`run_pocs`.
    Raises ValueError for a ``gamma`` outside (0, 1/2].
    """
    if not 0.0 < gamma <= 0.5:
        raise ValueError(f"gamma must lie in (0, 1/2], got {gamma!r}")

    # the previous pair, the momentum sequence t_k and the last gap
    previous, t, gap = None, 1.0, np.inf

    def step(project_region, project_set, a, b):
        nonlocal previous, t, gap
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        ya, yb = a, b
        if t > 1.0:   # t = 1 at lap 1 and after a restart: no momentum
            beta = (t - 1.0) / t_next
            ya = a + beta * (a - previous[0])
            yb = b + beta * (b - previous[1])
        previous, t = (a, b), t_next
        a_new = project_region((1.0 - gamma) * ya + gamma * yb)
        b_new = project_set((1.0 - gamma) * yb + gamma * ya)
        new_gap = float(np.linalg.norm(a_new - b_new))
        if new_gap > gap:
            t = 1.0   # restart: the next lap takes no momentum
        gap = new_gap
        return a_new, b_new

    return _outer_loop((project_region, project_set), step, _point(x0_region),
                       _point(x0_set), tol, max_iters)


def compute_rho(region_pt: np.ndarray, set_pt: np.ndarray,
                x_map: np.ndarray, surrogate: np.ndarray) -> float:
    """Distance between the counter-example pair over the structure energy."""
    x_map = np.asarray(x_map, dtype=float).ravel()
    denom = float(np.linalg.norm(x_map - np.asarray(surrogate).ravel()))
    if denom == 0.0 or denom < 1e-12 * np.linalg.norm(x_map):
        raise ValueError("no structure energy in the MAP estimate: "
                         "the surrogate coincides with it")
    num = float(np.linalg.norm(np.asarray(set_pt).ravel()
                               - np.asarray(region_pt).ravel()))
    return num / denom


def decide(rho: float, eta: float, alpha: float) -> tuple[str, str]:
    """Hypothesis decision and a one-line human-readable narrative.

    Raises ValueError for an ``eta`` RunSettings refuses and a negative or NaN ``rho``.
    """
    RunSettings.check_eta(eta)
    if not rho >= 0:
        raise ValueError(f"rho must be nonnegative, got {rho}")
    if rho > eta:
        return REJECTED, (
            f"H0 rejected at significance alpha={alpha:g}; "
            f"confirmed intensity rho_alpha = {100.0 * rho:.2f}%"
        )
    return NOT_REJECTED, (
        f"we fail to reject the null hypothesis at alpha={alpha:g}; "
        f"rho_alpha = {100.0 * rho:.2f}% <= eta = {100.0 * eta:.2f}%"
    )


def run_buqo(problem: MapProblem, structure, alpha: float = RunSettings.alpha,
             mode: str = RunSettings.mode, eta: float = RunSettings.eta,
             rows: int | None = None, cols: int | None = None,
             gamma: float = FB_GAMMA, x_map: np.ndarray | None = None,
             **limits) -> TestOutcome:
    """Full uncertainty-quantification pipeline for one structure.

    Runs the four stages (MAP estimate, credible region, structure set,
    feasibility loop) and returns the decision with the counter-example
    pair. ``structure`` may be a StructureSet, a PixelMask (treated as a
    localized structure) or a parsed structure spec on ``problem.grid``
    (else on its own); see :func:`~buqo.structure_sets.build_structure_set`.
    ``rows`` and ``cols``, if given, are only checked against that grid.
    A precomputed MAP estimate can be passed to skip the first stage; the
    outcome's ``x_map`` holds the estimate used either way, as does the
    BuqoError of a test that fails after its map stage. Stage failures are
    re-raised as :class:`BuqoError` with the stage label. ``alpha``,
    ``eta``, ``mode`` and the solver ``limits`` are the
    :class:`RunSettings` fields (defaults for those left out; a record
    passes them all as ``**settings.keywords()``), checked before any
    solve starts: ``alpha`` first, against the grid size, as a "region"
    error, and the grids last, as a "set" error.
    """
    with _stage("region"):
        compute_tau_alpha(alpha, problem.n_pixels)
    try:
        settings = RunSettings(alpha=alpha, eta=eta, mode=mode, **limits)
    except ValueError as exc:
        raise BuqoError("engine", str(exc)) from exc
    with _stage("set"):
        mask = getattr(structure, "mask", structure)
        grid = problem.grid or (mask.rows, mask.cols)
        for name, other in (("structure mask", (mask.rows, mask.cols)),
                            ("rows x cols", (rows or grid[0], cols or grid[1]))):
            if other != grid:
                raise ValueError("{} is on a {}x{} grid, the problem on {}x{}"
                                 .format(name, *other, *grid))
        if mask.n_pixels != problem.n_pixels:
            raise ValueError(f"structure mask is on a {mask.rows}x{mask.cols} "
                             f"grid, the problem has {problem.n_pixels} pixels")

    with _stage("map"):
        if x_map is None:
            x_map, _ = settings.map_estimate(problem)
        lam = compute_lambda(x_map, problem.psi)
    try:
        return _test_stages(problem, structure, x_map, lam, settings, gamma)
    except BuqoError as exc:
        # another structure seen in the same reconstruction can reuse it
        exc.x_map = x_map
        raise


def _test_stages(problem: MapProblem, structure, x_map: np.ndarray,
                 lam: float, settings: RunSettings, gamma: float) -> TestOutcome:
    """The region, set and engine stages of :func:`run_buqo`."""
    with _stage("region"):
        region = build_region(x_map, lam, settings.alpha, problem)

    with _stage("set"):
        sset = build_structure_set(x_map, structure)

    with _stage("engine"):
        inner = dict(tol=settings.inner_tol, max_iters=settings.inner_max_iters)
        projectors = (region.projector(**inner), sset.projector(**inner))
        outer = dict(tol=settings.outer_tol, max_iters=settings.outer_max_iters)
        if settings.mode == "pocs":
            x_region, x_set, iters, stop, deltas = run_pocs(
                *projectors, sset.surrogate, **outer)
        else:
            x_region, x_set, iters, stop, deltas = run_fb_distance(
                *projectors, region.x_map, sset.surrogate, gamma=gamma, **outer)
        rho = compute_rho(x_region, x_set, x_map, sset.surrogate)
        decision, narrative = decide(rho, settings.eta, settings.alpha)
        # a background set projects in closed form and never falls short
        unconverged = sum(getattr(p, "unconverged_calls", 0) for p in projectors)
        inner_iterations = sum(getattr(p, "inner_iterations", 0) for p in projectors)
        if stop == STOP_MAX_ITERS:
            narrative += (" (the outer loop stopped at outer_max_iters = "
                          f"{settings.outer_max_iters} before its stop test passed)")
        if unconverged:
            narrative += (f" ({unconverged} inner projections stopped at "
                          f"inner_max_iters = {settings.inner_max_iters}; "
                          "rho is approximate)")

    return TestOutcome(
        rho_alpha=rho,
        distance=float(np.linalg.norm(x_region - x_set)),
        decision=decision,
        alpha=settings.alpha,
        eta=settings.eta,
        x_region=x_region,
        x_set=x_set,
        iterations=iters,
        stop_reason=stop,
        delta_series=deltas,
        narrative=narrative,
        inner_unconverged=unconverged,
        inner_iterations=inner_iterations,
        x_map=x_map,
    )
