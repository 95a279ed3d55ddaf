"""Command-line front end: simulate, map, test, grid, report.

Configuration comes from a flat dotted-key text file plus overriding
flags; every command is deterministic given identical inputs and seed.
Exit codes: 0 success, 2 config error, 3 MAP stage, 4 region stage,
5 set stage, 6 engine stage. Inputs are checked before anything is
written (a bad solver setting exits with its stage's code, 3 or 6).
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import io as bio
from .engine import BuqoError, SolverSettings, run_buqo
from .map_solver import MapProblem, solve_map
from .operators import db8_analysis, masked_dft
from .sim import (
    ExperimentSpec,
    add_noise,
    make_phantom,
    run_grid,
    sample_noise,
    sampling_pattern,
)

STAGE_EXIT_CODES = {"map": 3, "region": 4, "set": 5, "engine": 6}


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig(SolverSettings):
    """Typed view of the config file plus flag overrides, checked when built."""

    command: str = ""
    out: str = "."
    seed: int = 0
    alpha: float = 0.01
    eta: float = 0.03
    mode: str = "pocs"
    rows: int = 64
    cols: int = 64
    phantom: str = "compact"
    pattern_kind: str = "gaussian"
    ratio: float = 1.0
    sigma2: float = 0.01
    levels: int = 3
    grid_ratios: tuple = (0.5, 0.75, 1.0)
    grid_variances: tuple = (0.01, 0.02, 0.03)
    structures: tuple = ()
    measurements: str = ""
    pattern_file: str = ""
    structure_file: str = ""
    outcome_file: str = ""
    epsilon: float = 0.0

    def __post_init__(self):
        super().__post_init__()
        if not (0.0 < self.alpha < 1.0):
            raise ConfigError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not self.eta >= 0:
            raise ConfigError(f"eta must be nonnegative, got {self.eta}")
        if self.mode not in ("pocs", "fb"):
            raise ConfigError(f"mode must be 'pocs' or 'fb', got {self.mode!r}")


def _coerce(default, raw):
    """Parse a config-file string as the type of the field's default."""
    if not isinstance(raw, str):
        return raw
    if isinstance(default, tuple):
        item = type(default[0]) if default else str
        return tuple(item(v.strip()) for v in raw.split(",") if v.strip())
    return type(default)(raw)


def config_from_dict(values: dict) -> RunConfig:
    """Build a validated RunConfig from flat keys (dots map to underscores)."""
    defaults = {f.name: f.default for f in fields(RunConfig)}
    kwargs = {}
    for key, raw in values.items():
        name = key.replace(".", "_")
        if name not in defaults:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            kwargs[name] = _coerce(defaults[name], raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}") from exc
    return RunConfig(**kwargs)


def config_to_dict(cfg: RunConfig, volatile: bool = True) -> dict:
    """Flat dotted-key dict that round-trips through the config file.

    With ``volatile`` False, fields naming run locations (output directory,
    input paths) are dropped, leaving only the experiment parameters; this
    keeps emitted metadata byte-identical across reruns in different
    directories.
    """
    skip = {"command"}
    if not volatile:
        skip |= {"out", "measurements", "pattern_file", "structure_file",
                 "outcome_file"}
    out = {}
    for f in fields(RunConfig):
        if f.name in skip:
            continue
        out[f.name.replace("_", ".")] = getattr(cfg, f.name)
    return out


@contextmanager
def _config_errors():
    """Turn the ValueError of unparseable or inconsistent input into ConfigError."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(args) -> RunConfig:
    """The config file overridden by the flags, as one validated RunConfig."""
    with _config_errors():
        values = bio.read_config(args.config) if args.config else {}
    for flag in ("seed", "alpha", "eta", "mode", "out"):
        if getattr(args, flag, None) is not None:
            values[flag] = getattr(args, flag)
    values["command"] = args.command
    return config_from_dict(values)


class _AtomicWriter:
    """Files staged under temporary names in ``out_dir``: all of them are
    renamed into place when the ``with`` block succeeds, and deleted when
    it (or a rename) raises."""

    def __init__(self, out_dir: str | Path):
        self.out_dir = Path(out_dir)
        self.staged: list[tuple[Path, Path]] = []
        self.out_dir.mkdir(parents=True, exist_ok=True)

    def path(self, name: str) -> Path:
        final = self.out_dir / name
        final.parent.mkdir(parents=True, exist_ok=True)
        tmp = final.with_name(final.name + ".tmp")
        self.staged.append((tmp, final))
        return tmp

    @property
    def files(self) -> list[Path]:
        return [final for _, final in self.staged]

    def __enter__(self) -> "_AtomicWriter":
        return self

    def __exit__(self, exc_type, *_) -> None:
        try:
            if exc_type is None:
                for tmp, final in self.staged:
                    tmp.replace(final)
        finally:
            # renamed files are gone from their temporary names already
            for tmp, _ in self.staged:
                tmp.unlink(missing_ok=True)


def cmd_simulate(cfg: RunConfig) -> int:
    """Emit phantom, sampling pattern, noisy measurements and a manifest."""
    seeds = np.random.SeedSequence([cfg.seed]).generate_state(2)
    # bad grid sizes, ratios and noise levels are config errors, reported
    # before the output directory exists
    with _config_errors():
        pattern = sampling_pattern(cfg.pattern_kind, cfg.rows, cfg.cols,
                                   cfg.ratio, int(seeds[0]))
        truth = make_phantom(cfg.phantom, cfg.rows, cfg.cols, cfg.seed)
        phi = masked_dft(pattern)
        variance, epsilon = sample_noise(cfg.sigma2, pattern.rows * pattern.cols,
                                         phi.out_dim)
    with _AtomicWriter(cfg.out) as writer:
        y = add_noise(phi.forward(truth), variance, int(seeds[1]))

        bio.write_image(writer.path("phantom.img"), truth, cfg.rows, cfg.cols)
        bio.write_pattern(writer.path("pattern.freq"), pattern)
        bio.write_measurements(writer.path("measurements.meas"), y)
        meta = config_to_dict(cfg, volatile=False)
        meta["epsilon"] = epsilon
        meta["n.measurements"] = phi.out_dim
        bio.write_config(writer.path("metadata.txt"), meta)
    bio.write_manifest(Path(cfg.out) / "manifest.txt", writer.files, cfg.seed)
    print(f"simulate: wrote {len(writer.files) + 1} files to {cfg.out}")
    return 0


def _load_problem(cfg: RunConfig) -> tuple[MapProblem, int, int]:
    if not cfg.measurements or not cfg.pattern_file:
        raise ConfigError("map/test need 'measurements' and 'pattern.file' paths")
    # measurements that do not fit the pattern are a config error too
    with _config_errors():
        y = bio.read_measurements(cfg.measurements)
        pattern = bio.read_pattern(cfg.pattern_file)
        phi = masked_dft(pattern)
        epsilon = cfg.epsilon
        if epsilon <= 0.0:
            _, epsilon = sample_noise(cfg.sigma2, pattern.rows * pattern.cols,
                                      phi.out_dim)
        psi = db8_analysis(pattern.rows, pattern.cols, cfg.levels)
        return MapProblem(phi, psi, y, epsilon), pattern.rows, pattern.cols


def cmd_map(cfg: RunConfig) -> int:
    """Compute and write the MAP estimate for stored measurements."""
    problem, rows, cols = _load_problem(cfg)
    x_map, diag = solve_map(problem, tol=cfg.map_tol, max_iters=cfg.map_max_iters)
    if not diag.converged:
        raise BuqoError("map", f"no convergence in {diag.iterations} iterations")
    with _AtomicWriter(cfg.out) as writer:
        bio.write_image(writer.path("x_map.img"), x_map, rows, cols)
        bio.write_config(writer.path("map_diagnostics.txt"), {
            "iterations": diag.iterations,
            "feasibility.gap": diag.feasibility_gap,
            "objective": float(diag.objective_series[-1]),
            "gamma": diag.gamma,
        })
    print(f"map: converged in {diag.iterations} iterations "
          f"(dual step gamma = {diag.gamma:.6g}); "
          f"wrote {len(writer.files)} files to {cfg.out}")
    return 0


def cmd_test(cfg: RunConfig) -> int:
    """Run the four-stage hypothesis test and write the outcome files."""
    if not cfg.structure_file:
        raise ConfigError("test needs a 'structure.file' path")
    problem, rows, cols = _load_problem(cfg)
    with _config_errors():
        structure = bio.read_structure_spec(cfg.structure_file)
    outcome = run_buqo(problem, structure, alpha=cfg.alpha, mode=cfg.mode,
                       eta=cfg.eta, rows=rows, cols=cols, **cfg.limits())
    with _AtomicWriter(cfg.out) as writer:
        bio.write_image(writer.path("x_region.img"), outcome.x_region, rows, cols)
        bio.write_image(writer.path("x_set.img"), outcome.x_set, rows, cols)
        bio.write_outcome(writer.path("outcome.txt"), outcome)
    print(outcome.narrative)
    return 0


def cmd_grid(cfg: RunConfig) -> int:
    """Run the sampling-ratio x noise-variance grid and write the table."""
    if not cfg.structures:
        raise ConfigError("grid needs a 'structures' list of spec files")
    # bad grid axes and phantom sizes raise before any cell runs (run_grid
    # records cell failures), so before the output directory exists
    with _config_errors():
        structures = [bio.read_structure_spec(p) for p in cfg.structures]
        report = run_grid(ExperimentSpec(
            rows=cfg.rows, cols=cfg.cols, phantom=cfg.phantom,
            pattern_kind=cfg.pattern_kind, sampling_ratios=cfg.grid_ratios,
            noise_variances=cfg.grid_variances, structures=structures,
            alpha=cfg.alpha, eta=cfg.eta, mode=cfg.mode, seed=cfg.seed,
            wavelet_levels=cfg.levels, **cfg.limits()))
    with _AtomicWriter(cfg.out) as writer:
        with open(writer.path("grid_table.tsv"), "w", encoding="ascii") as fh:
            fh.write(report.table())
        for cell in report.cells:
            if cell.outcome is None:
                continue
            tag = f"{cell.ratio:g}_{cell.sigma2:g}_{cell.structure}"
            bio.write_image(writer.path(f"cells/{tag}_region.img"),
                            cell.outcome.x_region, cfg.rows, cfg.cols)
            bio.write_image(writer.path(f"cells/{tag}_set.img"),
                            cell.outcome.x_set, cfg.rows, cfg.cols)
    # wall-clock log kept outside the deterministic byte-identity contract
    with open(Path(cfg.out) / "grid_timing.log", "w", encoding="ascii") as fh:
        fh.write(report.timing())
    bio.write_manifest(Path(cfg.out) / "manifest.txt", writer.files, cfg.seed)
    failures = [c for c in report.cells if c.error is not None]
    print(report.table(), end="")
    print(f"grid: {len(report.cells) - len(failures)} cells ok, "
          f"{len(failures)} failed; outputs in {cfg.out}")
    return 0


def cmd_report(cfg: RunConfig) -> int:
    """Render a stored outcome file and re-emit its normalized form."""
    if not cfg.outcome_file:
        raise ConfigError("report needs an 'outcome.file' path")
    with _config_errors():
        values = bio.read_outcome(cfg.outcome_file)
    rho = values["rho_alpha"]
    print(f"decision: {values['decision']}")
    print(f"rho_alpha = {100.0 * rho:.2f}% (eta = {100.0 * values['eta']:.2f}%)")
    print(f"distance = {values['distance']:.6e} after {values['iterations']} "
          f"iterations ({values['stop_reason']})")
    with _AtomicWriter(cfg.out) as writer:
        bio.write_outcome(writer.path("report_outcome.txt"), values)
    return 0


COMMANDS = {
    "simulate": cmd_simulate,
    "map": cmd_map,
    "test": cmd_test,
    "grid": cmd_grid,
    "report": cmd_report,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="buqo",
        description="Bayesian uncertainty quantification for image structures",
    )
    parser.add_argument("command", choices=list(COMMANDS))
    parser.add_argument("--config", type=str, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--alpha", type=float, default=None)
    parser.add_argument("--eta", type=float, default=None)
    parser.add_argument("--mode", choices=["pocs", "fb"], default=None)
    parser.add_argument("--out", type=str, default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
        return COMMANDS[cfg.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BuqoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return STAGE_EXIT_CODES.get(exc.stage, 6)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
