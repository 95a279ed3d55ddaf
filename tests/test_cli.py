import numpy as np
import pytest

from buqo import io as bio
from buqo.cli import (
    RunConfig,
    _load_problem,
    config_from_dict,
    config_to_dict,
    main,
)
from buqo.operators import PixelMask
from buqo.sim import make_phantom, phantom_layout, sample_noise


def write_cfg(tmp_path, name="run.cfg", **overrides):
    values = {
        "rows": 32, "cols": 32, "phantom": "compact",
        "pattern.kind": "gaussian", "ratio": 1.0, "sigma2": 1e-4,
        "levels": 2, "seed": 70, "alpha": 0.01, "eta": 0.03,
        "map.tol": 1e-7, "map.max.iters": 40000,
        "outer.max.iters": 300,
    }
    values.update(overrides)
    path = tmp_path / name
    bio.write_config(path, values)
    return path


def bright_mask_file(tmp_path):
    layout = phantom_layout("compact", 32, 32, seed=70)
    py, px = layout["bright"][0][:2]
    sel = np.zeros((32, 32), dtype=bool)
    sel[py - 2:py + 3, px - 2:px + 3] = True
    spec = bio.StructureSpec("localized", PixelMask.from_boolean(sel),
                             {"kernel_sizes": (3, 7, 11)})
    path = tmp_path / "bright.struct"
    bio.write_structure_spec(path, spec)
    return path


def test_config_round_trip_through_file(tmp_path):
    cfg = RunConfig(rows=48, alpha=0.05, grid_ratios=(0.5, 1.0),
                    structures=("a.struct",), map_tol=2.5e-7,
                    map_max_iters=12345, outer_tol=3e-6, outer_max_iters=77,
                    inner_tol=1e-9, inner_max_iters=4321)
    path = tmp_path / "c.cfg"
    bio.write_config(path, config_to_dict(cfg))
    raw = {k.replace(".", "_"): v for k, v in bio.read_config(path).items()}
    back = config_from_dict(raw)
    back.command = cfg.command
    assert back == cfg


def test_unknown_config_key_is_exit_2(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("no_such_key = 1\n")
    assert main(["simulate", "--config", str(path)]) == 2


def test_bad_alpha_is_exit_2(tmp_path):
    cfg = write_cfg(tmp_path)
    assert main(["simulate", "--config", str(cfg), "--alpha", "2.0"]) == 2


def test_config_line_without_equals_is_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("rows = 32\nno equals sign here\n")
    assert main(["simulate", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()
    assert f"{path}:2" in capsys.readouterr().err


@pytest.mark.parametrize("overrides", [
    {"pattern.kind": "spiral"}, {"pattern.kind": "multicoil"}, {"ratio": 1.5},
    {"rows": 16}, {"sigma2": 0}, {"pattern.kind": "cartesian", "ratio": 0}])
def test_bad_sampling_pattern_is_exit_2(tmp_path, overrides):
    cfg = write_cfg(tmp_path, **overrides)
    assert main(["simulate", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


def test_simulate_writes_files_and_is_deterministic(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out1 = tmp_path / "ns1/out1"  # missing directories get created
    out2 = tmp_path / "out2"
    assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
    for name in ("phantom.img", "pattern.freq", "measurements.meas",
                 "metadata.txt", "manifest.txt"):
        assert (out1 / name).exists()
    m1 = (out1 / "manifest.txt").read_text()
    m2 = (out2 / "manifest.txt").read_text()
    assert m1 == m2
    assert "sha256=" in m1
    img, rows, cols = bio.read_image(out1 / "phantom.img")
    np.testing.assert_array_equal(img, make_phantom("compact", 32, 32, 70))

    # undersampled: the bound written by simulate is the one map/test
    # derive from the same sigma2 and pattern
    cfg_half = write_cfg(tmp_path, name="half.cfg", ratio=0.5)
    out3 = tmp_path / "half"
    assert main(["simulate", "--config", str(cfg_half), "--out", str(out3)]) == 0
    meta = bio.read_config(out3 / "metadata.txt")
    assert int(meta["n.measurements"]) == 512
    loaded = config_from_dict({"sigma2": "1e-4",
                               "measurements": str(out3 / "measurements.meas"),
                               "pattern_file": str(out3 / "pattern.freq")})
    problem, _, _ = _load_problem(loaded)
    assert float(meta["epsilon"]) == problem.epsilon
    # ... and the one a grid cell at (0.5, sigma2) uses
    assert problem.epsilon == sample_noise(1e-4, 32 * 32, 512)[1]


def test_map_command_writes_estimate(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    sim_out = tmp_path / "sim"
    assert main(["simulate", "--config", str(cfg), "--out", str(sim_out)]) == 0
    cfg2 = write_cfg(tmp_path, name="map.cfg",
                     measurements=str(sim_out / "measurements.meas"),
                     **{"pattern.file": str(sim_out / "pattern.freq")})
    map_out = tmp_path / "map"
    capsys.readouterr()
    assert main(["map", "--config", str(cfg2), "--out", str(map_out)]) == 0
    printed = capsys.readouterr().out
    x_map, rows, cols = bio.read_image(map_out / "x_map.img")
    assert (rows, cols) == (32, 32)
    assert x_map.min() >= 0.0
    diag = bio.read_config(map_out / "map_diagnostics.txt")
    assert float(diag["feasibility.gap"]) <= 1e-6 * 10
    # the dual step is the scale rule's, written exactly and printed
    problem, _, _ = _load_problem(config_from_dict({
        "sigma2": "1e-4", "measurements": str(sim_out / "measurements.meas"),
        "pattern_file": str(sim_out / "pattern.freq"), "levels": "2"}))
    x0 = np.maximum(problem.phi.adjoint(problem.data), 0.0)
    gamma = float(diag["gamma"])
    assert gamma == 8.0 * np.sqrt(problem.psi.out_dim) / np.linalg.norm(x0)
    assert f"gamma = {gamma:.6g}" in printed


def test_full_test_command_and_report_round_trip(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    sim_out = tmp_path / "sim"
    assert main(["simulate", "--config", str(cfg), "--out", str(sim_out)]) == 0
    struct = bright_mask_file(tmp_path)
    cfg2 = write_cfg(tmp_path, name="test.cfg",
                     measurements=str(sim_out / "measurements.meas"),
                     **{"pattern.file": str(sim_out / "pattern.freq"),
                        "structure.file": str(struct)})
    test_out = tmp_path / "test"
    code = main(["test", "--config", str(cfg2), "--out", str(test_out)])
    printed = capsys.readouterr().out
    assert code == 0
    # verdict carries the confirmed percentage with two decimals
    assert "rho_alpha = " in printed and "%" in printed
    for name in ("x_region.img", "x_set.img", "outcome.txt"):
        assert (test_out / name).exists()

    values = bio.read_outcome(test_out / "outcome.txt")
    rep_out = tmp_path / "rep"
    cfg3 = write_cfg(tmp_path, name="rep.cfg",
                     **{"outcome.file": str(test_out / "outcome.txt")})
    assert main(["report", "--config", str(cfg3), "--out", str(rep_out)]) == 0
    again = bio.read_outcome(rep_out / "report_outcome.txt")
    assert again == values
    assert ((rep_out / "report_outcome.txt").read_bytes()
            == (test_out / "outcome.txt").read_bytes())


def test_stage_exit_codes(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    sim_out = tmp_path / "sim"
    assert main(["simulate", "--config", str(cfg), "--out", str(sim_out)]) == 0
    struct = bright_mask_file(tmp_path)
    base = {"measurements": str(sim_out / "measurements.meas"),
            "pattern.file": str(sim_out / "pattern.freq"),
            "structure.file": str(struct)}
    # region stage: alpha outside the validity interval for n = 1024
    cfg_bad_alpha = write_cfg(tmp_path, name="r.cfg", **base)
    code = main(["test", "--config", str(cfg_bad_alpha),
                 "--alpha", "1e-300", "--out", str(tmp_path / "r")])
    assert code == 4
    # map stage: impossible tolerance budget
    cfg_bad_map = write_cfg(tmp_path, name="m.cfg",
                            **{**base, "map.max.iters": 3})
    code = main(["test", "--config", str(cfg_bad_map),
                 "--out", str(tmp_path / "m")])
    assert code == 3
    # set stage: structure mask touching the border
    bad_spec = bio.StructureSpec("localized", PixelMask(32, 32, [0, 1]), {})
    bad_path = tmp_path / "bad.struct"
    bio.write_structure_spec(bad_path, bad_spec)
    cfg_bad_set = write_cfg(tmp_path, name="s.cfg",
                            **{**base, "structure.file": str(bad_path)})
    code = main(["test", "--config", str(cfg_bad_set),
                 "--out", str(tmp_path / "s")])
    assert code == 5
    # set stage: a spec key the localized builder does not take
    typo_spec = bio.read_structure_spec(struct)
    typo_spec.params["tua"] = 0.05
    typo_path = tmp_path / "typo.struct"
    bio.write_structure_spec(typo_path, typo_spec)
    cfg_typo = write_cfg(tmp_path, name="k.cfg",
                         **{**base, "structure.file": str(typo_path)})
    capsys.readouterr()
    code = main(["test", "--config", str(cfg_typo),
                 "--out", str(tmp_path / "k")])
    assert code == 5
    assert "'tua'" in capsys.readouterr().err
    # map stage from `buqo map`: a tolerance no solve can meet, refused
    # before iterating
    cfg_bad_tol = write_cfg(tmp_path, name="t.cfg", **{**base, "map.tol": 0})
    code = main(["map", "--config", str(cfg_bad_tol),
                 "--out", str(tmp_path / "t")])
    assert code == 3
    assert not (tmp_path / "t").exists()
    # engine stage: an inner iteration limit that cannot project
    cfg_bad_engine = write_cfg(tmp_path, name="e.cfg",
                               **{**base, "inner.max.iters": 0})
    code = main(["test", "--config", str(cfg_bad_engine),
                 "--out", str(tmp_path / "e")])
    assert code == 6
    # `buqo grid` refuses the same settings before running any cell
    for key, value, expected in (("map.tol", 0, 3), ("inner.max.iters", 0, 6)):
        cfg_grid = write_cfg(tmp_path, name="g.cfg", structures=str(struct),
                             **{key: value})
        code = main(["grid", "--config", str(cfg_grid),
                     "--out", str(tmp_path / "g")])
        assert code == expected
        assert not (tmp_path / "g").exists()


def simulated(tmp_path, name, **overrides):
    """Run ``buqo simulate`` on the default test config into ``tmp_path/name``."""
    cfg = write_cfg(tmp_path, name=f"{name}.cfg", **overrides)
    out = tmp_path / name
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    return out


def test_measurements_not_fitting_the_pattern_are_exit_2(tmp_path):
    half = simulated(tmp_path, "half", ratio=0.5)
    full = simulated(tmp_path, "full", ratio=1.0)
    cfg = write_cfg(tmp_path, name="mix.cfg",
                    measurements=str(half / "measurements.meas"),
                    **{"pattern.file": str(full / "pattern.freq"),
                       "structure.file": str(bright_mask_file(tmp_path))})
    for command in ("map", "test"):
        out = tmp_path / f"{command}_out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()


@pytest.mark.parametrize("key", [
    "measurements", "pattern.file", "structure.file", "outcome.file"])
def test_unparseable_input_file_is_exit_2(tmp_path, capsys, key):
    sim = simulated(tmp_path, "sim")
    garbage = tmp_path / "garbage"
    garbage.write_bytes(b"not a buqo file\n")
    inputs = {"measurements": str(sim / "measurements.meas"),
              "pattern.file": str(sim / "pattern.freq"),
              "structure.file": str(bright_mask_file(tmp_path)),
              "outcome.file": ""}
    inputs[key] = str(garbage)
    command = {"outcome.file": "report", "measurements": "map",
               "pattern.file": "map", "structure.file": "test"}[key]
    cfg = write_cfg(tmp_path, name="g.cfg", **inputs)
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    assert str(garbage) in capsys.readouterr().err


@pytest.mark.parametrize("defect", ["parameter without '='", "short mask block"])
def test_bad_structure_spec_names_file_and_line(tmp_path, capsys, defect):
    sim = simulated(tmp_path, "sim")
    spec = bright_mask_file(tmp_path)
    lines = spec.read_text().splitlines()
    n_indices = int(lines[1].split()[3])
    if defect == "parameter without '='":
        lines.append("tau")
        bad_line = len(lines)
    else:
        # the mask header promises one index more than the block holds,
        # so the parameter line is read as an index
        lines[1] = lines[1].rsplit(" ", 1)[0] + f" {n_indices + 1}"
        bad_line = n_indices + 3
    spec.write_text("\n".join(lines) + "\n")
    cfg = write_cfg(tmp_path, name="t.cfg",
                    measurements=str(sim / "measurements.meas"),
                    **{"pattern.file": str(sim / "pattern.freq"),
                       "structure.file": str(spec)})
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["test", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    assert f"{spec}:{bad_line}:" in capsys.readouterr().err


@pytest.mark.parametrize("overrides", [
    {"grid.ratios": 1.5}, {"grid.variances": 0}, {"rows": 16},
    {"pattern.kind": "spiral"}, {"levels": 9}])
def test_bad_grid_is_exit_2(tmp_path, overrides):
    cfg = write_cfg(tmp_path, structures=str(bright_mask_file(tmp_path)),
                    **overrides)
    out = tmp_path / "out"
    assert main(["grid", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


def test_missing_input_paths_exit_2(tmp_path):
    cfg = write_cfg(tmp_path)
    assert main(["map", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert main(["test", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert main(["report", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert main(["grid", "--config", str(cfg), "--out", str(tmp_path)]) == 2
