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
                    structures=("a.struct",))
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


def test_map_command_writes_estimate(tmp_path):
    cfg = write_cfg(tmp_path)
    sim_out = tmp_path / "sim"
    assert main(["simulate", "--config", str(cfg), "--out", str(sim_out)]) == 0
    cfg2 = write_cfg(tmp_path, name="map.cfg",
                     measurements=str(sim_out / "measurements.meas"),
                     **{"pattern.file": str(sim_out / "pattern.freq")})
    map_out = tmp_path / "map"
    assert main(["map", "--config", str(cfg2), "--out", str(map_out)]) == 0
    x_map, rows, cols = bio.read_image(map_out / "x_map.img")
    assert (rows, cols) == (32, 32)
    assert x_map.min() >= 0.0
    diag = bio.read_config(map_out / "map_diagnostics.txt")
    assert float(diag["feasibility.gap"]) <= 1e-6 * 10


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


def test_stage_exit_codes(tmp_path):
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


def test_missing_input_paths_exit_2(tmp_path):
    cfg = write_cfg(tmp_path)
    assert main(["map", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert main(["test", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert main(["report", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert main(["grid", "--config", str(cfg), "--out", str(tmp_path)]) == 2
