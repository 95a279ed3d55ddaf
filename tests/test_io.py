import re

import numpy as np
import pytest

from buqo import io as bio
from buqo.engine import TestOutcome as Outcome
from buqo.operators import PixelMask, SamplingPattern


def test_image_round_trip_exact(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.standard_normal(6 * 4)
    path = tmp_path / "x.img"
    bio.write_image(path, img, 6, 4)
    back, rows, cols = bio.read_image(path)
    assert (rows, cols) == (6, 4)
    np.testing.assert_array_equal(back, img)


def test_image_header_and_payload_validation(tmp_path):
    path = tmp_path / "bad.img"
    path.write_bytes(b"NOTBUQO 2 2\n" + b"\x00" * 32)
    with pytest.raises(ValueError, match="BUQO1"):
        bio.read_image(path)
    path.write_bytes(b"BUQO1 2 2\n" + b"\x00" * 8)
    with pytest.raises(ValueError, match="truncated"):
        bio.read_image(path)
    with pytest.raises(ValueError, match="size"):
        bio.write_image(tmp_path / "y.img", np.zeros(3), 2, 2)


def test_mask_round_trip(tmp_path):
    mask = PixelMask(8, 8, [9, 10, 17])
    path = tmp_path / "m.mask"
    bio.write_mask(path, mask)
    back = bio.read_mask(path)
    assert (back.rows, back.cols) == (8, 8)
    np.testing.assert_array_equal(back.indices, mask.indices)
    header = path.read_text().splitlines()[0]
    assert header == "BUQOMASK1 8 8 3"


def test_pattern_round_trip(tmp_path):
    pattern = SamplingPattern(4, 4, [0, 5, 15])
    path = tmp_path / "p.freq"
    bio.write_pattern(path, pattern)
    back = bio.read_pattern(path)
    np.testing.assert_array_equal(back.indices, pattern.indices)
    assert path.read_text().startswith("BUQOFREQ1 4 4 3\n")


def test_measurements_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    y = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    path = tmp_path / "y.meas"
    bio.write_measurements(path, y)
    back = bio.read_measurements(path)
    np.testing.assert_array_equal(back, y)


def test_structure_spec_round_trip(tmp_path):
    spec = bio.StructureSpec(
        kind="localized",
        mask=PixelMask(8, 8, [18, 19]),
        params={"kernel_sizes": (3, 7, 11), "vartheta": 0.01},
    )
    path = tmp_path / "s.struct"
    bio.write_structure_spec(path, spec)
    back = bio.read_structure_spec(path)
    assert back.kind == "localized"
    np.testing.assert_array_equal(back.mask.indices, spec.mask.indices)
    assert back.params["kernel_sizes"] == (3, 7, 11)
    assert back.params["vartheta"] == 0.01
    assert back.name == "s"


def test_structure_spec_background_empty_mask(tmp_path):
    spec = bio.StructureSpec(
        kind="background",
        mask=PixelMask(16, 16, []),
        params={"threshold_frac": 1e-3, "dilation_radius": 7,
                "vartheta": 1e-2},
    )
    path = tmp_path / "bg.struct"
    bio.write_structure_spec(path, spec)
    back = bio.read_structure_spec(path)
    assert back.kind == "background"
    assert back.mask.n_selected == 0
    assert back.params["dilation_radius"] == 7


def bad_count(path, line):
    """pytest.raises for a header count rejected at ``path:line``."""
    return pytest.raises(ValueError, match=f"{re.escape(str(path))}:{line}: "
                         "expected a non-negative count")


@pytest.mark.parametrize("header", [b"BUQO1 2 x\n", b"BUQO1 -2 2\n"])
def test_image_header_counts_name_the_line(tmp_path, header):
    path = tmp_path / "bad.img"
    path.write_bytes(header + b"\x00" * 32)
    with bad_count(path, 1):
        bio.read_image(path)


@pytest.mark.parametrize("reader, magic", [(bio.read_mask, "BUQOMASK1"),
                                           (bio.read_pattern, "BUQOFREQ1")])
@pytest.mark.parametrize("counts", ["4 4 x", "4 4 -1", "4 2.5 1"])
def test_index_list_header_counts_name_the_line(tmp_path, reader, magic, counts):
    path = tmp_path / "bad.idx"
    path.write_text(f"{magic} {counts}\n0\n")
    with bad_count(path, 1):
        reader(path)


@pytest.mark.parametrize("count", [b"x", b"-1"])
def test_measurement_header_count_names_the_line(tmp_path, count):
    path = tmp_path / "bad.meas"
    path.write_bytes(b"BUQOMEAS1 " + count + b"\n" + b"\x00" * 16)
    with bad_count(path, 1):
        bio.read_measurements(path)


@pytest.mark.parametrize("counts", ["4 4 x", "4 -4 1"])
def test_structure_spec_mask_header_counts_name_the_line(tmp_path, counts):
    path = tmp_path / "bad.spec"
    path.write_text(f"BUQOSTRUCT1 localized\nBUQOMASK1 {counts}\n0\n")
    with bad_count(path, 2):
        bio.read_structure_spec(path)


def test_outcome_round_trip(tmp_path):
    outcome = Outcome(
        rho_alpha=0.123456789, distance=0.5, decision="rejected",
        alpha=0.01, eta_threshold=0.03, x_region=np.zeros(4),
        x_set=np.zeros(4), iterations=42, stop_reason="iterate_change",
        delta_series=np.zeros(3),
    )
    path = tmp_path / "o.txt"
    bio.write_outcome(path, outcome)
    values = bio.read_outcome(path)
    assert values["rho_alpha"] == outcome.rho_alpha
    assert values["decision"] == "rejected"
    assert values["iterations"] == 42
    assert values["stop_reason"] == "iterate_change"


def test_outcome_missing_keys_rejected(tmp_path):
    path = tmp_path / "o.txt"
    path.write_text("rho_alpha = 0.5\n")
    with pytest.raises(ValueError, match="missing keys"):
        bio.read_outcome(path)


def test_config_round_trip(tmp_path):
    config = {"rows": 64, "grid.ratios": (0.5, 1.0), "alpha": 0.01,
              "phantom": "compact"}
    path = tmp_path / "c.cfg"
    bio.write_config(path, config)
    back = bio.read_config(path)
    assert back["rows"] == "64"
    assert back["grid.ratios"] == "0.5,1.0"
    assert back["phantom"] == "compact"


def test_manifest_lists_hashes(tmp_path):
    f1 = tmp_path / "a.bin"
    f1.write_bytes(b"hello")
    f2 = tmp_path / "b.bin"
    f2.write_bytes(b"world")
    manifest = tmp_path / "manifest.txt"
    bio.write_manifest(manifest, [f1, f2], seed=7)
    text = manifest.read_text()
    assert text.startswith("seed = 7\n")
    assert "a.bin sha256=" in text and "b.bin sha256=" in text
    # identical content, identical manifest
    manifest2 = tmp_path / "manifest2.txt"
    bio.write_manifest(manifest2, [f1, f2], seed=7)
    assert manifest2.read_text() == text
