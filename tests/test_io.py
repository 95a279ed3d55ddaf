import re

import numpy as np
import pytest

from buqo import io as bio
from buqo.engine import TestOutcome as Outcome
from buqo.operators import INPAINT_KERNEL_SIZES, PixelMask, SamplingPattern
from buqo.structure_sets import (
    BACKGROUND_DILATION_RADIUS,
    BACKGROUND_THRESHOLD_FRAC,
    structure_params,
)


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
        params={"kernel_sizes": (3, 7, 11), "tau": 0.01},
    )
    path = tmp_path / "s.struct"
    bio.write_structure_spec(path, spec)
    back = bio.read_structure_spec(path)
    assert back.kind == "localized"
    np.testing.assert_array_equal(back.mask.indices, spec.mask.indices)
    assert back.params["kernel_sizes"] == (3, 7, 11)
    assert back.params["tau"] == 0.01
    assert back.name == "s"


@pytest.mark.parametrize("kind, expected, values", [
    ("localized",
     {"kernel_sizes": INPAINT_KERNEL_SIZES, "tau": None, "theta": None},
     {"kernel_sizes": (3, 5), "tau": 0.25, "theta": 1.5}),
    ("background",
     {"threshold_frac": BACKGROUND_THRESHOLD_FRAC,
      "dilation_radius": BACKGROUND_DILATION_RADIUS, "vartheta": 1e-2},
     {"threshold_frac": 0.01, "dilation_radius": 3, "vartheta": 0.02})])
def test_structure_params_are_the_builders_keywords(tmp_path, kind, expected,
                                                     values):
    # a spec may set exactly its builder's keywords other than the mask
    assert structure_params(kind) == expected
    path = tmp_path / "s.struct"
    bio.write_structure_spec(path, bio.StructureSpec(
        kind, PixelMask(8, 8, [18, 19]), params=values))
    back = bio.read_structure_spec(path).params
    assert back == values
    assert {k: type(v) for k, v in back.items()} == {
        k: type(v) for k, v in values.items()}
    if kind == "localized":
        assert all(type(size) is int for size in back["kernel_sizes"])


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


@pytest.mark.parametrize("reader, magic", [(bio.read_mask, "BUQOMASK1"),
                                           (bio.read_pattern, "BUQOFREQ1")])
def test_index_line_beyond_the_header_count_is_refused(tmp_path, reader, magic):
    # the extra indices used to be dropped: this read as [1 2]
    path = tmp_path / "extra.idx"
    path.write_text(f"{magic} 4 4 2\n1\n2\n3\n4\n")
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}:4: "):
        reader(path)


@pytest.mark.parametrize("writer, reader, value", [
    (lambda path, x: bio.write_image(path, x, 2, 2), bio.read_image, np.ones(4)),
    (bio.write_measurements, bio.read_measurements, np.ones(3, dtype=complex))])
def test_bytes_after_the_payload_are_refused(tmp_path, writer, reader, value):
    path = tmp_path / "extra.bin"
    writer(path, value)
    with open(path, "ab") as fh:
        fh.write(b"\x00")
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}: data after"):
        reader(path)


# a count of 10^14 items: a reader that sized its arrays by the header
# ran out of memory at once instead of refusing the file
@pytest.mark.parametrize("reader, header", [
    (bio.read_image, b"BUQO1 10000000 10000000"),
    (bio.read_measurements, b"BUQOMEAS1 100000000000000")])
def test_a_payload_longer_than_the_file_is_refused_unread(tmp_path, reader,
                                                          header):
    path = tmp_path / "huge.bin"
    path.write_bytes(header + b"\n" + b"\x00" * 32)
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}: truncated"):
        reader(path)


@pytest.mark.parametrize("reader, magic", [(bio.read_mask, "BUQOMASK1"),
                                           (bio.read_pattern, "BUQOFREQ1")])
def test_an_index_count_longer_than_the_file_is_refused_unread(tmp_path,
                                                               reader, magic):
    path = tmp_path / "huge.idx"
    path.write_text(f"{magic} 8 8 {10 ** 14}\n0\n1\n")
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}:4: expected "
                       "a pixel index, got end of file"):
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


@pytest.mark.parametrize("reader, header", [
    (bio.read_image, b"BUQO1 2 2"), (bio.read_measurements, b"BUQOMEAS1 2")])
def test_header_without_newline_is_refused(tmp_path, reader, header):
    path = tmp_path / "bad.bin"
    path.write_bytes(header)
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: unexpected end of file in header")):
        reader(path)
    path.write_bytes(header.replace(b" ", b"\xff", 1) + b"\n")
    with pytest.raises(ValueError):
        reader(path)


def test_repeated_key_is_refused_naming_its_line(tmp_path):
    # a later line used to win silently
    path = tmp_path / "c.cfg"
    path.write_text("alpha = 0.05\nrows = 32\nalpha = 0.2\n")
    with pytest.raises(ValueError, match=re.escape(
            f"{path}:3: repeated key 'alpha', already given on line 1")):
        bio.read_config(path)
    # dots and underscores are one character: both name the field map_tol
    path.write_text("map.tol = 1e-6\nmap_tol = 1e-9\n")
    with pytest.raises(ValueError, match=re.escape(
            f"{path}:2: repeated key 'map_tol', already given on line 1")):
        bio.read_config(path)

    spec = tmp_path / "s.struct"
    bio.write_structure_spec(spec, bio.StructureSpec(
        "localized", PixelMask(4, 4, [5, 6]), {"tau": 0.1}))
    with open(spec, "a", encoding="ascii") as fh:
        fh.write("tau=0.5\n")
    with pytest.raises(ValueError, match=re.escape(
            f"{spec}:6: repeated key 'tau', already given on line 5")):
        bio.read_structure_spec(spec)

    outcome = tmp_path / "o.txt"
    bio.write_outcome(outcome, {"rho_alpha": 0.5, "distance": 0.1,
                                "decision": "rejected", "alpha": 0.01,
                                "eta": 0.03, "iterations": 4,
                                "stop_reason": "max_iters"})
    with open(outcome, "a", encoding="ascii") as fh:
        fh.write("rho_alpha = 0.01\n")
    with pytest.raises(ValueError, match=re.escape(
            f"{outcome}:8: repeated key 'rho_alpha', already given on line 1")):
        bio.read_outcome(outcome)


def test_outcome_round_trip(tmp_path):
    outcome = Outcome(
        rho_alpha=0.123456789, distance=0.5, decision="rejected",
        alpha=0.01, eta=0.03, x_region=np.zeros(4),
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


@pytest.mark.parametrize("line, message", [
    ("bogus = 7", "unknown key 'bogus'"),
    ("decision = maybe", "bad value for 'decision'"),
    ("stop_reason = converged", "bad value for 'stop_reason'"),
    ("iterations = 4.5", "bad value for 'iterations'")])
def test_outcome_values_are_checked_naming_their_line(tmp_path, line,
                                                       message):
    path = tmp_path / "o.txt"
    values = {"rho_alpha": 0.5, "distance": 0.1, "decision": "rejected",
              "alpha": 0.01, "eta": 0.03, "iterations": 4,
              "stop_reason": "max_iters"}
    bio.write_outcome(path, values)
    assert bio.read_outcome(path) == values
    key = line.split(" = ")[0]
    lines = [text for text in path.read_text().splitlines()
             if not text.startswith(f"{key} ")] + [line]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=re.escape(
            f"{path}:{len(lines)}: {message}")):
        bio.read_outcome(path)


@pytest.mark.parametrize("kind", ["config", "structure spec"])
def test_unknown_key_is_refused_naming_its_line(tmp_path, kind):
    # the outcome file's case is in the test above
    path = tmp_path / "f.txt"
    if kind == "config":
        bio.write_config(path, {"rows": 32, "map.tol": 1e-6})
        read = lambda: bio.read_fields(path, {"rows": 64, "map_tol": 1e-4})
    else:
        bio.write_structure_spec(path, bio.StructureSpec(
            "localized", PixelMask(4, 4, [5, 6]), {"tau": 0.1}))
        read = lambda: bio.read_structure_spec(path)
    assert read()
    n = len(path.read_text().splitlines())
    with open(path, "a", encoding="ascii") as fh:
        fh.write("tua = 0.05\n")
    with pytest.raises(ValueError, match=re.escape(
            f"{path}:{n + 1}: unknown key 'tua'")):
        read()


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
