"""On-disk formats: images, masks, sampling patterns, structure specs,
measurement vectors, test outcomes, configs and manifests.

Images are "BUQO1 <rows> <cols>" followed by row-major little-endian
float64; masks and patterns are fully ASCII index lists; measurement
vectors interleave (re, im) float64 pairs after a "BUQOMEAS1 <m>"
header. All writers are deterministic given identical inputs.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .engine import TestOutcome
from .operators import PixelMask, SamplingPattern
from .structure_sets import STRUCTURE_KINDS

__all__ = [
    "StructureSpec",
    "read_image", "write_image",
    "read_mask", "write_mask",
    "read_pattern", "write_pattern",
    "read_measurements", "write_measurements",
    "read_structure_spec", "write_structure_spec",
    "read_outcome", "write_outcome",
    "read_config", "write_config",
    "write_manifest",
]


@dataclass
class StructureSpec:
    """Parsed structure description: kind, mask and free parameters."""

    kind: str
    mask: PixelMask
    params: dict = field(default_factory=dict)
    name: str | None = None


def _read_header_line(fh) -> str:
    chars = bytearray()
    while True:
        b = fh.read(1)
        if not b:
            raise ValueError("unexpected end of file in header")
        if b == b"\n":
            break
        chars.extend(b)
    return chars.decode("ascii")


def write_image(path, image: np.ndarray, rows: int, cols: int) -> None:
    data = np.asarray(image, dtype="<f8").ravel()
    if data.size != rows * cols:
        raise ValueError("image size does not match rows * cols")
    with open(path, "wb") as fh:
        fh.write(f"BUQO1 {rows} {cols}\n".encode("ascii"))
        fh.write(data.tobytes())


def read_image(path) -> tuple[np.ndarray, int, int]:
    with open(path, "rb") as fh:
        header = _read_header_line(fh).split()
        if len(header) != 3 or header[0] != "BUQO1":
            raise ValueError(f"{path}: not a BUQO1 image file")
        rows, cols = _header_counts(path, header[1:])
        data = np.frombuffer(fh.read(8 * rows * cols), dtype="<f8")
        if data.size != rows * cols:
            raise ValueError(f"{path}: truncated image payload")
    return data.astype(float), rows, cols


def _write_index_block(fh, magic: str, rows: int, cols: int,
                       indices: np.ndarray) -> None:
    """A "<magic> <rows> <cols> <n>" header, then one index per line."""
    fh.write(f"{magic} {rows} {cols} {indices.size}\n")
    for idx in indices:
        fh.write(f"{int(idx)}\n")


def _read_index_block(fh, path, magic: str, line: int = 1,
                      expected: str | None = None) -> tuple[int, int, np.ndarray]:
    """The index block written by :func:`_write_index_block`, its header
    at line ``line`` of ``path``. A header that is not a ``magic`` block
    raises ValueError saying the file is not ``expected`` (by default
    "a <magic> file"); a bad count or index names ``path:line``."""
    header = fh.readline().split()
    if len(header) != 4 or header[0] != magic:
        raise ValueError(f"{path}: expected {expected or f'a {magic} file'}")
    rows, cols, n = _header_counts(path, header[1:], line=line)
    return rows, cols, _read_indices(fh, path, n, first=line + 1)


def _header_counts(path, fields, line: int = 1) -> list[int]:
    """The header ``fields`` as counts; a field that is not a non-negative
    integer raises ValueError naming ``path:line``."""
    counts = []
    for raw in fields:
        try:
            value = int(raw)
        except ValueError:
            value = -1
        if value < 0:
            raise ValueError(f"{path}:{line}: expected a non-negative count, "
                             f"got {raw!r}")
        counts.append(value)
    return counts


def _read_indices(fh, path, n: int, first: int) -> np.ndarray:
    """The next ``n`` lines of ``fh``, one integer each, starting at line
    ``first``; a missing or non-integer line raises ValueError naming
    ``path:line``."""
    indices = np.empty(n, dtype=np.int64)
    for k in range(n):
        line = fh.readline()
        try:
            indices[k] = int(line)
        except ValueError:
            what = repr(line.strip()) if line else "end of file"
            raise ValueError(f"{path}:{first + k}: expected a pixel index, "
                             f"got {what}") from None
    return indices


def write_mask(path, mask: PixelMask) -> None:
    with open(path, "w", encoding="ascii") as fh:
        _write_index_block(fh, "BUQOMASK1", mask.rows, mask.cols, mask.indices)


def read_mask(path) -> PixelMask:
    with open(path, "r", encoding="ascii") as fh:
        return PixelMask(*_read_index_block(fh, path, "BUQOMASK1"))


def write_pattern(path, pattern: SamplingPattern) -> None:
    with open(path, "w", encoding="ascii") as fh:
        _write_index_block(fh, "BUQOFREQ1", pattern.rows, pattern.cols,
                           pattern.indices)


def read_pattern(path) -> SamplingPattern:
    with open(path, "r", encoding="ascii") as fh:
        return SamplingPattern(*_read_index_block(fh, path, "BUQOFREQ1"))


def write_measurements(path, data: np.ndarray) -> None:
    data = np.asarray(data, dtype=complex).ravel()
    inter = np.empty(2 * data.size, dtype="<f8")
    inter[0::2] = data.real
    inter[1::2] = data.imag
    with open(path, "wb") as fh:
        fh.write(f"BUQOMEAS1 {data.size}\n".encode("ascii"))
        fh.write(inter.tobytes())


def read_measurements(path) -> np.ndarray:
    with open(path, "rb") as fh:
        header = _read_header_line(fh).split()
        if len(header) != 2 or header[0] != "BUQOMEAS1":
            raise ValueError(f"{path}: not a BUQOMEAS1 file")
        (m,) = _header_counts(path, header[1:])
        inter = np.frombuffer(fh.read(16 * m), dtype="<f8")
        if inter.size != 2 * m:
            raise ValueError(f"{path}: truncated measurement payload")
    return inter[0::2] + 1j * inter[1::2]


def _format_param(value) -> str:
    if isinstance(value, (tuple, list, np.ndarray)):
        return ",".join(_format_param(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_param(key: str, raw: str):
    if key == "kernel_sizes":
        return tuple(int(v) for v in raw.split(","))
    if key == "dilation_radius":
        return int(raw)
    return float(raw)


def write_structure_spec(path, spec: StructureSpec) -> None:
    mask = spec.mask
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"BUQOSTRUCT1 {spec.kind}\n")
        _write_index_block(fh, "BUQOMASK1", mask.rows, mask.cols, mask.indices)
        for key in sorted(spec.params):
            fh.write(f"{key}={_format_param(spec.params[key])}\n")


def read_structure_spec(path) -> StructureSpec:
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().split()
        if len(header) != 2 or header[0] != "BUQOSTRUCT1":
            raise ValueError(f"{path}: not a BUQOSTRUCT1 file")
        kind = header[1]
        if kind not in STRUCTURE_KINDS:
            raise ValueError(f"{path}: unknown structure kind {kind!r}")
        rows, cols, indices = _read_index_block(
            fh, path, "BUQOMASK1", line=2,
            expected="an embedded BUQOMASK1 block")
    params = {}
    for where, key, raw in _key_value_lines(path, first=indices.size + 3):
        try:
            params[key] = _parse_param(key, raw)
        except ValueError as exc:
            raise ValueError(f"{where}: bad value for {key!r}: {exc}") from None
    name = Path(path).stem
    return StructureSpec(kind=kind, mask=PixelMask(rows, cols, indices),
                         params=params, name=name)


_OUTCOME_KEYS = ("rho_alpha", "distance", "decision", "alpha", "eta",
                 "iterations", "stop_reason")
_OUTCOME_TYPES = {"decision": str, "stop_reason": str, "iterations": int}


def _key_value_lines(path, first: int = 1):
    """(``path:line``, key, raw value) of each ``key = value`` line from
    line ``first`` on.

    Blank lines and ``#`` comments are skipped; a line without ``=``
    raises ValueError naming the file and the line.
    """
    with open(path, "r", encoding="ascii") as fh:
        for n, line in enumerate(fh, 1):
            if n < first:
                continue
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, raw = line.partition("=")
            if not sep:
                raise ValueError(f"{path}:{n}: line without '=': {line!r}")
            yield f"{path}:{n}", key.strip(), raw.strip()


def write_outcome(path, outcome: TestOutcome | dict) -> None:
    """One ``key = value`` line per outcome key, from a TestOutcome or
    from the dict :func:`read_outcome` returns (same bytes for both)."""
    if isinstance(outcome, TestOutcome):
        outcome = {key: getattr(outcome, "eta_threshold" if key == "eta" else key)
                   for key in _OUTCOME_KEYS}
    with open(path, "w", encoding="ascii") as fh:
        for key in _OUTCOME_KEYS:
            fh.write(f"{key} = {_format_param(outcome[key])}\n")


def read_outcome(path) -> dict:
    values: dict = {}
    for where, key, raw in _key_value_lines(path):
        try:
            values[key] = _OUTCOME_TYPES.get(key, float)(raw)
        except ValueError as exc:
            raise ValueError(f"{where}: bad value for {key!r}: {exc}") from None
    missing = [k for k in _OUTCOME_KEYS if k not in values]
    if missing:
        raise ValueError(f"{path}: outcome file missing keys {missing}")
    return values


def write_config(path, config: dict) -> None:
    """Flat dotted-key config, one ``key = value`` per line, sorted."""
    with open(path, "w", encoding="ascii") as fh:
        for key in sorted(config):
            fh.write(f"{key} = {_format_param(config[key])}\n")


def read_config(path) -> dict:
    return {key: raw for _, key, raw in _key_value_lines(path)}


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(path, files: list[str | Path], seed: int) -> None:
    """Record the master seed and the sha256 of every emitted file."""
    base = Path(path).parent
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"seed = {seed}\n")
        for f in sorted(str(f) for f in files):
            rel = os.path.relpath(f, base)
            fh.write(f"{rel} sha256={file_sha256(f)}\n")
