"""On-disk formats: images, masks, sampling patterns, structure specs,
measurement vectors, test outcomes, configs and manifests.

Images are "BUQO1 <rows> <cols>" followed by row-major little-endian
float64; masks and patterns are fully ASCII index lists; measurement
vectors interleave (re, im) float64 pairs after a "BUQOMEAS1 <m>"
header. All writers are deterministic given identical inputs.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .engine import (NOT_REJECTED, REJECTED, STOP_DISTANCE, STOP_ITERATE,
                     STOP_MAX_ITERS, TestOutcome)
from .operators import PixelMask, SamplingPattern
from .structure_sets import STRUCTURE_KINDS, structure_params

__all__ = [
    "StructureSpec",
    "read_image", "write_image",
    "read_mask", "write_mask",
    "read_pattern", "write_pattern",
    "read_measurements", "write_measurements",
    "read_structure_spec", "write_structure_spec",
    "read_outcome", "write_outcome",
    "read_config", "write_config", "read_fields",
    "write_manifest",
]


@dataclass
class StructureSpec:
    """Parsed structure description: kind, mask and free parameters."""

    kind: str
    mask: PixelMask
    params: dict = field(default_factory=dict)
    name: str | None = None


def write_image(path, image: np.ndarray, rows: int, cols: int) -> None:
    data = np.asarray(image, dtype="<f8").ravel()
    if data.size != rows * cols:
        raise ValueError("image size does not match rows * cols")
    with open(path, "wb") as fh:
        fh.write(f"BUQO1 {rows} {cols}\n".encode("ascii"))
        fh.write(data.tobytes())


def read_image(path) -> tuple[np.ndarray, int, int]:
    (rows, cols), data = _read_binary(path, "BUQO1", 2, "image")
    return data.astype(float), rows, cols


def _read_binary(path, magic: str, n_counts: int, what: str,
                 width: int = 1) -> tuple[list[int], np.ndarray]:
    """The header counts of a binary ``magic`` file and the float64 payload,
    ``width`` values per counted item, that ends it. A header line without
    a newline, a non-ASCII byte in it, a payload longer than the rest of
    the file (refused before it is read) and a byte after it raise
    ValueError."""
    with open(path, "rb") as fh:
        header = fh.readline()
        if not header.endswith(b"\n"):
            raise ValueError(f"{path}: unexpected end of file in header")
        header = header.decode("ascii").split()
        if len(header) != 1 + n_counts or header[0] != magic:
            raise ValueError(f"{path}: not a {magic} {what} file")
        counts = _header_counts(path, header[1:])
        size = width * math.prod(counts)
        if 8 * size > os.fstat(fh.fileno()).st_size - fh.tell():
            raise ValueError(f"{path}: truncated {what} payload")
        data = np.frombuffer(fh.read(8 * size), dtype="<f8")
        if fh.read(1):
            raise ValueError(f"{path}: data after the {what} payload")
    return counts, data


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
    "a <magic> file"); a bad count, and a missing or non-integer index
    line, name ``path:line``. The index array grows as its lines are read,
    so a count the file cannot hold allocates nothing for it."""
    header = fh.readline().split()
    if len(header) != 4 or header[0] != magic:
        raise ValueError(f"{path}: expected {expected or f'a {magic} file'}")
    rows, cols, n = _header_counts(path, header[1:], line=line)

    def read_indices():
        for k in range(n):
            text = fh.readline()
            try:
                yield int(text)
            except ValueError:
                what = repr(text.strip()) if text else "end of file"
                raise ValueError(f"{path}:{line + 1 + k}: expected a pixel "
                                 f"index, got {what}") from None

    return rows, cols, np.fromiter(read_indices(), dtype=np.int64)


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


def write_mask(path, mask: PixelMask) -> None:
    with open(path, "w", encoding="ascii") as fh:
        _write_index_block(fh, "BUQOMASK1", mask.rows, mask.cols, mask.indices)


def _read_index_file(path, magic: str) -> tuple[int, int, np.ndarray]:
    """The index block that is all of ``path``; a line after it is refused."""
    with open(path, "r", encoding="ascii") as fh:
        block = _read_index_block(fh, path, magic)
        if fh.readline():
            raise ValueError(f"{path}:{block[2].size + 2}: line after the last index")
    return block


def read_mask(path) -> PixelMask:
    return PixelMask(*_read_index_file(path, "BUQOMASK1"))


def write_pattern(path, pattern: SamplingPattern) -> None:
    with open(path, "w", encoding="ascii") as fh:
        _write_index_block(fh, "BUQOFREQ1", pattern.rows, pattern.cols,
                           pattern.indices)


def read_pattern(path) -> SamplingPattern:
    return SamplingPattern(*_read_index_file(path, "BUQOFREQ1"))


def write_measurements(path, data: np.ndarray) -> None:
    data = np.asarray(data, dtype=complex).ravel()
    inter = np.empty(2 * data.size, dtype="<f8")
    inter[0::2] = data.real
    inter[1::2] = data.imag
    with open(path, "wb") as fh:
        fh.write(f"BUQOMEAS1 {data.size}\n".encode("ascii"))
        fh.write(inter.tobytes())


def read_measurements(path) -> np.ndarray:
    _, inter = _read_binary(path, "BUQOMEAS1", 1, "measurement", width=2)
    return inter[0::2] + 1j * inter[1::2]


def _format_param(value) -> str:
    if isinstance(value, (tuple, list, np.ndarray)):
        return ",".join(_format_param(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_value(default, raw: str):
    """``raw`` as the type of ``default``: a tuple is a comma list of its
    items' type (strings for an empty tuple), None reads as a float, and
    a frozenset holds the values ``raw`` may take."""
    if isinstance(default, tuple):
        item = type(default[0]) if default else str
        return tuple(item(v.strip()) for v in raw.split(",") if v.strip())
    if isinstance(default, frozenset):
        if raw not in default:
            raise ValueError(f"expected one of {sorted(default)}, got {raw!r}")
        return raw
    return float(raw) if default is None else type(default)(raw)


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
    params = read_fields(path, structure_params(kind), first=indices.size + 3)
    return StructureSpec(kind=kind, mask=PixelMask(rows, cols, indices),
                         params=params, name=Path(path).stem)


# the outcome keys in file order, each with a value of its type
_OUTCOME = {"rho_alpha": 0.0, "distance": 0.0,
            "decision": frozenset({REJECTED, NOT_REJECTED}),
            "alpha": 0.0, "eta": 0.0, "iterations": 0,
            "stop_reason": frozenset({STOP_ITERATE, STOP_DISTANCE,
                                      STOP_MAX_ITERS})}


def _key_value_lines(path, first: int = 1):
    """(``path:line``, key, raw value) of each ``key = value`` line from
    line ``first`` on.

    Blank lines and ``#`` comments are skipped; a line without ``=``,
    and a key given on an earlier line, raise ValueError naming the file
    and the line. Dots and underscores in a key are one character, as
    :func:`read_fields` reads keys: ``map.tol`` repeats ``map_tol``.
    """
    seen: dict[str, int] = {}
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
            key = key.strip()
            earlier = seen.setdefault(key.replace(".", "_"), n)
            if earlier != n:
                raise ValueError(f"{path}:{n}: repeated key {key!r}, already "
                                 f"given on line {earlier}")
            yield f"{path}:{n}", key, raw.strip()


def read_fields(path, defaults: dict, first: int = 1) -> dict:
    """``{name: value}`` of the ``key = value`` lines of ``path`` from line
    ``first`` on: a dot in a key reads as an underscore, and each value
    parses as the type of its name's entry in ``defaults`` (see
    :func:`_parse_value`). An unknown key, a repeated key and a value
    that does not parse raise ValueError naming ``path:line``."""
    values = {}
    for where, key, raw in _key_value_lines(path, first):
        name = key.replace(".", "_")
        if name not in defaults:
            raise ValueError(f"{where}: unknown key {key!r}")
        try:
            values[name] = _parse_value(defaults[name], raw)
        except ValueError as exc:
            raise ValueError(f"{where}: bad value for {key!r}: {exc}") from None
    return values


def write_outcome(path, outcome: TestOutcome | dict) -> None:
    """One ``key = value`` line per outcome key, from a TestOutcome or
    from the dict :func:`read_outcome` returns (same bytes for both)."""
    if isinstance(outcome, TestOutcome):
        outcome = {key: getattr(outcome, key) for key in _OUTCOME}
    with open(path, "w", encoding="ascii") as fh:
        for key in _OUTCOME:
            fh.write(f"{key} = {_format_param(outcome[key])}\n")


def read_outcome(path) -> dict:
    """The outcome's values by key; a key missing, unknown or repeated,
    or a decision or stop reason the engine does not give, is refused."""
    values = read_fields(path, _OUTCOME)
    missing = [k for k in _OUTCOME if k not in values]
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
