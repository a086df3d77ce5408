"""File formats for grids, images, and convergence traces.

Three deterministic formats:

* PGM (P5, maxval 65535, big-endian samples) for viewable images, with
  the scaling window and provenance recorded in comment lines;
* a raw grid format for lossless float64 exchange: 16-byte header
  (8-byte magic ``SLWFGRID``, two little-endian uint32 dims), row-major
  little-endian float64 payload, then an optional trailing JSON metadata
  line that readers honoring the header never see; a 1-d array is one row;
* CSV tables for solve traces (``iter,objective,discrepancy,penalty,step_norm``)
  and the experiment's profiles (``index,<column>,...``): an optional
  leading ``#`` provenance comment, the header, one ``.17g`` row per
  index, LF line endings.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .core import check_array
from .errors import ParameterError

__all__ = [
    "GRID_MAGIC",
    "write_pgm",
    "read_pgm",
    "write_grid",
    "read_grid",
    "read_grid_metadata",
    "write_trace_csv",
    "read_trace_csv",
]

GRID_MAGIC = b"SLWFGRID"
_PGM_MAXVAL = 65535


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_pgm(path, image, comments: Sequence[str] = ()) -> Tuple[float, float]:
    """Write a float grid as 16-bit PGM, scaling [min, max] -> [0, 65535].

    Returns the (lo, hi) window used; it is also recorded in a comment
    line so the scaling stays invertible.
    """
    image = check_array(image, "PGM image").astype(np.float64, copy=False)
    if image.ndim != 2 or image.size == 0:
        raise ParameterError("PGM writer expects a nonempty 2-d grid")
    lo = float(image.min())
    hi = float(image.max())
    span = hi - lo
    if span > 0.0:
        scaled = np.round((image - lo) / span * _PGM_MAXVAL)
    else:
        scaled = np.zeros_like(image)
    samples = scaled.astype(">u2")
    with open(path, "wb") as fh:
        fh.write(b"P5\n")
        for line in comments:
            fh.write(f"# {line}\n".encode("utf-8"))
        fh.write(f"# window {_fmt(lo)} {_fmt(hi)}\n".encode("utf-8"))
        fh.write(f"{image.shape[1]} {image.shape[0]}\n{_PGM_MAXVAL}\n".encode("utf-8"))
        fh.write(samples.tobytes())
    return lo, hi


def read_pgm(path) -> np.ndarray:
    """Read a 16-bit P5 PGM back into a uint16 grid (raw samples)."""
    data = Path(path).read_bytes()
    if not data.startswith(b"P5"):
        raise ParameterError("not a binary PGM file")
    pos = 2
    fields = []
    while len(fields) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        token = data[start:pos]
        if not token.isdigit():
            raise ParameterError(
                f"PGM header field {len(fields) + 1} of 3 is {token!r}, "
                "not a nonnegative integer"
            )
        fields.append(int(token))
    pos += 1  # single whitespace after maxval
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise ParameterError(f"PGM dimensions must be positive, got {width}x{height}")
    if maxval != _PGM_MAXVAL:
        raise ParameterError(f"expected maxval {_PGM_MAXVAL}, got {maxval}")
    if len(data) - pos < 2 * width * height:
        raise ParameterError(
            f"PGM payload holds {max(len(data) - pos, 0)} bytes, header "
            f"{width}x{height} needs {2 * width * height}"
        )
    samples = np.frombuffer(data, dtype=">u2", count=width * height, offset=pos)
    return samples.reshape(height, width).astype(np.uint16)


def write_grid(path, array, metadata: Optional[dict] = None):
    """Write a float64 grid in the raw SLWFGRID format."""
    array = check_array(array, "grid").astype(np.float64, copy=False)
    if array.ndim == 1:
        array = array.reshape(1, -1)
    if array.ndim != 2 or array.size == 0:
        raise ParameterError("grid writer expects a nonempty 1-d or 2-d array")
    rows, cols = array.shape
    with open(path, "wb") as fh:
        fh.write(GRID_MAGIC)
        fh.write(np.array([rows, cols], dtype="<u4").tobytes())
        fh.write(array.astype("<f8").tobytes())
        if metadata is not None:
            fh.write(b"\n")
            fh.write(json.dumps(metadata, sort_keys=True).encode("utf-8"))
            fh.write(b"\n")


def _grid_header(data: bytes) -> Tuple[int, int]:
    if len(data) < 16 or data[:8] != GRID_MAGIC:
        raise ParameterError("not a SLWFGRID file")
    rows, cols = map(int, np.frombuffer(data, dtype="<u4", count=2, offset=8))
    if len(data) < 16 + 8 * rows * cols:
        raise ParameterError(
            f"SLWFGRID payload holds {len(data) - 16} bytes, header "
            f"{rows}x{cols} needs {8 * rows * cols}"
        )
    return rows, cols


def read_grid(path) -> np.ndarray:
    data = Path(path).read_bytes()
    rows, cols = _grid_header(data)
    values = np.frombuffer(data, dtype="<f8", count=rows * cols, offset=16)
    return values.reshape(rows, cols).copy()


def read_grid_metadata(path) -> Optional[dict]:
    data = Path(path).read_bytes()
    rows, cols = _grid_header(data)
    tail = data[16 + 8 * rows * cols :].strip()
    if not tail:
        return None
    return json.loads(tail.decode("utf-8"))


def _write_table(path, index: str, columns: Dict[str, np.ndarray],
                 comment: Optional[str] = None):
    """Write equal-length columns as a CSV table (see the module docstring)."""
    lines = [f"# {comment}"] if comment else []
    lines.append(",".join([index, *columns]))
    for i, row in enumerate(zip(*columns.values())):
        lines.append(",".join([str(i), *map(_fmt, row)]))
    Path(path).write_bytes(("\n".join(lines) + "\n").encode("utf-8"))


def write_trace_csv(path, trace, comment: Optional[str] = None):
    """Write a solve trace as CSV; row 0 is the initial point (step 0)."""
    steps = np.concatenate([[0.0], trace.step_norms])
    _write_table(path, "iter", {"objective": trace.objectives, "discrepancy": trace.discrepancies,
                                "penalty": trace.penalties, "step_norm": steps}, comment)


def read_trace_csv(path) -> dict:
    """A CSV table's columns by name; a row not of one number per column raises."""
    rows = []
    header = None
    for number, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            header = line.split(",")
            continue
        try:
            row = [float(tok) for tok in line.split(",")]
        except ValueError:
            row = []
        if len(row) != len(header):
            raise ParameterError(f"{path}, line {number}: expected {len(header)} numbers, "
                                 f"got {line!r}")
        rows.append(row)
    if header is None:
        raise ParameterError("trace file has no header")
    table = np.array(rows).reshape(-1, len(header))
    return {name: table[:, i] for i, name in enumerate(header)}
