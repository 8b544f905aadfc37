"""Small deterministic file-writing helpers shared across modules."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# write_csv formats and writes this many rows at a time, so its memory does not
# grow with the table.
CSV_BLOCK_ROWS = 4096


def write_csv(path, columns) -> None:
    """Write ``columns``, a mapping of header name -> column in file order.

    This is the cell rule of every CSV the package writes: a float gets 17
    significant digits (an exact double round-trip) and NaN an empty cell;
    an integer or boolean is a decimal integer; a string is written as it
    is.  A column that is not a vector of these kinds, or columns of unequal
    length, raise ValueError before the file is opened.  Rows are written
    ``CSV_BLOCK_ROWS`` at a time; a block formats each distinct value (a
    float by its bit pattern) once, into per-cell bytes.
    """
    arrays = [np.asarray(column) for column in columns.values()]
    for name, a in zip(columns, arrays):
        if a.ndim != 1 or a.dtype.kind not in "fiubU":
            raise ValueError(f"CSV column {name!r} must be a vector of floats, integers, "
                             f"booleans or strings, got {a.dtype} of shape {a.shape}")
    lengths = set(map(len, arrays))
    if len(lengths) > 1:
        raise ValueError(f"CSV columns differ in length: {dict(zip(columns, map(len, arrays)))}")
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for start in range(0, max(lengths, default=0), CSV_BLOCK_ROWS):
            cells = [_cells(a[start:start + CSV_BLOCK_ROWS]) for a in arrays]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _cells(column: np.ndarray) -> list[str]:
    if column.dtype.kind == "U":
        return column.tolist()
    if column.dtype.kind == "f":  # keyed by bit pattern, so -0.0 and each NaN stay apart
        keys, inverse = np.unique(column.astype(np.float64, copy=False).view(np.int64),
                                  return_inverse=True)
        table = ["" if v != v else f"{v:.17g}" for v in keys.view(np.float64).tolist()]
    else:
        wide = np.uint64 if column.dtype.kind == "u" else np.int64
        keys, inverse = np.unique(column.astype(wide), return_inverse=True)
        table = list(map(str, keys.tolist()))
    return np.array(table, dtype=object)[inverse].tolist()


def write_json(path, obj) -> None:
    """Dump JSON with sorted keys so identical content gives identical bytes."""
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
