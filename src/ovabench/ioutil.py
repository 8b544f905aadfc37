"""Small deterministic file-writing helpers shared across modules."""

from __future__ import annotations

import functools
import json
from pathlib import Path

import numpy as np

# write_csv formats and writes this many rows at a time, so its memory does not
# grow with the table.
CSV_BLOCK_ROWS = 4096

# Characters a name or string cell may not hold: written as they are, they would
# split a cell or a row, and a NUL would be dropped with a block's padding.
_SEPARATORS = ',"\n\r\0'

# A block's floats with magnitude in [1e-4, 1e16) are formatted in numpy passes
# (_fast_cells).  The bounds are bit patterns of |v|; NaN and inf lie above.
_FAST_LOW = int(np.float64(1e-4).view(np.int64))
_FAST_HIGH = int(np.float64(1e16).view(np.int64))


def write_csv(path, columns) -> None:
    """Write ``columns``, a mapping of header name -> column in file order.

    This is the cell rule of every CSV the package writes: a float gets 17
    significant digits (an exact double round-trip) and NaN an empty cell;
    an integer or boolean is a decimal integer; a string is written as it
    is, in UTF-8.  A column that is not a vector of these kinds, a name or
    string cell holding a comma, quote, line break or NUL, or columns of
    unequal length, raise ValueError before the file is opened (numpy's
    string dtype already drops a trailing NUL when a column is built, so
    that one is not seen).  Rows are written ``CSV_BLOCK_ROWS`` at a time; a
    block formats each distinct value (a float by its bit pattern) once,
    gathers each column's cells as a NUL-padded byte matrix, joins the
    matrices with comma and newline columns and writes the bytes that are
    not NUL.
    """
    arrays = [np.asarray(column) for column in columns.values()]
    for name, a in zip(columns, arrays):
        if a.ndim != 1 or a.dtype.kind not in "fiubU":
            raise ValueError(f"CSV column {name!r} must be a vector of floats, integers, "
                             f"booleans or strings, got {a.dtype} of shape {a.shape}")
        text = name + "".join(a.tolist()) if a.dtype.kind == "U" else name
        if any(c in text for c in _SEPARATORS):
            raise ValueError(f"CSV column {name!r} has a comma, quote, line break or NUL "
                             "in its name or a string cell")
    lengths = set(map(len, arrays))
    if len(lengths) > 1:
        raise ValueError(f"CSV columns differ in length: {dict(zip(columns, map(len, arrays)))}")
    with open(path, "wb") as fh:
        fh.write((",".join(columns) + "\n").encode())
        for start in range(0, max(lengths, default=0), CSV_BLOCK_ROWS):
            cells = [_cells(a[start:start + CSV_BLOCK_ROWS]) for a in arrays]
            comma = np.full((len(cells[0]), 1), ord(","), np.uint8)
            parts = [part for column in cells for part in (column, comma)]
            parts[-1] = np.full_like(comma, ord("\n"))
            flat = np.concatenate(parts, axis=1).ravel()
            fh.write(flat[flat != 0])


def _bytes(cells) -> np.ndarray:
    """Strings, or a bytes array, as a NUL-padded uint8 matrix [cells x width]."""
    table = np.asarray(cells, dtype="S")
    return table.view(np.uint8).reshape(len(table), table.itemsize)


def _cells(column: np.ndarray) -> np.ndarray:
    """A block's cells as a NUL-padded uint8 matrix [rows x width]."""
    if column.dtype.kind == "U":
        return _bytes(np.char.encode(column, "utf-8"))
    if column.dtype.kind == "f":  # keyed by bit pattern, so -0.0 and each NaN stay apart
        keys, inverse = np.unique(column.astype(np.float64, copy=False).view(np.int64),
                                  return_inverse=True)
        table = _floats(keys)
    else:
        wide = np.uint64 if column.dtype.kind == "u" else np.int64
        keys, inverse = np.unique(column.astype(wide), return_inverse=True)
        table = _bytes(list(map(str, keys.tolist())))
    return np.take(table, inverse, axis=0)


def _floats(keys: np.ndarray) -> np.ndarray:
    """The cells of the float64 values whose bit patterns are ``keys``, as a
    NUL-padded uint8 matrix.  Values outside ``_fast_cells``' range take one
    f-string each; both give the same bytes."""
    magnitude = keys & 0x7FFF_FFFF_FFFF_FFFF
    fast = (magnitude >= _FAST_LOW) & (magnitude < _FAST_HIGH)
    fast_cells = _fast_cells(keys[fast])
    slow_cells = _bytes(["" if v != v else f"{v:.17g}"
                         for v in keys[~fast].view(np.float64).tolist()])
    table = np.zeros((len(keys), max(fast_cells.shape[1], slow_cells.shape[1])), np.uint8)
    table[fast, :fast_cells.shape[1]] = fast_cells
    table[~fast, :slow_cells.shape[1]] = slow_cells
    return table


@functools.cache
def _fast_tables():
    """The lookup tables of ``_fast_cells``, built on first use."""
    # the smallest double >= 10^n, which float("1e<n>") is for each n here
    tens = np.array([float(f"1e{n}") for n in range(-4, 16)])
    pow10 = np.array([float(f"1e{k}") for k in range(21)])  # exact: 5^20 < 2^53
    pow10 = np.stack([pow10, *_halves(pow10)])
    # ASCII of each 4-digit chunk 0000-9999 as one uint32, then the bytes ".-0" and NUL
    ascii4 = np.indices((10,) * 4, np.uint8).reshape(4, -1).T + np.uint8(48)
    chunks = np.append(ascii4.copy().view(np.uint32)[:, 0], np.frombuffer(b".-0\0", np.uint32))
    # Templates: the source byte of each output position of a cell with sign s,
    # exponent x in [-4, 15] and last nonzero digit n in [1, 17], as row-relative
    # indices into 3 pad bytes, the 17 digits (3-19), ".-0" (20-22) and NUL (23).
    s, x, j = np.ix_(range(2), range(-4, 16), range(25))
    p = j - s  # the position after the sign
    full = np.where(x >= 0, np.where(p <= x, 3 + p, np.where(p == x + 1, 20, 2 + p)),
                    np.where(p == 1, 20, np.where(p < 1 - x, 22, 2 + p + x)))
    full = np.where((s == 1) & (j == 0), 21, full)
    n = np.arange(1, 18)
    length = np.where(x >= 0, np.maximum(x + 1, n) + (n > x + 1), 1 - x + n) + s
    tpl = np.where(j[..., None, :] < length[..., None], full[:, :, None, :], 23)
    return tens, pow10, chunks, tpl.reshape(680, 25), length.reshape(680)


def _halves(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of float64 ``x`` into hi + lo, each of at most 26 bits."""
    hi = x * 134217729.0  # 2^27 + 1
    hi -= hi - x
    return hi, x - hi


def _fast_cells(keys: np.ndarray) -> np.ndarray:
    """``f"{v:.17g}"`` of finite values with 1e-4 <= |v| < 1e16, in numpy passes.

    With e the decimal exponent, the 17 digits are D = round-half-even(|v|*10^k), k = 16-e,
    computed exactly in float64 (IEEE round-to-nearest, no fused multiply-add): 10^k is
    exact, and Dekker's product gives |v|*10^k = hi + lo, where hi = fl(|v|*10^k) >= 10^16
    > 2^53 is an even integer and |lo| <= 8, so D = hi + rint(lo), ties to even.  D never
    rounds up to 10^17: in this range, the largest double below a power of ten lies at
    least 8 units of the 17th digit below it.  Each cell is a fixed-point string with
    trailing zeros dropped; its bytes are gathered through a template keyed by sign,
    exponent and last nonzero digit, into a uint8 matrix [values x width] padded with NUL.
    """
    tens, pow10, chunks, tpl, length = _fast_tables()
    n = len(keys)
    v = np.abs(keys.view(np.float64))
    e = np.searchsorted(tens, v, side="right") - 5
    a, a_hi, a_lo = np.take(pow10, 16 - e, axis=1)
    v_hi, v_lo = _halves(v)
    hi = v * a
    lo = ((v_hi * a_hi - hi) + v_hi * a_lo + v_lo * a_hi) + v_lo * a_lo  # hi + lo = v * a
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    # D as five chunks (1, 4, 4, 4 and 4 digits) and the ".-0" entry
    chunk = np.empty((n, 6), np.int64)
    for place in (4, 3, 2, 1):
        t = d // 10000
        chunk[:, place] = d - t * 10000
        d = t
    chunk[:, 0] = d
    chunk[:, 5] = 10000
    row = np.take(chunks, chunk).view(np.uint8)  # [values x 24], the digits at 3-19
    # the template is sign * 340 + (e + 4) * 17 + last - 1, where last, the place of
    # the last nonzero digit, is the length of the 17 digits without trailing zeros
    code = (keys < 0) * 340 + e * 17 + 67
    code += np.char.str_len(np.char.rstrip(row[:, 3:20].view("S17")[:, 0], b"0"))
    width = int(np.take(length, code).max(initial=0))
    index = np.take(tpl[:, :width], code, axis=0)
    index += np.arange(0, 24 * n, 24)[:, None]
    return np.take(row, index)


def write_json(path, obj) -> None:
    """Dump JSON with sorted keys so identical content gives identical bytes."""
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
