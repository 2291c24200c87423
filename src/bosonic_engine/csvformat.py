"""CSV text in '%.15g' format, one numpy pass per block of rows.

:func:`write_csv` writes the text of a row template with '%.15g' for
number columns and '%s' for string columns, byte for byte, but formats
all cells of a CSV_BLOCK_ROWS-row block at once:

* A "fixed" number, 1e-4 <= |x| < 1e15 after rounding to 15 digits, is
  printed from its correctly rounded 15-digit integer D = |x| 10^(14-e),
  e its decimal exponent.  10^(14-e) is exact, and Dekker's TwoProduct
  gives the exact error of the rounded product, so D is rounded
  correctly, ties to even, with no fallback.  Zero is fixed too.
* Every cell is seven 4-byte words: the separator that precedes the cell
  and '-0.', then '000', then the five 3-digit groups of D, each from a
  table that can place the decimal point inside the group.  A drop-mask
  that depends only on the sign, e and the number of significant digits
  sets every byte that is not part of the text to 0xFF, which UTF-8 text
  never contains, and one bytes.translate deletes them from the block.
* Python formats the other numbers (scientific notation, |x| >= 1e15,
  inf, NaN) with one '%-27.15g' template, padded to the cell; their texts
  and the strings fill their cells behind the separator.  Cells grow past
  seven words when a string needs it.
"""

from __future__ import annotations

import bisect
import functools
import math

import numpy as np

__all__ = ["CSV_BLOCK_ROWS", "write_csv"]

# Rows formatted per write.  Formatting a long CSV in one piece holds all
# of its text in memory at once and raises the peak memory of a run.
CSV_BLOCK_ROWS = 1024

# A number's decimal exponent e is indexed as ei = e + 5; '%.15g' prints
# e = -4..14 (ei = 1..19) in fixed notation.
_N_FIXED = 19
# _FIXED and _ZERO_GROUP are looked up rather than compared: the int64
# comparison loops would fault in more numpy code and raise peak memory.
_FIXED = np.array([1 <= ei <= _N_FIXED for ei in range(21)])     # fixed notation at ei
_POW10 = np.array([float(f"1e{e}") for e in range(-5, 16)])       # 10^e, correctly rounded
_SCALE = np.array([float(10 ** (19 - ei)) for ei in range(20)])   # 10^(14 - e), exact
_SPLIT = 134217729.0                                              # 2^27 + 1 (Veltkamp)
_SCALE_HI = _SCALE * _SPLIT - (_SCALE * _SPLIT - _SCALE)
_SCALE_LO = _SCALE - _SCALE_HI
# ei of the lower end of each binade that meets [1e-5, 1e15); biased exponents from 1006.
_BINADE_MIN = 1006
_BINADE_EI = np.array([bisect.bisect(_POW10.tolist(), math.ldexp(1.0, b - 1023)) - 1
                       for b in range(_BINADE_MIN, 1073)])

_WORDS = 7
_DROP = 0xFF
_SIGN_POINT, _ZEROS = np.frombuffer(b"\0-0.000\xff", np.uint32)
_SPACE_TO_DROP = bytes.maketrans(b" ", b"\xff")


@functools.cache
def _group_words() -> np.ndarray:
    """Word 1000 dot + g: the digits of g = 0..999, a point after digit dot (none for 0)."""
    words = [b"%03d\xff" % g for g in range(1000)]
    words += [b"%d.%02d" % divmod(g, 100) for g in range(1000)]
    words += [b"%02d.%d" % divmod(g, 10) for g in range(1000)]
    words += [b"%03d." % g for g in range(1000)]
    return np.frombuffer(b"".join(words), np.uint32)


# Per ei and digit group: the table offset that puts the point of
# e = 0..14 after the right digit of its group; no point for e < 0.
_DOT_OFFSET = np.array([[1000 * ((ei - 5) % 3 + 1) if 5 <= ei <= 19 and (ei - 5) // 3 == k
                         else 0 for ei in range(21)] for k in range(5)])
# Trailing zeros of a 3-digit group; 3 for 0.
_TRAILING_ZEROS = np.array([3 if g == 0 else 2 if g % 100 == 0 else 1 if g % 10 == 0 else 0
                            for g in range(1000)])
_ZERO_GROUP = np.arange(1000) == 0
# Drop-mask rows: 15 (ei - 1) + 14 - (trailing zeros of D), plus 285 if
# negative, then +0 and -0.  An ei outside 1..19 maps to a valid row; such
# a cell is formatted by Python.
_NEGATIVE = 15 * _N_FIXED
_ROW_BASE = np.array([15 * min(max(ei - 1, 0), _N_FIXED - 1) + 14 for ei in range(21)])
_ZERO_ROW = 2 * _NEGATIVE


@functools.cache
def _drop_masks(words: int) -> np.ndarray:
    """Drop-mask rows of a cell of ``words`` words: 0xFF where a byte is dropped."""
    rows = bytearray()
    for e in range(-4, 15):
        for nsig in range(1, 16):
            keep = [0]                                  # the separator
            point = 0 <= e < nsig - 1                   # digits follow the point
            if e < 0:                                   # '0.' and -e - 1 zeros
                keep += range(2, 3 - e)
            for i in range(max(e, nsig - 1) + 1):
                keep.append(8 + 4 * (i // 3) + i % 3 + (point and i // 3 == e // 3 and i > e))
            if point:
                keep.append(8 + 4 * (e // 3) + e % 3 + 1)
            row = bytearray(b"\xff" * (4 * words))
            for byte in keep:
                row[byte] = 0
            rows += row
    rows += b"\0\xff\0" + b"\xff" * (4 * words - 3)     # 0
    masks = np.frombuffer(bytes(rows), np.uint8).reshape(-1, 4 * words)
    negative = masks.copy()
    negative[:, 1] = 0                                  # the sign
    return np.concatenate([masks[:-1], negative[:-1], masks[-1:], negative[-1:]]).view(np.uint32)


def _text_bytes(col: np.ndarray) -> np.ndarray:
    """The UTF-8 bytes of a string column, as a fixed-width bytes array."""
    try:
        return col.astype("S")
    except UnicodeEncodeError:
        return np.array([text.encode() for text in col.tolist()], "S")


def _place(cell_bytes: np.ndarray, where, texts: np.ndarray) -> None:
    """Put texts behind the separator of cell_bytes[where]; drop the bytes after them.

    A text ends at its last nonzero byte: numpy strips trailing NULs.
    """
    width = texts.dtype.itemsize
    text_bytes = texts.view(np.uint8).reshape(-1, width)
    length = ((text_bytes != 0) * np.arange(1, width + 1)).max(axis=1)
    field = np.full((len(text_bytes), cell_bytes.shape[1] - 1), _DROP, np.uint8)
    field[:, :width] = text_bytes
    field[np.arange(field.shape[1]) >= length[:, None]] = _DROP
    cell_bytes[where, 1:] = field


def _decimal_digits(x: np.ndarray):
    """The 15-digit integer D, the exponent index ei and the fixed-notation flag of x.

    D = round(a 10^(14 - e)), a = |x|, from y = a 10^(14 - e) = p + err
    exactly (TwoProduct): p rounds to q, and D is q + 1 where y - q > 1/2,
    q - 1 where y - q < -1/2, the even one of two on a tie.  Cells outside
    1e-5 <= |x| < 1e15 get the D and ei of 1; the flag is false for every
    cell that '%.15g' does not print in fixed notation.
    """
    a = np.abs(x)
    fast = a >= 1e-5
    fast &= a < 1e15
    np.copyto(a, 1.0, where=~fast)
    ei = _BINADE_EI[(a.view(np.int64) >> 52) - _BINADE_MIN]
    ei += a >= _POW10[ei + 1]

    p = a * _SCALE[ei]
    a_hi = a * _SPLIT
    a_hi -= a_hi - a
    a -= a_hi                                    # the low half
    scale = _SCALE_HI[ei]
    err = a_hi * scale
    err -= p
    scale *= a
    err += scale
    np.take(_SCALE_LO, ei, out=scale)
    a_hi *= scale
    err += a_hi
    scale *= a
    err += scale
    del a, a_hi, scale
    q = np.rint(p)
    above = np.subtract(p, q, out=p)             # exact
    below = above + 0.5
    above -= 0.5
    above += err                                 # the sign of y - q - 1/2
    below += err                                 # the sign of y - q + 1/2
    del err
    d = q.astype(np.int64)
    d += above > 0
    d -= below < 0
    ties = np.flatnonzero((above == 0) | (below == 0))
    if ties.size:
        odd = d[ties] & 1
        d[ties] += odd * (above[ties] == 0) - odd * (below[ties] == 0)
    carry = np.flatnonzero(q >= 10**15 - 1)      # the few cells where D can be 10^15
    carry = carry[d[carry] == 10**15]
    if carry.size:                               # rounded up to a power of ten
        d[carry] = 10**14
        ei[carry] += 1
    fast &= _FIXED[ei]
    return d, ei, fast


def _digit_groups(d: np.ndarray, ei: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Word-table indices of the five 3-digit groups of each D, and D's trailing zeros."""
    groups = np.empty((5, d.size), np.intp)
    zeros = np.zeros_like(d)
    trailing = np.ones(d.size, bool)             # every group so far is 000
    for k in range(4, -1, -1):
        high = d // 1000
        group = high * -1000
        group += d
        group_zeros = _TRAILING_ZEROS[group]
        zeros += trailing * group_zeros
        trailing &= _ZERO_GROUP[group]
        groups[k] = group
        groups[k] += _DOT_OFFSET[k][ei]
        d = high
    return groups, zeros


def _format_block(columns: list[np.ndarray]) -> bytes:
    """UTF-8 text of a block of rows, each row starting with '\\n'."""
    rows, ncols = len(columns[0]), len(columns)
    texts = [_text_bytes(col) if col.dtype.kind == "U" else None for col in columns]
    words = max([_WORDS] + [(t.dtype.itemsize + 4) // 4 for t in texts if t is not None])
    x = np.empty((rows, ncols))
    for j, (col, text) in enumerate(zip(columns, texts)):
        x[:, j] = 1.0 if text is not None else col
    x = x.ravel()

    d, ei, fast = _decimal_digits(x)
    groups, zeros = _digit_groups(d, ei)
    del d
    row = _ROW_BASE[ei]
    row -= zeros
    negative = np.signbit(x)
    row += negative * _NEGATIVE
    zero = np.flatnonzero(x == 0)
    row[zero] = _ZERO_ROW + negative[zero]
    fast[zero] = True

    # the drop mask of each cell, then its bytes: separator, '-0.', '000', digits
    cells = np.take(_drop_masks(words), row, axis=0)
    cells[:, 0] |= _SIGN_POINT
    cells[:, 1] |= _ZEROS
    for k, group in enumerate(groups):
        cells[:, 2 + k] |= _group_words()[group]
    del groups, row, negative
    cell_bytes = cells.view(np.uint8)
    cell_bytes[:, 0] = ord(",")
    cell_bytes[::ncols, 0] = ord("\n")

    slow = np.flatnonzero(~fast)
    if slow.size:  # '%-W.15g' pads the text of '%.15g' with spaces to the field width W
        width = cell_bytes.shape[1] - 1
        text = ("%%-%d.15g" % width * slow.size % tuple(x[slow].tolist())).encode()
        cell_bytes[slow, 1:] = np.frombuffer(text.translate(_SPACE_TO_DROP), np.uint8).reshape(
            -1, width)
    for j, text in enumerate(texts):
        if text is not None:
            _place(cell_bytes, slice(j, None, ncols), text)
    return cells.tobytes().translate(None, b"\xff")


def write_csv(fh, header: tuple[str, ...], columns: list[np.ndarray]) -> None:
    """Write a header and one '\\n'-terminated line per row to the text file fh.

    Numbers are written as '%.15g' (the text of format(x, '.15g')), strings
    as they are; CSV_BLOCK_ROWS rows are formatted at a time.
    """
    fh.write(",".join(header))
    rows = len(columns[0]) if columns else 0
    for start in range(0, rows, CSV_BLOCK_ROWS):
        fh.write(_format_block([col[start:start + CSV_BLOCK_ROWS] for col in columns]).decode())
    fh.write("\n")
