"""Number text in one numpy pass per block: CSV in '%.15g', JSON in repr.

:func:`write_csv` writes the text of a row template with '%.15g' for
number columns and '%s' for text columns, and :func:`json_items` the
text that json.dumps writes for the items of float arrays, whose numbers
are float.__repr__: the fewest digits that read back to the same double,
the closest such digits when there is a choice.  Both are byte for byte,
but format all cells of a block at once:

* A finite x with 1e-4 <= |x| < 1e15 and decimal exponent e is scaled by
  an exact power of ten to y = |x| 10^(P-1-e) in [10^(P-1), 10^P), and
  Dekker's TwoProduct gives the exact error y - p of the rounded product
  p = fl(y).  '%.15g' prints D15 = round(y), ties to even, in fixed
  notation.  For P = 15, p lies in [1e14, 1e15], so it is a multiple of
  ulp(p), which lies in [1/64, 1/8], and y lies within ulp(p)/2 of it:
  D15 = rint(p) unless p is half-way between two integers, at most one
  cell in eight.  There the sign of y - p rounds up or down, and y = p
  rounds to even; only those cells need the TwoProduct.
* repr prints the first D_P of D15, D16, D17 that reads back as x, which
  10^(17-P) D_P does exactly when it lies within h = ulp(x)/2 10^(16-e) of
  y; h is a power of two times an exact power of ten.  They follow from
  D17 = round(y) at P = 17 and its exact residual y - D17, with no
  fallback.  Python formats a cell within 2^-40 h of that bound and a
  power of two, whose read-back interval is lopsided.  Zero is '0' or
  '0.0'.
* Every cell is a row of 4-byte words: the separator that precedes the
  cell, '-0.' and '000' in two words (CSV ',-0.', '000' and a spare byte;
  JSON ', -0', '.000'), then the 3-digit groups of the digits, each from a
  table that can place the decimal point inside the group.  A drop-mask
  that depends only on the sign, e and the number of significant digits
  sets every byte that is not part of the text to 0xFF, which UTF-8 text
  never contains, and one bytes.translate deletes them from the block.
* Python formats the other numbers ('%.15g': one '%-27.15g' template;
  JSON: json.dumps of the one float, so NaN and Infinity match); their
  texts fill their cells behind the separator.
* JSON arrays repeat values in runs (a trace holds n or r constant along
  whole strokes), so json_items formats the first value of each run of
  equal bits, and of each array, and copies its cell along the run.
* A CSV text column is :class:`Labels`, a code per row into its names.
  Its cells are one take from a table of the separator, each name's UTF-8
  bytes and 0xFF padding, as wide as the longest name needs; only the
  number columns go through the digits.
"""

from __future__ import annotations

import bisect
import dataclasses
import functools
import json
import math

import numpy as np

# Rows formatted per write.  Formatting a long CSV in one piece holds all
# of its text in memory at once and raises the peak memory of a run.
CSV_BLOCK_ROWS = 1024

# A number's decimal exponent e is indexed as ei = e + 5; both formats
# print e = -4..14 (ei = 1..19) in fixed notation.
_N_FIXED = 19
# 10^(e+1) at ei, correctly rounded; none lies below the exact power, so
# |x| >= _POW10_NEXT[ei] exactly when |x| >= 10^(e+1).
_POW10_NEXT = np.array([float(f"1e{e}") for e in range(-4, 16)])
# 10^(21 - k), exact: 10^(P - 1 - e) = _SCALE[17 - P + ei] scales to P = 15
# or 17 digits.  Each splits into two 26-bit halves.
_SCALE = np.array([float(10 ** (21 - k)) for k in range(22)])
_SPLIT = 134217729.0                                              # 2^27 + 1 (Veltkamp)
_SCALE_HI = _SCALE * _SPLIT - (_SCALE * _SPLIT - _SCALE)
_SCALE_LO = _SCALE - _SCALE_HI
# ei of the lower end of each binade up to that of 1e15, by biased exponent;
# the binades below 1e-4 are never looked up.
_BINADE_EI = np.zeros(1073, np.intp)
_BINADE_EI[1009:] = [bisect.bisect(_POW10_NEXT.tolist(), math.ldexp(1.0, b - 1023))
                     for b in range(1009, 1073)]
_EXPONENT_BITS = 0x7FF << 52
_MANTISSA_BITS = (1 << 52) - 1
_NEAR = 2.0 ** -40       # relative margin of the read-back test

# 3-digit groups per cell: '%.15g' prints D15; repr prints up to 17
# digits and the 0 of '.0', and D17 is laid out as the 18 digits of 10 D17.
_CSV_GROUPS = 5
_JSON_GROUPS = 6
_CSV_WORDS = 2 + _CSV_GROUPS
_SPACE_TO_DROP = bytes.maketrans(b" ", b"\xff")


@functools.cache
def _group_words() -> np.ndarray:
    """Word 1000 dot + g: the digits of g = 0..999, a point after digit dot (none for 0)."""
    words = [b"%03d\xff" % g for g in range(1000)]
    words += [b"%d.%02d" % divmod(g, 100) for g in range(1000)]
    words += [b"%02d.%d" % divmod(g, 10) for g in range(1000)]
    words += [b"%03d." % g for g in range(1000)]
    return np.frombuffer(b"".join(words), np.uint32)


# Per digit group and ei: the table offset that puts the point of
# e = 0..14 after the right digit of its group; no point for e < 0.
_DOT_OFFSET = np.array([[1000 * ((ei - 5) % 3 + 1) if 5 <= ei <= 19 and (ei - 5) // 3 == k
                         else 0 for ei in range(21)] for k in range(_JSON_GROUPS)], np.int64)
# The trailing zero digits of D, counted group by group from the lowest:
# the state is the count so far, plus _TRAILING while every group so far is
# 000, and the next state is _ZERO_STATE[64 group + state].  int8 keeps
# the table, and the arrays built for it, small.
_TRAILING = 32
_ZERO_STATE = np.empty((1000, 2, _TRAILING), np.int8)
_ZERO_STATE[:, 0] = np.arange(_TRAILING)                 # the count is final
_ZERO_STATE[:, 1] = np.arange(_TRAILING, dtype=np.int8)  # ends with the group's zeros
_ZERO_STATE[::10, 1] += 1
_ZERO_STATE[::100, 1] += 1
_ZERO_STATE[0, 1] = np.arange(_TRAILING + 3, 2 * _TRAILING + 3)   # 000: still trailing
_ZERO_STATE = _ZERO_STATE.ravel()


@functools.cache
def _row_base(groups: int) -> np.ndarray:
    """Drop-mask row of each ei for a cell with no trailing zero digit.

    The masks of a layout of G groups come in rows 3G (ei - 1) + 3G - 1 -
    (trailing zeros of the digits), plus 57 G if negative, then +0 and -0.
    An ei outside 1..19 maps to a valid row; such a cell is formatted by
    Python.
    """
    slots = 3 * groups
    return np.array([slots * min(max(ei - 1, 0), _N_FIXED - 1) + slots - 1 for ei in range(21)])


@functools.cache
def _drop_masks(groups: int) -> np.ndarray:
    """Drop-mask rows of a cell of 2 + groups words: 0xFF where a byte is dropped.

    The separator (',' in CSV, ', ' in JSON) and the bytes of '-0.' and
    '000' are set where kept.
    """
    json_style = groups == _JSON_GROUPS             # repr: a digit always follows the point
    sep = 2 if json_style else 1                    # the separator's width
    words = 2 + groups
    rows = bytearray()
    for e in range(-4, 15):
        for nsig in range(1, 3 * groups + 1):
            last = max(e, nsig - 1, e + 1 if json_style else 0)  # the last digit printed
            point = 0 <= e < last                   # digits follow the point
            keep = list(range(sep))                 # the separator
            if e < 0:                               # '0.' and -e - 1 zeros
                keep += range(sep + 1, sep + 2 - e)
            for i in range(last + 1):
                keep.append(8 + 4 * (i // 3) + i % 3 + (point and i // 3 == e // 3 and i > e))
            if point:
                keep.append(8 + 4 * (e // 3) + e % 3 + 1)
            row = bytearray(b"\xff" * (4 * words))
            for byte in keep:
                row[byte] = 0
            rows += row
    zero = b"\0" * sep + (b"\xff\0\0\0" if json_style else b"\xff\0")   # '0.0' or '0'
    rows += zero + b"\xff" * (4 * words - len(zero))
    masks = np.frombuffer(bytes(rows), np.uint8).reshape(-1, 4 * words)
    negative = masks.copy()
    negative[:, sep] = 0                                # the sign
    masks = np.concatenate([masks[:-1], negative[:-1], masks[-1:], negative[-1:]]).view(np.uint32)
    masks[:, :2] |= np.frombuffer(b", -0.000" if json_style else b",-0.000\xff", np.uint32)
    return masks


@dataclasses.dataclass(frozen=True, eq=False)
class Labels:
    """A text column as codes: the text of row i is names[codes[i]]."""

    codes: np.ndarray
    names: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, rows: slice) -> Labels:
        return Labels(self.codes[rows], self.names)


@functools.lru_cache(maxsize=32)
def _label_cells(names: tuple[str, ...]) -> np.ndarray:
    """The cell of each name, as wide as the longest needs: the separator,
    the UTF-8 bytes of the name, then 0xFF."""
    texts = [b"," + name.encode() for name in names]
    width = max([(len(text) + 3) // 4 for text in texts], default=1)
    cells = b"".join(text.ljust(4 * width, b"\xff") for text in texts)
    return np.frombuffer(cells, np.uint32).reshape(len(names), width)


def _fill(cell_bytes: np.ndarray, where: np.ndarray, sep: int, padded: str) -> None:
    """Put texts, space-padded to one cell each, behind the sep bytes of cell_bytes[where]."""
    text = padded.encode().translate(_SPACE_TO_DROP)
    cell_bytes[where, sep:] = np.frombuffer(text, np.uint8).reshape(-1, cell_bytes.shape[1] - sep)


def _scaled(x: np.ndarray, digits: int):
    """|x|, p = fl(y) for y = |x| 10^(digits - 1 - e), the exponent index ei, and
    where 1e-4 <= |x| < 1e15; other cells get |x| = 1."""
    a = np.abs(x)
    fast = a >= 1e-4
    fast &= a < 1e15
    np.copyto(a, 1.0, where=~fast)
    ei = _BINADE_EI.take(a.view(np.int64) >> 52)
    ei += a >= _POW10_NEXT.take(ei)
    return a, a * _SCALE[17 - digits:].take(ei), ei, fast


def _product_error(a: np.ndarray, p: np.ndarray, ei: np.ndarray, digits: int) -> np.ndarray:
    """The exact error y - p of the p of :func:`_scaled`.

    Dekker's TwoProduct: a is split into two 26-bit halves like the scale,
    so every partial product is exact.  Overwrites a.
    """
    a_hi = a * _SPLIT
    a_hi -= a_hi - a
    a -= a_hi                                    # the low half
    scale = _SCALE_HI[17 - digits:].take(ei)
    err = a_hi * scale
    err -= p
    scale *= a
    err += scale
    _SCALE_LO[17 - digits:].take(ei, out=scale)
    a_hi *= scale
    err += a_hi
    scale *= a
    err += scale
    return err


def _decimal_digits(x: np.ndarray):
    """D17, the residual y - D17, the exponent index ei and where 1e-4 <= |x| < 1e15.

    y = |x| 10^(16 - e) = p + err exactly (TwoProduct).  p lies in
    [1e16, 1e17], so it is an even integer: D17 = p + rint(err), ties to
    even, and y - D17 = err - rint(err), exact by Sterbenz's lemma.  Other
    cells get the D17 and ei of 1.
    """
    a, p, ei, fast = _scaled(x, 17)
    err = _product_error(a, p, ei, 17)
    d = p.astype(np.int64)
    np.rint(err, out=p)
    d += p.astype(np.int64)
    err -= p                                     # y - D17
    return d, err, ei, fast


def _csv_digits(x: np.ndarray):
    """D15 = round(y), ties to even, for y = |x| 10^(14 - e), ei, and where '%.15g'
    prints 1e-4 <= |x| < 1e15 in fixed notation.

    p = fl(y) decides D15 unless it is half-way, where the sign of the
    TwoProduct error y - p does (see the module docstring).  A D15 of 10^15
    is 10^14 at the next exponent.  Other cells get the D15 and ei of 1.
    """
    a, p, ei, fast = _scaled(x, 15)
    d = np.rint(p)
    off = p - d
    half = np.flatnonzero(np.abs(off, out=off) == 0.5)
    del off
    if half.size:                                # the sign of y - p decides
        p = p[half]
        err = _product_error(a[half], p, ei[half], 15)
        rounded = d[half]                        # to even where y = p
        np.copyto(rounded, p + 0.5, where=err > 0)
        np.copyto(rounded, p - 0.5, where=err < 0)
        d[half] = rounded
    del a, p
    carry = np.flatnonzero(d == 1e15)
    if carry.size:                               # rounded up to a power of ten
        d[carry] = 1e14
        ei[carry] += 1
        fast[carry] &= ei[carry] <= _N_FIXED     # 1e+15
    return d.astype(np.int64), ei, fast


def _round_off(d17: np.ndarray, residual: np.ndarray, unit: int):
    """D = round(y / unit), ties to even, for y = d17 + residual, and s = y - unit (D' + 1/2).

    D' = d17 // unit; D = D' + 1 where s > 0.  |y - unit D| = |unit/2 - |s||.
    """
    d = d17 // unit
    s = d * -unit
    s += d17 - unit // 2
    s = s + residual                             # exact sign: |residual| <= 1/2
    up = s > 0
    ties = np.flatnonzero(s == 0)
    if ties.size:
        up[ties] = d[ties] & 1
    d += up
    return d, s


def _digit_groups(d: np.ndarray, ei: np.ndarray, groups: int):
    """The words of the 3-digit groups of each D, point included, and D's trailing zeros."""
    words = np.empty((groups, d.size), np.uint32)
    state = np.full(d.size, _TRAILING, np.int8)
    for k in range(groups - 1, -1, -1):
        high = d // 1000
        group = high * -1000
        group += d
        index = group * 64
        index += state
        # every index is in range; 'raise' would copy through a buffer
        _ZERO_STATE.take(index, out=state, mode="clip")
        _DOT_OFFSET[k].take(ei, out=index, mode="clip")
        group += index
        _group_words().take(group, out=words[k], mode="clip")
        d = high
    state &= _TRAILING - 1                       # 3 per group for D = 0
    return words, state


def _number_cells(x: np.ndarray, d: np.ndarray, ei: np.ndarray, fast: np.ndarray,
                  groups: int) -> np.ndarray:
    """Cells of the numbers x whose digits d have the given groups; zeros join fast."""
    group_words, zeros = _digit_groups(d, ei, groups)
    row = _row_base(groups).take(ei)
    row -= zeros
    negative = np.signbit(x)
    row += negative * (3 * groups * _N_FIXED)
    zero = np.flatnonzero(x == 0)
    row[zero] = 6 * groups * _N_FIXED + negative[zero]
    fast[zero] = True
    del zeros, negative

    # the drop mask of each cell with its separator, '-0.' and '000', then its digits
    cells = _drop_masks(groups).take(row, axis=0)
    del row
    for k, group_words_k in enumerate(group_words):
        cells[:, 2 + k] |= group_words_k
    return cells


def _format_block(columns: list[np.ndarray | Labels]) -> bytes:
    """UTF-8 text of a block of rows, each row starting with '\\n'."""
    rows = len(columns[0])
    numbers = [col for col in columns if not isinstance(col, Labels)]
    x = np.empty((rows, len(numbers)))
    for k, col in enumerate(numbers):
        x[:, k] = col
    x = x.ravel()

    d, ei, fast = _csv_digits(x)
    cells = _number_cells(x, d, ei, fast, _CSV_GROUPS)
    del d, ei
    slow = np.flatnonzero(~fast)
    if slow.size:  # '%-27.15g' pads the text of '%.15g' with spaces to the 27 bytes of a cell
        _fill(cells.view(np.uint8), slow, 1, "%-27.15g" * slow.size % tuple(x[slow].tolist()))
    del x
    if len(numbers) < len(columns):              # the cells of each column in turn
        number_cells = iter(cells.reshape(rows, -1, _CSV_WORDS).swapaxes(0, 1))
        cells = np.hstack([_label_cells(col.names).take(col.codes, axis=0)
                           if isinstance(col, Labels) else next(number_cells) for col in columns])
    cells.view(np.uint8).reshape(rows, -1)[:, 0] = ord("\n")
    raw = cells.tobytes()
    del cells                                    # not held beside the text
    return raw.translate(None, b"\xff")


def write_csv(fh, header: tuple[str, ...], columns: list[np.ndarray | Labels]) -> None:
    """Write a header and one '\\n'-terminated line per row to the binary file fh.

    Numbers are written as '%.15g' (the text of format(x, '.15g')), the
    names of a :class:`Labels` column as their UTF-8 bytes; CSV_BLOCK_ROWS
    rows are formatted at a time.
    """
    fh.write(",".join(header).encode())
    rows = len(columns[0]) if columns else 0
    for start in range(0, rows, CSV_BLOCK_ROWS):
        fh.write(_format_block([col[start:start + CSV_BLOCK_ROWS] for col in columns]))
    fh.write(b"\n")


def _shortest_digits(x: np.ndarray):
    """repr's digits of each x as an 18-digit integer, the exponent index and where they hold."""
    d17, residual, ei, fast = _decimal_digits(x)
    bits = x.view(np.int64)
    fast &= (bits & _MANTISSA_BITS) != 0         # not a power of two
    h = np.where(fast, bits & _EXPONENT_BITS, 1023 << 52) - (53 << 52)
    h = h.view(np.float64)                       # ulp(x)/2, and 2^-53 where x is not fast
    h *= _SCALE[ei]
    d = d17 * 10
    for unit in (10, 100):                       # D16, then D15
        digits, off = _round_off(d17, residual, unit)
        np.abs(off, out=off)
        off -= unit // 2
        np.abs(off, out=off)                     # |y - unit D_P|
        off -= h
        fast &= np.abs(off) > h * _NEAR
        digits *= 10 * unit
        np.copyto(d, digits, where=off < 0)      # D_P reads back as x
    # d < 10^18: x lies at least h below 10^(e+1), so y < 1e17 - 1/2, and a
    # D15 or D16 rounded up to a power of ten fails the read-back test.
    return d, ei, fast


def json_items(arrays: list[np.ndarray]) -> list[str]:
    """The items of each array as JSON numbers, joined by ', '.

    Each text is the one json.dumps writes between the brackets of
    list(array): float.__repr__ of each value as a float64, or NaN,
    Infinity or -Infinity.  Each run of equal bits is formatted once.
    """
    if not arrays:
        return []
    sizes = [len(a) for a in arrays]
    x = np.concatenate(arrays, dtype=np.float64)
    ends = np.cumsum(sizes)
    starts = (ends - sizes)[np.array(sizes) > 0]   # each array's first item
    bits = x.view(np.int64)           # bits, not ==: 0.0 and -0.0 differ, NaN != NaN
    new = np.ones(x.size, bool)       # where a run of equal values starts
    np.not_equal(bits[1:], bits[:-1], out=new[1:])
    new[starts] = True
    heads = x[new]
    d, ei, fast = _shortest_digits(heads)
    cells = _number_cells(heads, d, ei, fast, _JSON_GROUPS)
    del d, ei
    slow = np.flatnonzero(~fast)
    if slow.size:
        width = 4 * cells.shape[1] - 2
        _fill(cells.view(np.uint8), slow, 2,
              "".join(json.dumps(v).ljust(width) for v in heads[slow].tolist()))
    if heads.size < x.size:
        cells = cells.take(np.cumsum(new) - 1, axis=0)
    cells.view(np.uint8)[starts, :2] = 0xFF     # no ', ' before an array's first item
    return [cells[end - size:end].tobytes().translate(None, b"\xff").decode()
            for size, end in zip(sizes, ends.tolist())]
