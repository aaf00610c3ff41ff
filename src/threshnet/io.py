"""File formats: node/edge tables, degree files, and run manifests.

The node table TSV: id, weight, then the direction coordinates, all floats at 17
significant digits so a round trip is bit-exact for 64-bit values.  Edge
list TSV: two node ids per line; undirected pairs are written once with the
smaller id first, directed arcs as (source, target).

Both tables are written by one row writer, `_CHUNK_ROWS` rows at a time, few
enough that a chunk's arrays stay in cache.  Each field is padded with NUL
bytes to a fixed width in a byte matrix of the chunk's lines, and deleting
the NULs leaves the text.  An integer field is `'%d'`: its digits come from a
10000-entry table of 4-digit ASCII words, and its leading zeros are turned to
NUL.  A chunk that holds a negative integer is formatted by Python's `'%d'`.
A float field is `'%.17g'`, which writes |x| in [1e-4, 1e17) in fixed
notation: with k = floor(log10 |x|), its digits are those of the 17-digit
integer D = round-half-even(|x| 10^(16-k)); the '.' follows digit k + 1 (or
"0." and -k - 1 zeros precede D when k < 0), and trailing zeros after the '.'
are dropped.  These are computed exactly in doubles:
- 10^q is an exact double for q <= 22, and Dekker's two-product (numpy never
  fuses a multiply-add) gives |x| 10^q = p + err exactly;
- k, first taken from `log10`, is corrected by testing p + err against 10^16
  and 10^17;
- p >= 10^16 is an even integer, so D = p + rint(err) rounds ties to even;
- no double below a power of ten rounds up to it at 17 digits, so D never
  carries to 10^17.
The same word table gives D's digits, and a second one their trailing zeros.
Every other float (zeros, subnormals, |x| < 1e-4 or >= 1e17, inf, nan) is
formatted by Python's `'%.17g'`, in one `%` per column and chunk.

An edge file that holds exactly the bytes `write_edges_tsv` writes for the
ids it holds is parsed in one pass; every other input is parsed line by
line, which reports a malformed line as `path:line`.  Bytes that are not
UTF-8 are reported as `path`.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from contextlib import contextmanager

import numpy as np

from .errors import SeriesFormatError

_FLOAT_FMT = ".17g"
# Rows formatted per write: bounds the transient byte matrices and strings.
_CHUNK_ROWS = 1 << 12
# Bytes of a float field: the longest '%.17g' is -2.2250738585072014e-308.
_FIELD = 24
_Q = np.arange(10000)
# '%04d' of 0..9999 as the ASCII bytes of a little-endian word, and its trailing zeros.
_DIGITS4 = (
    (np.stack([_Q // 1000, _Q // 100 % 10, _Q // 10 % 10, _Q % 10], axis=1) + ord("0"))
    .astype(np.uint8).view("<u4").ravel().astype(np.uint64)
)
_ZEROS4 = np.select([_Q % 10 != 0, _Q % 100 != 0, _Q % 1000 != 0, _Q != 0], [0, 1, 2, 3], 4)
# Exact doubles 10^q, q = 0..20.
_POW10 = np.array([float(10**q) for q in range(21)])
_SPLIT = 134217729.0  # 2^27 + 1
_SPACE_TO_NUL = bytes.maketrans(b" ", b"\0")
_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1


@contextmanager
def _read_text(path, newline=None):
    """The UTF-8 file at `path`, open for reading; other bytes raise SeriesFormatError."""
    try:
        with open(path, "r", encoding="utf-8", newline=newline) as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise SeriesFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _int64_fields(fields, names, where: str) -> list[int]:
    """The fields as ints; SeriesFormatError at `where` if one is not an integer, else if one is outside int64."""
    try:
        values = [int(field) for field in fields]
    except ValueError as exc:
        raise SeriesFormatError(f"{where}: {exc}") from None
    for name, value in zip(names, values):
        if not (_INT64_MIN <= value <= _INT64_MAX):
            raise SeriesFormatError(f"{where}: {name} {value} outside the int64 range")
    return values


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: a = hi + lo, each half with at most 26 significant bits."""
    t = a * _SPLIT
    hi = t - (t - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _times_pow10(mag: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """p, err with p = fl(mag 10^q) and p + err = mag 10^q exactly (Dekker's two-product)."""
    p = mag * _POW10[q]
    hi, lo = _split(mag)
    p_hi, p_lo = _POW10_HI[q], _POW10_LO[q]
    return p, ((hi * p_hi - p) + hi * p_lo + lo * p_hi) + lo * p_lo


def _groups(values: np.ndarray, count: int) -> list[np.ndarray]:
    """The `count` 4-digit groups of int64 `values` in [0, 10^(4 count)), most significant first."""
    groups = []
    for _ in range(count - 1):
        quotient = values // 10000
        groups.append(values - quotient * 10000)
        values = quotient
    return [values, *groups[::-1]]


def _layout() -> tuple[list, list, list]:
    """Where each byte of a fixed-notation field comes from, by (k, significant digits, sign).

    A field is built from Z = "00000" + the 17 digits of D (lead digit at byte
    5, units digit at byte 5 + k) and from Z shifted right by one byte.  It
    takes Z from its first character through the units digit, then '.' and the
    shifted Z up to the last significant digit, with '-' before a negative
    value; every other byte is NUL.  Returns the byte masks of Z and of the
    shifted Z and the '-' and '.' bytes, each as three tables of uint64 words.
    """
    k = np.arange(-4, 17)[:, None, None, None]
    digits = np.arange(1, 18)[None, :, None, None]
    negative = np.arange(2)[None, None, :, None] == 1
    b = np.arange(_FIELD)
    units, first = 5 + k, 5 + np.minimum(k, 0)
    fraction = digits > k + 1
    end = np.where(fraction, 6 + digits, 6 + k)
    from_z = (first <= b) & (b <= units)
    from_shifted = fraction & (units + 2 <= b) & (b < end)
    marks = np.where(negative & (b == first - 1), ord("-"), 0) + np.where(fraction & (b == units + 1), ord("."), 0)

    def words(a):
        a = np.broadcast_to(a, (21, 17, 2, _FIELD)).astype(np.uint8).reshape(-1, _FIELD).view("<u8")
        return [a[:, j].copy() for j in range(3)]

    return words(from_z * 255), words(from_shifted * 255), words(marks)


_FROM_Z, _FROM_SHIFTED, _MARKS = _layout()
# Shifts by 1, 2, 6 and 7 bytes, as uint64 so that the words keep their dtype.
_B1, _B2, _B6, _B7 = (np.uint64(8 * b) for b in (1, 2, 6, 7))


def _fixed_fields(x: np.ndarray) -> np.ndarray:
    """'%.17g' of each x with 1e-4 <= |x| < 1e17, as NUL-padded (n, _FIELD) bytes."""
    mag = np.abs(x)
    k = np.clip(np.floor(np.log10(mag)), -4, 16).astype(np.intp)
    p, err = _times_pow10(mag, 16 - k)
    # log10 may round across a power of ten: move k until 10^16 <= mag 10^(16-k) < 10^17
    low = (p < 1e16) | ((p == 1e16) & (err < 0))
    high = (p > 1e17) | ((p == 1e17) & (err >= 0))
    if low.any() or high.any():
        k += high
        k -= low
        p, err = _times_pow10(mag, 16 - k)
    # p >= 10^16 is an even integer, so an err of exactly +-0.5 keeps p: ties go to even
    g = _groups(p.astype(np.int64) + np.rint(err).astype(np.int64), 5)  # g[0] is the lead digit
    zeros = _ZEROS4[g[4]]  # trailing zeros of D
    for j in (3, 2, 1):
        rows = np.flatnonzero(zeros == 4 * (4 - j))  # the groups after g[j] are all zero
        if not len(rows):
            break
        zeros[rows] += _ZEROS4[g[j][rows]]
    form = ((k + 4) * 17 + 16 - zeros) * 2 + (x < 0)  # the row of the _layout tables
    # Z = "00" + "000" and the lead digit (t[0]) + the other 16 digits, as three words
    t = [_DIGITS4[group] for group in g]
    z = [
        np.uint64(0x3030) | t[0] << _B2 | t[1] << _B6,
        t[1] >> _B2 | t[2] << _B2 | t[3] << _B6,
        t[3] >> _B2 | t[4] << _B2,
    ]
    field = np.empty((len(x), 3), "<u8")
    for j in range(3):
        shifted = z[j] << _B1
        if j:
            shifted |= z[j - 1] >> _B7
        field[:, j] = (z[j] & _FROM_Z[j][form]) | (shifted & _FROM_SHIFTED[j][form]) | _MARKS[j][form]
    return field.view(np.uint8)


def _float_fields(x: np.ndarray) -> np.ndarray:
    """'%.17g' of each x, as NUL-padded (n, _FIELD) bytes."""
    x = np.asarray(x, dtype=np.float64)
    mag = np.abs(x)
    fixed = (mag >= 1e-4) & (mag < 1e17)
    if fixed.all():
        return _fixed_fields(x)
    other = np.flatnonzero(~fixed)
    # each value left-aligned in _FIELD characters, its padding turned to NUL
    text = (f"%-{_FIELD}.17g" * len(other) % tuple(x[other].tolist())).encode().translate(_SPACE_TO_NUL)
    formatted = np.frombuffer(text, np.uint8).reshape(len(other), _FIELD)
    if len(other) == len(x):
        return formatted
    field = np.empty((len(x), _FIELD), np.uint8)
    field[other] = formatted
    rows = np.flatnonzero(fixed)
    field[rows] = _fixed_fields(x[rows])
    return field


def _int_fields(values: np.ndarray) -> np.ndarray:
    """'%d' of each int64 value, as a NUL-padded byte matrix."""
    values = np.asarray(values, dtype=np.int64)
    if values.min() < 0:
        # each value left-aligned in 20 characters (as many as int64's minimum), its padding turned to NUL
        text = ("%-20d" * len(values) % tuple(values.tolist())).encode().translate(_SPACE_TO_NUL)
        return np.frombuffer(text, np.uint8).reshape(len(values), 20)
    width = len(str(values.max()))
    groups = -(-width // 4)
    digits = np.stack([_DIGITS4[g] for g in _groups(values, groups)], axis=1).astype("<u4")
    field = digits.view(np.uint8)[:, 4 * groups - width :]
    for j in range(1, width):  # the leading zeros of the values below 10^j
        field[values < 10**j, width - 1 - j] = 0
    return field


def _lines(columns: list):
    """Chunks of `_CHUNK_ROWS` lines of the columns' fields, tab-separated: '%d' for an integer column, '%.17g' for a float one."""
    for start in range(0, len(columns[0]), _CHUNK_ROWS):
        chunk = [x[start : start + _CHUNK_ROWS] for x in columns]
        fields = [(_int_fields if x.dtype.kind in "iu" else _float_fields)(x) for x in chunk]
        tab = np.full((len(chunk[0]), 1), ord("\t"), np.uint8)
        text = np.concatenate([part for f in fields for part in (f, tab)], axis=1)
        text[:, -1] = ord("\n")  # the last tab
        yield text.tobytes().translate(None, b"\0")


def _write_rows(path, columns: list) -> None:
    with open(path, "wb") as fh:
        fh.writelines(_lines(columns))


def write_nodes_tsv(path, weights: np.ndarray, directions: np.ndarray) -> None:
    _write_rows(path, [np.arange(len(weights)), weights, *directions.T])


def write_edges_tsv(path, edges: np.ndarray) -> None:
    _write_rows(path, [edges[:, 0], edges[:, 1]])


def read_edges_tsv(path) -> np.ndarray:
    """The (E, 2) int64 ids; in one pass if the file holds the bytes `write_edges_tsv` writes for the ids they hold."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)  # older numpy warns at a partial parse, newer raises
            # text mode splits at any whitespace and makes no copy of the data
            edges = np.fromstring(data, dtype=np.int64, sep=" ").reshape(-1, 2)
    except (DeprecationWarning, ValueError):  # also an odd count of ids
        edges = np.empty((0, 2), np.int64)
    at = 0
    for chunk in _lines([edges[:, 0], edges[:, 1]]):  # what the writer makes of these ids, chunk by chunk
        if not data.startswith(chunk, at):
            break
        at += len(chunk)
    else:
        if len(edges) and at == len(data):
            return edges
    del data, edges  # any other file is read again, one line at a time
    rows = []
    with _read_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise SeriesFormatError(f"{path}:{lineno}: expected two node ids")
            rows.append(_int64_fields(parts, ("node id", "node id"), f"{path}:{lineno}"))
    if not rows:
        raise SeriesFormatError(f"{path}: empty edge list")
    return np.array(rows, dtype=np.int64)


def read_degree_file(path) -> np.ndarray:
    values = []
    with _read_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            [value] = _int64_fields([line], ["degree"], f"{path}:{lineno}")
            if value < 0:
                raise SeriesFormatError(f"{path}:{lineno}: degree {value} is negative")
            values.append(value)
    if not values:
        raise SeriesFormatError(f"{path}: empty degree file")
    return np.array(values, dtype=np.int64)


def write_ccdf_csv(path, values: np.ndarray, fractions: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("k,ccdf\n")
        for k, frac in zip(values, fractions):
            fh.write(f"{int(k)},{format(frac, _FLOAT_FMT)}\n")


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def write_json(path, payload: dict) -> None:
    """UTF-8 JSON with stable key order."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
