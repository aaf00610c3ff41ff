"""File formats: node/edge tables, degree files, and run manifests.

The node table TSV: id, weight, then the direction coordinates, all floats at 17
significant digits so a round trip is bit-exact for 64-bit values.  Edge
list TSV: two node ids per line; undirected pairs are written once with the
smaller id first, directed arcs as (source, target).

The table writers format `_CHUNK_ROWS` rows at a time with a single
`%`-format over Python values (`'%.17g' % x` is the same string as
`format(x, '.17g')`), so their bytes equal a row-by-row write while the
transient strings stay bounded.  An edge file in exactly the form
`write_edges_tsv` emits is parsed in one pass; every other input is parsed
line by line, which reports a malformed line as `path:line`.  Bytes that are
not UTF-8 are reported as `path`.
"""

from __future__ import annotations

import hashlib
import json
import re
from contextlib import contextmanager

import numpy as np

from .errors import SeriesFormatError

_FLOAT_FMT = ".17g"
# Rows formatted per write: bounds the transient value tuple and string.
_CHUNK_ROWS = 1 << 16
_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1
# Lines as `write_edges_tsv` emits them for non-negative ids: no sign, no
# leading zero, at most 18 digits (so inside int64), one tab, and "\n".
_ID = "(?:0|[1-9][0-9]{0,17})"
_CANONICAL_EDGES = re.compile(rf"(?:{_ID}\t{_ID}\n)+")
# Characters per fullmatch call: the regex engine keeps a backtracking record
# per repeated line, about 60 MB for one call over 216k lines.
_MATCH_CHARS = 1 << 16


@contextmanager
def _read_text(path, newline=None):
    """The UTF-8 file at `path`, open for reading; other bytes raise SeriesFormatError."""
    try:
        with open(path, "r", encoding="utf-8", newline=newline) as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise SeriesFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None


def write_nodes_tsv(path, weights: np.ndarray, directions: np.ndarray) -> None:
    n, d = len(weights), directions.shape[1]
    cols = d + 2
    row = "%d\t%.17g" + "\t%.17g" * d + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for start in range(0, n, _CHUNK_ROWS):
            stop = min(start + _CHUNK_ROWS, n)
            values = [None] * ((stop - start) * cols)
            values[0::cols] = range(start, stop)
            values[1::cols] = weights[start:stop].tolist()
            for c in range(d):
                values[2 + c :: cols] = directions[start:stop, c].tolist()
            fh.write(row * (stop - start) % tuple(values))


def write_edges_tsv(path, edges: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for start in range(0, len(edges), _CHUNK_ROWS):
            chunk = edges[start : start + _CHUNK_ROWS]
            fh.write("%d\t%d\n" * len(chunk) % tuple(chunk.ravel().tolist()))


def _is_canonical(text: str) -> bool:
    """Whether `text` is one or more lines as `write_edges_tsv` emits them."""
    lo = 0
    while lo < len(text):
        hi = text.find("\n", lo + _MATCH_CHARS) + 1 or len(text)
        if not _CANONICAL_EDGES.fullmatch(text, lo, hi):
            return False
        lo = hi
    return lo > 0


def read_edges_tsv(path) -> np.ndarray:
    with _read_text(path, newline="") as fh:
        text = fh.read()
    if _is_canonical(text):
        # text mode splits at any whitespace and makes no copy of the text
        return np.fromstring(text, dtype=np.int64, sep=" ").reshape(-1, 2)
    del text  # any other file is read again, one line at a time
    rows = []
    with _read_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise SeriesFormatError(f"{path}:{lineno}: expected two node ids")
            try:
                i, j = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise SeriesFormatError(f"{path}:{lineno}: {exc}") from None
            if not (_INT64_MIN <= i <= _INT64_MAX and _INT64_MIN <= j <= _INT64_MAX):
                node = j if _INT64_MIN <= i <= _INT64_MAX else i
                raise SeriesFormatError(f"{path}:{lineno}: node id {node} outside the int64 range")
            rows.append((i, j))
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
            try:
                value = int(line)
            except ValueError as exc:
                raise SeriesFormatError(f"{path}:{lineno}: {exc}") from None
            if not (_INT64_MIN <= value <= _INT64_MAX):
                raise SeriesFormatError(f"{path}:{lineno}: degree {value} outside the int64 range")
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
