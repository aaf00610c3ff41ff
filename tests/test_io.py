"""The chunked TSV writers and the edge reader against row-by-row oracles.

The oracles are the row-by-row writers and the line-by-line edge parser the
package had before its writers were chunked, its node writer built the
'%.17g' digits in numpy, and its reader got an int64 range check and a
one-pass parse of the files the writer writes; the new code must give the same bytes,
the same arrays and the same error messages, except that an id beyond int64
is now a format error.
"""

import math
import re
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from threshnet import io as tio
from threshnet.errors import SeriesFormatError

from oracles import read_json, read_nodes_tsv

INT64 = np.iinfo(np.int64)


def oracle_write_nodes(path, weights, directions):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for i in range(len(weights)):
            coords = "\t".join(format(c, ".17g") for c in directions[i])
            fh.write(f"{i}\t{format(weights[i], '.17g')}\t{coords}\n")


def oracle_write_edges(path, edges):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for i, j in edges:
            fh.write(f"{i}\t{j}\n")


def oracle_read_edges(path):
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise SeriesFormatError(f"{path}:{lineno}: expected two node ids")
            try:
                rows.append((int(parts[0]), int(parts[1])))
            except ValueError as exc:
                raise SeriesFormatError(f"{path}:{lineno}: {exc}") from None
    if not rows:
        raise SeriesFormatError(f"{path}: empty edge list")
    return np.array(rows, dtype=np.int64)


def outcome(read, path):
    try:
        return read(path)
    except SeriesFormatError as exc:
        return str(exc)
    except OverflowError:
        return OverflowError


def assert_same_outcome(got, want):
    if isinstance(want, str):
        assert isinstance(got, str) and got == want
    else:
        assert isinstance(got, np.ndarray)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)


SPECIAL_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 1e-300,
    0.1, 1.0 / 3.0, 1e16, 1e17 - 16.0, 1e17, 1e17 + 16.0, 123456789012345680.0, 1.7976931348623157e308,
    float("inf"), float("-inf"), float("nan"),
]
floats64 = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(width=64))
settings_tmp = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


@st.composite
def node_tables(draw, finite=False):
    n = draw(st.integers(min_value=0, max_value=40))
    d = draw(st.integers(min_value=1, max_value=5))
    elements = st.floats(width=64, allow_nan=False) if finite else floats64
    weights = draw(arrays(np.float64, n, elements=elements))
    directions = draw(arrays(np.float64, (n, d), elements=elements))
    return weights, directions


# the ids where '%d' gains a digit or a sign: 0, 9, 10, 10^k +- 1 and int64's ends
DIGIT_STEPS = sorted({0, 1, 9, 10, -1, INT64.min, INT64.max} | {10 ** k + s for k in range(1, 19) for s in (-1, 1)})
# non-negative ids as well, so that whole chunks are written from the digit words
int64s = st.one_of(st.sampled_from(DIGIT_STEPS), st.integers(0, INT64.max), st.integers(INT64.min, INT64.max))
edge_lists = st.integers(min_value=0, max_value=40).flatmap(
    lambda m: arrays(np.int64, (m, 2), elements=int64s)
)


@settings_tmp
@given(table=node_tables(), chunk=st.integers(min_value=1, max_value=7))
def test_write_nodes_matches_oracle(tmp_path, table, chunk):
    weights, directions = table
    with mock.patch.object(tio, "_CHUNK_ROWS", chunk):
        tio.write_nodes_tsv(tmp_path / "got.tsv", weights, directions)
    oracle_write_nodes(tmp_path / "want.tsv", weights, directions)
    assert (tmp_path / "got.tsv").read_bytes() == (tmp_path / "want.tsv").read_bytes()


def _near_power(m, steps):
    """The double `steps` doubles above 10^m (below it for negative steps)."""
    value = float(f"1e{m}")
    for _ in range(abs(steps)):
        value = math.nextafter(value, math.inf if steps > 0 else 0.0)
    return value


# '%.17g' is fixed notation for 1e-4 <= |x| < 1e17, where the writer builds the
# digits itself: values spread over that range by decimal exponent, ...
log_uniform = st.floats(min_value=-4.0, max_value=17.0, exclude_max=True).map(lambda e: 10.0 ** e)
# ... the doubles next to each power of ten, where log10 may round across it, ...
power_neighbours = st.builds(
    _near_power, st.integers(min_value=-5, max_value=18), st.integers(min_value=-3, max_value=3)
)


def _ties(k):
    """Doubles c 2^-j in [10^k, 10^(k+1)) with c odd and j = 17 - k.

    Their decimal expansion has exactly 18 significant digits, the last a 5, so
    at 17 digits each is a tie that rounds to the even neighbour.
    """
    j = 17 - k
    scaled = [Fraction(10) ** e * 2**j for e in (k, k + 1)]
    lo, hi = math.ceil(scaled[0]), min(math.floor(scaled[1]), 2**53)
    return st.integers(min_value=lo // 2, max_value=(hi - 1) // 2).map(lambda c: math.ldexp(2 * c + 1, -j))


# ... exact ties (k = 16 has none: there the doubles are even integers), ...
ties = st.integers(min_value=-4, max_value=15).flatmap(_ties)
fixed_floats = st.one_of(log_uniform, power_neighbours, ties)
field_floats = st.one_of(
    st.sampled_from(SPECIAL_FLOATS),
    st.builds(lambda value, negative: -value if negative else value, fixed_floats, st.booleans()),
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(values=st.lists(field_floats, min_size=1, max_size=60))
@example(values=[100000000000000.125, 100000000000000.375, -0.500003814697265625, 1.0000000000000002e-4])
@example(values=[999.99999999999989, 1000.0, 1000.0000000000001, 9.9999999999999991e-05, 1e-4, 1e17,
                 99999999999999984.0])
def test_write_nodes_fields_match_percent_format(tmp_path, values):
    weights = np.array(values)
    tio.write_nodes_tsv(tmp_path / "got.tsv", weights, weights[::-1, None])
    oracle_write_nodes(tmp_path / "want.tsv", weights, weights[::-1, None])
    assert (tmp_path / "got.tsv").read_bytes() == (tmp_path / "want.tsv").read_bytes()


@pytest.mark.parametrize("m", range(-3, 18))
def test_no_double_below_a_power_of_ten_rounds_up_to_it(m):
    # so the 17-digit integer D of a value in [1e-4, 1e17) never carries to 10^17
    power = Fraction(10) ** m
    below = float(power)
    if Fraction(below) >= power:
        below = math.nextafter(below, 0.0)
    assert power - Fraction(below) > Fraction(10) ** (m - 17) / 2
    assert Fraction("%.17g" % below) < power


_LADDER = np.array([x for x in DIGIT_STEPS if x >= 0], dtype=np.int64)


@settings_tmp
@given(edges=edge_lists, chunk=st.integers(min_value=1, max_value=7))
# every width, rising and falling from one chunk to the next
@example(edges=np.stack([_LADDER, _LADDER[::-1]], axis=1), chunk=3)
# a chunk of mixed signs between chunks of non-negative ids
@example(edges=np.array([[0, 9], [10, 99], [-1, 100], [INT64.min, 5], [INT64.max, 7], [10 ** 18, 1]]), chunk=2)
def test_write_edges_matches_oracle(tmp_path, edges, chunk):
    with mock.patch.object(tio, "_CHUNK_ROWS", chunk):
        tio.write_edges_tsv(tmp_path / "got.tsv", edges)
    oracle_write_edges(tmp_path / "want.tsv", edges)
    assert (tmp_path / "got.tsv").read_bytes() == (tmp_path / "want.tsv").read_bytes()


@pytest.mark.parametrize(
    "n",
    # one row short of, exactly at, and one row past a chunk boundary: the
    # first boundary, and the boundaries near 2^16 rows
    [tio._CHUNK_ROWS - 1, tio._CHUNK_ROWS, 2 * tio._CHUNK_ROWS + 1, 65535, 65536, 131073],
)
def test_writers_match_oracle_across_real_chunk_size(tmp_path, n):
    assert (n + 1) % tio._CHUNK_ROWS <= 2  # n sits next to a chunk boundary
    rng = np.random.default_rng(n)
    weights = 1.0 / rng.random(n) ** 0.5
    directions = rng.standard_normal((n, 2))
    # the special values sit across the chunk boundary when n passes it
    boundary = min(n, tio._CHUNK_ROWS + len(SPECIAL_FLOATS) // 2) - len(SPECIAL_FLOATS)
    directions[boundary : boundary + len(SPECIAL_FLOATS), 0] = SPECIAL_FLOATS
    edges = rng.integers(0, n, size=(n, 2))
    tio.write_nodes_tsv(tmp_path / "got_nodes.tsv", weights, directions)
    oracle_write_nodes(tmp_path / "want_nodes.tsv", weights, directions)
    tio.write_edges_tsv(tmp_path / "got_edges.tsv", edges)
    oracle_write_edges(tmp_path / "want_edges.tsv", edges)
    assert (tmp_path / "got_nodes.tsv").read_bytes() == (tmp_path / "want_nodes.tsv").read_bytes()
    assert (tmp_path / "got_edges.tsv").read_bytes() == (tmp_path / "want_edges.tsv").read_bytes()
    assert np.array_equal(tio.read_edges_tsv(tmp_path / "got_edges.tsv"), edges)  # one pass, checked in pieces


@settings_tmp
@given(table=node_tables(finite=True))
def test_nodes_round_trip_bit_exact(tmp_path, table):
    weights, directions = table
    if len(weights) == 0:
        return  # an empty node table is rejected on read
    path = tmp_path / "nodes.tsv"
    tio.write_nodes_tsv(path, weights, directions)
    w2, d2 = read_nodes_tsv(path)
    assert np.array_equal(w2.view(np.int64), weights.view(np.int64))
    assert np.array_equal(d2.view(np.int64), directions.view(np.int64))


@settings_tmp
@given(edges=edge_lists.filter(len))
def test_edges_round_trip_exact(tmp_path, edges):
    path = tmp_path / "edges.tsv"
    tio.write_edges_tsv(path, edges)
    got = tio.read_edges_tsv(path)
    assert got.dtype == np.int64 and np.array_equal(got, edges)


# Separators, signs, Python-only digit forms, and whitespace `str.strip` removes
# or keeps.
MUTATION_ALPHABET = "0123456789\t\t\t\n\n\r -+_.e#x\x00\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u3000\ufeff\u0663"


@st.composite
def edge_texts(draw):
    edges = draw(edge_lists)
    text = "".join(f"{i}\t{j}\n" for i, j in edges.tolist())
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        pos = draw(st.integers(min_value=0, max_value=len(text)))
        cut = draw(st.integers(min_value=0, max_value=3))
        insert = draw(st.text(alphabet=MUTATION_ALPHABET, max_size=4))
        text = text[:pos] + insert + text[pos + cut :]
    return text


def is_written_id(field):
    """Whether `field` is '%d' of an int64."""
    try:
        return str(int(field)) == field and INT64.min <= int(field) <= INT64.max
    except ValueError:
        return False


def is_canonical(text):
    """Whether `text` is the '%d\t%d\n' lines of the int64 ids it holds."""
    lines = text.split("\n")
    return len(lines) > 1 and lines[-1] == "" and all(
        len(ids) == 2 and all(map(is_written_id, ids)) for ids in (line.split("\t") for line in lines[:-1])
    )


# Non-negative ids with 1 to 19 digits.
written_ids = st.one_of(st.integers(0, 10 ** 18 - 1), st.integers(10 ** 18, INT64.max), st.sampled_from([0, 10 ** 18]))
# One-character changes of a written file, each leaving the canonical form.
PERTURBATIONS = [None, "leading 0", "+", "non-ASCII digit", "space for tab", "\r\n", "no final newline", "blank line"]


@st.composite
def written_edge_texts(draw):
    edges = draw(st.lists(st.tuples(written_ids, written_ids), min_size=1, max_size=20))
    text = "".join(f"{i}\t{j}\n" for i, j in edges)  # the bytes of `write_edges_tsv`, as tested above
    kind = draw(st.sampled_from(PERTURBATIONS))
    id_starts = [0] + [k + 1 for k, c in enumerate(text[:-1]) if c in "\t\n"]
    if kind in ("leading 0", "+"):
        pos = draw(st.sampled_from(id_starts))
        text = text[:pos] + kind[-1] + text[pos:]
    elif kind == "non-ASCII digit":
        pos = draw(st.sampled_from(id_starts))
        text = text[:pos] + chr(0x0660 + int(text[pos])) + text[pos + 1 :]  # ARABIC-INDIC DIGIT
    elif kind == "space for tab":
        pos = draw(st.sampled_from([k for k, c in enumerate(text) if c == "\t"]))
        text = text[:pos] + " " + text[pos + 1 :]
    elif kind == "\r\n":
        pos = draw(st.sampled_from([k for k, c in enumerate(text) if c == "\n"]))
        text = text[:pos] + "\r" + text[pos:]
    elif kind == "no final newline":
        text = text[:-1]
    elif kind == "blank line":
        text += "\n"
    return text


_WRITTEN = "0\t1\n7\t123456789012345678\n"


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=st.one_of(edge_texts(), written_edge_texts()))
@example(text=_WRITTEN)
@example(text="0" + _WRITTEN)
@example(text=_WRITTEN.replace("12", "112"))  # a 19-digit id, in the written form
@example(text=_WRITTEN.replace("\n", "\r\n", 1))
@example(text=_WRITTEN[:-1])
@example(text=_WRITTEN.replace("\t", " ", 1))
@example(text=_WRITTEN + "\n")
@example(text="+" + _WRITTEN)
@example(text=_WRITTEN.replace("7", "\u0667"))
@example(text="1_0\t2\n")
@example(text="1\t2\t\n")
@example(text="\t1\t2\n")
@example(text="1\t2\n \n3\t4\n")
@example(text="\u0663\t2\n")
@example(text="99999999999999999999\t1\n")
@example(text="9223372036854775808\t1\n")
@example(text="-9223372036854775808\t9223372036854775807\n")
@example(text="1\t-9223372036854775809\n")
@example(text="1.0\t2\n")
@example(text="")
@example(text="\n\n")
@example(text="1\t2\r3\t4\r\n\n5\t6")
@example(text="\ufeff1\t2\n")
@example(text="1\t2\n3\n")
@example(text="1\t2\t3\n")
@example(text="41\t58\n5\x1c\t60\n")
@example(text="-900223372036854775808\t1\n2\t3\n0")
def test_read_edges_matches_oracle(tmp_path, text):
    path = tmp_path / "edges.tsv"
    path.write_text(text, encoding="utf-8", newline="")
    with mock.patch.object(tio, "_read_text", wraps=tio._read_text) as line_parser:
        got = outcome(tio.read_edges_tsv, path)
    assert line_parser.called != is_canonical(text)  # exactly the other texts take the line parser
    want = outcome(oracle_read_edges, path)
    if isinstance(got, str) and got.endswith("outside the int64 range"):
        # The reader stops at the first line holding such an id; the old loop
        # reads on and overflows only when it builds the array, so it agrees
        # on the lines up to that one.
        lineno = int(got[len(f"{path}:") :].split(":", 1)[0])
        with open(path, "r", encoding="utf-8") as fh:
            head = "".join(list(fh)[:lineno])
        path.write_text(head, encoding="utf-8", newline="")
        assert outcome(oracle_read_edges, path) is OverflowError
    else:
        assert_same_outcome(got, want)


# ids the one-pass form once left to the line parser: negative, 19 digits wide, and int64's ends
far_ids = st.one_of(st.integers(INT64.min, -1), st.integers(10 ** 18, INT64.max), st.sampled_from([INT64.min, INT64.max]))


@settings_tmp
@given(
    edges=st.integers(min_value=1, max_value=40).flatmap(
        lambda m: arrays(np.int64, (m, 2), elements=st.one_of(far_ids, int64s))
    ),
    write_chunk=st.integers(min_value=1, max_value=7),
    read_chunk=st.integers(min_value=1, max_value=7),
)
def test_written_edges_of_any_int64_ids_read_back_in_one_pass(tmp_path, edges, write_chunk, read_chunk):
    path = tmp_path / "edges.tsv"
    with mock.patch.object(tio, "_CHUNK_ROWS", write_chunk):
        tio.write_edges_tsv(path, edges)
    with mock.patch.object(tio, "_CHUNK_ROWS", read_chunk):
        with mock.patch.object(tio, "_read_text", wraps=tio._read_text) as line_parser:
            got = tio.read_edges_tsv(path)
    assert not line_parser.called
    assert got.dtype == np.int64 and np.array_equal(got, edges)


@pytest.mark.parametrize("text, where", [("1\tx\n", 1), ("1\t2\n3\tx\n", 2), ("1\t2\nx", 2)])
def test_read_edges_partial_parse_names_the_line_and_warns_nothing(tmp_path, text, where):
    path = tmp_path / "edges.tsv"
    path.write_text(text, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SeriesFormatError, match=rf"edges\.tsv:{where}: "):
            tio.read_edges_tsv(path)


@pytest.mark.parametrize("line, node", [
    ("2\t99999999999999999999", 99999999999999999999),
    ("9223372036854775808\t2", 9223372036854775808),
    ("2\t-9223372036854775809", -9223372036854775809),
])
def test_read_edges_id_beyond_int64_names_file_and_line(tmp_path, line, node):
    path = tmp_path / "edges.tsv"
    path.write_text(f"0\t1\n{line}\n", encoding="utf-8")
    with pytest.raises(SeriesFormatError, match=rf"edges\.tsv:2: node id {node} outside the int64 range"):
        tio.read_edges_tsv(path)


@pytest.mark.parametrize("read", [read_nodes_tsv, tio.read_edges_tsv, tio.read_degree_file, read_json])
def test_readers_name_a_file_that_is_not_utf8(tmp_path, read):
    bad = tmp_path / "input"
    bad.write_bytes(b"\xff\t1\n")
    with pytest.raises(SeriesFormatError, match=f"^{re.escape(str(bad))}: not UTF-8 text"):
        read(bad)


def test_read_degree_file_skips_blank_lines(tmp_path):
    path = tmp_path / "degrees.txt"
    path.write_text("3\n\n  \n0\n7\n", encoding="utf-8")
    assert tio.read_degree_file(path).tolist() == [3, 0, 7]


@pytest.mark.parametrize(
    "text, message",
    [
        ("3\n2.5\n", r"degrees\.txt:2: invalid literal for int\(\) with base 10: '2\.5'"),
        ("", r"degrees\.txt: empty degree file"),
        ("\n \n", r"degrees\.txt: empty degree file"),
    ],
    ids=["not-an-integer", "empty", "blank-lines-only"],
)
def test_read_degree_file_refusals_name_the_file(tmp_path, text, message):
    path = tmp_path / "degrees.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(SeriesFormatError, match=message):
        tio.read_degree_file(path)
