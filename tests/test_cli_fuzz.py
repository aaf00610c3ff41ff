"""Fuzz of the CLI's error contract.

Every argv ends in one of three ways: `main` returns 0; it returns 1 and
writes exactly one `error:` line; or argparse exits 2.  No other exception
and no RuntimeWarning escapes.  The argvs are drawn from `build_parser()`'s
own actions, so a new flag is fuzzed without editing this file.  Node counts
stay at most 300 and `--max-edges` at most 1e5, so each run is small.
"""

import argparse
import io
import os
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings, strategies as st

from threshnet.cli import _int_list, build_parser, main

# Half of the draws take a plain value, so that most argvs get past the checks
# of their other flags to the code that the edge cases reach.
_FLOATS = st.sampled_from(["0.5", "1", "2", "3", "7.5", "100"]) | st.sampled_from(
    ["0", "-0", "1", "-1", "0.5", "2", "3", "7.5", "100", "1e-8", "1e-300", "5e-324", "1e300", "1e308",
     "inf", "-inf", "nan"]
)
_SIZES = [-1, 0, 1, 2, 3, 7, 100, 300]
# int flags whose edge cases differ from a node count's, by dest
_INTS = {
    "seed": [-1, 0, 1, 2 ** 63, 2 ** 64 - 1, 2 ** 64],
    "max_edges": [-1, 0, 1, 100, 10 ** 5],
    "bootstrap": [-1, 0, 1, 100],
    "seeds": [-1, 0, 1, 2, 20],
}
# text flags by dest: the input files of the fixture below (each also where another is expected), link specs
_INPUTS = ["in/edges.tsv", "in/degrees.txt", "in/series.csv", "in/empty", "in/missing"]
_TEXT = {
    "edges": _INPUTS,
    "degrees": _INPUTS,
    "infile": _INPUTS,
    "out_dir": ["out", "in/empty"],  # an existing file cannot be made a directory
    "h": ["identity", "exp", "oddpow:1:-0.2", "oddpow:0:1", "evenpow:2", "evenpow:0", "bogus", ""],
}


def _values(action: argparse.Action):
    """Values, as argv text, for one action."""
    if action.choices is not None:
        return st.sampled_from(list(action.choices))
    if action.type is float:
        return _FLOATS
    if action.type is int:
        return st.sampled_from(_INTS.get(action.dest, _SIZES)).map(str)
    if action.type is _int_list:
        return st.lists(st.sampled_from(_SIZES), min_size=1, max_size=4).map(lambda ns: ",".join(map(str, ns)))
    return st.sampled_from(_TEXT.get(action.dest, ["", "x"]))


@st.composite
def _argv(draw, parser: argparse.ArgumentParser):
    """One argv for `parser`: each required flag and some optional ones, then a subcommand's own argv."""
    argv = []
    for action in parser._actions:
        if isinstance(action, (argparse._HelpAction, argparse._VersionAction)):
            continue
        if isinstance(action, argparse._SubParsersAction):
            name = draw(st.sampled_from(sorted(action.choices)))
            return argv + [name] + draw(_argv(action.choices[name]))
        if not action.option_strings:  # a positional: the oracle's kind
            argv.append(draw(_values(action)))
        elif action.required or draw(st.booleans()):
            flag = action.option_strings[0]
            # flag=value, so that a value such as -inf is not read as a flag
            argv.append(flag if action.nargs == 0 else f"{flag}={draw(_values(action))}")
    return argv


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory holding the input files that the text flags name."""
    root = tmp_path_factory.mktemp("fuzz")
    (root / "in").mkdir()
    (root / "in" / "edges.tsv").write_text("".join(f"0\t{i}\n" for i in range(1, 40)) + "1\t2\n2\t3\n")
    (root / "in" / "degrees.txt").write_text("".join(f"{1 + i % 7 + i // 20}\n" for i in range(100)))
    (root / "in" / "series.csv").write_text("n,m\n100,150\n200,330\n400,720\n")
    (root / "in" / "empty").write_text("")
    return root


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(argv=_argv(build_parser()))
# the five argvs that ended in a traceback (or, under -W error, a warning) before
@example(argv=["calibrate", "--n", "1000", "--a", "3", "--target-edges", "7.5", "--variant", "directed",
               "--alpha", "5e-324", "--beta", "3"])
@example(argv=["generate", "--n", "10", "--a", "3", "--target-edges", "1e-300", "--w0", "1e308", "--variant",
               "directed", "--alpha", "1e-300", "--beta", "1e-300", "--out-dir", "o"])
@example(argv=["generate", "--n", "10", "--a", "0.001", "--schedule", "powerlaw", "--D", "1"])
@example(argv=["growth", "sweep", "--schedule", "powerlaw", "--a", "0.001", "--D", "1", "--ns", "10,20"])
@example(argv=["generate", "--n", "200", "--a", "3", "--theta", "1e300", "--variant", "directed",
               "--alpha", "1e-8", "--beta", "1e-8"])
@example(argv=["generate", "--n", "2", "--a", "1e-8", "--theta", "0", "--w0", "1e-300"])
def test_every_argv_exits_0_1_or_2(workdir, argv):
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)  # where a default --out-dir of "." writes
    try:
        with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
            warnings.simplefilter("error", RuntimeWarning)
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
                assert code == 2, f"argparse exit {code}"
                return
    finally:
        os.chdir(cwd)
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
    assert (code, len(errors)) in {(0, 0), (1, 1)}, err.getvalue()
