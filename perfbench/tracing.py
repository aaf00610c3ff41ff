"""Traced run of one workload, and the span arithmetic the runner applies to it.

    python perfbench/tracing.py SPANS.json generate|analyze ARGS...   (threshnet CLI arguments)
    python perfbench/tracing.py SPANS.json sweep ARGS...              (sweep.py arguments)

The traced child runs the unchanged entry point, `threshnet.cli.main` or
`sweep.main`, after replacing the module attributes listed in `LAYER_CALLS`
with wrappers that time each call from outside with a span.  The program
looks these names up at call time, so every call it makes through them is
timed and nothing else changes; `src/` carries no instrumentation.

A span records its name, start, end, parent span and run id.  Counters are
taken from a call's arguments and result after its span has ended.  Spans
and counters stay in memory and are written once, as JSON, when the run
ends.  Times come from `time.monotonic()`, one system-wide clock, so the
runner can add the interpreter's start and exit, which it times from
outside, as spans of the setup layer (`setup.start`, `setup.exit`).
"""

from __future__ import annotations

import time

_T0 = time.monotonic()  # the setup span starts before threshnet is imported

import functools  # noqa: E402
import importlib  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from contextlib import contextmanager  # noqa: E402

import numpy as np  # noqa: E402


class Tracer:
    """In-memory span and counter record of one traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, start: float | None = None):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "run": self.run_id,
            "start": time.monotonic() if start is None else start,
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.monotonic()
            self._open.pop()

    def wrap(self, func, name: str, counter=None):
        """`func` with each call timed as span `name`; `counter` maps a call's arguments and result to counts."""
        signature = inspect.signature(func)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            with self.span(name):
                result = func(*args, **kwargs)
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, value in counter(bound.arguments, result).items():
                    self.counts[key] = self.counts.get(key, 0) + value
            return result

        return traced

    def write(self, path) -> None:
        """Write the record; its `exit` time is where the interpreter's exit starts."""
        record = {"run": self.run_id, "spans": self.spans, "counts": self.counts, "exit": time.monotonic()}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)


def xmin_candidates(degrees, min_tail: int) -> int:
    """Number of x_min values the KS scan of `fit_powerlaw_discrete` tries."""
    degrees = np.asarray(degrees, dtype=np.int64)
    counts = np.bincount(degrees[degrees > 0])
    counts = counts[counts > 0]  # samples per distinct value, ascending
    at_or_above = np.cumsum(counts[::-1])[::-1]
    distinct_at_or_above = len(counts) - np.arange(len(counts))
    return int(((at_or_above >= min_tail) & (distinct_at_or_above >= 2)).sum())


def _graph(a, graph):
    return {"generator.candidates": graph.n_candidates, "generator.edges": graph.n_edges}


def _written(a, _):
    return {"io.bytes_written": os.path.getsize(a["path"])}


def _read(a, _):
    return {"io.bytes_read": os.path.getsize(a["path"])}


def _fit(a, _):
    return {"statfit.xmin_candidates": 1 if a["x_min"] is not None else xmin_candidates(a["samples"], a["min_tail"])}


# (module, attribute, span name, counter): the calls the traced run times.
# Each entry is the name a caller looks up, so a function imported into
# another module is listed under that module.
LAYER_CALLS = (
    ("threshnet.cli", "generate", "generator.generate", _graph),
    ("threshnet.growth", "generate", "generator.generate", _graph),
    ("threshnet.generator", "sample_node_table", "model.sample", lambda a, _: {"model.nodes": a["n"]}),
    ("threshnet.io", "write_nodes_tsv", "io.write_nodes", _written),
    ("threshnet.io", "write_edges_tsv", "io.write_edges", _written),
    ("threshnet.io", "sha256_file", "io.digest", None),
    ("threshnet.io", "write_json", "io.write_json", _written),
    ("threshnet.io", "write_ccdf_csv", "io.write_ccdf", _written),
    ("threshnet.io", "read_edges_tsv", "io.read_edges", _read),
    ("threshnet.statfit", "fit_powerlaw_discrete", "statfit.fit", _fit),
    ("threshnet.statfit", "gof_pvalue", "statfit.gof", lambda a, _: {"statfit.replicates": a["n_bootstrap"]}),
    ("threshnet.statfit", "ccdf", "statfit.ccdf", None),
    ("threshnet.analytics", "expected_edges", "analytics.moments", None),
    ("threshnet.analytics", "variance_edges", "analytics.moments", None),
    ("threshnet", "run_growth_sweep", "growth.sweep", None),
    ("threshnet", "write_series_csv", "growth.write_series", None),
)


def instrument(tracer: Tracer) -> None:
    for module_name, attr, name, counter in LAYER_CALLS:
        module = importlib.import_module(module_name)
        setattr(module, attr, tracer.wrap(getattr(module, attr), name, counter))


def add_process_spans(trace: dict, started: float, ended: float) -> None:
    """Add the child's interpreter start and exit, timed by its parent, to `trace` as setup spans."""
    spans = trace["spans"]
    first = min(s["start"] for s in spans)
    for name, start, end in (("setup.start", started, first), ("setup.exit", trace["exit"], ended)):
        spans.append({"id": len(spans), "name": name, "parent": None, "run": trace["run"], "start": start, "end": end})


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def totals(spans: list[dict]) -> dict[str, float]:
    """Summed duration per span name."""
    out: dict[str, float] = {}
    for s in spans:
        out[s["name"]] = out.get(s["name"], 0.0) + duration(s)
    return out


def self_times(spans: list[dict]) -> dict[str, float]:
    """Summed self time per span name: duration minus what its children cover.

    Spans of one run are sequential, so children never overlap each other.
    """
    out = totals(spans)
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        if s["parent"] is not None:
            parent = by_id[s["parent"]]["name"]
            out[parent] -= duration(s)
    return out


def top_level(spans: list[dict]) -> list[dict]:
    return [s for s in spans if s["parent"] is None]


def children(spans: list[dict], name: str) -> list[dict]:
    ids = {s["id"] for s in spans if s["name"] == name}
    return [s for s in spans if s["parent"] in ids]


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: tracing.py SPANS.json generate|analyze|sweep ARGS...", file=sys.stderr)
        return 2
    spans_path, command = argv[0], argv[1:]
    tracer = Tracer(run_id=f"{command[0]}-{os.getpid()}-{time.time_ns()}")
    with tracer.span("setup", start=_T0):
        import sweep
        from threshnet import cli

        instrument(tracer)
    if command[0] == "sweep":
        root, entry, entry_args = "sweep.main", sweep.main, command[1:]
    else:
        root, entry, entry_args = f"cli.{command[0]}", cli.main, command
    with tracer.span(root):
        code = entry(entry_args)
    tracer.write(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
