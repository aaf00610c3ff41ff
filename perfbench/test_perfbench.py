"""Tests of the benchmark itself: output checks, failure accounting and span arithmetic.

    python3 -m pytest perfbench

They run small versions of the workloads, so they take seconds, not minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
from threshnet import EdgeRule, ModelConfig, ParetoParams, generate, sample_node_table  # noqa: E402
from workloads import (  # noqa: E402
    PIN_SEED,
    SIZE_TOL,
    AnalyzeR1,
    CheckFailed,
    GenR1,
    SweepR2,
    graph_size,
    matched_graph_seed,
    sha256,
)

SMALL_GEN = GenR1(n=150, theta=3.0, pinned_edges_sha256=None)
SMALL = {
    "gen": GenR1(n=3000, theta=20.0, pinned_edges_sha256=None),
    "sweep": SweepR2(ns=(2000, 5000, 10000), pinned_m=None),
    "analyze": AnalyzeR1(n=20000, theta=20.0, bootstrap=100, pinned_fit=None),
}
DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _names(section: str) -> set[str]:
    return {m["name"] for m in DECLARED[section]}


@pytest.mark.parametrize("kind", sorted(SMALL))
@pytest.mark.parametrize("traced", [False, True])
def test_small_workload_runs_pass_their_checks(tmp_path, kind, traced):
    workload = SMALL[kind]
    ctx = workload.prepare(tmp_path, seed=3)
    rep = run.run_rep(workload, ctx, tmp_path, 0, traced=traced)
    assert rep.ok, rep.error
    assert rep.wall_s > 0 and rep.cpu_s > 0 and rep.peak_rss_mb > 0
    if traced:
        values = run.layer_values(rep.trace, rep.wall_s)
        assert set(values) | {"trace.overhead_s"} == _names("per_layer")
        assert 0.5 < values["trace.coverage"] <= 1.0


def test_graph_size_predicts_the_generated_graph():
    pareto = ParetoParams(a=3.0, w0=1.0)
    n, theta = 20000, 20.0
    for seed in (1, 2, 3):
        weights = sample_node_table(n, seed, pareto, 3)[0]
        expected_m, candidates = graph_size(weights, theta)
        graph = generate(ModelConfig(n=n, d=3, pareto=pareto, rule=EdgeRule.undirected(theta), seed=seed))
        assert candidates == graph.n_candidates
        assert abs(graph.n_edges - expected_m) <= 5 * np.sqrt(expected_m)


def test_matched_graph_seed_keeps_the_reference_size():
    pareto = ParetoParams(a=3.0, w0=1.0)
    n, theta = 20000, 20.0
    assert matched_graph_seed(PIN_SEED, n, theta, pareto) == PIN_SEED
    reference = np.array(graph_size(sample_node_table(n, PIN_SEED, pareto, 3)[0], theta))
    for seed in (2, 3, 4):
        graph_seed = matched_graph_seed(seed, n, theta, pareto)
        assert graph_seed % 2 ** 32 == seed
        size = np.array(graph_size(sample_node_table(n, graph_seed, pareto, 3)[0], theta))
        assert np.all(np.abs(size / reference - 1) <= SIZE_TOL)


def test_end_to_end_metrics_match_the_declaration():
    reps = [run.Rep(False, 2.0, 2.5, 100.0, ok=True), run.Rep(False, 3.0, 3.5, 110.0, ok=False, error="x")]
    values = run.end_to_end_metrics(reps, setup_s=0.9)
    assert set(values) == _names("end_to_end")
    assert values["ok_rate"] == 0.5
    assert values["wall_s"] == 2.5


def test_nonzero_exit_counts_as_failed(tmp_path):
    workload = GenR1(n=150, theta=-1.0, pinned_edges_sha256=None)  # rejected by the CLI with exit code 1
    rep = run.run_rep(workload, workload.prepare(tmp_path, seed=1), tmp_path, 0, traced=False)
    assert not rep.ok and rep.error == "exit code 1"


def _rewrite_digests(out: Path) -> None:
    """Make the manifest agree with the files again, so only the deeper oracles can notice."""
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["outputs"] = {name: sha256(out / name) for name in manifest["outputs"]}
    (out / "manifest.json").write_text(json.dumps(manifest))


def _drop_edge(out):
    lines = (out / "edges.tsv").read_text().splitlines(keepends=True)
    (out / "edges.tsv").write_text("".join(lines[:-1]))
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["n_edges"] -= 1
    (out / "manifest.json").write_text(json.dumps(manifest))
    _rewrite_digests(out)


def _add_non_edge(out):
    n = SMALL_GEN.n
    listed = {tuple(map(int, line.split("\t"))) for line in (out / "edges.tsv").read_text().splitlines()}
    pair = next((i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in listed)
    edges = sorted(listed | {pair})
    (out / "edges.tsv").write_text("".join(f"{i}\t{j}\n" for i, j in edges))
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["n_edges"] += 1
    (out / "manifest.json").write_text(json.dumps(manifest))
    _rewrite_digests(out)


def _perturb_weight(out):
    lines = (out / "nodes.tsv").read_text().splitlines(keepends=True)
    fields = lines[0].split("\t")
    fields[1] = repr(float(fields[1]) * (1 + 1e-15))
    lines[0] = "\t".join(fields)
    (out / "nodes.tsv").write_text("".join(lines))
    _rewrite_digests(out)


def _stale_digest(out):
    with open(out / "edges.tsv", "a") as fh:
        fh.write("\n")


def _remove_manifest(out):
    (out / "manifest.json").unlink()


@pytest.mark.parametrize("corrupt", [_drop_edge, _add_non_edge, _perturb_weight, _stale_digest, _remove_manifest])
def test_corrupted_output_counts_as_failed(tmp_path, corrupt):
    class Corrupted(GenR1):
        def check(self, ctx, out):
            corrupt(out)
            super().check(ctx, out)

    clean = SMALL_GEN.prepare(tmp_path, seed=5)
    rep = run.run_rep(SMALL_GEN, clean, tmp_path, 0, traced=False)
    assert rep.ok, rep.error
    workload = Corrupted(n=SMALL_GEN.n, theta=SMALL_GEN.theta, pinned_edges_sha256=None)
    rep = run.run_rep(workload, clean, tmp_path, 1, traced=False)
    assert not rep.ok and rep.error


def test_pinned_values_are_enforced(tmp_path):
    workload = GenR1(n=150, theta=3.0, pinned_edges_sha256="0" * 64)
    ctx = workload.prepare(tmp_path, seed=1)
    rep = run.run_rep(workload, ctx, tmp_path, 0, traced=False)
    assert not rep.ok and "pinned" in rep.error
    ctx = workload.prepare(tmp_path, seed=2)  # pins apply to the pinned seed only
    assert run.run_rep(workload, ctx, tmp_path, 1, traced=False).ok


def test_sweep_count_outside_six_sigma_fails(tmp_path):
    workload = SMALL["sweep"]
    ctx = workload.prepare(tmp_path, seed=1)
    code, *_ = run.run_child(run.child_argv(workload.command(ctx, tmp_path)), tmp_path / "log")
    assert code == 0
    workload.check(ctx, tmp_path)
    ctx["points"] = [(n, theta, em * 10.0, var) for n, theta, em, var in ctx["points"]]
    with pytest.raises(CheckFailed, match="6 sigma"):
        workload.check(ctx, tmp_path)


def test_self_times_subtract_children():
    spans = [
        {"id": 0, "name": "setup", "parent": None, "start": 0.0, "end": 1.0},
        {"id": 1, "name": "cli.generate", "parent": None, "start": 1.0, "end": 5.0},
        {"id": 2, "name": "generator.generate", "parent": 1, "start": 1.5, "end": 2.5},
        {"id": 3, "name": "io.write_nodes", "parent": 1, "start": 2.5, "end": 4.5},
    ]
    own = tracing.self_times(spans)
    assert own["cli.generate"] == pytest.approx(1.0)
    assert own["generator.generate"] == pytest.approx(1.0)
    trace = {"spans": spans, "counts": {"generator.edges": 4, "generator.candidates": 10}}
    values = run.layer_values(trace, traced_wall=5.5)
    assert values["cli.self_s"] == pytest.approx(1.0)
    assert values["trace.coverage"] == pytest.approx((1.0 + 3.0) / 5.5)
    assert values["generator.cand_per_edge"] == 2.5


def test_coverage_counts_only_setup_and_layer_spans():
    spans = [
        {"id": 0, "name": "setup", "parent": None, "start": 0.0, "end": 1.0},
        {"id": 1, "name": "cli.generate", "parent": None, "start": 1.0, "end": 10.0},
    ]
    values = run.layer_values({"spans": spans, "counts": {}}, traced_wall=10.0)
    assert values["trace.coverage"] == pytest.approx(0.1)
    assert values["cli.self_s"] == pytest.approx(9.0)


def test_traced_run_times_the_calls_the_program_makes(tmp_path):
    workload = SMALL["gen"]
    rep = run.run_rep(workload, workload.prepare(tmp_path, seed=3), tmp_path, 0, traced=True)
    assert rep.ok, rep.error
    spans = rep.trace["spans"]
    by_id = {s["id"]: s for s in spans}
    names = [s["name"] for s in spans]
    assert names.count("model.sample") == 1 and names.count("generator.generate") == 1
    sample = spans[names.index("model.sample")]
    assert by_id[sample["parent"]]["name"] == "generator.generate"
    assert {s["name"] for s in tracing.children(spans, "cli.generate")} == {
        "generator.generate", "io.write_nodes", "io.write_edges", "io.digest", "io.write_json",
    }
    assert rep.trace["counts"]["model.nodes"] == workload.n


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gen-r1", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert '"correct"' not in result.stdout
