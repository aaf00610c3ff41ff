"""Benchmark workloads: the command each one runs, its untimed set-up, and its output checks.

A workload's `command` is the argument list after the program name; the
runner turns it into a child process (see `run.child_argv`).  `prepare`
builds inputs and oracle data from the seed before anything is timed, and
`check` raises `CheckFailed` when an output is missing or wrong.

Checks prefer oracles that do not share the timed code path:
- every listed edge satisfies the exact predicate, recomputed here with numpy;
- for a seeded sample of nodes, the neighbour set equals a brute-force O(n) scan;
- each sweep edge count lies within the closed-form mean +- 6 sigma;
- the manifest digests match the files (hashed here with hashlib);
- nodes.tsv, when present, parses bit-exactly to `sample_node_table`;
- the fit is a likelihood maximum whose KS distance is recomputed here.
For the pinned seed the outputs must also equal the values recorded below.

The seed picks the graph, but not its size.  Edge counts of these
heavy-tailed graphs spread widely across seeds (R2 over seeds 1-10: 2.5M to
4.5M edges), which would swamp any timing bound.  So the graph seed is the
first of seed, seed + 2^32, seed + 2 * 2^32, ... whose expected edge count
and candidate-pair count, both exact functions of the node weights, lie
within `SIZE_TOL` of the reference graph's (graph seed 1, R1 or R2).
Seed 1 therefore gives the reference graph itself.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import zeta

from threshnet import (
    EdgeRule,
    ModelConfig,
    ParetoParams,
    expected_edges,
    generate,
    sample_node_table,
    theta_powerlaw_schedule,
    variance_edges,
)
from threshnet.io import write_edges_tsv

PIN_SEED = 1
R1_EDGES_SHA256 = "ad20e24b8f546c7bef23946bbed32769ebbf1456955642ee9b44ed51e11866b3"

# Relative slack around theta: a pair whose left-hand side lies this close
# to the threshold may round either way, so it is neither required nor barred.
_REL_TOL = 1e-12
# Nodes whose neighbour sets are re-derived by brute force, per check.
_SAMPLED_NODES = 200
_HEAVIEST_NODES = 20
# Largest relative size difference of a graph from the reference graph.
SIZE_TOL = 0.05
_MAX_SEED_TRIES = 10_000


def graph_size(weights: np.ndarray, theta: float) -> tuple[float, int]:
    """Expected edge count given the weights, and the candidate pairs weight pruning keeps (d = 3, theta > 0).

    Directions are uniform on the sphere, so <x_i, x_j> is uniform on [-1, 1]
    and pair (i, j) is an edge with probability max(0, 1 - theta/(w_i w_j))/2.
    The candidates are the pairs with w_i w_j >= theta.
    """
    ws = np.sort(weights)
    partners = np.searchsorted(ws, theta / ws, side="left")  # j >= partners[i] iff w_i w_j >= theta
    count = len(ws) - partners
    inv_suffix = np.append(np.cumsum((1.0 / ws)[::-1])[::-1], 0.0)
    own = ws * ws >= theta  # pairs of a node with itself, counted above
    ordered = 0.5 * (count - theta / ws * inv_suffix[partners]).sum() - 0.5 * (1.0 - theta / ws[own] ** 2).sum()
    return ordered / 2.0, int(count.sum() - own.sum()) // 2


def matched_graph_seed(seed: int, n: int, theta: float, pareto: ParetoParams) -> int:
    """Graph seed for workload seed `seed` whose size is within SIZE_TOL of graph seed PIN_SEED's."""
    target = np.array(graph_size(sample_node_table(n, PIN_SEED, pareto, 3)[0], theta))
    for k in range(_MAX_SEED_TRIES):
        candidate = (seed + (k << 32)) % 2 ** 64
        size = np.array(graph_size(sample_node_table(n, candidate, pareto, 3)[0], theta))
        if np.all(np.abs(size / target - 1.0) <= SIZE_TOL):
            return candidate
    raise RuntimeError(f"no graph seed of reference size found for seed {seed}")


class CheckFailed(Exception):
    """An output of a workload run is missing or wrong."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def read_edge_list(path: Path) -> np.ndarray:
    edges = np.loadtxt(path, delimiter="\t", dtype=np.int64, ndmin=2)
    return edges.reshape(-1, 2)


def check_edges(edges: np.ndarray, weights: np.ndarray, dirs: np.ndarray, theta: float, seed: int) -> None:
    """Undirected edge list against the predicate w_i * w_j * <x_i, x_j> >= theta."""
    n = len(weights)
    expect(edges.ndim == 2 and edges.shape[1] == 2, "edge list must have two columns")
    i, j = edges[:, 0], edges[:, 1]
    expect(bool(np.all((0 <= i) & (i < j) & (j < n))), "edges must satisfy 0 <= i < j < n")
    keys = i * n + j
    expect(bool(np.all(np.diff(keys) > 0)), "edges must be sorted and unique")
    lo, hi = theta * (1.0 - _REL_TOL), theta * (1.0 + _REL_TOL)
    lhs = weights[i] * weights[j] * np.einsum("ij,ij->i", dirs[i], dirs[j])
    expect(bool(np.all(lhs >= lo)), f"{int((lhs < lo).sum())} listed edges fail the predicate")

    rng = np.random.default_rng(seed)
    sampled = np.union1d(
        rng.choice(n, size=min(_SAMPLED_NODES, n), replace=False), np.argsort(weights)[-_HEAVIEST_NODES:]
    )
    for v in sampled:
        scan = weights[v] * weights * (dirs @ dirs[v])
        scan[v] = -np.inf
        required = np.flatnonzero(scan >= hi)
        allowed = np.flatnonzero(scan >= lo)
        listed = np.union1d(j[i == v], i[j == v])
        expect(
            bool(np.isin(required, listed).all() and np.isin(listed, allowed).all()),
            f"neighbours of node {v} differ from a brute-force scan",
        )


@dataclass(frozen=True)
class GenR1:
    """`threshnet generate` of an R1-sized graph; writes nodes, edges and a manifest."""

    name: str = "gen-r1"
    n: int = 300_000
    a: float = 3.0
    w0: float = 1.0
    theta: float = 66.9
    pinned_edges_sha256: str | None = R1_EDGES_SHA256

    def prepare(self, work: Path, seed: int) -> dict:
        pareto = ParetoParams(a=self.a, w0=self.w0)
        graph_seed = matched_graph_seed(seed, self.n, self.theta, pareto)
        weights, dirs = sample_node_table(self.n, graph_seed, pareto, 3)
        return {"seed": seed, "graph_seed": graph_seed, "weights": weights, "dirs": dirs}

    def command(self, ctx: dict, out: Path) -> list[str]:
        return [
            "generate", "--n", str(self.n), "--a", repr(self.a), "--w0", repr(self.w0),
            "--theta", repr(self.theta), "--seed", str(ctx["graph_seed"]), "--out-dir", str(out),
        ]

    def check(self, ctx: dict, out: Path) -> None:
        weights, dirs, seed = ctx["weights"], ctx["dirs"], ctx["seed"]
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        config = manifest["config"]
        expect(
            (config["n"], config["seed"], config["theta"], config["a"], config["w0"])
            == (self.n, ctx["graph_seed"], self.theta, self.a, self.w0),
            f"manifest config {config} does not match the command",
        )
        expect("edges.tsv" in manifest["outputs"], "manifest lists no edges.tsv digest")
        for name, digest in manifest["outputs"].items():
            expect(sha256(out / name) == digest, f"manifest digest of {name} does not match the file")
        nodes_path = out / "nodes.tsv"
        if nodes_path.exists():
            table = np.loadtxt(nodes_path, delimiter="\t", ndmin=2)
            expect(table.shape == (self.n, 5), f"nodes.tsv has shape {table.shape}")
            expect(np.array_equal(table[:, 0], np.arange(self.n)), "nodes.tsv ids must be 0..n-1")
            expect(
                np.array_equal(table[:, 1], weights) and np.array_equal(table[:, 2:], dirs),
                "nodes.tsv differs from sample_node_table",
            )
        edges_path = out / "edges.tsv"
        edges = read_edge_list(edges_path)
        expect(manifest["n_edges"] == len(edges), "manifest edge count differs from edges.tsv")
        check_edges(edges, weights, dirs, self.theta, seed)
        if self.pinned_edges_sha256 and seed == PIN_SEED:
            expect(sha256(edges_path) == self.pinned_edges_sha256, "edges.tsv differs from the pinned digest")


@dataclass(frozen=True)
class SweepR2:
    """Growth sweep under theta(n) = n^(1/3) up to an R2-sized graph, through `growth.run_growth_sweep`."""

    name: str = "sweep-r2"
    ns: tuple[int, ...] = (300_000, 1_000_000, 3_000_000)
    a: float = 3.0
    w0: float = 1.0
    D: float = 1.0
    pinned_m: tuple[int, ...] | None = (215_746, 1_029_720, 3_032_520)

    def prepare(self, work: Path, seed: int) -> dict:
        pareto = ParetoParams(a=self.a, w0=self.w0)
        n_max = max(self.ns)
        graph_seed = matched_graph_seed(seed, n_max, theta_powerlaw_schedule(n_max, self.D, self.a), pareto)
        points = []
        for n in self.ns:
            theta = theta_powerlaw_schedule(n, self.D, self.a)
            points.append((n, theta, expected_edges(n, pareto, theta), variance_edges(n, pareto, theta)))
        return {"seed": seed, "graph_seed": graph_seed, "points": points}

    def command(self, ctx: dict, out: Path) -> list[str]:
        return [
            "sweep", "--seed", str(ctx["graph_seed"]), "--ns", ",".join(map(str, self.ns)),
            "--a", repr(self.a), "--w0", repr(self.w0), "--D", repr(self.D), "--out-dir", str(out),
        ]

    def check(self, ctx: dict, out: Path) -> None:
        with open(out / "series.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        expect([int(r["n"]) for r in rows] == list(self.ns), "series.csv has the wrong sizes")
        ms = []
        for row, (n, theta, em, var) in zip(rows, ctx["points"]):
            m = int(row["m"])
            ms.append(m)
            expect(math.isclose(float(row["theta"]), theta, rel_tol=1e-12), f"n={n}: theta differs from n^(1/a)")
            expect(abs(m - em) <= 6.0 * math.sqrt(var), f"n={n}: m={m} outside {em:.6g} +- 6 sigma")
        if self.pinned_m and ctx["seed"] == PIN_SEED:
            expect(tuple(ms) == self.pinned_m, f"edge counts {ms} differ from the pinned {list(self.pinned_m)}")


def _loglik(alpha: float, x_min: int, tail: np.ndarray) -> float:
    return float(-len(tail) * np.log(zeta(alpha, x_min)) - alpha * np.log(tail).sum())


def _ks_distance(tail: np.ndarray, alpha: float, x_min: int) -> float:
    values, counts = np.unique(tail, return_counts=True)
    model_cdf = 1.0 - zeta(alpha, values + 1) / zeta(alpha, x_min)
    return float(np.abs(np.cumsum(counts) / len(tail) - model_cdf).max())


@dataclass(frozen=True)
class AnalyzeR1:
    """`threshnet analyze` with a bootstrap on an R1-sized edge list, which set-up builds.

    The bootstrap seed is the workload seed.
    """

    name: str = "analyze-r1"
    n: int = 300_000
    a: float = 3.0
    w0: float = 1.0
    theta: float = 66.9
    bootstrap: int = 1000
    pinned_fit: dict | None = field(
        default_factory=lambda: {
            "alpha_hat": 2.0768478317250127,
            "x_min": 7,
            "ks_stat": 0.0069023696070190654,
            "p_value": 0.507,
        }
    )

    def prepare(self, work: Path, seed: int) -> dict:
        pareto = ParetoParams(a=self.a, w0=self.w0)
        graph_seed = matched_graph_seed(seed, self.n, self.theta, pareto)
        rule = EdgeRule.undirected(self.theta)
        config = ModelConfig(n=self.n, d=3, pareto=pareto, rule=rule, seed=graph_seed)
        edges_path = work / "input_edges.tsv"
        write_edges_tsv(edges_path, generate(config).edges)
        if self.pinned_fit and seed == PIN_SEED:
            expect(sha256(edges_path) == R1_EDGES_SHA256, "analyze input differs from the pinned R1 edges")
        degrees = np.bincount(read_edge_list(edges_path).ravel(), minlength=self.n)
        return {"seed": seed, "graph_seed": graph_seed, "edges": edges_path, "degrees": degrees}

    def command(self, ctx: dict, out: Path) -> list[str]:
        return [
            "analyze", "--edges", str(ctx["edges"]), "--n", str(self.n), "--bootstrap", str(self.bootstrap),
            "--seed", str(ctx["seed"]), "--out-dir", str(out),
        ]

    def check(self, ctx: dict, out: Path) -> None:
        degrees = ctx["degrees"]
        values, counts = np.unique(degrees, return_counts=True)
        table = np.loadtxt(out / "ccdf.csv", delimiter=",", skiprows=1, ndmin=2)
        expect(np.array_equal(table[:, 0], values), "ccdf.csv degree values differ from the edge list")
        expected_ccdf = np.cumsum(counts[::-1])[::-1] / len(degrees)
        expect(np.allclose(table[:, 1], expected_ccdf, rtol=1e-12, atol=0), "ccdf.csv fractions are wrong")

        fit = json.loads((out / "fit.json").read_text(encoding="utf-8"))
        x_min, alpha = fit["x_min"], fit["alpha_hat"]
        expect(isinstance(x_min, int) and x_min >= 1, f"x_min={x_min} must be a positive integer")
        tail = degrees[degrees >= x_min]
        expect(fit["n_tail"] == len(tail), "n_tail differs from the degree sequence")
        expect(fit["n_zero_degree"] == int((degrees == 0).sum()), "n_zero_degree is wrong")
        best = _loglik(alpha, x_min, tail)
        expect(
            best > _loglik(alpha - 1e-4, x_min, tail) and best > _loglik(alpha + 1e-4, x_min, tail),
            f"alpha_hat={alpha} is not a likelihood maximum",
        )
        expect(abs(_ks_distance(tail, alpha, x_min) - fit["ks_stat"]) <= 1e-9, "ks_stat does not match the fit")
        expect(fit["n_bootstrap"] == self.bootstrap, "wrong bootstrap replicate count")
        p = fit["p_value"]
        expect(0.0 <= p <= 1.0 and abs(p * self.bootstrap - round(p * self.bootstrap)) < 1e-9, f"p_value={p}")
        if self.pinned_fit and ctx["seed"] == PIN_SEED:
            pin = self.pinned_fit
            expect(
                x_min == pin["x_min"]
                and p == pin["p_value"]
                and math.isclose(alpha, pin["alpha_hat"], rel_tol=1e-9)
                and math.isclose(fit["ks_stat"], pin["ks_stat"], rel_tol=1e-9),
                f"fit {fit} differs from the pinned {pin}",
            )


WORKLOADS = {w.name: w for w in (GenR1(), SweepR2(), AnalyzeR1())}
