"""Command-line surface: generate, oracle, calibrate, analyze, growth.

Exit codes: 0 success, 1 domain/feasibility/numeric failure, 2 usage error.
Every generate run writes a manifest listing the exact threshold used and a
content digest of each artifact, so reruns can be verified bit for bit.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

# Before numpy loads its OpenBLAS: the CLI's only BLAS call is the pair
# decision's (m x 3) @ 3-vector, which a thread pool does not speed up, and
# the pool's idle workers spin, which cost an R1 generate or analyze about
# 0.1-0.2 s of CPU on 2 vCPUs (wall time where the process has one CPU).
# A caller's own setting is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from . import __version__, analytics, growth as growthmod, io as tio, statfit  # noqa: E402
from .errors import (  # noqa: E402
    DomainError,
    ResourceLimitError,
    SeriesFormatError,
    ThreshnetError,
    UnsupportedAnalyticsError,
)
from .generator import DEFAULT_MAX_EDGES, degree_sequence, generate  # noqa: E402
from .model import _LINK_KINDS, EdgeRule, LinkFn, ModelConfig, ParetoParams, Variant  # noqa: E402


def _add_pareto_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--a", type=float, required=True, help="Pareto shape")
    p.add_argument("--w0", type=float, default=1.0, help="Pareto scale (default 1)")


def _add_variant_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--variant", choices=[v.value for v in Variant], default="undirected")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--h", type=str, default=None, help="|".join(":".join([kind, *row.params]) for kind, row in _LINK_KINDS.items()))


def _build_rule(args, theta: float) -> EdgeRule:
    """The rule of the given flags; EdgeRule rejects a flag that its variant fixes otherwise."""
    fixed = 1.0 if args.variant == Variant.UNDIRECTED else None  # other variants need both flags
    alpha = fixed if args.alpha is None else args.alpha
    beta = fixed if args.beta is None else args.beta
    return EdgeRule(args.variant, theta, alpha, beta, LinkFn.parse(args.h or "identity"))


def _calibrate(args, pareto: ParetoParams) -> tuple[float, float]:
    """The threshold that puts the expected edge (directed: arc) count at --target-edges, and that count."""
    rule = _build_rule(args, 0.0)  # checks alpha, beta and h before the solve
    if rule.variant == Variant.LINKFN:
        raise UnsupportedAnalyticsError("no calibration closed form for link-function rules")
    if rule.is_directed:
        theta = analytics.calibrate_theta_directed(args.n, pareto, args.target_edges, rule.alpha, rule.beta)
        return theta, analytics.expected_arcs_directed(args.n, pareto, theta, rule.alpha, rule.beta)
    theta = analytics.calibrate_theta(args.n, pareto, args.target_edges)
    return theta, analytics.expected_edges(args.n, pareto, theta)


def _resolve_theta(args, pareto: ParetoParams) -> float:
    sources = [args.theta is not None, args.target_edges is not None, args.schedule is not None]
    if sum(sources) != 1:
        raise ThreshnetError("specify exactly one of --theta, --target-edges, --schedule")
    if args.theta is not None:
        return args.theta
    if args.target_edges is not None:
        return _calibrate(args, pareto)[0]
    return _schedule(args).theta_for(args.n, pareto)


def _schedule(args):
    """The threshold schedule of --schedule (linear: expected edges --coeff * n) and its flags."""
    if args.schedule == "linear":
        return analytics.CalibratedSchedule(target=lambda n: args.coeff * n)
    if args.D is None:
        raise ThreshnetError("--schedule powerlaw requires --D")
    return analytics.PowerLawSchedule(D=args.D)


def _config_payload(config: ModelConfig) -> dict:
    rule = config.rule
    payload = {
        "n": config.n,
        "d": config.d,
        "a": config.pareto.a,
        "w0": config.pareto.w0,
        "variant": rule.variant.value,
        "theta": rule.theta,
        "seed": config.seed,
    }
    if rule.is_directed:
        payload["alpha"] = rule.alpha
        payload["beta"] = rule.beta
    if rule.variant == Variant.LINKFN:
        payload["h"] = rule.h.spec()
    return payload


def cmd_generate(args) -> int:
    pareto = ParetoParams(a=args.a, w0=args.w0)
    theta = _resolve_theta(args, pareto)
    rule = _build_rule(args, theta)
    config = ModelConfig(n=args.n, d=args.d, pareto=pareto, rule=rule, seed=args.seed)
    t0 = time.perf_counter()
    graph = generate(config, max_edges=args.max_edges)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    nodes_path = out / "nodes.tsv"
    edges_path = out / "edges.tsv"
    tio.write_nodes_tsv(nodes_path, graph.weights, graph.directions)
    tio.write_edges_tsv(edges_path, graph.edges)
    manifest = {
        "tool": "threshnet",
        "version": __version__,
        "command": "generate",
        "config": _config_payload(config),
        "seed": config.seed,
        "n_edges": graph.n_edges,
        "n_candidates": graph.n_candidates,
        "outputs": {
            "nodes.tsv": tio.sha256_file(nodes_path),
            "edges.tsv": tio.sha256_file(edges_path),
        },
        "timing_sec": time.perf_counter() - t0,
    }
    tio.write_json(out / "manifest.json", manifest)
    print(f"n={graph.n} edges={graph.n_edges} theta={theta:.17g} out={out}")
    return 0


# Largest `analyze` node count, given or inferred, checked before the degree count is
# allocated: one int64 per node is 800 MB at the cap, before the fit's own copies.
MAX_ANALYZE_NODES = 10 ** 8

# oracle kind -> (flags it needs, closed form of (args, pareto))
_ORACLES = {
    "pe": (("theta",), lambda args, pareto: analytics.p_edge(pareto, args.theta)),
    "pew": (("w", "theta"), lambda args, pareto: analytics.p_edge_given_weight(args.w, pareto, args.theta)),
    "pwedge": (("theta",), lambda args, pareto: analytics.p_wedge(pareto, args.theta)),
    "var": (("n", "theta"), lambda args, pareto: analytics.variance_edges(args.n, pareto, args.theta)),
    "em": (("n", "theta"), lambda args, pareto: analytics.expected_edges(args.n, pareto, args.theta)),
    "em-linlog": (("n", "D"), lambda args, pareto: analytics.expected_edges_linlog(args.n, args.D, pareto)),
    "pew-directed": (
        ("w", "theta", "alpha", "beta"),
        lambda args, pareto: analytics.p_edge_given_weight(args.w, pareto, args.theta, args.alpha, args.beta),
    ),
    "pew-linkfn": (
        ("w", "theta", "alpha", "beta"),
        lambda args, pareto: analytics.p_edge_given_weight_linkfn(
            args.w, pareto, args.theta, args.alpha, args.beta, LinkFn.parse(args.h or "identity")
        ),
    ),
}


def cmd_oracle(args) -> int:
    pareto = ParetoParams(a=args.a, w0=args.w0)
    kind = args.kind
    needed, closed_form = _ORACLES[kind]
    missing = [f"--{flag}" for flag in needed if getattr(args, flag) is None]
    if missing:
        raise ThreshnetError(f"{kind} requires {' '.join(missing)}")
    value = closed_form(args, pareto)
    print(format(value, ".17g"))
    print(json.dumps({"kind": kind, "value": value}, sort_keys=True))
    return 0


def cmd_calibrate(args) -> int:
    theta, achieved = _calibrate(args, ParetoParams(a=args.a, w0=args.w0))
    payload = {
        "theta": theta,
        "expected_edges": achieved,
        "target_edges": args.target_edges,
        "n": args.n,
        "a": args.a,
        "w0": args.w0,
        "variant": args.variant,
    }
    print(format(theta, ".17g"))
    print(json.dumps(payload, sort_keys=True))
    if args.out_dir:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        tio.write_json(out / "calibration.json", payload)
    return 0


def _fit_payload(fit: statfit.FitResult, gof: statfit.GofResult | None) -> dict:
    payload = {
        "alpha_hat": fit.alpha_hat,
        "x_min": fit.x_min,
        "ks_stat": fit.ks_stat,
        "n_tail": fit.n_tail,
        "alpha_continuous_approx": fit.alpha_continuous,
        "n_zero_degree": fit.n_zero,
    }
    if gof is not None:
        payload["p_value"] = gof.p_value
        payload["p_stderr"] = gof.stderr
        payload["n_bootstrap"] = gof.n_bootstrap
    return payload


def _analyze_one(degrees: np.ndarray, args) -> tuple:
    """The fit of `degrees`, its bootstrap (None without --bootstrap) and its CCDF."""
    fit = statfit.fit_powerlaw_discrete(degrees, x_min=args.x_min)
    gof = None
    if args.bootstrap:
        gof = statfit.gof_pvalue(degrees, fit, n_bootstrap=args.bootstrap, seed=args.seed)
    return fit, gof, statfit.ccdf(degrees)


def _edge_degrees(args) -> dict:
    """The degrees of the --edges file's nodes by label: "" undirected, "out" and "in" directed."""
    if args.n is not None and args.n < 1:
        raise DomainError(f"--n must be at least 1, got {args.n}")
    if args.n is not None and args.n > MAX_ANALYZE_NODES:
        raise ResourceLimitError(f"--n {args.n} exceeds the analyze limit of {MAX_ANALYZE_NODES}")
    edges = tio.read_edges_tsv(args.edges)
    negative = edges[edges < 0]
    if negative.size:  # before n is inferred from the largest id
        raise SeriesFormatError(f"{args.edges}: node id {negative[0]} is negative")
    n = args.n if args.n is not None else int(edges.max()) + 1
    if n > MAX_ANALYZE_NODES:  # only an inferred count can exceed it here
        raise ResourceLimitError(f"{args.edges}: node count {n} (largest id + 1) exceeds the analyze limit of {MAX_ANALYZE_NODES}")
    bad = edges[edges >= n]
    if bad.size:
        raise SeriesFormatError(f"{args.edges}: node id {bad[0]} outside [0, {n})")
    try:
        degrees = degree_sequence(edges, n, args.directed)
    except (MemoryError, ValueError) as exc:  # ValueError: more bytes than an array may hold
        raise ResourceLimitError(f"{args.edges}: degree counts of {n} nodes do not fit ({exc})") from None
    return dict(zip(("out", "in"), degrees)) if args.directed else {"": degrees}


def cmd_analyze(args) -> int:
    if not (0 <= args.seed < 2 ** 64):
        raise DomainError(f"--seed must be in [0, 2^64), got {args.seed}")
    if args.bootstrap and args.bootstrap < 100:
        raise DomainError(f"--bootstrap must be 0 or at least 100, got {args.bootstrap}")
    series = {"": tio.read_degree_file(args.degrees)} if args.degrees else _edge_degrees(args)
    analyses = {label: _analyze_one(degrees, args) for label, degrees in series.items()}
    out = Path(args.out_dir)  # made only once every fit has succeeded
    out.mkdir(parents=True, exist_ok=True)
    for label, (fit, gof, (values, fractions)) in analyses.items():
        suffix = f"_{label}" if label else ""
        tio.write_json(out / f"fit{suffix}.json", _fit_payload(fit, gof))
        tio.write_ccdf_csv(out / f"ccdf{suffix}.csv", values, fractions)
        pstr = f" p={gof.p_value:.4f}" if gof else ""
        print(f"{label or 'degrees'}: alpha={fit.alpha_hat:.4f} x_min={fit.x_min} ks={fit.ks_stat:.5f}{pstr}")
    return 0


def cmd_growth_sweep(args) -> int:
    pareto = ParetoParams(a=args.a, w0=args.w0)
    if args.seeds < 1:
        raise DomainError(f"--seeds must be at least 1, got {args.seeds}")
    if args.fit:
        growthmod._check_fit_sizes(args.ns)  # before any graph is sampled
    seeds = list(range(args.seeds))
    sweep = growthmod.run_growth_sweep(_schedule(args), args.ns, pareto, seeds)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for seed, series in sweep.items():
        growthmod.write_series_csv(out / f"series_seed{seed}.csv", series)
    mean_ms = [float(np.mean([sweep[s].points[i].m for s in seeds])) for i in range(len(args.ns))]
    for pt, mean_m in zip(sweep[seeds[0]].points, mean_ms):
        print(f"n={pt.n} theta={pt.theta:.6g} em={pt.em:.6g} mean_m={mean_m:.6g}")
    if args.fit:
        payload = _growth_fit_payload(growthmod.fit_growth_curve(list(zip(args.ns, mean_ms))))
        tio.write_json(out / "growth_fit.json", payload)
        print(json.dumps(payload, sort_keys=True))
    if len(seeds) >= growthmod.MIN_CONCENTRATION_SEEDS:
        rows = growthmod.concentration_report(sweep)
        for row in rows:
            flag = " FLAGGED" if row.flagged else ""
            print(
                f"n={row.n} mean_m={row.mean_m:.6g} sample_var={row.sample_var:.6g} "
                f"predicted_var={row.predicted_var:.6g} ratio={row.ratio:.3f}{flag}"
            )
    return 0


def _growth_fit_payload(fit: growthmod.GrowthFit) -> dict:
    return {"c1": fit.c1, "c2": fit.c2, "residual_rms": fit.residual, "log": "natural"}


def cmd_growth_fit(args) -> int:
    series = growthmod.ingest_edge_count_series(args.infile)
    fit = growthmod.fit_growth_curve([(p.n, p.m) for p in series.points])
    print(json.dumps(_growth_fit_payload(fit), sort_keys=True))
    return 0


def _int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="threshnet", description=__doc__)
    parser.add_argument("--version", action="version", version=f"threshnet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="sample a graph and write node/edge tables")
    g.add_argument("--n", type=int, required=True)
    _add_pareto_args(g)
    g.add_argument("--d", type=int, default=3)
    g.add_argument("--theta", type=float, default=None)
    g.add_argument("--target-edges", type=float, default=None, dest="target_edges")
    g.add_argument("--schedule", choices=["powerlaw"], default=None)
    g.add_argument("--D", type=float, default=None)
    _add_variant_args(g)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--max-edges", type=int, default=DEFAULT_MAX_EDGES, dest="max_edges")
    g.add_argument("--out-dir", default=".", dest="out_dir")
    g.set_defaults(func=cmd_generate)

    o = sub.add_parser("oracle", help="evaluate a closed-form probability or moment")
    o.add_argument("kind", choices=list(_ORACLES))
    _add_pareto_args(o)
    o.add_argument("--theta", type=float, default=None)
    o.add_argument("--n", type=int, default=None)
    o.add_argument("--w", type=float, default=None)
    o.add_argument("--alpha", type=float, default=None)
    o.add_argument("--beta", type=float, default=None)
    o.add_argument("--h", type=str, default=None)
    o.add_argument("--D", type=float, default=None)
    o.set_defaults(func=cmd_oracle)

    c = sub.add_parser("calibrate", help="solve the threshold for a target edge count")
    c.add_argument("--n", type=int, required=True)
    _add_pareto_args(c)
    c.add_argument("--target-edges", type=float, required=True, dest="target_edges")
    c.add_argument("--variant", choices=["undirected", "directed"], default="undirected")
    c.add_argument("--alpha", type=float, default=None)
    c.add_argument("--beta", type=float, default=None)
    c.add_argument("--out-dir", default=None, dest="out_dir")
    c.set_defaults(func=cmd_calibrate, h=None)

    a = sub.add_parser("analyze", help="fit the degree distribution of an edge list")
    src = a.add_mutually_exclusive_group(required=True)
    src.add_argument("--edges", default=None)
    src.add_argument("--degrees", default=None)
    a.add_argument(
        "--n", type=int, default=None,
        help=f"node count, 1 to {MAX_ANALYZE_NODES} (pads isolated nodes; default: largest id + 1)",
    )
    a.add_argument("--directed", action="store_true")
    a.add_argument("--x-min", type=int, default=None, dest="x_min")
    a.add_argument("--bootstrap", type=int, default=0, help="bootstrap replicates (0 = skip)")
    a.add_argument("--seed", type=int, default=0)
    a.add_argument("--out-dir", default=".", dest="out_dir")
    a.set_defaults(func=cmd_analyze)

    gr = sub.add_parser("growth", help="growth sweeps and growth-curve fits")
    gr_sub = gr.add_subparsers(dest="growth_command", required=True)
    gs = gr_sub.add_parser("sweep", help="count edges at each n under a threshold schedule")
    gs.add_argument("--schedule", choices=["powerlaw", "linear"], required=True)
    gs.add_argument("--D", type=float, default=None)
    gs.add_argument("--coeff", type=float, default=1.0, help="linear schedule: target m = coeff * n (default 1)")
    _add_pareto_args(gs)
    gs.add_argument("--ns", type=_int_list, required=True, help="comma-separated node counts")
    gs.add_argument("--seeds", type=int, default=1)
    gs.add_argument("--fit", action="store_true")
    gs.add_argument("--out-dir", default=".", dest="out_dir")
    gs.set_defaults(func=cmd_growth_sweep)
    gf = gr_sub.add_parser("fit", help="fit c1*n*ln(n) + c2*n to an ingested series")
    gf.add_argument("--in", dest="infile", required=True)
    gf.set_defaults(func=cmd_growth_fit)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # allow `growth --schedule ...` as shorthand for `growth sweep --schedule ...`
    if argv and argv[0] == "growth" and len(argv) > 1 and argv[1].startswith("--"):
        argv.insert(1, "sweep")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ThreshnetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
