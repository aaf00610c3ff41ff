"""threshnet benchmark: run one workload as a user runs it, check its outputs, print its metrics.

    python3 perfbench/run.py --workload gen-r1|sweep-r2|analyze-r1|all --seed N --seconds S --trace 0|1

Run it from the root of a checkout: the program is imported from `src/`.
Every workload run is a fresh child interpreter (`python -m threshnet.cli
...`, or `perfbench/sweep.py` for the sweep), started one at a time from this
process, and repeated while the next run is expected to end within S
seconds (at least once).  Each run's outputs are checked after the child
exits, outside the timed region; a nonzero exit, a missing output or a
failed check makes the run a failure.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: wall and CPU
time and peak RSS of the child (medians over the runs), `setup_s` (median
of several `threshnet --version` runs: import plus parser build) and
`ok_rate` (1 - failed/attempted).

--trace 1 alternates untraced runs with traced ones (`perfbench/tracing.py`)
and reports the per-layer metrics of BENCHMARK.json, derived from the spans.
It also prints the ROADMAP's R1 stage table rows the workload covers.

Each workload's block of output ends with one JSON line with the keys
`correct`, `attempted`, `failed` and `metrics`; with a single workload it
is the last line of stdout.  A full record (machine facts, every
sample, the spans) is written to `.perfbench_runs/results/`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from tracing import add_process_spans, children, duration, self_times, top_level, totals

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"

SETUP_REPEATS = 5
# A run must end within 180 s, so children still running at this point are killed.
DEADLINE_S = 170.0

# Rows of the ROADMAP "Recent" R1 stage table each workload re-derives:
# stage, per-layer metric, factor to seconds.
R1_STAGES = {
    "gen-r1": (
        ("generate", "generator.generate_s", 1.0),
        ("write_nodes_tsv", "io.write_nodes_s", 1.0),
        ("write_edges_tsv", "io.write_edges_s", 1.0),
    ),
    "analyze-r1": (
        ("read_edges_tsv", "io.read_edges_s", 1.0),
        ("x_min scan", "statfit.fit_s", 1.0),
        ("gof_pvalue, 100 replicates", "statfit.gof_ms_per_replicate", 0.1),
    ),
}


@dataclass
class Rep:
    """One child run of a workload."""

    traced: bool
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    ok: bool
    error: str = ""
    trace: dict | None = None


def child_argv(command: list[str], traced: bool = False, spans: Path | None = None) -> list[str]:
    if traced:
        return [sys.executable, str(BENCH / "tracing.py"), str(spans), *command]
    if command[0] == "sweep":
        return [sys.executable, str(BENCH / "sweep.py"), *command[1:]]
    return [sys.executable, "-m", "threshnet.cli", *command]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(
    argv: list[str], log_path: Path, timeout: float = DEADLINE_S
) -> tuple[int, float, float, float, float]:
    """Run `argv` to its end, killing it after `timeout` s.

    Returns the exit code, start and end on the `time.monotonic()` clock, and
    the CPU s and peak RSS MB of that child alone.
    """
    with open(log_path, "wb") as log:
        start = time.monotonic()
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT
        )
        killer = threading.Timer(timeout, os.kill, (proc.pid, signal.SIGKILL))
        killer.daemon = True
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, start, end, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def _log_tail(path: Path, lines: int = 5) -> str:
    return "\n".join(path.read_text(encoding="utf-8", errors="replace").splitlines()[-lines:])


def run_rep(workload, ctx: dict, work: Path, index: int, traced: bool, deadline: float = math.inf) -> Rep:
    """One checked child run, killed at `deadline` (monotonic); its output directory is removed afterwards."""
    out = work / f"rep{index}"
    out.mkdir(parents=True)
    spans = work / f"spans{index}.json"
    log = work / f"rep{index}.log"
    timeout = max(0.0, min(DEADLINE_S, deadline - time.monotonic()))
    code, start, end, cpu, rss = run_child(child_argv(workload.command(ctx, out), traced, spans), log, timeout)
    error, trace = "", None
    if code != 0:
        error = f"exit code {code}"
    else:
        try:
            workload.check(ctx, out)
            if traced:
                trace = json.loads(spans.read_text(encoding="utf-8"))
                add_process_spans(trace, start, end)
        except Exception as exc:  # any output that cannot be read or verified fails the run
            error = f"{type(exc).__name__}: {exc}"
    shutil.rmtree(out)
    if error:
        print(f"run {index} failed: {error}\n{_log_tail(log)}", file=sys.stderr)
    return Rep(traced, end - start, cpu, rss, ok=not error, error=error, trace=trace)


def measure(workload, ctx: dict, work: Path, seconds: float, traced: bool, deadline: float) -> list[Rep]:
    """Checked runs for about `seconds`, each untraced run followed by a traced one when `traced`.

    The first cycle always runs; another starts only if a cycle as long as
    the last one would end within `seconds`.
    """
    reps: list[Rep] = []
    start = time.monotonic()
    while True:
        cycle_start = time.monotonic()
        reps.append(run_rep(workload, ctx, work, len(reps), traced=False, deadline=deadline))
        if traced:
            reps.append(run_rep(workload, ctx, work, len(reps), traced=True, deadline=deadline))
        now = time.monotonic()
        if now - start + (now - cycle_start) > seconds:
            return reps


def measure_setup(work: Path) -> list[float]:
    """Wall times of `threshnet --version`; a first, untimed run warms the bytecode and file caches."""
    walls = []
    for _ in range(SETUP_REPEATS + 1):
        code, start, end, _, _ = run_child(child_argv(["--version"]), work / "setup.log")
        if code != 0:
            raise RuntimeError(f"`threshnet --version` exited with {code}:\n{_log_tail(work / 'setup.log')}")
        walls.append(end - start)
    return walls[1:]


def end_to_end_metrics(reps: list[Rep], setup_s: float) -> dict[str, float]:
    plain = [r for r in reps if not r.traced]
    return {
        "wall_s": statistics.median(r.wall_s for r in plain),
        "cpu_s": statistics.median(r.cpu_s for r in plain),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in plain),
        "setup_s": setup_s,
        "ok_rate": sum(r.ok for r in reps) / len(reps),
    }


def layer_values(trace: dict, traced_wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced run, whose child took `traced_wall` seconds."""
    spans, counts = trace["spans"], trace["counts"]
    tot, own = totals(spans), self_times(spans)
    t = lambda name: tot.get(name, 0.0)  # noqa: E731
    c = lambda name: counts.get(name, 0)  # noqa: E731
    # The root is the entry point's span (`cli.<command>` or `sweep.main`); the
    # layer spans are its children.  Time in the root outside them is not covered.
    root = next(s["name"] for s in top_level(spans) if not s["name"].startswith("setup"))
    setup_s = sum(duration(s) for s in top_level(spans) if s["name"].startswith("setup"))
    layer_s = sum(duration(s) for s in children(spans, root))
    edges, replicates = c("generator.edges"), c("statfit.replicates")
    return {
        "io.write_nodes_s": t("io.write_nodes"),
        "io.write_edges_s": t("io.write_edges"),
        "io.digest_s": t("io.digest"),
        "io.bytes_written": c("io.bytes_written"),
        "io.read_edges_s": t("io.read_edges"),
        "io.bytes_read": c("io.bytes_read"),
        "model.sample_s": t("model.sample"),
        "model.nodes": c("model.nodes"),
        "generator.generate_s": t("generator.generate"),
        "generator.self_s": own.get("generator.generate", 0.0),
        "generator.candidates": c("generator.candidates"),
        "generator.edges": edges,
        "generator.cand_per_edge": c("generator.candidates") / edges if edges else 0.0,
        "statfit.fit_s": t("statfit.fit"),
        "statfit.xmin_candidates": c("statfit.xmin_candidates"),
        "statfit.ccdf_s": t("statfit.ccdf"),
        "statfit.gof_s": t("statfit.gof"),
        "statfit.replicates": replicates,
        "statfit.gof_ms_per_replicate": 1000.0 * t("statfit.gof") / replicates if replicates else 0.0,
        "analytics.moments_s": t("analytics.moments"),
        "growth.sweep_s": t("growth.sweep"),
        "growth.self_s": own.get("growth.sweep", 0.0),
        # only CLI workloads have a CLI layer
        "cli.self_s": own[root] if root.startswith("cli.") else 0.0,
        "trace.coverage": (setup_s + layer_s) / traced_wall,
    }


def per_layer_metrics(reps: list[Rep]) -> dict[str, float]:
    plain = [r for r in reps if not r.traced]
    traced = [r for r in reps if r.traced and r.trace]
    if not traced:
        raise RuntimeError("no traced run finished with a readable trace")
    wall_s = statistics.median(r.wall_s for r in plain)
    per_rep = [layer_values(r.trace, r.wall_s) for r in traced]
    metrics = {name: statistics.median(v[name] for v in per_rep) for name in per_rep[0]}
    metrics["trace.overhead_s"] = statistics.median(r.wall_s for r in traced) - wall_s
    return metrics


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, or None where it cannot be read."""
    import ctypes

    import numpy

    for path in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def machine_facts(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2 ** 20),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "blas_threads_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
        "seed": seed,
    }


def run_workload(workload, args, declared: dict) -> None:
    """Measure one workload and print its metrics; the last line printed is its JSON result."""
    deadline = time.monotonic() + DEADLINE_S
    section = "per_layer" if args.trace else "end_to_end"
    facts = machine_facts(args.seed)
    print(f"perfbench {workload.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("machine " + json.dumps(facts, sort_keys=True))
    work = RUNS / f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        setup = measure_setup(work)
        ctx = workload.prepare(work, args.seed)
        print(f"graph seed {ctx['graph_seed']}")
        reps = measure(workload, ctx, work, args.seconds, bool(args.trace), deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setup_s = statistics.median(setup)
    values = per_layer_metrics(reps) if args.trace else end_to_end_metrics(reps, setup_s)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared[section]}
    failed = sum(not r.ok for r in reps)

    n_plain = sum(not r.traced for r in reps)
    for name, m in metrics.items():
        print(f"  {name:<30} {m['value']:>14.6g} {m['unit']}")
    print(f"  runs: {len(reps)} attempted ({n_plain} untraced), {failed} failed, fail_rate {failed / len(reps):g}; "
          f"timings are medians; setup_s is the median of {len(setup)} `threshnet --version` runs")
    stages = []
    if args.trace and workload.name in R1_STAGES:
        stages = [(stage, values[key] * scale) for stage, key, scale in R1_STAGES[workload.name]]
        print(f"  R1 stage table rows (graph seed {ctx['graph_seed']}; graph seed 1 is R1):")
        for stage, seconds in stages:
            print(f"    {stage:<28} {seconds:8.3f} s")

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "graph_seed": ctx["graph_seed"],
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": facts,
        "setup_walls_s": setup,
        "runs": [asdict(r) for r in reps],
        "metrics": metrics,
        "stage_table": stages,
    }
    results = RUNS / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": len(reps), "failed": failed, "metrics": metrics}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload, a comma-separated list of them, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "threshnet" / "__init__.py").is_file():
        print(f"error: no threshnet sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else args.workload.split(",")
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {', '.join(unknown)}; choose from {', '.join(WORKLOADS)} or 'all'")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for name in names:
        run_workload(WORKLOADS[name], args, declared)
    return 0


if __name__ == "__main__":
    sys.exit(main())
