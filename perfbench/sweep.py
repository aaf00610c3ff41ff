"""Growth sweep as a library user runs it: one seed, written as a series CSV.

    python perfbench/sweep.py --seed 1 --ns 300000,1000000,3000000 --out-dir OUT

Runs `growth.run_growth_sweep` under theta(n) = D * n^(1/a) for a single
seed (the CLI's `growth sweep --seeds K` can only run seeds 0..K-1) and
writes `OUT/series.csv`.  No node or edge tables are written.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

SERIES_CSV = "series.csv"


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="sweep.py", description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--ns", required=True, help="comma-separated node counts")
    p.add_argument("--a", type=float, default=3.0)
    p.add_argument("--w0", type=float, default=1.0)
    p.add_argument("--D", type=float, default=1.0)
    p.add_argument("--out-dir", required=True, dest="out_dir")
    return p


def parse_ns(text: str) -> list[int]:
    return [int(x) for x in text.split(",")]


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    from threshnet import ParetoParams, PowerLawSchedule, run_growth_sweep, write_series_csv

    sweep = run_growth_sweep(
        PowerLawSchedule(D=args.D), parse_ns(args.ns), ParetoParams(a=args.a, w0=args.w0), [args.seed]
    )
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_series_csv(out / SERIES_CSV, sweep[args.seed])
    return 0


if __name__ == "__main__":
    sys.exit(main())
