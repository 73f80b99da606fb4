#!/usr/bin/env python3
"""Run the default bias/MSE benchmarks and write one CSV per family.

Usage: python scripts/run_default_bench.py [outdir] [--replicates N] [--seed S]
"""

import argparse
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from gtseq.bench import run_mode, write_records  # noqa: E402
from gtseq.config import load_config  # noqa: E402


def run(config_name: str, out_path: Path, replicates: int | None, seed: int | None) -> None:
    config = load_config(str(REPO / "configs" / config_name))
    if replicates is not None:
        config.replicates = replicates
    if seed is not None:
        config.seed = seed
    records, _ = run_mode(config)
    write_records(records, "csv", str(out_path))
    ub = [r for r in records if r.estimator.startswith("UB_")]
    mle = [r for r in records if r.estimator.startswith("MLE_")]
    print(f"{out_path}: {len(records)} rows")
    if ub and mle:
        worst_ub = max(abs(r.bias) for r in ub)
        worst_mle = max(abs(r.bias) for r in mle)
        print(f"  worst |bias|: unbiased={worst_ub:.2e}  mle={worst_mle:.2e}")


def non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("outdir", nargs="?", default="bench_results")
    parser.add_argument("--replicates", type=non_negative, default=None)
    parser.add_argument("--seed", type=non_negative, default=None)
    args = parser.parse_args()
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    run("bench_default.cfg", outdir / "bench_one_disease.csv", args.replicates, args.seed)
    run("bench_two_default.cfg", outdir / "bench_two_disease.csv", args.replicates, args.seed)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
