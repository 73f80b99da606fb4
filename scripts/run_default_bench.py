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
from gtseq.config import RUN_RULES, load_config  # noqa: E402


def run(config_name: str, out_path: Path, overrides: dict[str, str | None]) -> None:
    records, _ = run_mode(load_config(str(REPO / "configs" / config_name), overrides))
    write_records(records, "csv", str(out_path))
    ub = [r for r in records if r.estimator.startswith("UB_")]
    mle = [r for r in records if r.estimator.startswith("MLE_")]
    print(f"{out_path}: {len(records)} rows")
    if ub and mle:
        worst_ub = max(abs(r.bias) for r in ub)
        worst_mle = max(abs(r.bias) for r in mle)
        print(f"  worst |bias|: unbiased={worst_ub:.2e}  mle={worst_mle:.2e}")


def run_setting(key: str):
    """The argparse type of a flag that overrides [run] key `key`: checked by that key's rule."""

    def check(text: str) -> str:
        try:
            RUN_RULES[key](text, None, key)
        except ValueError as exc:  # the rule's ConfigError
            # argparse names the flag: "argument --seed: must be >= 0, got -1".
            raise argparse.ArgumentTypeError(str(exc).removeprefix(f"{key} ")) from None
        return text

    return check


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("outdir", nargs="?", default="bench_results")
    parser.add_argument("--replicates", type=run_setting("replicates"), default=None)
    parser.add_argument("--seed", type=run_setting("seed"), default=None)
    args = parser.parse_args()
    overrides = {"replicates": args.replicates, "seed": args.seed}
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    run("bench_default.cfg", outdir / "bench_one_disease.csv", overrides)
    run("bench_two_default.cfg", outdir / "bench_two_disease.csv", overrides)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
