"""Command-line front end.

    gtseq <mode> --config <file> [--out PATH] [--format csv|jsonl]
                 [--seed U64] [--threads N]

Exit codes: 0 success, 1 validation error, 2 I/O error, 3 numerical or
termination failure (including verify-unbiased checks that do not pass).
"""

from __future__ import annotations

import argparse
import os
import sys

from .bench import run_mode, write_records
from .config import FORMATS, MODES, RUN_RULES, load_config
from .errors import ConfigError, GtseqError

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_NUMERICAL = 3

_MODE_HELP = {
    "estimate": "evaluate estimators at explicit sample points",
    "verify-unbiased": "check truncated expectations against the true parameters",
    "scan-properness": "enumerate sample points and report improper estimates",
    "identify": "report contrast determinants and identifiability of misclassification models",
    "simulate": "stream simulated walk terminals",
    "bench": "Monte Carlo bias/MSE comparison of estimators over a parameter grid",
}


def build_parser() -> argparse.ArgumentParser:
    width = max(map(len, MODES))
    parser = argparse.ArgumentParser(
        prog="gtseq",
        description="Prevalence estimation for pooled testing under sequential sampling plans.",
        epilog="modes:\n" + "\n".join(f"  {mode:<{width}}  {_MODE_HELP[mode]}" for mode in MODES),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("mode", choices=MODES, metavar="mode", help="one of the modes below")
    parser.add_argument("--config", required=True, help="experiment config file")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    parser.add_argument("--format", metavar="|".join(FORMATS), default=None)
    parser.add_argument("--seed", default=None, help="override config seed")
    parser.add_argument(
        "--threads", default=None,
        help="worker threads over grid points (fallback: GTSEQ_THREADS; "
        "default: available CPUs in bench, 1 elsewhere)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors; keep the
        # documented contract where usage problems are validation errors.
        return EXIT_OK if not exc.code else EXIT_VALIDATION
    # The mode and every flag but --config override the [run] key of the same name.
    overrides = {key: value for key, value in vars(args).items() if key != "config"}
    try:
        try:
            config = load_config(args.config, overrides)
        except OSError as exc:
            print(f"gtseq: cannot read config: {exc}", file=sys.stderr)
            return EXIT_IO
        env = os.environ.get("GTSEQ_THREADS")
        if config.threads is None and env is not None:
            config.threads = RUN_RULES["threads"](env, None, "GTSEQ_THREADS")
    except ConfigError as exc:
        print(f"gtseq: config error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    try:
        records, ok = run_mode(config)
    except GtseqError as exc:
        print(f"gtseq: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    try:
        write_records(records, config.format, config.out)
    except OSError as exc:
        print(f"gtseq: cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK if ok else EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
