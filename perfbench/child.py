"""One timed gtseq job in a fresh interpreter; started by run.py.

    python3 perfbench/child.py --setup-only
    python3 perfbench/child.py --workload NAME --out PATH [--gtseq-seed N]
                               [--config PATH] [--spans PATH]

Prints one JSON line: the CLOCK_MONOTONIC time at which `gtseq.cli` finished
importing (the parent subtracts its own start time to get set-up time), the
job's wall time and exit code, peak RSS, and with --spans the per-layer
summary of the traced job.  gtseq must come from the checkout's `src/`.
"""

import time

import gtseq.cli  # noqa: E402  (set-up ends when this import is done)

SETUP_DONE = time.clock_gettime(time.CLOCK_MONOTONIC)

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import numpy  # noqa: E402

from workloads import WORKLOADS, scan_two_misclass_args  # noqa: E402


def run_job(workload, seed, config, out) -> tuple[int, float]:
    """Run the workload once; returns (exit code, wall seconds)."""
    if workload.mode is None:
        args, kwargs = scan_two_misclass_args()
        t0 = time.perf_counter()
        violations = gtseq.estimators.scan_properness(*args, **kwargs)
        wall = time.perf_counter() - t0
        rows = [[list(v.sample), v.component, v.value, v.kind.value] for v in violations]
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)
        return 0, wall
    argv = [workload.mode, "--config", config or workload.config, "--out", out]
    if seed is not None:
        argv += ["--seed", str(seed)]
    t0 = time.perf_counter()
    code = gtseq.cli.main(argv)
    return code, time.perf_counter() - t0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--gtseq-seed", type=int, default=None)
    parser.add_argument("--config", default=None, help="config in place of the workload's own")
    parser.add_argument("--out")
    parser.add_argument("--spans", default=None, help="trace the job and write its spans here")
    args = parser.parse_args()

    src = os.path.join(os.getcwd(), "src", "gtseq")
    if os.path.dirname(os.path.abspath(gtseq.__file__)) != src:
        print(f"child: gtseq imported from {gtseq.__file__}, not {src}", file=sys.stderr)
        return 2
    report = {"setup_done": SETUP_DONE, "numpy": numpy.__version__}
    if not args.setup_only:
        tracer = None
        if args.spans:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
        origin = time.perf_counter_ns()
        code, wall = run_job(WORKLOADS[args.workload], args.gtseq_seed, args.config, args.out)
        report.update(
            exit=code,
            wall_s=wall,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
        if tracer is not None:
            report["layers"] = tracer.summary()
            tracer.write(args.spans, origin)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
