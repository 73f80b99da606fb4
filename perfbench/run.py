"""gtseq benchmark: time one workload end to end, or trace it layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a gtseq checkout.  Every job runs in a fresh interpreter
(perfbench/child.py) with gtseq imported from `src/`, one thread, and
GTSEQ_THREADS unset.  Jobs are repeated until about S seconds have been
measured (at least one job).  With --trace 0 the end-to-end metrics of
BENCHMARK.json are reported; with --trace 1 each repetition is an untraced
job followed by a traced one, and the per-layer metrics are reported.  Every
output is checked (perfbench/checks.py).  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

Each invocation appends a manifest line (commit, versions, nproc, seed, raw
per-job samples, work-unit denominators) to .perfbench_out/manifest.jsonl;
traced runs also leave their spans in .perfbench_out/spans-<workload>.json.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from checks import Tally, check_output, self_test
from workloads import WORKLOADS, probe_config

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"
SETUP_PROBES = 5
# No new job starts after this many seconds, so a run ends well within 180 s.
LAST_START_S = 150.0
JOB_TIMEOUT_S = 175.0


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env(tmp: str) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("GTSEQ_THREADS", "PYTHONPATH")}
    env.update(
        PYTHONPATH=os.path.abspath("src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        TMPDIR=tmp,
    )
    return env


class Jobs:
    """Starts child jobs, each waited for, and keeps their set-up samples."""

    def __init__(self, env: dict[str, str], started: float):
        self.env = env
        self.started = started
        self.setup_s: list[float] = []
        self.numpy = None

    def run(self, *args: str) -> dict | None:
        timeout = max(1.0, JOB_TIMEOUT_S - (now() - self.started))
        spawned = now()
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "child.py"), *args],
                env=self.env, capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            print(f"job {args} timed out after {timeout:.0f} s", file=sys.stderr)
            return None
        if proc.returncode != 0:
            print(f"job {args} exited {proc.returncode}:\n{proc.stderr}", file=sys.stderr)
            return None
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        report["setup_s"] = report["setup_done"] - spawned
        self.setup_s.append(report["setup_s"])
        self.numpy = report["numpy"]
        return report


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git; None outside a repository."""
    try:
        with open(os.path.join(".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(".git", ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(".git", "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = now()

    workload = WORKLOADS[args.workload]
    ref_path = os.path.join(HERE, "ref", workload.ref)
    needed = ["BENCHMARK.json", "src/gtseq/__init__.py", ref_path] + ([workload.config] if workload.config else [])
    missing = [path for path in needed if not os.path.isfile(path)]
    if missing or args.seed < 0 or args.seconds <= 0:
        print(f"run.py: run from a gtseq checkout with --seed >= 0 and --seconds > 0; missing {missing}",
              file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    with open(ref_path, encoding="utf-8") as fh:
        ref_text = fh.read()

    tmp = os.path.join(OUT_DIR, f"tmp-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    try:
        result = measure(workload, args, ref_text, tmp, started)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if result is None:
        return 1
    tally, metrics, manifest = result

    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print(f"run.py: no value for {missing}", file=sys.stderr)
        return 1
    manifest["checks"] = {"attempted": tally.attempted, "failed": tally.failed, "messages": tally.messages}
    with open(os.path.join(OUT_DIR, "manifest.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(json.dumps(manifest) + "\n")

    print(f"workload {workload.name}  seed {args.seed} (gtseq seed {workload.gtseq_seed(args.seed)})  "
          f"trace {args.trace}  jobs {manifest['jobs']}")
    for m in declared:
        print(f"  {m['name']:<42} {metrics[m['name']]:>14.6g} {m['unit']}")
    print(f"  {'fail_frac':<42} {tally.failed}/{tally.attempted} checks")
    for message in tally.messages:
        print(f"  FAILED {message}")
    correct = tally.failed == 0 and all(n > 0 for n in manifest["self_test"].values())
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


def check_probe(workload, jobs: Jobs, ref_text: str, tmp: str, tally: Tally) -> None:
    """Run the workload's first grid points at the default seed and compare them exactly.

    This keeps the reference comparison live at every seed; the probe is not timed.
    """
    probe = os.path.join(tmp, "probe.cfg")
    with open(workload.config, encoding="utf-8") as src, open(probe, "w", encoding="utf-8") as dst:
        dst.write(probe_config(src.read()))
    out = os.path.join(tmp, "probe.out")
    report = jobs.run("--workload", workload.name, "--gtseq-seed", str(workload.gtseq_seed(0)),
                      "--config", probe, "--out", out)
    if report is None or report["exit"] != 0:
        tally.fail_all(workload.probe_rows + 1, "reference probe failed")
        return
    with open(out, encoding="utf-8") as fh:
        check_output(workload, fh.read(), ref_text, True, tally, rows=workload.probe_rows)


def measure(workload, args, ref_text: str, tmp: str, started: float):
    """Run the jobs; returns (tally, metrics, manifest) or None when no job completed."""
    jobs = Jobs(child_env(os.path.abspath(tmp)), started)
    if jobs.run("--setup-only") is None:  # warm-up: fills the bytecode caches
        return None
    jobs.setup_s.clear()
    for _ in range(SETUP_PROBES):
        jobs.run("--setup-only")

    seed = workload.gtseq_seed(args.seed)
    exact = workload.has_reference(args.seed)
    job_args = ["--workload", workload.name] + ([] if seed is None else ["--gtseq-seed", str(seed)])
    tally = Tally()
    first_text = None
    self_tested: dict[str, int] = {}
    samples: dict[str, list[float]] = {"wall_s": [], "peak_rss_mb": []}
    layers: list[dict] = []
    overhead: list[float] = []
    durations: list[float] = []

    def job(*extra: str) -> tuple[dict | None, str | None]:
        out = os.path.join(tmp, f"job-{len(durations)}-{len(extra)}.out")
        report = jobs.run(*job_args, "--out", out, *extra)
        if report is None or report["exit"] != 0:
            # Every check the job would have had: exit code, schema, one per record.
            tally.fail_all(workload.rows + 2, f"job failed: {report and report['exit']}")
            return None, None
        tally.check(True, "exit 0")
        with open(out, encoding="utf-8") as fh:
            return report, fh.read()

    if workload.probe_rows and not exact:
        check_probe(workload, jobs, ref_text, tmp, tally)
    measured_from = now()
    while True:
        t0 = now()
        report, text = job()
        traced = traced_text = None
        if args.trace:
            spans_path = os.path.join(OUT_DIR, f"spans-{workload.name}.json")
            traced, traced_text = job("--spans", spans_path)
        if report is not None:
            samples["wall_s"].append(report["wall_s"])
            samples["peak_rss_mb"].append(report["peak_rss_mb"])
            if first_text is None:
                first_text = text
                check_output(workload, text, ref_text, exact, tally)
                self_tested = self_test(workload, text, ref_text, exact)
            else:
                tally.check(text == first_text, "output differs between jobs of one run")
        if traced is not None:
            layers.append(traced["layers"])
            if first_text is None:
                first_text = traced_text
                check_output(workload, traced_text, ref_text, exact, tally)
            else:
                tally.check(traced_text == first_text, "traced output differs from untraced output")
            if report is not None:
                overhead.append(traced["wall_s"] - report["wall_s"])
        durations.append(now() - t0)
        per_job = statistics.median(durations)
        if now() - measured_from + per_job > args.seconds or now() - started + per_job > LAST_START_S:
            break

    if args.trace:
        if not layers:
            return None
        metrics = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
        metrics["trace.overhead_s"] = statistics.median(overhead) if overhead else 0.0
    else:
        if not samples["wall_s"]:
            return None
        metrics = {
            "wall_s": statistics.median(samples["wall_s"]),
            "setup_s": statistics.median(jobs.setup_s),
            "work_per_s": statistics.median(workload.units / w for w in samples["wall_s"]),
            "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
        }
    manifest = {
        "time": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": jobs.numpy,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": workload.name,
        "seed": args.seed,
        "gtseq_seed": seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "jobs": len(durations),
        "work_units": {"per_job": workload.units, "unit": workload.unit},
        "reference_compared": exact,
        "self_test": self_tested,
        "samples": {**samples, "setup_s": jobs.setup_s, "trace_overhead_s": overhead},
        "layers": layers,
        "metrics": metrics,
    }
    return tally, metrics, manifest


if __name__ == "__main__":
    sys.exit(main())
