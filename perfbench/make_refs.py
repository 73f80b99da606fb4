"""Regenerate the reference outputs in perfbench/ref/ from the current source.

    python3 perfbench/make_refs.py [WORKLOAD ...]

Run from the checkout root.  Each workload runs once at its default seed
(benchmark seed 0).  Only regenerate when a change is meant to alter output,
and say so where the change is recorded.
"""

from __future__ import annotations

import os
import shutil
import sys

from run import HERE, OUT_DIR, Jobs, child_env, now
from workloads import WORKLOADS


def main(names: list[str]) -> int:
    tmp = os.path.join(OUT_DIR, "tmp-refs")
    os.makedirs(tmp, exist_ok=True)
    jobs = Jobs(child_env(os.path.abspath(tmp)), now())
    for name in names or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        out = os.path.join(tmp, workload.ref)
        seed = workload.gtseq_seed(0)
        report = jobs.run("--workload", name, "--out", out, *([] if seed is None else ["--gtseq-seed", str(seed)]))
        if report is None or report["exit"] != 0:
            print(f"{name}: job failed", file=sys.stderr)
            return 1
        shutil.copyfile(out, os.path.join(HERE, "ref", workload.ref))
        print(f"{name}: wrote ref/{workload.ref}")
    shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
