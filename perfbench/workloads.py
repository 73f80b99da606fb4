"""The benchmark's workloads, ordered by the layer each one stresses.

Each workload is one fresh interpreter running one gtseq job, because that
is how the CLI is used: every invocation pays for the imports and for a cold
`_series_two_cached`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

# Grid lists a reference probe cuts to their first item.  misclass is the
# innermost grid dimension, so the probe keeps the grid indices, and hence
# the RNG streams, of the full run.
_PROBE_KEYS = re.compile(r"^(\s*(?:p|k|c)\s*=\s*)([^,]*),.*$")


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str | None  # gtseq CLI mode; None for the library scan call
    config: str | None  # config file, relative to the checkout root
    default_seed: int | None  # None: deterministic, the seed is ignored
    units: int  # work units done by one job
    unit: str
    rows: int  # output records (violations for the scan) one job must produce
    ref: str  # reference output at the default seed, under perfbench/ref/
    probe_rows: int | None = None  # records of the reference probe; None: no probe

    def gtseq_seed(self, seed: int) -> int | None:
        """Seed handed to gtseq: the workload's default seed offset by --seed."""
        return None if self.default_seed is None else self.default_seed + seed

    def has_reference(self, seed: int) -> bool:
        return self.default_seed is None or seed == 0


def probe_config(text: str) -> str:
    """The config cut to its first p, k and c: at the default seed it reproduces
    the reference's first records, so a run at any seed can check values exactly."""
    return "\n".join(_PROBE_KEYS.sub(r"\1\2", line) for line in text.splitlines()) + "\n"


WORKLOADS = {
    w.name: w
    for w in (
        # 27 points x 100k replicates, two traits, ub and mle: the bench loop
        # and 164,812 mle_two calls dominate.
        Workload(
            "bench-two", "bench", "configs/bench_two_default.cfg", 20250812,
            27 * 100_000, "replicates", 27 * 2 * 4, "bench-two.csv", probe_rows=2 * 4,
        ),
        # 54 points x 100k replicates, one trait: half RNG, half exact
        # unbiased_one_misclass tables.
        Workload(
            "bench-one", "bench", "configs/bench_default.cfg", 20250811,
            54 * 100_000, "replicates", 54 * 2, "bench-one.csv", probe_rows=2 * 2,
        ),
        # 54 truncated-expectation checks on the exact (Fraction) path.
        Workload(
            "verify-one", "verify-unbiased", "configs/verify_default.cfg", None,
            54, "checks", 54, "verify-one.csv",
        ),
        # The only workload that reaches gtseq.series: an exact properness scan
        # of the two-trait misclassified estimator over all 969 sample points
        # with total <= 16.  Decimal Fractions, because float parameters make
        # the series path far too slow to finish.
        Workload(
            "scan-two-misclass", None, None, None,
            969, "sample points", 1546, "scan-two-misclass.json",
        ),
    )
}


def scan_two_misclass_args() -> tuple[tuple, dict]:
    """Arguments of the scan workload's `scan_properness` call.

    Imports gtseq lazily: only the job process, not run.py, has it on its path.
    """
    from fractions import Fraction as F

    from gtseq.estimators import EstimatorId
    from gtseq.model import IndepErrorParams, independent_errors

    misclass = independent_errors(
        IndepErrorParams(F("0.98"), F("0.95"), F("0.97"), F("0.9"))
    )
    return (EstimatorId.UB_TWO_MISCLASS_SERIES, 1, 2), {"misclass": misclass, "bound": 16}
