"""Benchmark harness and record output.

Grid points are data-parallel: every point draws its replicates from an RNG
stream spawned as (master seed, grid index), and records are emitted sorted
by grid index, so output is byte-identical regardless of the worker count.
numpy releases the GIL while it draws, so `bench` runs its points on one
thread per available CPU unless `threads` is set; the other modes are
GIL-bound Python and run serially unless it is.  A failing point stops the
points after it from starting, and the first failure in grid order is raised;
a point that runs out of memory raises a GtseqError that names it.
Monte Carlo summaries are sums over distinct samples weighted by their counts.
numpy, the thread pool and json are imported where a run first uses them, so
the exact modes start without them; JSON lines write a NaN or infinity as null.
"""

from __future__ import annotations

import csv
import io
import math
import os
import sys
import threading
from dataclasses import dataclass, fields

from .config import ExperimentConfig, GridPoint, resolve_estimators
from .errors import GtseqError
from .estimators import TWO_COMPONENTS, evaluate, evaluate_table, scan_properness
# Not called here since `evaluate` dispatches; perfbench/spans.py traces these names.
from .estimators import (  # noqa: F401
    mle_one,
    mle_two,
    unbiased_one,
    unbiased_one_misclass,
    unbiased_two,
    unbiased_two_misclass,
)
from .model import (
    identifiability,
    independent_errors,
    observed_cell_probs,
    observed_pos_prob,
    pool_cell_probs,
)
from .numerics import float_quotient
from .plans import imn_draws, simulate_imn_counts
from .verify import verify_one, verify_two


@dataclass(kw_only=True)
class EstimateRecord:
    """One output row: an estimator evaluation or a Monte Carlo summary.

    The fields are declared in CSV column order; :data:`CSV_HEADER` is read off them.
    """

    estimator: str
    p: float | None = None
    p10: float | None = None
    p01: float | None = None
    p11: float | None = None
    k: int
    c: int
    pi0: float | None = None
    pi1: float | None = None
    pi0_2: float | None = None
    pi1_2: float | None = None
    component: str
    sample: str = ""
    replicates: int | None = None
    estimate: float | None = None
    bias: float | None = None
    mse: float | None = None
    se: float | None = None
    flags: str = ""

    def as_row(self) -> list[str]:
        def fmt(value) -> str:
            if value is None:
                return ""
            if isinstance(value, float):
                return format(value, ".17g")
            return str(value)

        return [fmt(getattr(self, name)) for name in CSV_HEADER]

    def as_json_obj(self) -> dict:
        """The fields by name; JSON has no NaN or infinity, so a non-finite float is None."""

        def value(name: str):
            v = getattr(self, name)
            return None if isinstance(v, float) and not math.isfinite(v) else v

        return {name: value(name) for name in CSV_HEADER}


CSV_HEADER = [f.name for f in fields(EstimateRecord)]


def write_records(records, fmt: str, path: str | None) -> None:
    """Write CSV (fixed header) or JSON lines with identical field names.

    Floats are rendered with 17 significant digits, so values round-trip.  CSV
    writes a NaN or infinite float as nan or inf, JSON lines as null.
    """
    text = render_records(records, fmt)
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def render_records(records, fmt: str) -> str:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for record in records:
            writer.writerow(record.as_row())
        return buf.getvalue()
    if fmt == "jsonl":
        import json
        return "".join(json.dumps(r.as_json_obj(), allow_nan=False) + "\n" for r in records)
    raise ValueError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# Per-point parameters
# ---------------------------------------------------------------------------


def _params(point: GridPoint) -> dict:
    """The keyword parameters `evaluate` and `scan_properness` take at a grid point."""
    model = point.model
    if point.family == "one":
        return dict(specificity=model.specificity, sensitivity=model.sensitivity)
    return dict(misclass=model.misclass)


def _components(point: GridPoint) -> tuple[str, ...]:
    return ("p",) if point.family == "one" else TWO_COMPONENTS


def _summary(
    values: np.ndarray, weights: np.ndarray, truth: float
) -> tuple[float, float, float, float]:
    """Mean, bias, MSE and SE of `values` repeated `weights` times; pairwise sums, no BLAS."""
    import numpy as np
    n = int(np.add.reduce(weights))
    mean = float(np.add.reduce(weights * values)) / n
    mse = float(np.add.reduce(weights * (values - truth) ** 2)) / n
    ss = float(np.add.reduce(weights * (values - mean) ** 2))
    se = math.sqrt(ss / (n - 1)) / math.sqrt(n) if n > 1 else math.nan
    return mean, mean - truth, mse, se


def _base_record(point: GridPoint, estimator: str, component: str, **kw) -> EstimateRecord:
    common = dict(estimator=estimator, k=point.k, c=point.c, component=component)
    if point.family == "one":
        common["p"] = point.p[0]
        if point.misclass is not None:
            common["pi0"], common["pi1"] = point.misclass
    else:
        common["p10"], common["p01"], common["p11"] = point.p
        if point.misclass is not None:
            common["pi0"], common["pi1"], common["pi0_2"], common["pi1_2"] = point.misclass
    common.update(kw)
    return EstimateRecord(**common)


def _flags(**counts) -> str:
    return ";".join(f"{name}={n}" for name, n in counts.items() if n)


# ---------------------------------------------------------------------------
# Mode runners
# ---------------------------------------------------------------------------


def _walk_args(point: GridPoint, config: ExperimentConfig) -> tuple:
    """(c, step probabilities, replicates, RNG stream) of the grid point's walks."""
    import numpy as np
    model = point.model
    if point.family == "one":
        step_probs: tuple[float, ...] = (float(observed_pos_prob(model)),)
    else:
        probs = pool_cell_probs(model) if model.is_perfect_test else observed_cell_probs(model)
        step_probs = tuple(float(v) for v in probs[:3])
    seed_seq = np.random.SeedSequence(config.seed, spawn_key=(point.index,))
    return point.c, step_probs, config.replicates, seed_seq


def tally(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of `counts` in lexicographic order, and their multiplicities.

    Rows are keyed by one mixed-radix integer while (max + 1)**t fits in intp;
    past that the key would wrap, and the slower row-wise `np.unique` gives the
    same order exactly.
    """
    import numpy as np
    t = counts.shape[1]
    base = int(counts.max(initial=0)) + 1
    if base**t > np.iinfo(np.intp).max:
        return np.unique(counts, axis=0, return_counts=True)
    # A row's key is its dot product with the place values base**(t-1), ..., base, 1.
    keys, weights = _tally_keys(counts @ base ** np.arange(t - 1, -1, -1), base**t)
    return _decode_keys(keys, base, t), weights


def _tally_keys(keys: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of `keys` in [0, size), ascending, and their multiplicities.

    It may sort `keys` in place.  While the key range is at most the key count,
    the keys are counted with `np.bincount`, else sorted with their runs marked
    in one mask: beside the keys it holds one bool per key, then O(distinct keys).
    """
    import numpy as np
    n = len(keys)
    if size <= n:
        weights = np.bincount(keys, minlength=size)
        keys = np.flatnonzero(weights)
        weights = weights[keys]
    else:
        keys.sort()
        # run_start[i]: a run of equal keys starts at row i; row n closes the last run.
        run_start = np.empty(n + 1, dtype=bool)
        run_start[0] = run_start[n] = True
        np.not_equal(keys[1:], keys[:-1], out=run_start[1:n])
        weights = np.diff(np.flatnonzero(run_start))
        keys = keys[run_start[:n]]
    return keys, weights


def _decode_keys(keys: np.ndarray, base: int, t: int) -> np.ndarray:
    """The (len(keys), t) rows whose mixed-radix keys in `base` are `keys`, which it overwrites."""
    import numpy as np
    samples = np.empty((len(keys), t), dtype=np.int64)
    for j in reversed(range(t)):
        np.divmod(keys, base, out=(keys, samples[:, j]))
    return samples


def _draw_tally(point: GridPoint, config: ExperimentConfig) -> tuple[np.ndarray, np.ndarray]:
    """`tally` of the grid point's walks: one int64 per replicate plus one block, then O(distinct).

    No count exceeds its total, so each block's keys in base max total + 1 are
    written over that block's own totals.
    """
    import numpy as np
    totals, blocks = imn_draws(*_walk_args(point, config))
    t = len(point.p)
    base = int(totals.max(initial=0)) + 1
    if base**t > np.iinfo(np.intp).max:
        return tally(np.concatenate([block for _, block in blocks]))
    if t > 1:  # one trait's keys are its totals
        place = base ** np.arange(t - 1, -1, -1)
        for rows, block in blocks:
            np.matmul(block, place, out=totals[rows])
    keys, weights = _tally_keys(totals, base**t)
    del totals, blocks  # frees the replicate-length buffer, which an unread iterator also holds
    return _decode_keys(keys, base, t), weights


def _bench_point(point: GridPoint, config: ExperimentConfig) -> list[EstimateRecord]:
    import numpy as np
    if config.replicates == 0:
        return []
    samples, weights = _draw_tally(point, config)
    model = point.model
    truths = (model.p,) if point.family == "one" else tuple(map(float, model.prevalences()))
    params = _params(point)
    records = []
    for est in resolve_estimators(point, config.estimators):
        table, clamp_table = evaluate_table(est, samples, point.c, point.k, **params)
        columns = table.T  # views: _summary weights a column first, so any layout sums the same
        flags = _flags(
            clamped=int(np.add.reduce(weights[clamp_table])),
            improper=sum(int(np.add.reduce(weights[(col < 0) | (col > 1)])) for col in columns),
        )
        for name, truth, column in zip(_components(point), truths, columns):
            mean, bias, mse, se = _summary(column, weights, truth)
            records.append(
                _base_record(
                    point, est.value, name,
                    replicates=config.replicates, estimate=mean, bias=bias, mse=mse, se=se,
                    flags=flags,
                )
            )
        del table, clamp_table, columns, column  # freed before the next estimator's table is built
    return records


def _estimate_point(point: GridPoint, config: ExperimentConfig) -> list[EstimateRecord]:
    params = _params(point)
    records = []
    for est in resolve_estimators(point, config.estimators):
        for sample in config.samples:
            label = ":".join(str(v) for v in sample)
            values, clamped = evaluate(est, sample, point.c, point.k, **params)
            for name, value in zip(_components(point), values):
                if not isinstance(value, float):  # exact: rounded once, inf of its sign past the range
                    value = float_quotient(*value.as_integer_ratio())
                flags = _flags(improper=int(not 0 <= value <= 1), clamped=int(clamped))
                records.append(
                    _base_record(point, est.value, name, sample=label, estimate=value, flags=flags)
                )
    return records


def _scan_point(point: GridPoint, config: ExperimentConfig) -> list[EstimateRecord]:
    records = []
    for est in resolve_estimators(point, config.estimators):
        violations = scan_properness(
            est, point.c, point.k,
            bound=config.bound, max_violations=config.max_violations, **_params(point),
        )
        for v in violations:
            records.append(
                _base_record(
                    point, est.value, v.component,
                    sample=":".join(str(i) for i in v.sample),
                    estimate=v.value, flags=f"violates={v.kind.value}",
                )
            )
    return records


def _verify_point(point: GridPoint, config: ExperimentConfig) -> list[EstimateRecord]:
    if point.family == "one":
        rows = [verify_one(point.model, tol=config.tol)]
    else:
        rows = verify_two(point.model, tol=config.tol)
    records = []
    for row in rows:
        detail = (
            f"certified-tail={row.tail_bound:.3g}"
            if row.certified
            else f"uncertified;decay={row.decay_ratio if row.decay_ratio else math.nan:.3g}"
        )
        records.append(
            _base_record(
                point, row.estimator, row.component,
                estimate=row.value, bias=row.value - row.target,
                flags=("ok;" if row.passed else "FAIL;") + detail,
            )
        )
    return records


def _simulate_point(point: GridPoint, config: ExperimentConfig) -> list[EstimateRecord]:
    counts = simulate_imn_counts(*_walk_args(point, config))
    records = []
    for index, row in enumerate(counts):
        records.append(
            _base_record(
                point, "WALK", "terminal",
                sample=":".join(str(int(v)) for v in row),
                replicates=index,
                estimate=float(point.c + int(row.sum())),
            )
        )
    return records


def run_identify(config: ExperimentConfig) -> tuple[list[EstimateRecord], bool]:
    records = []
    for params in config.identify_entries:
        ok, det = identifiability(independent_errors(params))
        records.append(
            EstimateRecord(
                estimator="IDENTIFIABILITY", k=0, c=0, component="det_contrast",
                pi0=params.specificity1, pi1=params.sensitivity1,
                pi0_2=params.specificity2, pi1_2=params.sensitivity2,
                estimate=float(det),
                flags="identifiable" if ok else "not-identifiable",
            )
        )
    return records, True


_POINT_RUNNERS = {
    "bench": _bench_point,
    "estimate": _estimate_point,
    "scan-properness": _scan_point,
    "verify-unbiased": _verify_point,
    "simulate": _simulate_point,
}


def _available_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def run_mode(config: ExperimentConfig) -> tuple[list[EstimateRecord], bool]:
    """Dispatch a validated config; returns (records, all-checks-passed)."""
    if config.mode == "identify":
        return run_identify(config)
    runner = _POINT_RUNNERS[config.mode]
    points = config.points
    threads = config.threads
    if threads is None:
        threads = min(_available_cpus(), len(points)) if config.mode == "bench" else 1
    failed_at = len(points)  # earliest grid position that failed: no point after it starts
    failed_lock = threading.Lock()

    def run(position: int) -> list[EstimateRecord]:
        nonlocal failed_at
        if position > failed_at:
            return []
        point = points[position]
        try:
            return runner(point, config)
        except Exception as exc:
            with failed_lock:
                failed_at = min(failed_at, position)
            if not isinstance(exc, (GtseqError, MemoryError)):
                raise
            where = f"grid point p={point.p} k={point.k} c={point.c} misclass={point.misclass}"
            if isinstance(exc, MemoryError):
                # numpy's message names the refused allocation; a bare MemoryError names none.
                detail = str(exc) or "no allocation named"
                raise GtseqError(f"{where}: out of memory: {detail}") from exc
            raise type(exc)(f"{where}: {exc}") from exc

    if threads > 1:
        # map yields in grid order: every point before the first failure runs, that
        # failure is raised, and the points still queued are cancelled.
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            chunks = list(pool.map(run, range(len(points))))
    else:
        chunks = [run(position) for position in range(len(points))]
    records = [record for chunk in chunks for record in chunk]
    ok = not any("FAIL" in record.flags for record in records)
    return records, ok
