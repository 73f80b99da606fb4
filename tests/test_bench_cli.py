"""Bench harness and CLI: records, formats, determinism, exit codes."""

import concurrent.futures
import csv
import hashlib
import inspect
import io
import json
import math
import os
import resource
import subprocess
import sys
import time
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import gtseq
from gtseq import bench, cli, plans
from gtseq.bench import CSV_HEADER, EstimateRecord, render_records, run_mode, tally
from gtseq.cli import main
from gtseq.config import parse_config, resolve_estimators
from gtseq.errors import DomainError
from gtseq.estimators import EstimatorId, evaluate_table, scan_properness
from gtseq.plans import simulate_imn_counts
from test_estimators import SHIPPED_SCAN_SHA256

BENCH_CFG = """\
[run]
mode = bench
seed = 20240901
replicates = 4000

[model]
p = 0.05, 0.1
k = 5
c = 2
misclass = 1:1, 0.98:0.95
"""

TWO_CFG = """\
[run]
mode = bench
seed = 11
replicates = 3000

[model]
family = two
p = 0.1:0.1:0.05
k = 2
c = 1
"""

MISCLASS_TWO_CFG = """\
[run]
mode = bench
seed = 5
replicates = 50

[model]
family = two
p = 0.1:0.1:0.05
k = 5
c = 20
misclass = 0.75:0.875:0.875:0.75
"""


LARGE_TOTALS_CFG = """\
[run]
mode = bench
seed = {seed}
replicates = {replicates}

[model]
family = two
p = 0.2:0.2:0.1
k = {k}
c = {c}
estimators = {estimators}
"""


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_capped(args):
    """Run a command in a child whose address space is capped at 2 GiB.

    An oversized allocation is then refused in the child, not made on the host.
    """
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    return subprocess.run(
        [sys.executable, *args], preexec_fn=cap, capture_output=True, text=True, timeout=300
    )


class TestRecords:
    def test_empty_stream_gives_header_only_csv(self):
        text = render_records([], "csv")
        assert text == ",".join(CSV_HEADER) + "\n"

    def test_single_record_field_order(self):
        record = EstimateRecord(
            estimator="UB_ONE_PERFECT", k=2, c=1, component="p",
            p=0.05, replicates=10, estimate=0.5, bias=0.45, mse=0.2, se=0.01,
        )
        rows = list(csv.reader(io.StringIO(render_records([record], "csv"))))
        assert rows[0] == CSV_HEADER
        parsed = dict(zip(rows[0], rows[1]))
        assert parsed["estimator"] == "UB_ONE_PERFECT"
        assert float(parsed["estimate"]) == 0.5
        assert parsed["p10"] == ""

    def test_float_rendering_round_trips(self):
        record = EstimateRecord(
            estimator="X", k=1, c=1, component="p", estimate=0.1 + 0.2,
        )
        text = render_records([record], "csv")
        value = text.splitlines()[1].split(",")[CSV_HEADER.index("estimate")]
        assert float(value) == 0.1 + 0.2

    def test_jsonl_equals_csv_values(self):
        cfg = parse_config(BENCH_CFG)
        records, _ = run_mode(cfg)
        csv_rows = list(csv.DictReader(io.StringIO(render_records(records, "csv"))))
        json_rows = [json.loads(line) for line in render_records(records, "jsonl").splitlines()]
        assert len(csv_rows) == len(json_rows) > 0
        for crow, jrow in zip(csv_rows, json_rows):
            for key in CSV_HEADER:
                cval, jval = crow[key], jrow[key]
                if cval == "":
                    assert jval in (None, "")
                elif isinstance(jval, float):
                    assert float(cval) == jval
                else:
                    assert cval == str(jval)

    @pytest.mark.filterwarnings("ignore:misclassification parameter <= 0.5")  # the scan's 1:0.25
    def test_jsonl_writes_non_finite_values_as_null(self):
        # A one-replicate bench point has se = nan, and a scan past the float range reports
        # inf.  JSONL wrote NaN and Infinity, which are not JSON; CSV keeps nan and inf.
        def reject(name):
            raise ValueError(f"not JSON: {name}")

        bench_text = BENCH_CFG.replace("replicates = 4000", "replicates = 1")
        scan_text = ("[run]\nmode = scan-properness\nbound = 530\n"
                     "[model]\np = 0.1\nk = 4\nc = 2\nmisclass = 1:0.25\nestimators = ub\n")
        for text, key, word in ((bench_text, "se", "nan"), (scan_text, "estimate", "inf")):
            records, _ = run_mode(parse_config(text))
            csv_rows = list(csv.DictReader(io.StringIO(render_records(records, "csv"))))
            lines = render_records(records, "jsonl").splitlines()
            json_rows = [json.loads(line, parse_constant=reject) for line in lines]
            nulls = [row[key] is None for row in json_rows]
            assert nulls == [row[key] == word for row in csv_rows] and any(nulls)


class TestBench:
    def test_deterministic_given_seed(self):
        a, _ = run_mode(parse_config(BENCH_CFG))
        b, _ = run_mode(parse_config(BENCH_CFG))
        assert render_records(a, "csv") == render_records(b, "csv")

    @pytest.mark.parametrize("text", [BENCH_CFG, TWO_CFG], ids=["one", "two"])
    def test_thread_count_does_not_change_output(self, text):
        base = parse_config(text)
        threaded = parse_config(text)
        threaded.threads = 4
        a, _ = run_mode(base)
        b, _ = run_mode(threaded)
        assert render_records(a, "csv") == render_records(b, "csv")

    def test_seed_changes_output(self):
        a, _ = run_mode(parse_config(BENCH_CFG))
        b, _ = run_mode(parse_config(BENCH_CFG.replace("seed = 20240901", "seed = 7")))
        assert render_records(a, "csv") != render_records(b, "csv")

    def test_ub_bias_within_three_se(self):
        records, _ = run_mode(parse_config(BENCH_CFG))
        ub_rows = [r for r in records if r.estimator.startswith("UB_")]
        assert ub_rows
        for row in ub_rows:
            assert abs(row.bias) <= 3 * row.se, (row.estimator, row.p)

    def test_two_disease_components_and_bias(self):
        records, _ = run_mode(parse_config(TWO_CFG))
        by_est = {}
        for row in records:
            by_est.setdefault(row.estimator, []).append(row)
        assert set(by_est) == {"UB_TWO_PERFECT", "MLE_TWO"}
        assert [r.component for r in by_est["UB_TWO_PERFECT"]] == ["p00", "p10", "p01", "p11"]
        for row in by_est["UB_TWO_PERFECT"]:
            assert abs(row.bias) <= 3 * row.se, row.component

    def test_two_disease_misclass_bench_past_sample_total_64(self):
        # Sample totals well above 64: every replicate is evaluated, none is
        # dropped for its size, and the series estimator stays unbiased.
        text = MISCLASS_TWO_CFG
        walks, _ = run_mode(parse_config(text.replace("mode = bench", "mode = simulate")))
        assert max(w.estimate for w in walks) - 20 > 64
        records, ok = run_mode(parse_config(text))
        assert ok and len(records) == 8
        for row in records:
            assert "error=" not in row.flags and row.estimate is not None, row
            if row.estimator == "UB_TWO_MISCLASS_SERIES":
                assert abs(row.bias) <= 5 * row.se, row.component

    def test_replicates_zero_empty_stream(self):
        cfg = parse_config(BENCH_CFG.replace("replicates = 4000", "replicates = 0"))
        records, ok = run_mode(cfg)
        assert records == [] and ok
        assert render_records(records, "csv") == ",".join(CSV_HEADER) + "\n"


MLE_MISCLASS_TWO_CFG = """\
[run]
mode = bench
seed = 20250813
replicates = 2000

[model]
family = two
p = 0.05:0.05:0.025
k = 2
c = 5
misclass = 0.98:0.95:0.97:0.9
estimators = mle
"""


class TestDefaultThreads:
    """With `threads` unset, bench runs on min(CPUs, points) workers and no other mode starts a pool."""

    @staticmethod
    def _record_pools(monkeypatch, cpus):
        monkeypatch.delenv("GTSEQ_THREADS", raising=False)
        monkeypatch.setattr(bench, "_available_cpus", lambda: cpus, raising=False)
        sizes = []

        class Recording(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers, *args, **kwargs)

        # run_mode imports the pool class when it starts one.
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
        return sizes

    @pytest.mark.parametrize("cpus, pools", [(3, [3]), (8, [4]), (1, [])])
    def test_bench_pool_is_capped_by_cpus_and_points(self, tmp_path, monkeypatch, cpus, pools):
        sizes = self._record_pools(monkeypatch, cpus)
        cfg = write_cfg(tmp_path, BENCH_CFG)  # 4 grid points
        out, serial = tmp_path / "default.csv", tmp_path / "serial.csv"
        assert main(["bench", "--config", cfg, "--out", str(out)]) == 0
        assert sizes == pools
        assert main(["bench", "--config", cfg, "--out", str(serial), "--threads", "1"]) == 0
        assert sizes == pools
        assert out.read_bytes() == serial.read_bytes()

    @pytest.mark.parametrize("threads", [1, 2])
    def test_a_config_line_wins(self, monkeypatch, threads):
        sizes = self._record_pools(monkeypatch, 8)
        text = BENCH_CFG.replace("replicates = 4000", f"replicates = 200\nthreads = {threads}")
        run_mode(parse_config(text))
        assert sizes == ([threads] if threads > 1 else [])

    def test_flags_win_over_the_config_lines(self, tmp_path, monkeypatch):
        sizes = self._record_pools(monkeypatch, 8)
        line_out, flag_out = tmp_path / "line.jsonl", tmp_path / "flag.csv"
        text = BENCH_CFG.replace(
            "replicates = 4000", f"replicates = 200\nthreads = 1\nformat = jsonl\nout = {line_out}"
        )
        cfg = write_cfg(tmp_path, text)
        args = ["bench", "--config", cfg, "--threads", "2", "--format", "csv", "--out", str(flag_out)]
        assert main(args) == 0
        assert sizes == [2] and not line_out.exists()
        assert flag_out.read_text().startswith(",".join(CSV_HEADER) + "\n")

    @pytest.mark.parametrize(
        "mode, run_line, model_line",
        [("verify-unbiased", "", ""), ("scan-properness", "bound = 5", ""),
         ("estimate", "", "y = 0, 1, 3\n"), ("simulate", "", "")],
    )
    def test_other_modes_stay_serial(self, monkeypatch, mode, run_line, model_line):
        sizes = self._record_pools(monkeypatch, 8)
        text = BENCH_CFG.replace("mode = bench", f"mode = {mode}").replace(
            "replicates = 4000", f"replicates = 20\n{run_line}"
        ) + model_line
        config = parse_config(text)
        assert config.threads is None and len(config.points) == 4
        run_mode(config)
        assert sizes == []

    def test_available_cpus_without_an_affinity_call(self, monkeypatch):
        assert bench._available_cpus() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert bench._available_cpus() == 5
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert bench._available_cpus() == 1


def _repeat_summary(values, truth):
    """The per-replicate summary: mean, bias, MSE and SE over every replicate."""
    n = len(values)
    mean = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else math.nan
    return mean, mean - truth, float(np.mean((values - truth) ** 2)), se


class TestTally:
    def test_rows_sorted_with_multiplicities(self):
        for mu in [(0.2,), (0.2, 0.1, 0.05)]:
            counts = simulate_imn_counts(3, mu, 5000, seed=11)
            samples, weights = tally(counts)
            expected = sorted(Counter(map(tuple, counts.tolist())).items())
            assert [tuple(row) for row in samples.tolist()] == [row for row, _ in expected]
            assert weights.tolist() == [n for _, n in expected]
            assert samples.dtype == np.int64

    def test_counts_past_the_int64_key(self):
        # base**3 > 2**63 here, so a mixed-radix int64 key would wrap.
        rng = np.random.default_rng(3)
        counts = rng.integers(0, 3, size=(400, 3))
        counts[::7, 0] = 2**21 + 5
        counts[::11, 1] = 2**40
        counts[::13, 2] = 7_700_000_000
        assert (int(counts.max()) + 1) ** 3 > 2**63
        samples, weights = tally(counts)
        expected = sorted(Counter(map(tuple, counts.tolist())).items())
        assert [tuple(row) for row in samples.tolist()] == [row for row, _ in expected]
        assert weights.tolist() == [n for _, n in expected]

    @pytest.mark.parametrize("t", [1, 3])
    def test_zero_rows(self, t):
        # The key base was read off counts.max(), which has no value for zero rows.
        samples, weights = tally(simulate_imn_counts(2, (0.1, 0.1, 0.05)[:t], 0, 1))
        assert samples.shape == (0, t) and samples.dtype == np.int64
        assert weights.shape == (0,)

    @pytest.mark.parametrize("block", [1, 7, None])
    def test_bench_draws_past_the_int64_key(self, monkeypatch, block):
        # The largest total is about 6.6e9, so the bench's keys in base max total + 1
        # would wrap: the point's blocks are stacked and tallied row-wise.
        if block is not None:
            monkeypatch.setattr(plans, "IMN_BLOCK", block)
        text = LARGE_TOTALS_CFG.format(seed=4, replicates=200, k=30, c=1, estimators="mle")
        config = parse_config(text)
        (point,) = config.points
        counts = simulate_imn_counts(*bench._walk_args(point, config))
        assert (int(counts.sum(axis=1).max()) + 1) ** 3 > 2**63
        samples, weights = bench._draw_tally(point, config)
        want_samples, want_weights = np.unique(counts, axis=0, return_counts=True)
        assert np.array_equal(samples, want_samples) and np.array_equal(weights, want_weights)


class TestBlockSize:
    """Bench bytes do not depend on how many rows each multinomial block draws."""

    @pytest.mark.parametrize("name", ["bench_two_default", "bench_two_misclass"])
    def test_csv_bytes_do_not_depend_on_the_block_size(self, monkeypatch, name):
        path = Path(__file__).resolve().parent.parent / "configs" / f"{name}.cfg"
        text = path.read_text(encoding="utf-8")
        reduced = {"replicates": "3000"}
        want = render_records(run_mode(parse_config(text, reduced))[0], "csv")
        for block in (1, 7, 3000):
            monkeypatch.setattr(plans, "IMN_BLOCK", block)
            assert render_records(run_mode(parse_config(text, reduced))[0], "csv") == want


class TestPointMemory:
    def test_heaviest_two_trait_point_allocates_under_10_mib(self):
        # The shipped bench-two's heaviest point: 73,627 distinct samples of 100,000.  Its
        # tracemalloc peak was 12.6 MiB while tally and the tables made replicate-length
        # temporaries and the previous estimator's table stayed alive; 6.3 MiB since.
        path = Path(__file__).resolve().parent.parent / "configs" / "bench_two_default.cfg"
        cfg = parse_config(path.read_text(encoding="utf-8"))
        point = next(p for p in cfg.points if (p.p, p.k, p.c) == ((0.1, 0.1, 0.05), 10, 20))
        tracemalloc.start()
        try:
            records = bench._bench_point(point, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(records) == 8 and peak < 10 * 2**20, peak

    def test_light_point_at_a_million_replicates_allocates_under_12_mib(self):
        # Drawing and tallying kept the totals, the (n, 3) counts and a key array alive,
        # about 40 bytes per replicate: 30.5 MiB here.  The keys now overwrite the totals
        # block by block, so the point holds one int64 per replicate plus one block.
        path = Path(__file__).resolve().parent.parent / "configs" / "bench_two_default.cfg"
        cfg = parse_config(path.read_text(encoding="utf-8"), {"replicates": "1000000"})
        point = next(p for p in cfg.points if (p.p, p.k, p.c) == ((0.01, 0.01, 0.005), 2, 1))
        tracemalloc.start()
        try:
            samples, weights = bench._draw_tally(point, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert int(weights.sum()) == 1_000_000 and peak < 12 * 2**20, peak

    def test_heaviest_point_at_a_million_replicates_allocates_under_14_mib(self):
        # The sorted key buffer, one int64 per replicate, stayed alive while its 262,608
        # distinct keys were decoded: 18.6 MiB here.  It is now freed first: 12.6 MiB.
        path = Path(__file__).resolve().parent.parent / "configs" / "bench_two_default.cfg"
        cfg = parse_config(path.read_text(encoding="utf-8"), {"replicates": "1000000"})
        point = next(p for p in cfg.points if (p.p, p.k, p.c) == ((0.1, 0.1, 0.05), 10, 20))
        tracemalloc.start()
        try:
            samples, weights = bench._draw_tally(point, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert int(weights.sum()) == 1_000_000 and peak < 14 * 2**20, peak


class TestTallyPaths:
    """The counted (np.bincount) key path equals row-wise np.unique in order, weights and dtypes."""

    @pytest.mark.parametrize(
        "t, rows, top",
        [(1, 5000, 9), (1, 200, 500), (3, 5000, 9), (3, 40, 12),
         (1, 63, 63), (1, 64, 63), (1, 65, 63), (3, 63, 3), (3, 64, 3), (3, 65, 3)],
        ids=["t1-dense", "t1-sparse", "t3-dense", "t3-sparse",
             "t1-range-above-rows", "t1-range-equals-rows", "t1-range-below-rows",
             "t3-range-above-rows", "t3-range-equals-rows", "t3-range-below-rows"],
    )
    def test_matches_unique(self, monkeypatch, t, rows, top):
        counts = np.random.default_rng(rows + top + t).integers(0, top + 1, size=(rows, t))
        counts[0, 0] = top
        calls = []
        bincount = np.bincount
        monkeypatch.setattr(np, "bincount", lambda *a, **kw: calls.append(1) or bincount(*a, **kw))
        samples, weights = tally(counts)
        want_samples, want_weights = np.unique(counts, axis=0, return_counts=True)
        assert np.array_equal(samples, want_samples) and samples.dtype == np.int64
        assert np.array_equal(weights, want_weights) and weights.dtype == want_weights.dtype
        assert len(calls) == ((top + 1) ** t <= rows)


class TestWeightedSummary:
    """Bench records equal the per-replicate formulas on the table repeated by its weights."""

    @pytest.mark.parametrize(
        "text, flagged_kinds",
        [
            (
                BENCH_CFG.replace("misclass = 1:1, 0.98:0.95", "misclass = 0.98:0.95"),
                {"clamped", "improper"},
            ),
            (TWO_CFG, {"clamped", "improper"}),
            (MLE_MISCLASS_TWO_CFG, {"clamped"}),
            (TWO_CFG.replace("replicates = 3000", "replicates = 1"), set()),
        ],
        ids=["one-misclass", "two-perfect", "two-misclass-mle", "one-replicate"],
    )
    def test_matches_repeat_based_summary(self, text, flagged_kinds):
        config = parse_config(text)
        replicates = config.replicates
        flagged = set()
        for point in config.points:
            records = iter(bench._bench_point(point, config))
            counts = simulate_imn_counts(*bench._walk_args(point, config))
            samples, weights = tally(counts)
            drawn = bench._draw_tally(point, config)
            assert np.array_equal(drawn[0], samples) and np.array_equal(drawn[1], weights)
            order = np.lexsort(counts.T[::-1])
            assert np.array_equal(np.repeat(samples, weights, axis=0), counts[order])
            model = point.model
            truths = [model.p] if point.family == "one" else list(map(float, model.prevalences()))
            for est in resolve_estimators(point, config.estimators):
                params = bench._params(point)
                table, clamp_table = evaluate_table(est, samples, point.c, point.k, **params)
                values = np.repeat(table, weights, axis=0)
                tallies = {
                    "clamped": int(np.repeat(clamp_table, weights).sum()),
                    "improper": int(((values < 0) | (values > 1)).sum()),
                }
                flagged.update(name for name, n in tallies.items() if n)
                for i, truth in enumerate(truths):
                    record = next(records)
                    assert record.flags == ";".join(f"{k}={n}" for k, n in tallies.items() if n)
                    assert record.replicates == replicates
                    mean, bias, mse, se = _repeat_summary(values[:, i], truth)
                    pairs = ((record.estimate, mean), (record.bias, bias), (record.mse, mse))
                    for got, want in pairs:
                        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-15), (got, want)
                    if replicates == 1:
                        assert math.isnan(record.se) and math.isnan(se)
                    else:
                        assert math.isclose(record.se, se, rel_tol=1e-12, abs_tol=1e-15)
            assert next(records, None) is None
        assert flagged == flagged_kinds


class TestOtherModes:
    def test_estimate_mode_rows(self):
        text = BENCH_CFG.replace("mode = bench", "mode = estimate") + "y = 0, 1, 3\n"
        records, ok = run_mode(parse_config(text))
        assert ok
        ub_perfect = [
            r for r in records if r.estimator == "UB_ONE_PERFECT" and r.p == 0.05
        ]
        assert [r.sample for r in ub_perfect] == ["0", "1", "3"]
        assert ub_perfect[0].estimate == 0.0

    def test_misclass_estimator_on_perfect_test_reduces_to_perfect(self):
        text = BENCH_CFG.replace("mode = bench", "mode = estimate").replace(
            "misclass = 1:1, 0.98:0.95", "estimators = UB_ONE_MISCLASS, UB_ONE_PERFECT"
        ) + "y = 0, 1, 3\n"
        records, ok = run_mode(parse_config(text))
        misclass = [r.estimate for r in records if r.estimator == "UB_ONE_MISCLASS"]
        perfect = [r.estimate for r in records if r.estimator == "UB_ONE_PERFECT"]
        assert ok and len(perfect) == 6 and misclass == perfect

    def test_scan_mode_reports_misclass_violation(self):
        text = """\
[run]
mode = scan-properness
seed = 1
bound = 5

[model]
p = 0.05
k = 2
c = 1
misclass = 0.9:0.95
estimators = ub
"""
        records, ok = run_mode(parse_config(text))
        assert ok
        assert any(r.sample == "0" and "below 0" in r.flags for r in records)

    def test_identify_mode(self):
        text = """\
[run]
mode = identify
seed = 1

[model]
family = two
misclass = 0.9:0.8:0.95:0.85, 1:1:1:1
"""
        records, ok = run_mode(parse_config(text))
        assert ok
        assert records[0].estimate == pytest.approx(0.3136, rel=1e-12)
        assert records[0].flags == "identifiable"
        assert records[1].estimate == 1.0

    def test_simulate_mode_deterministic_rows(self):
        text = """\
[run]
mode = simulate
seed = 5
replicates = 50

[model]
p = 0.1
k = 2
c = 2
"""
        a, _ = run_mode(parse_config(text))
        b, _ = run_mode(parse_config(text))
        assert render_records(a, "csv") == render_records(b, "csv")
        assert len(a) == 50
        # steps = stop count + tracked draws
        for row in a:
            assert row.estimate == 2 + int(row.sample)

    def test_verify_mode_passes_on_sane_grid(self):
        text = """\
[run]
mode = verify-unbiased
seed = 1

[model]
p = 0.05
k = 2, 5
c = 1, 3
"""
        records, ok = run_mode(parse_config(text))
        assert ok
        assert all("ok" in r.flags for r in records)


@pytest.mark.parametrize("mode", ["bench", "verify-unbiased"])
def test_weak_grid_point_warns_once(mode):
    # parse_config builds the grid point's model; run_mode must not build it again.
    text = f"[run]\nmode = {mode}\nseed = 1\nreplicates = 200\n" \
           "[model]\np = 0.05\nk = 2\nc = 1\nmisclass = 0.45:0.99\n"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_mode(parse_config(text))
    weak = [w for w in caught if "misclassification parameter <= 0.5" in str(w.message)]
    assert len(weak) == 1 and weak[0].category is UserWarning


class TestCli:
    def test_end_to_end_csv(self, tmp_path):
        cfg = write_cfg(tmp_path, BENCH_CFG)
        out = tmp_path / "out.csv"
        assert main(["bench", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        assert len(lines) == 1 + 4 * 2  # 4 grid points x 2 estimator rows

    def test_validation_error_exit_code(self, tmp_path):
        cfg = write_cfg(tmp_path, BENCH_CFG.replace("k = 5", "k = 0"))
        assert main(["bench", "--config", cfg]) == 1

    def test_missing_config_is_io_error(self):
        assert main(["bench", "--config", "/nonexistent/exp.cfg"]) == 2

    @pytest.mark.parametrize(
        "run_line, flags, message",
        [("out =", [], "line 5: out must name a file or '-' (stdout), got an empty value"),
         ("", ["--out", ""], "--out must name a file or '-' (stdout), got an empty value")],
        ids=["line", "flag"],
    )
    def test_empty_out_is_a_validation_error_before_any_point_runs(
        self, tmp_path, monkeypatch, capsys, run_line, flags, message
    ):
        # An empty path passed parsing, every grid point ran, and the write then failed
        # with exit 2.
        calls = []
        monkeypatch.setattr(cli, "run_mode", lambda config: calls.append(config) or ([], True))
        text = BENCH_CFG.replace("replicates = 4000", f"replicates = 4000\n{run_line}")
        assert main(["bench", "--config", write_cfg(tmp_path, text), *flags]) == 1
        assert capsys.readouterr().err == f"gtseq: config error: {message}\n"
        assert calls == []

    def test_unwritable_output_is_io_error(self, tmp_path):
        cfg = write_cfg(tmp_path, BENCH_CFG)
        assert main(["bench", "--config", cfg, "--out", "/nonexistent-dir/o.csv"]) == 2

    def test_verify_failure_exit_code(self, tmp_path):
        text = """\
[run]
mode = verify-unbiased
seed = 1
tol = 1e-30

[model]
p = 0.05
k = 2
c = 1
misclass = 0.98:0.95
"""
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "v.csv"
        assert main(["verify-unbiased", "--config", cfg, "--out", str(out)]) == 3

    def test_two_trait_verify_treats_error_free_misclass_as_perfect(self, tmp_path):
        text = ("[run]\nmode = verify-unbiased\nseed = 1\n[model]\nfamily = two\n"
                "p = 0.1:0.1:0.05\nk = 2\nc = 1\n")
        rows = {}
        for name, extra in (("plain", ""), ("ones", "misclass = 1:1:1:1\n")):
            out = tmp_path / f"{name}.csv"
            cfg = write_cfg(tmp_path, text + extra, f"{name}.cfg")
            assert main(["verify-unbiased", "--config", cfg, "--out", str(out)]) == 0
            rows[name] = list(csv.DictReader(out.open()))
        pi = ("pi0", "pi1", "pi0_2", "pi1_2")
        assert len(rows["ones"]) == len(rows["plain"]) == 4
        for ones, plain in zip(rows["ones"], rows["plain"]):
            assert [ones.pop(f) for f in pi] == ["1"] * 4
            assert [plain.pop(f) for f in pi] == [""] * 4
            assert ones == plain and ones["flags"].startswith("ok;")

    def test_float_singular_contrast_is_a_validation_error(self, tmp_path, capsys):
        # identify reports 0.55:0.45:0.9:0.9 not-identifiable; estimate used to
        # exit 0 with p00 = -1.0e7 there.
        text = ("[run]\nmode = estimate\nseed = 1\n[model]\nfamily = two\np = 0.1:0.1:0.05\n"
                "k = 2\nc = 1\nmisclass = 0.55:0.45:0.9:0.9\nz = 1:0:0\n")
        cfg = write_cfg(tmp_path, text)
        with pytest.warns(UserWarning):
            assert main(["estimate", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("gtseq: config error: line 9: estimator UB_TWO_MISCLASS_SERIES cannot run")
        assert err.endswith("contrast matrix is singular\n")

    def test_mode_conflict_is_validation_error(self, tmp_path):
        cfg = write_cfg(tmp_path, BENCH_CFG)
        assert main(["simulate", "--config", cfg]) == 1

    def test_usage_error_maps_to_validation(self):
        assert main(["bench"]) == 1  # --config is required

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_cfg(tmp_path, BENCH_CFG)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["bench", "--config", cfg, "--out", str(out1), "--seed", "123"]) == 0
        assert main(["bench", "--config", cfg, "--out", str(out2), "--seed", "124"]) == 0
        assert out1.read_text() != out2.read_text()

    def test_seed_flag_supplies_a_missing_seed_line(self, tmp_path, capsys):
        # The CLI parsed the config before it applied --seed, so a seed-less bench
        # config failed with the missing-seed error even when --seed was given.
        seedless = BENCH_CFG.replace("seed = 20240901\n", "")
        cfg = write_cfg(tmp_path, seedless)
        out, want = tmp_path / "flag.csv", tmp_path / "line.csv"
        assert main(["bench", "--config", cfg, "--out", str(out), "--seed", "5"]) == 0
        line_cfg = write_cfg(tmp_path, BENCH_CFG.replace("seed = 20240901", "seed = 5"), "line.cfg")
        assert main(["bench", "--config", line_cfg, "--out", str(want)]) == 0
        assert out.read_bytes() == want.read_bytes()
        capsys.readouterr()
        assert main(["bench", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "gtseq: config error: missing required key 'seed' in [run]\n"

    @pytest.mark.parametrize(
        "flags, message",
        [(["--seed", "-5"], "--seed must be >= 0, got -5"),
         (["--threads", "0"], "--threads must be >= 1, got 0")],
    )
    def test_override_below_config_minimum_is_validation_error(
        self, tmp_path, capsys, flags, message
    ):
        cfg = write_cfg(tmp_path, BENCH_CFG)
        assert main(["bench", "--config", cfg, *flags]) == 1
        assert capsys.readouterr().err == f"gtseq: config error: {message}\n"

    def test_threads_env_fallback(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path, BENCH_CFG)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["bench", "--config", cfg, "--out", str(out1)]) == 0
        monkeypatch.setenv("GTSEQ_THREADS", "3")
        assert main(["bench", "--config", cfg, "--out", str(out2)]) == 0
        assert out1.read_text() == out2.read_text()

    @pytest.mark.parametrize("env", ["0", "-2"])
    def test_threads_env_is_read_by_the_threads_rule(self, tmp_path, monkeypatch, capsys, env):
        # GTSEQ_THREADS had its own parse, which ran 0 or -2 on one thread without a word.
        monkeypatch.setenv("GTSEQ_THREADS", env)
        cfg = write_cfg(tmp_path, BENCH_CFG)
        assert main(["bench", "--config", cfg]) == 1
        assert capsys.readouterr().err == f"gtseq: config error: GTSEQ_THREADS must be >= 1, got {env}\n"
        # A flag or a threads line sets threads, so the variable is not read.
        assert main(["bench", "--config", cfg, "--threads", "1", "--out", str(tmp_path / "o")]) == 0

    def test_bad_seed_line_is_reported_under_a_seed_flag(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BENCH_CFG.replace("seed = 20240901", "seed = -1"))
        assert main(["bench", "--config", cfg, "--seed", "5"]) == 1
        assert capsys.readouterr().err == "gtseq: config error: line 3: seed must be >= 0, got -1\n"

    def test_ub_bench_past_the_pool_row_limit_is_a_numerical_error(self, tmp_path):
        # Largest sample total at the second point is about 5e9: the row is refused before
        # it is allocated, and the message names the grid point it came from.
        text = LARGE_TOTALS_CFG.format(seed=4, replicates=200, k=30, c=1, estimators="ub")
        text = text.replace("p = 0.2:0.2:0.1", "p = 0.05:0.05:0.025, 0.2:0.2:0.1")
        cfg = write_cfg(tmp_path, text)
        for threads in ("1", "2"):
            proc = run_capped(["-m", "gtseq.cli", "bench", "--config", cfg, "--threads", threads])
            assert proc.returncode == 3, proc.stderr
            assert "grid point p=(0.2, 0.2, 0.1) k=30 c=1 misclass=None: " in proc.stderr
            assert "at k=30, c=1 exceeds the pool-factor row limit" in proc.stderr
            assert "Traceback" not in proc.stderr

    def test_point_out_of_memory_is_a_numerical_error(self, tmp_path):
        # 400M replicates need 3 GiB of totals: numpy's MemoryError left the CLI with
        # exit 1 and a traceback.  The first point in grid order is named.
        text = TWO_CFG.replace("replicates = 3000", "replicates = 400000000")
        text = text.replace("p = 0.1:0.1:0.05", "p = 0.1:0.1:0.05, 0.05:0.05:0.025")
        cfg = write_cfg(tmp_path, text)
        for threads in ("1", "2"):
            proc = run_capped(["-m", "gtseq.cli", "bench", "--config", cfg, "--threads", threads])
            assert proc.returncode == 3, proc.stderr
            assert proc.stderr.startswith(
                "gtseq: grid point p=(0.1, 0.1, 0.05) k=2 c=1 misclass=None: out of memory: "
            ), proc.stderr
            assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_bare_out_of_memory_says_no_allocation_was_named(self, tmp_path, monkeypatch, capsys, threads):
        # A MemoryError with no message, as simulate's row list raises, left the detail empty.
        def bare_oom(point, config):
            raise MemoryError()

        monkeypatch.setitem(bench._POINT_RUNNERS, "bench", bare_oom)
        assert main(["bench", "--config", write_cfg(tmp_path, BENCH_CFG), "--threads", threads]) == 3
        err = capsys.readouterr().err
        assert err.startswith("gtseq: grid point p=(0.05,) k=5 c=2 "), err
        assert err.endswith(": out of memory: no allocation named\n"), err

    @pytest.mark.parametrize("failing", [0, 1])
    def test_failing_point_stops_the_points_after_it(self, monkeypatch, failing):
        # The point at grid position `failing` has totals past the pool-row limit; every
        # other point sleeps, so a pool that kept starting points would draw the
        # walks of the points queued behind the failure.
        grid = ["0.05:0.05:0.025"] * 8
        grid[failing] = "0.2:0.2:0.1"
        text = LARGE_TOTALS_CFG.format(seed=4, replicates=200, k=30, c=1, estimators="ub")
        config = parse_config(text.replace("p = 0.2:0.2:0.1", "p = " + ", ".join(grid)))
        config.threads = 2
        draw = bench._draw_tally
        calls = []

        def counted(point, config):
            calls.append(point.index)
            if point.index != failing:
                time.sleep(0.2)
            return draw(point, config)

        monkeypatch.setattr(bench, "_draw_tally", counted)
        with pytest.raises(DomainError, match=r"^grid point p=\(0\.2, 0\.2, 0\.1\) k=30 c=1 "):
            run_mode(config)
        assert failing in calls and len(calls) <= config.threads, calls

    def test_one_trait_scan_past_the_float_range_writes_inf(self, tmp_path):
        # From y = 523 on, the estimate passes the float range; the scan exited 1 with an
        # OverflowError traceback.  Its kind is exact, and its value reports as inf.
        text = "[run]\nmode = scan-properness\nbound = 2000\n" \
               "[model]\np = 0.1\nk = 4\nc = 2\nmisclass = 1:0.25\nestimators = ub\n"
        out = tmp_path / "out.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "gtseq.cli", "scan-properness", "--config",
             write_cfg(tmp_path, text), "--out", str(out)],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        estimates = [row["estimate"] for row in rows]
        assert len(rows) == 1999 and estimates.count("inf") == 1478
        assert estimates[-1] == "inf" and rows[-1]["sample"] == "2000"
        assert {row["flags"] for row in rows} == {"violates=above 1"}

    @pytest.mark.filterwarnings("ignore:misclassification parameter <= 0.5")
    def test_one_trait_estimate_past_the_float_range_prints_inf(self, tmp_path, capsys):
        # At y = 2000 the estimate passes the float range.  estimate exited 1 with an
        # OverflowError traceback: at 1:0.05 from its exact value, at 0.999:0.05 from its
        # radical.  It prints inf, the value the scan and the UB_ONE_MISCLASS table report.
        text = ("[run]\nmode = estimate\n[model]\np = 0.05\nk = 2\nc = 1\n"
                "misclass = 1:0.05, 0.999:0.05\nestimators = UB_ONE_MISCLASS\ny = 2000\n")
        assert main(["estimate", "--config", write_cfg(tmp_path, text)]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [(row["pi0"], row["estimate"]) for row in rows] == [("1", "inf"), ("0.999", "inf")]
        for specificity in (1, 0.999):
            params = dict(specificity=specificity, sensitivity=0.05)
            table, _ = evaluate_table(EstimatorId.UB_ONE_MISCLASS, np.array([[2000], [0]]), 1, 2, **params)
            scan = scan_properness(EstimatorId.UB_ONE_MISCLASS, 1, 2, bound=2000, **params)
            assert scan[-1].sample == (2000,)
            assert table[0, 0] == scan[-1].value == math.inf

    @pytest.mark.filterwarnings("ignore:misclassification parameter <= 0.5")
    def test_two_trait_estimate_past_the_float_range_is_a_numerical_error(self, tmp_path, capsys):
        # Terms past the float range can have opposite signs, and inf - inf is NaN, so no
        # value is printed.  estimate exited 1 with an OverflowError traceback.
        text = ("[run]\nmode = estimate\n[model]\nfamily = two\np = 0.05:0.05:0.025\nk = 2\n"
                "c = 1\nmisclass = 0.99:0.05:0.99:0.05\nestimators = UB_TWO_MISCLASS_SERIES\n"
                "z = 0:0:0, 400:0:0\n")
        assert main(["estimate", "--config", write_cfg(tmp_path, text)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("gtseq: grid point p=(0.05, 0.05, 0.025) k=2 c=1 ")
        assert captured.err.endswith(": the estimate at z = (400, 0, 0) is past the float range\n")

    def test_bench_with_large_totals_fits_in_two_gib(self, tmp_path):
        # Largest sample total is about 45,000: a dense table over it would take 15 GiB.
        text = LARGE_TOTALS_CFG.format(seed=0, replicates=100_000, k=10, c=20, estimators="ub, mle")
        out = tmp_path / "out.csv"
        cfg = write_cfg(tmp_path, text)
        proc = run_capped(["-m", "gtseq.cli", "bench", "--config", cfg, "--out", str(out)])
        assert proc.returncode == 0, proc.stderr
        assert len(out.read_text().splitlines()) == 1 + 2 * 4

    def test_console_script_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gtseq.cli", "bench", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "--config" in proc.stdout

    def test_help_lists_every_mode(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        for mode, text in cli._MODE_HELP.items():
            assert f"  {mode}" in out and text in out, mode

    def test_unknown_mode_is_a_validation_error(self, tmp_path, capsys):
        assert main(["scan", "--config", write_cfg(tmp_path, BENCH_CFG)]) == 1
        assert "invalid choice: 'scan'" in capsys.readouterr().err


# sha256 of render_records(records, "csv"); each equals sha256sum of
# `gtseq <mode> --config configs/<name>.cfg --out F`.  The other four shipped
# configs are pinned in tests/test_estimators.py.
SHIPPED_CSV_SHA256 = {
    "bench_default": "075a82c09ca225902471c247fa568df1d66fab082415ebf9520b0b70b777a28f",
    "verify_default": "a9f383735a214e33097c235d9dc3d9929acb0749f92e5456763f1f2ac424f917",
    "verify_two_default": "0218ac48b5e82345fb57169fc7f5d178a83c63baade43e2cf670f60b9e66f990",
    "scan_improper": "45cca9926aa6bc057218c47ef7611a6a1c7d582e77a6ee60fbeb3a9c7f327475",
    "identify_grid": "ccc8ed53923eb308ccdd010cf75dbe27cb721b1f091676b2d4223bdeb032fd94",
    "estimate_two_misclass": "63b74f1c39cd9974dd4220d6ae5e7f0db0938007e2b659039e44f21027e6ace1",
}


@pytest.mark.parametrize("name", SHIPPED_CSV_SHA256)
@pytest.mark.filterwarnings("ignore:misclassification parameter <= 0.5")  # identify_grid's weak entry
def test_shipped_config_bytes(name):
    path = Path(__file__).resolve().parent.parent / "configs" / f"{name}.cfg"
    cfg = parse_config(path.read_text(encoding="utf-8"))
    records, _ = run_mode(cfg)
    text = render_records(records, cfg.format)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == SHIPPED_CSV_SHA256[name]


# Runs `gtseq` with numpy unimportable: any `import numpy` raises ImportError.
NO_NUMPY_MAIN = (
    "import sys; sys.modules['numpy'] = None; "
    "from gtseq.cli import main; sys.exit(main(sys.argv[1:]))"
)

ESTIMATE_ONE_CFG = """\
[run]
mode = estimate
seed = 1

[model]
p = 0.05
k = 2, 5
c = 1, 3
misclass = 1:1, 0.98:0.95, 1:0.9
estimators = UB_ONE_MISCLASS, UB_ONE_PERFECT
y = 0, 1, 7, 40
"""

ESTIMATE_TWO_CFG = """\
[run]
mode = estimate
seed = 1

[model]
family = two
p = 0.1:0.1:0.05
k = 2, 5
c = 1, 4
misclass = 1:1:1:1, 0.98:0.95:0.97:0.9
estimators = UB_TWO_MISCLASS_SERIES, UB_TWO_PERFECT
z = 0:0:0, 1:1:0, 3:0:2, 12:5:1
"""


class TestWithoutNumpy:
    """identify, scan-properness, one-trait verify-unbiased and estimate of the unbiased
    estimators never import numpy."""

    @staticmethod
    def run_blocked(*args):
        return subprocess.run(
            [sys.executable, "-c", NO_NUMPY_MAIN, *args], capture_output=True, timeout=300
        )

    @pytest.mark.parametrize(
        "name, mode",
        [("identify_grid", "identify"), ("scan_improper", "scan-properness"),
         ("scan_two_misclass", "scan-properness"), ("scan_two_perfect", "scan-properness"),
         ("verify_default", "verify-unbiased")],
    )
    def test_shipped_exact_configs_print_their_pinned_bytes(self, name, mode):
        cfg = Path(__file__).resolve().parent.parent / "configs" / f"{name}.cfg"
        proc = self.run_blocked(mode, "--config", str(cfg))
        assert proc.returncode == 0, proc.stderr.decode()
        digest = {**SHIPPED_CSV_SHA256, **SHIPPED_SCAN_SHA256}[name]
        assert hashlib.sha256(proc.stdout).hexdigest() == digest

    @pytest.mark.parametrize("text", [ESTIMATE_ONE_CFG, ESTIMATE_TWO_CFG], ids=["one", "two"])
    def test_estimate_of_the_unbiased_estimators(self, tmp_path, text):
        proc = self.run_blocked("estimate", "--config", write_cfg(tmp_path, text))
        assert proc.returncode == 0, proc.stderr.decode()
        records, ok = run_mode(parse_config(text))
        assert ok and proc.stdout == render_records(records, "csv").encode("utf-8")

    def test_package_exports_the_same_names(self):
        # dir, not vars: the gtseq.series exports are looked up on first use.
        names = "sorted(n for n in dir(gtseq) if n[0] != '_' and not inspect.ismodule(getattr(gtseq, n)))"
        code = f"import inspect, sys; sys.modules['numpy'] = None; import gtseq; print(*{names})"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        want = sorted(n for n in dir(gtseq) if n[0] != "_" and not inspect.ismodule(getattr(gtseq, n)))
        assert len(want) == 60 and proc.stdout.split() == want

    def test_cli_start_loads_no_pool_json_or_series(self):
        # The exact modes run none of them; each loads where a run or a lookup first needs it.
        code = "\n".join([
            "import sys, gtseq.cli",
            "loaded = [m for m in ('concurrent.futures', 'json', 'gtseq.series') if m in sys.modules]",
            "assert not loaded, loaded",
            "import gtseq",
            "from gtseq.estimators import unbiased_exact",
            "series = sys.modules['gtseq.series']",
            "assert gtseq.poly_representability is series.poly_representability",
            "assert unbiased_exact is series.unbiased_exact",
            "for module in (gtseq, gtseq.estimators):",
            "    try:",
            "        module.no_such_name",
            "    except AttributeError as exc:",
            "        assert 'no_such_name' in str(exc)",
            "    else:",
            "        raise AssertionError(module)",
        ])
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr

    def test_bench_workers_import_numpy_first(self, tmp_path):
        # Starting the CLI loads no numpy, so a threaded bench first imports it in its workers.
        path = Path(__file__).resolve().parent.parent / "configs" / "bench_two_default.cfg"
        text = path.read_text(encoding="utf-8").replace("replicates = 100000", "replicates = 3000")
        assert parse_config(text).replicates == 3000
        cfg = write_cfg(tmp_path, text)
        code = ("import sys; from gtseq.cli import main; assert 'numpy' not in sys.modules; "
                "sys.exit(main(sys.argv[1:]))")
        outputs = []
        for threads in ("2", "1"):
            proc = subprocess.run(
                [sys.executable, "-c", code, "bench", "--config", cfg, "--threads", threads],
                capture_output=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr.decode()
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1] and len(outputs[0].splitlines()) == 1 + 27 * 2 * 4


@pytest.mark.parametrize("flag", ["--replicates", "--seed"])
def test_default_bench_script_rejects_negative_values(tmp_path, flag):
    script = Path(__file__).resolve().parent.parent / "scripts" / "run_default_bench.py"
    proc = subprocess.run(
        [sys.executable, str(script), str(tmp_path / "out"), flag, "-1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert f"argument {flag}: must be >= 0, got -1" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()
