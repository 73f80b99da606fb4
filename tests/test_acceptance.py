"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Monte Carlo criteria use frozen seeds, so results are reproducible.
"""

import itertools
import math
import time
import warnings
from fractions import Fraction as F

import numpy as np

from gtseq.bench import run_mode
from gtseq.cli import main
from gtseq.config import (
    DEFAULT_C_GRID,
    DEFAULT_K_GRID,
    DEFAULT_P_GRID,
    DEFAULT_TWO_P_GRID,
    parse_config,
)
from gtseq.estimators import (
    EstimatorId,
    ViolationKind,
    scan_properness,
    simplex_excess_at_one_one_zero,
    unbiased_one,
    unbiased_one_misclass,
    unbiased_one_misclass_parts,
    unbiased_two,
)
from gtseq.model import (
    IndepErrorParams,
    OneDiseaseModel,
    TwoDiseaseModel,
    identifiability,
    independent_errors,
)
from gtseq.plans import (
    FixedTotalPlan,
    StopCountPlan,
    axis_boundary_check,
    imn_pmf,
    imn_plan,
    iter_counts,
    simulate_imn_counts,
)
from gtseq.series import (
    AffinePowerSpec,
    estimator_series_one,
    estimator_series_two,
    poly_representability,
    unbiased_exact,
    unbiased_from_series,
    unbiased_parts,
)
from gtseq.verify import verify_one, verify_two

C_GRID = (1, 2, 3, 5)
K_GRID = (1, 2, 4, 10)
MAX_TOTAL = 12


def report(number: int, name: str, passed: bool, elapsed: float, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"[ACCEPTANCE] criterion {number} {name}: {status} in {elapsed:.1f}s{extra}")
    assert passed, f"criterion {number} {name} failed{extra}"


def merged_parts(parts) -> dict:
    out = {}
    for scale in parts:
        key = scale.radical_key()
        out[key] = out.get(key, F(0)) + scale.coeff
    return {k: v for k, v in out.items() if v != 0}


class TestCriterion1SeriesOracle:
    def test_series_oracle_equivalence(self):
        start = time.time()
        checks = 0
        for c, k in itertools.product(C_GRID, K_GRID):
            # Perfect one-disease closed form, exact.
            g = estimator_series_one(k, c, MAX_TOTAL)
            for y in range(MAX_TOTAL + 1):
                assert 1 - unbiased_exact(g, c, (y,)) == unbiased_one(y, c, k)
                checks += 1
            # Misclassified closed form, both settings.
            for spec_, sens in ((F("0.98"), F("0.95")), (F(1), F("0.9"))):
                g = estimator_series_one(k, c, MAX_TOTAL, spec_, sens)
                for y in range(MAX_TOTAL + 1):
                    series_q = merged_parts(unbiased_parts(g, c, (y,)))
                    _, radical = unbiased_one_misclass_parts(y, c, k, spec_, sens)
                    closed_q = merged_parts([-radical])
                    assert series_q == closed_q, (c, k, y, spec_, sens)
                    series_p = 1 - unbiased_from_series(g, c, (y,))
                    closed_p = float(unbiased_one_misclass(y, c, k, spec_, sens))
                    assert abs(series_p - closed_p) <= 1e-10 * max(1.0, abs(closed_p))
                    checks += 1
            # Two-disease closed form, exact componentwise.
            gs = {
                name: estimator_series_two(k, c, MAX_TOTAL, name)
                for name in ("00", "10", "01")
            }
            for z in iter_counts(3, MAX_TOTAL):
                closed = unbiased_two(z, c, k)
                for idx, name in enumerate(("00", "10", "01")):
                    assert unbiased_exact(gs[name], c, z) == closed[idx], (c, k, z, name)
                    checks += 1
        elapsed = time.time() - start
        # 16 (c,k) pairs x (13 one-disease + 2x13 misclassified + 3x455 two-disease)
        report(1, "series-oracle equivalence", checks == 22464 and elapsed < 60,
               elapsed, f"{checks} exact comparisons")


class TestCriterion2Unbiasedness:
    def test_truncated_expectations_reproduce_parameters(self):
        start = time.time()
        failures = []
        for p, k, c in itertools.product(DEFAULT_P_GRID, DEFAULT_K_GRID, DEFAULT_C_GRID):
            row = verify_one(OneDiseaseModel(p, k, c), tol=1e-8)
            if not (row.certified and row.passed):
                failures.append(("one-perfect", p, k, c, row.error))
            row = verify_one(OneDiseaseModel(p, k, c, 0.98, 0.95), tol=1e-6)
            if not (row.passed and row.decay_ratio is not None):
                failures.append(("one-misclass", p, k, c, row.error))
        for pvec, k, c in itertools.product(DEFAULT_TWO_P_GRID, DEFAULT_K_GRID, DEFAULT_C_GRID):
            for row in verify_two(TwoDiseaseModel(*pvec, k, c), tol=1e-8):
                if not (row.certified and row.passed):
                    failures.append(("two-perfect", pvec, k, c, row.component, row.error))
        elapsed = time.time() - start
        report(2, "unbiasedness at desk scale", not failures and elapsed < 300,
               elapsed, f"failures={failures!r}" if failures else "81 parameter points")


class TestCriterion3OneDiseaseCounterexamples:
    def test_negative_at_zero_and_divergence(self):
        start = time.time()
        # Exact sign of the estimate at y = 0 on a 10-point grid with spec < 1.
        grid = [
            (F("0.8"), F("0.9")), (F("0.8"), F(1)), (F("0.9"), F("0.95")),
            (F("0.9"), F("0.7")), (F("0.95"), F("0.9")), (F("0.98"), F("0.95")),
            (F("0.99"), F(1)), (F("0.999"), F("0.9")), (F("0.7"), F("0.85")),
            (F("0.85"), F("0.99")),
        ]
        assert len(grid) == 10
        sign_ok = True
        for spec_, sens in grid:
            for k in (1, 2, 5):
                violations = scan_properness(
                    EstimatorId.UB_ONE_MISCLASS, 1, k,
                    specificity=spec_, sensitivity=sens, bound=0,
                )
                found = (
                    len(violations) == 1
                    and violations[0].sample == (0,)
                    and violations[0].kind is ViolationKind.BELOW_ZERO
                )
                sign_ok = sign_ok and found
        # Divergence for a sensitivity-only error: some estimate exceeds 1.
        hits = scan_properness(
            EstimatorId.UB_ONE_MISCLASS, 1, 2,
            specificity=F(1), sensitivity=F("0.9"),
            bound=10_000, max_violations=1,
        )
        diverged = bool(hits) and hits[0].kind is ViolationKind.ABOVE_ONE and hits[0].value > 1
        elapsed = time.time() - start
        report(3, "one-disease improperness", sign_ok and diverged, elapsed,
               f"divergence at y={hits[0].sample[0]}" if hits else "no divergence found")


class TestCriterion4TwoDiseaseCounterexample:
    def test_exact_simplex_excess(self):
        start = time.time()
        ok = True
        for c in range(1, 6):
            for k in range(2, 7):
                expected = F(1, k * c) * (1 - (c + F(1, k)) / (c + 1))
                excess = simplex_excess_at_one_one_zero(c, k)
                ok = ok and excess == expected and excess > 0
            ok = ok and simplex_excess_at_one_one_zero(c, 1) == 0
        elapsed = time.time() - start
        report(4, "two-disease simplex excess", ok, elapsed, "c in 1..5, k in 1..6, exact")


class TestCriterion5Identifiability:
    def test_determinant_identity_on_grid(self):
        start = time.time()
        values = (F(1, 2), F(3, 5), F(3, 4), F(9, 10), F(1))
        checked = 0
        ok = True
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            for t1, s1, t2, s2 in itertools.product(values, repeat=4):
                params = IndepErrorParams(t1, s1, t2, s2)
                _, det = identifiability(independent_errors(params))
                expected = (params.nu1 * params.nu2) ** 2
                ok = ok and det == expected
                ok = ok and ((det == 0) == (params.nu1 == 0 or params.nu2 == 0))
                checked += 1
        elapsed = time.time() - start
        report(5, "identifiability determinant", ok and checked == 625, elapsed,
               f"{checked} exact determinants")


class TestCriterion6PlanDiagnostics:
    def test_axis_and_representability(self):
        start = time.time()
        axis_ok = (
            axis_boundary_check(imn_plan(1, 3)).passes
            and not axis_boundary_check(StopCountPlan(2, 3, axis=0)).passes
        )
        plan = FixedTotalPlan(2, 5)
        linear = poly_representability(plan, AffinePowerSpec(1, (-1,), 1))
        # A degree-60 polynomial fits this root to 1e-13 on (0.05, 0.95): only an exact
        # test refuses it.
        root = poly_representability(FixedTotalPlan(2, 60), AffinePowerSpec(1, (-1,), F(1, 2)))
        # ((sens - theta)/nu)^(1/2) at spec 0.95, sens 0.9: nu = 0.85
        mis = poly_representability(
            FixedTotalPlan(2, 10),
            AffinePowerSpec(F("0.9") / F("0.85"), (-1 / F("0.85"),), F(1, 2)),
        )
        poly_ok = (
            linear.representable
            and linear.estimator == {(x, y): F(y, 5) for x, y in plan.boundary_points()}
            and not root.representable
            and (root.certificate_degree, root.certificate != 0) == (61, True)
            and not mis.representable
            and (mis.certificate_degree, mis.certificate != 0) == (11, True)
        )
        elapsed = time.time() - start
        report(6, "plan diagnostics", axis_ok and poly_ok, elapsed,
               "linear: y/5 at total 5; roots: nonzero theta^61 (total 60), theta^11 (total 10)")


class TestCriterion7MonteCarlo:
    SEED = 20250811

    def test_empirical_pmf_matches(self):
        start = time.time()
        replicates = 1_000_000
        bad = []
        configs_checked = 0
        one_disease = [(c, (theta,)) for c in (1, 2, 5, 20) for theta in (0.1, 0.3, 0.6)]
        two_disease = [
            (c, mu)
            for c in (1, 3)
            for mu in [
                (0.2, 0.3, 0.1), (0.05, 0.05, 0.02), (0.3, 0.2, 0.25), (0.1, 0.02, 0.05),
            ]
        ]
        for offset, (c, mu) in enumerate(one_disease + two_disease):
            counts = simulate_imn_counts(c, mu, replicates, seed=self.SEED + offset)
            configs_checked += 1
            # One int64 key per row, in a base above every count and every checked point.
            weights = (max(int(counts.max()), 4) + 1) ** np.arange(len(mu))[::-1]
            keys, tallies = np.unique(counts @ weights, return_counts=True)
            freqs = dict(zip(keys.tolist(), (tallies / replicates).tolist()))
            for pt in iter_counts(len(mu), 4):
                prob = imn_pmf(pt, c, mu)
                if prob < 1e-4:
                    continue
                freq = freqs.get(int(np.dot(pt, weights)), 0.0)
                se = math.sqrt(prob * (1 - prob) / replicates)
                if abs(freq - prob) > 4 * se:
                    bad.append((c, mu, pt, freq, prob))
        pmf_ok = not bad and configs_checked >= 20
        elapsed = time.time() - start
        report(7, "Monte Carlo pmf coherence", pmf_ok, elapsed,
               f"{configs_checked} configurations" if not bad else f"bad={bad[:3]!r}")

    def test_bench_bias_within_three_se(self):
        start = time.time()
        text_one = f"""
[run]
mode = bench
seed = {self.SEED}
replicates = 100000

[model]
p = {", ".join(str(p) for p in DEFAULT_P_GRID)}
k = {", ".join(str(k) for k in DEFAULT_K_GRID)}
c = {", ".join(str(c) for c in DEFAULT_C_GRID)}
misclass = 1:1, 0.98:0.95
estimators = ub
"""
        text_two = f"""
[run]
mode = bench
seed = {self.SEED + 1}
replicates = 100000

[model]
family = two
p = {", ".join(":".join(str(v) for v in pv) for pv in DEFAULT_TWO_P_GRID)}
k = {", ".join(str(k) for k in DEFAULT_K_GRID)}
c = {", ".join(str(c) for c in DEFAULT_C_GRID)}
estimators = ub
"""
        bad = []
        rows = 0
        for text in (text_one, text_two):
            records, _ = run_mode(parse_config(text))
            for record in records:
                rows += 1
                if abs(record.bias) > 3 * record.se:
                    bad.append((record.estimator, record.p, record.p10, record.k,
                                record.c, record.component, record.bias, record.se))
        elapsed = time.time() - start
        report(7, "Monte Carlo bench bias", not bad and rows >= 150 and elapsed < 600,
               elapsed, f"{rows} UB summary rows" if not bad else f"bad={bad!r}")


class TestCriterion8Determinism:
    def test_byte_identical_csv_across_thread_counts(self, tmp_path):
        start = time.time()
        cfg_text = """
[run]
mode = bench
seed = 424242
replicates = 20000

[model]
p = 0.01, 0.1
k = 2, 10
c = 1, 5
misclass = 1:1, 0.98:0.95
"""
        cfg_path = tmp_path / "det.cfg"
        cfg_path.write_text(cfg_text)
        outputs = []
        for threads in ("1", "4"):
            out = tmp_path / f"out_{threads}.csv"
            code = main([
                "bench", "--config", str(cfg_path),
                "--out", str(out), "--threads", threads,
            ])
            assert code == 0
            outputs.append(out.read_bytes())
        identical = outputs[0] == outputs[1]
        elapsed = time.time() - start
        report(8, "thread-count determinism", identical, elapsed,
               f"{len(outputs[0])} bytes each")
