"""Closed forms vs the series oracle, counterexamples, scanners, MLE baselines."""

import hashlib
import itertools
import math
import re
import tracemalloc
from collections import Counter
from pathlib import Path
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtseq import estimators
from gtseq.bench import render_records, run_mode
from gtseq.config import parse_config
from gtseq.errors import DomainError, IdentifiabilityError
from gtseq.estimators import (
    FAMILY,
    TWO_COMPONENTS,
    EstimatorId,
    PropernessViolation,
    ViolationKind,
    _descending_pool_product,
    _one_misclass_radical,
    _one_misclass_row,
    _pool_factor_rows,
    _series_coefficient,
    _SeriesRows,
    _simplex_violations,
    _two_misclass_forms,
    _two_misclass_walk,
    estimator_callable,
    evaluate,
    evaluate_table,
    mle_one,
    mle_one_table,
    mle_two,
    mle_two_table,
    scan_properness,
    simplex_excess_at_one_one_zero,
    unbiased_one,
    unbiased_one_misclass,
    unbiased_one_misclass_parts,
    unbiased_one_misclass_row,
    unbiased_one_row,
    unbiased_two,
    unbiased_two_misclass,
)
from gtseq.model import (
    IndepErrorParams,
    MisclassModel,
    OneDiseaseModel,
    TwoDiseaseModel,
    independent_errors,
    invert_cell_probs,
    observed_cell_probs,
    positive_nu,
    two_disease_radicand_forms,
    two_disease_radicands,
)
from gtseq.numerics import Scale
from gtseq.plans import iter_counts, truncated_expectation
from gtseq.series import (
    estimator_series_one,
    estimator_series_two,
    unbiased_exact,
    unbiased_from_series,
    unbiased_parts,
)
from gtseq.verify import verify_one

# sha256 of render_records(records, "csv") for the two shipped two-trait scan configs; each
# equals sha256sum of `gtseq scan-properness --config configs/<name>.cfg --out F`.
SHIPPED_SCAN_SHA256 = {
    "scan_two_misclass": "fab79fcaf7936c9f71e0afcb20d82c61e812951a32fc80bab4f41562d3447c66",
    "scan_two_perfect": "b8d55fba8d8b1188f40ae49713efc86510483a09f0b94ffcd0c2b74acd67e92b",
}


class TestUnbiasedOne:
    def test_zero_positives_gives_zero(self):
        for c in (1, 2, 7):
            for k in (1, 2, 64):
                assert unbiased_one(0, c, k) == 0

    def test_worked_examples(self):
        assert unbiased_one(1, 1, 2) == F(1, 2)
        assert unbiased_one(1, 2, 2) == F(1, 4)

    def test_removable_singularity_at_k1_c1(self):
        # The uncancelled closed form is 0/0 here; the estimator itself is fine.
        assert unbiased_one(0, 1, 1) == 0
        assert unbiased_one(1, 1, 1) == 1
        assert unbiased_one(5, 1, 1) == 1

    @pytest.mark.parametrize("c", range(1, 11))
    @pytest.mark.parametrize("k", [2, 3, 8, 64])
    def test_proper_on_long_scans(self, c, k):
        q_hat = F(1)
        for y in range(2001):
            p_hat = 1 - q_hat
            assert 0 <= p_hat < 1, (y, c, k)
            q_hat *= 1 - F(1, k * (c + y))

    def test_k1_stays_in_closed_interval(self):
        for c in (1, 2, 5):
            for y in range(50):
                assert 0 <= unbiased_one(y, c, 1) <= 1

    @pytest.mark.parametrize("k, c", [(1, 1), (1, 7), (3, 1), (10, 20), (4, 9)])
    def test_pool_product_equals_per_factor_loop(self, k, c):
        # The exact product normalised once equals the Fraction normalised at every factor.
        for offset in (0, 1, 5, 90):
            for count in (0, 1, 2, 17, 90):
                want = F(1)
                for j in range(count):
                    want *= 1 - F(1, k * (c + offset + j))
                got = _descending_pool_product(k, c, offset, count)
                assert type(got) is F and got == want, (offset, count)

    @pytest.mark.parametrize("c,k", [(1, 2), (2, 2), (3, 4), (5, 10), (2, 1)])
    def test_matches_series_oracle_exactly(self, c, k):
        g = estimator_series_one(k, c, 12)
        for y in range(13):
            assert 1 - unbiased_exact(g, c, (y,)) == unbiased_one(y, c, k)


class TestUnbiasedOneMisclass:
    def test_zero_sample_value(self):
        # 1 - sqrt(0.95/0.85), float oracle
        value = unbiased_one_misclass(0, 1, 2, 0.9, 0.95)
        assert value == pytest.approx(1 - math.sqrt(0.95 / 0.85), abs=1e-12)
        assert value == pytest.approx(-0.05718827974184881, abs=1e-10)

    def test_reduces_to_perfect_exactly(self):
        for c in (1, 3):
            for k in (1, 2, 5):
                for y in range(101):
                    assert unbiased_one_misclass(y, c, k, F(1), F(1)) == unbiased_one(y, c, k)

    def test_specificity_one_is_rational(self):
        value = unbiased_one_misclass(4, 2, 3, F(1), F("0.9"))
        assert isinstance(value, F)

    def test_nu_nonpositive_rejected(self):
        with pytest.raises(IdentifiabilityError):
            unbiased_one_misclass(1, 1, 2, F("0.55"), F("0.45"))

    @pytest.mark.parametrize("y, c, k", [(-1, 1, 2), (0, 0, 2), (0, 1, 0), (3, -3, 2)])
    def test_invalid_sample_or_design_rejected(self, y, c, k):
        # These gave islice's message or ZeroDivisionError.
        with pytest.raises(ValueError, match=r"require y >= 0, c >= 1, k >= 1"):
            unbiased_one_misclass(y, c, k, F("0.98"), F("0.95"))
        with pytest.raises(ValueError, match=r"require y >= 0, c >= 1, k >= 1"):
            unbiased_one_misclass_parts(y, c, k, 0.98, 0.95)

    def test_float_nu_judged_as_passed(self):
        # 0.55 + 0.45 - 1 is 0 in floats but 2^-54 between the binary values;
        # the estimator used to accept the latter and return -9.0e7.
        with pytest.raises(IdentifiabilityError):
            OneDiseaseModel(0.05, 2, 1, 0.55, 0.45)
        for estimate in (unbiased_one_misclass, mle_one):
            with pytest.raises(IdentifiabilityError, match="must be positive, got 0.0"):
                estimate(0, 1, 2, 0.55, 0.45)

    @pytest.mark.parametrize("spec_,sens", [(F("0.98"), F("0.95")), (F(1), F("0.9"))])
    @pytest.mark.parametrize("c,k", [(1, 2), (2, 4), (3, 1), (5, 10)])
    def test_matches_series_oracle(self, spec_, sens, c, k):
        g = estimator_series_one(k, c, 12, spec_, sens)
        nu = spec_ + sens - 1
        for y in range(13):
            parts = unbiased_parts(g, c, (y,))
            assert len(parts) == 1
            const, radical = unbiased_one_misclass_parts(y, c, k, spec_, sens)
            assert const == 1
            # p-estimate = 1 - q-estimate: radicals must match with opposite sign
            assert parts[0].radical_key() == radical.radical_key()
            assert parts[0].coeff == -radical.coeff


class TestUnbiasedOneMisclassRow:
    """The one-pass recurrence row against the direct coefficient kernel and the closed form."""

    @pytest.mark.parametrize("sens", [0.95, F("0.95"), F(1), F(1, 2)])
    @pytest.mark.parametrize("c", [1, 2, 5, 20])
    @pytest.mark.parametrize("k", [1, 2, 5, 10])
    def test_row_equals_series_coefficient(self, sens, c, k):
        sens = F(sens)
        for y, (a, den) in zip(range(120), _one_misclass_row(c, k, sens)):
            assert F(a, den) == _series_coefficient((-1 / sens,), (y,), c, k), y

    @pytest.mark.parametrize(
        "spec_, sens", [(0.98, 0.95), (F("0.98"), F("0.95")), (F(1), F("0.9")), (1.0, 0.9)]
    )
    @pytest.mark.parametrize("c, k", [(1, 1), (1, 2), (5, 10), (20, 5)])
    def test_table_equals_per_sample_bitwise(self, spec_, sens, c, k):
        samples = np.array([[7], [0], [90], [3], [0], [41], [90], [1]])
        values, clamped = evaluate_table(
            EstimatorId.UB_ONE_MISCLASS, samples, c, k, specificity=spec_, sensitivity=sens
        )
        assert values.shape == (len(samples), 1) and not clamped.any()
        for (y,), value in zip(samples.tolist(), values[:, 0].tolist()):
            (exact,), _ = evaluate(
                EstimatorId.UB_ONE_MISCLASS, (y,), c, k, specificity=spec_, sensitivity=sens
            )
            assert value == float(exact), y

    @pytest.mark.parametrize("c, k", [(1, 1), (1, 3), (4, 2), (20, 10)])
    def test_perfect_test_row_is_unbiased_one(self, c, k):
        row = unbiased_one_misclass_row(c, k, F(1), F(1))
        for y, value in zip(range(60), row):
            assert isinstance(value, F) and value == unbiased_one(y, c, k), y

    def test_nu_nonpositive_raises_on_call(self):
        with pytest.raises(IdentifiabilityError):
            unbiased_one_misclass_row(1, 2, F("0.55"), F("0.45"))
        with pytest.raises(IdentifiabilityError):
            unbiased_one_misclass_row(1, 2, 0.55, 0.45)

    @pytest.mark.parametrize("c, k", [(0, 2), (1, 0), (-3, 2)])
    def test_invalid_design_raises_on_call(self, c, k):
        with pytest.raises(ValueError, match=r"require c >= 1, k >= 1"):
            unbiased_one_misclass_row(c, k, F("0.98"), F("0.95"))

    def test_one_trait_modes_make_no_one_trait_coefficient_call(self, monkeypatch):
        # Every series coefficient, one-trait or two-trait, is read through
        # _SeriesRows.numerator, over rows built for one row per component: one-trait
        # rows serve one, two-trait rows three.
        widths = []
        kernel = _SeriesRows.numerator

        def counting(rows, i, e, n):
            widths.append(len(rows.r))
            return kernel(rows, i, e, n)

        monkeypatch.setattr(_SeriesRows, "numerator", counting)
        model = OneDiseaseModel(0.05, 5, 2, 0.98, 0.95)
        assert verify_one(model).passed
        records, _ = run_mode(parse_config(ONE_TRAIT_MISCLASS_BENCH))
        assert any(r.estimator == "UB_ONE_MISCLASS" for r in records)
        assert scan_properness(
            EstimatorId.UB_ONE_MISCLASS, 2, 5, specificity=0.9, sensitivity=0.95, bound=80
        )
        assert 1 not in widths
        # The counter is live: it sees the two-trait estimator's read.
        unbiased_two_misclass((1, 2, 0), 1, 2, DYADIC_ERRORS)
        assert widths and 1 not in widths


ONE_TRAIT_MISCLASS_BENCH = """\
[run]
mode = bench
seed = 3
replicates = 200

[model]
p = 0.05
k = 5
c = 2
misclass = 0.98:0.95
estimators = ub
"""


class TestUnbiasedTwo:
    def test_all_zero_counts(self):
        assert unbiased_two((0, 0, 0), 3, 2) == (1, 0, 0, 0)
        assert unbiased_two((0, 0, 0), 1, 1) == (1, 0, 0, 0)

    def test_counterexample_point(self):
        est = unbiased_two((1, 1, 0), 1, 2)
        assert est == (F(3, 8), F(3, 8), F(3, 8), F(-1, 8))

    def test_k1_classical_case_stays_proper(self):
        est = unbiased_two((1, 0, 0), 1, 1)
        assert est[0] + est[1] + est[2] <= 1
        assert sum(est) == 1

    @given(
        z=st.tuples(*[st.integers(min_value=0, max_value=8)] * 3),
        c=st.integers(min_value=1, max_value=6),
        k=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=120)
    def test_components_sum_to_one_exactly(self, z, c, k):
        assert sum(unbiased_two(z, c, k)) == 1

    @pytest.mark.parametrize("c,k", [(1, 2), (2, 3), (3, 1)])
    def test_matches_series_oracle_exactly(self, c, k):
        order = 7
        gs = {name: estimator_series_two(k, c, order, name) for name in ("00", "10", "01")}
        for z10 in range(3):
            for z01 in range(3):
                for z11 in range(2):
                    z = (z10, z01, z11)
                    closed = unbiased_two(z, c, k)
                    for idx, name in enumerate(("00", "10", "01")):
                        assert unbiased_exact(gs[name], c, z) == closed[idx], (z, name)

DYADIC_ERRORS = independent_errors(IndepErrorParams(F(3, 4), F(7, 8), F(7, 8), F(3, 4)))
DECIMAL_ERRORS = independent_errors(IndepErrorParams(0.98, 0.95, 0.97, 0.9))
DECIMAL_PARAMS = IndepErrorParams(F("0.98"), F("0.95"), F("0.97"), F("0.9"))


def _series_oracle(mis, c, k, order):
    """{z: [(type, value) of p00, p10, p01]} from the truncated-series construction, totals <= order."""
    gs = {name: estimator_series_two(k, c, order, name, mis) for name in ("00", "10", "01")}
    oracle = {}
    for z in iter_counts(3, order):
        want = []
        for name in ("00", "10", "01"):
            exact = unbiased_exact(gs[name], c, z)
            want.append(exact if exact is not None else unbiased_from_series(gs[name], c, z))
        oracle[z] = [(type(v), v) for v in want]
    return oracle


class TestSimplexExcess:
    @pytest.mark.parametrize("c", range(1, 6))
    @pytest.mark.parametrize("k", range(2, 7))
    def test_exact_identity(self, c, k):
        expected = F(1, k * c) * (1 - (c + F(1, k)) / (c + 1))
        assert simplex_excess_at_one_one_zero(c, k) == expected
        assert expected > 0

    @pytest.mark.parametrize("c", range(1, 6))
    def test_k1_boundary(self, c):
        assert simplex_excess_at_one_one_zero(c, 1) == 0


class TestUnbiasedTwoMisclass:
    def test_identity_model_reduces_exactly(self):
        ident = MisclassModel.identity()
        for c, k in [(1, 2), (2, 1), (2, 3)]:
            for z in [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 2, 1)]:
                assert unbiased_two_misclass(z, c, k, ident) == unbiased_two(z, c, k)

    def test_zero_counts_identity(self):
        assert unbiased_two_misclass((0, 0, 0), 1, 2, MisclassModel.identity()) == (
            1, 0, 0, 0,
        )

    @pytest.mark.parametrize("z", [(30, 25, 15), (0, 0, 70), (64, 1, 0)])
    def test_identity_model_reduces_exactly_at_large_totals(self, z):
        # Sample totals above 64, where the truncated-series path ran out of order.
        for c, k in [(1, 2), (3, 5)]:
            assert unbiased_two_misclass(z, c, k, MisclassModel.identity()) == unbiased_two(z, c, k)

    @pytest.mark.parametrize(
        "margins", [("0.98", "0.95", "0.97", "0.9"), ("0.75", "0.875", "0.875", "0.75")]
    )
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("c", [1, 2])
    def test_matches_series_oracle_exactly(self, margins, k, c):
        # Decimal and dyadic misclassification: every sample with total <= 8,
        # against the truncated-series construction, value and type alike.
        mis = independent_errors(IndepErrorParams(*(F(m) for m in margins)))
        for z, want in _series_oracle(mis, c, k, 8).items():
            got = unbiased_two_misclass(z, c, k, mis)[:3]
            assert [(type(v), v) for v in got] == want, z

    @pytest.mark.parametrize(
        "mis",
        [DECIMAL_ERRORS, independent_errors(DECIMAL_PARAMS), DYADIC_ERRORS],
        ids=["binary-float", "decimal", "dyadic"],
    )
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("c", [1, 2])
    def test_walk_and_estimator_match_series_oracle(self, mis, k, c):
        # The scanner's walk and the per-sample estimator share one kernel, so each is
        # checked against the truncated-series construction on its own, at every total
        # <= 6.  Binary-float margins, as the shipped scan config parses them, give
        # slopes over a 175-179 bit common denominator.
        oracle = _series_oracle(mis, c, k, 6)
        for z, values in _two_misclass_walk(c, k, mis, iter_counts(3, 6)):
            assert [(type(v), v) for v in values[:3]] == oracle[z], z
            got = unbiased_two_misclass(z, c, k, mis)[:3]
            assert [(type(v), v) for v in got] == oracle[z], z

    @pytest.mark.parametrize(
        "z, c, k",
        [((0, -2, 1), 1, 2), ((-1, 0, 0), 1, 2), ((1, 0, 0), -3, 2), ((1, 0, 0), 0, 2), ((1, 0, 0), 1, 0)],
    )
    def test_invalid_sample_or_design_rejected(self, z, c, k):
        # (0, -2, 1) returned (0, 0, 1.5426..., -0.5426...) and c = -3 returned values;
        # (-1, 0, 0) raised IndexError and c = 0 or k = 0 ZeroDivisionError.
        mis = independent_errors(IndepErrorParams(0.98, 0.95, 0.97, 0.9))
        with pytest.raises(ValueError, match=r"require z >= 0 componentwise, c >= 1, k >= 1"):
            unbiased_two_misclass(z, c, k, mis)

    @pytest.mark.parametrize(
        "margins",
        [(F("0.5"), F("0.5"), F("0.9"), F("0.9")), (0.55, 0.45, 0.9, 0.9)],
        ids=["exact", "float"],
    )
    def test_singular_contrast_rejected(self, margins):
        # The float contrast's determinant is 1.5e-33, zero by identifiability's
        # tolerance; inverting its binary value gave p00 = -1e7.  MLE_TWO inverts
        # the same map, so it fails the same way.
        with pytest.warns(UserWarning):
            mis = independent_errors(IndepErrorParams(*margins))
        with pytest.raises(IdentifiabilityError, match="contrast matrix is singular"):
            unbiased_two_misclass((1, 0, 0), 1, 2, mis)
        with pytest.raises(IdentifiabilityError, match="contrast matrix is singular"):
            mle_two((1, 0, 0), 1, 2, mis)

    @pytest.mark.parametrize(
        "margins,prevalences,k,c",
        [
            (("0.98", "0.95", "0.97", "0.9"), ("0.02", "0.02", "0.01"), 2, 1),
            (("0.95", "0.9", "0.99", "0.96"), ("0.01", "0.03", "0.01"), 3, 1),
            (("0.99", "0.97", "0.98", "0.95"), ("0.02", "0.01", "0.02"), 2, 2),
        ],
    )
    def test_unbiased_under_independent_errors(self, margins, prevalences, k, c):
        # The estimator is built from the observation-probability series; its
        # truncated expectation must recover each prevalence.
        from gtseq.model import TwoDiseaseModel, observed_cell_probs

        params = IndepErrorParams(*(F(m) for m in margins))
        mis = independent_errors(params)
        model = TwoDiseaseModel(*(F(p) for p in prevalences), k, c, mis)
        eta = tuple(float(v) for v in observed_cell_probs(model)[:3])
        truths = [float(v) for v in model.prevalences()]
        for idx, component in enumerate(("p00", "p10", "p01", "p11")):
            fn = estimator_callable(
                EstimatorId.UB_TWO_MISCLASS_SERIES, c, k, misclass=mis, component=component,
            )
            result = truncated_expectation(fn, c, eta, max_total=13)
            assert result.value == pytest.approx(truths[idx], abs=2e-6), component


class TestMleOne:
    def test_zero_sample_perfect(self):
        assert mle_one(0, 1, 2) == (0.0, False)

    def test_worked_example(self):
        p_hat, clamped = mle_one(1, 1, 2)
        assert not clamped
        assert p_hat == pytest.approx(1 - math.sqrt(0.5), rel=1e-15)

    def test_misclass_zero_sample_clamps(self):
        p_hat, clamped = mle_one(0, 1, 2, 0.9, 0.95)
        assert p_hat == 0.0 and clamped

    def test_estimate_above_sensitivity_clamps_high(self):
        # v_hat = 2/3 >= sensitivity
        p_hat, clamped = mle_one(2, 1, 3, 0.9, 0.6)
        assert p_hat == 1.0 and clamped

    def test_always_proper(self):
        for y in range(200):
            p_hat, _ = mle_one(y, 2, 5, 0.9, 0.8)
            assert 0 <= p_hat <= 1

    @pytest.mark.parametrize(
        "spec, sens, c, k",
        [(1, 1, 1, 2), (0.9, 0.6, 1, 3), (0.9, 0.8, 2, 5), (F("0.98"), F("0.95"), 5, 1)],
    )
    def test_table_equals_scalar_inversion_bitwise(self, spec, sens, c, k):
        # The scalar inversion the table replaced, written out.  At 0.9:0.6 the radicand
        # exceeds 1 at y = 0 (estimate below 0) and is <= 0 once y/(c + y) >= 0.6.
        def scalar(y):
            nu, sens_ = float(positive_nu(spec, sens)), float(sens)
            radicand = (sens_ - y / (c + y)) / nu
            if radicand <= 0:
                return 1.0, True
            p_raw = 1 - radicand ** (1.0 / k)
            if p_raw < 0:
                return 0.0, True
            if p_raw > 1:
                return 1.0, True
            return p_raw, False

        y = np.arange(2001)
        values, clamped = mle_one_table(y[:, None], c, k, spec, sens)
        assert values.shape == (2001, 1)
        want = [scalar(v) for v in y.tolist()]
        assert [(v.hex(), f) for v, f in zip(values[:, 0].tolist(), clamped.tolist())] == [
            (v.hex(), f) for v, f in want
        ]
        result = mle_one(7, c, k, spec, sens)
        assert result == want[7] and type(result.p_hat) is float
        if (spec, sens) == (0.9, 0.6):
            assert want[0] == (0.0, True) and want[2000] == (1.0, True)


class TestMleTwo:
    def test_zero_counts(self):
        assert mle_two((0, 0, 0), 1, 2).p == (1.0, 0.0, 0.0, 0.0)

    def test_k1_plugin(self):
        result = mle_two((1, 0, 0), 1, 1)
        assert result.p == (0.5, 0.5, 0.0, 0.0)
        assert not result.clamped

    def test_counterexample_point_is_proper_here(self):
        result = mle_two((1, 1, 0), 1, 2)
        assert result.clamped  # the complement went negative and was projected
        assert all(0 <= v <= 1 for v in result.p)
        assert sum(result.p) == pytest.approx(1, abs=1e-15)

    @given(
        z=st.tuples(*[st.integers(min_value=0, max_value=12)] * 3),
        c=st.integers(min_value=1, max_value=5),
        k=st.integers(min_value=1, max_value=10),
        misclass=st.sampled_from([None, DYADIC_ERRORS, DECIMAL_ERRORS]),
    )
    @settings(max_examples=150)
    def test_always_on_simplex(self, z, c, k, misclass):
        result = mle_two(z, c, k, misclass)
        assert all(0 <= v <= 1 for v in result.p)
        assert sum(result.p) == pytest.approx(1, abs=1e-12)

    def test_inverts_misclassification(self):
        # z/(c + |z|) = (249, 121, 67)/1024 is exactly the observed cell
        # probability vector, so the plug-in inverse recovers the prevalences.
        model = TwoDiseaseModel(F(1, 16), F(1, 16), F(1, 32), 1, 587, DYADIC_ERRORS)
        assert observed_cell_probs(model)[:3] == (F(249, 1024), F(121, 1024), F(67, 1024))
        result = mle_two((249, 121, 67), 587, 1, DYADIC_ERRORS)
        assert result.p == pytest.approx((0.84375, 0.0625, 0.0625, 0.03125), rel=0, abs=1e-12)
        assert not result.clamped

    def test_negative_radicand_is_clipped_and_flagged(self):
        # Twelve positive pools for trait 1 alone lie outside the map's image
        # under these error rates: the p10 radicand is negative.
        assert min(two_disease_radicands((12 / 13, 0.0, 0.0), DYADIC_ERRORS)) < 0
        result = mle_two((12, 0, 0), 1, 2, DYADIC_ERRORS)
        assert result.clamped and all(0 <= v <= 1 for v in result.p)
        assert sum(result.p) == pytest.approx(1, abs=1e-15)


# Trait 2 is read without error: component 10's radical is rational and p01's
# radical equals p00's, so the merge mixes rational with irrational terms and
# cancels equal ones (p01 = 0 exactly at z = 0).
TRAIT_TWO_PERFECT = independent_errors(IndepErrorParams(F("0.98"), F("0.95"), 1, 1))


def _bitwise(values):
    return [(type(v), v.hex() if isinstance(v, float) else v) for v in values]


def _per_sample_two_misclass(z, c, k, misclass):
    """The per-sample construction the walk replaced, from exact series values merged by radical.

    Each component's series value is a fresh :func:`_series_coefficient` (its own rows,
    its polynomial built from 1).  Each output adds its components' rational factors per
    radical and rounds each nonzero sum once, summed in sorted radical order; it is an
    exact Fraction where no irrational radical survives.
    """
    series = [
        (Scale(1, a0, F(1, k)), _series_coefficient(tuple(a / a0 for a in linear), z, c, k))
        for a0, linear in two_disease_radicand_forms(misclass).values()
    ]
    values = []
    for signs in ((1, 0, 0), (-1, 1, 0), (-1, 0, 1)):
        terms = {}
        for sign, (scale, value) in zip(signs, series):
            if sign:
                key = scale.radical_key()
                terms[key] = terms.get(key, 0) + sign * scale.coeff * value
        nonzero = sorted((key, term) for key, term in terms.items() if term)
        if all(base == 1 for (base, _), _ in nonzero):
            values.append(sum((term for _, term in nonzero), F(0)))
        else:
            values.append(sum(
                float(term) * (1 if base == 1 else float(base) ** float(exponent))
                for (base, exponent), term in nonzero
            ))
    p00, p10, p01 = values
    return (p00, p10, p01, 1 - p00 - p10 - p01)


class TestTwoMisclassWalk:
    """The two-trait walk against the per-sample construction it replaced, point by point."""

    @pytest.mark.parametrize(
        "misclass, c, k, bound, distinct",
        [
            (independent_errors(DECIMAL_PARAMS), 1, 2, 16, [3, 1, 1]),
            (DECIMAL_ERRORS, 1, 2, 8, [3, 3, 3]),
            (MisclassModel.identity(), 2, 3, 10, [1, 1, 1]),
            (DYADIC_ERRORS, 3, 2, 10, [3, 1, 1]),
            (independent_errors(DECIMAL_PARAMS), 2, 1, 10, [3, 1, 1]),
            (TRAIT_TWO_PERFECT, 1, 2, 10, [2, 1, 1]),
        ],
        ids=["decimal", "float", "identity", "dyadic", "k1", "zero-slope"],
    )
    def test_walk_equals_per_sample_estimator(self, misclass, c, k, bound, distinct):
        # Every independent-errors model has zero slopes: component 10's on z10, 01's on z01.
        # A component with one distinct nonzero slope reads its numerators by (|z|, m) key;
        # one with two or three steps its polynomials, and the cases cover all three.
        forms = _two_misclass_forms(k, misclass)
        assert [len(set(p) - {0}) for p in forms.p] == distinct
        assert [v is not None for v in forms.slope] == [d == 1 for d in distinct]
        walked = list(_two_misclass_walk(c, k, misclass, iter_counts(3, bound)))
        assert [z for z, _ in walked] == list(iter_counts(3, bound))
        # The per-point scan the walk replaced, written out as the oracle.
        oracle = []
        for z, values in walked:
            want = _per_sample_two_misclass(z, c, k, misclass)
            assert _bitwise(values) == _bitwise(want), z
            oracle.extend(_simplex_violations(z, want))
        got = scan_properness(
            EstimatorId.UB_TWO_MISCLASS_SERIES, c, k, misclass=misclass, bound=bound
        )
        assert [(v.sample, v.component, v.value.hex(), v.kind) for v in got] == [
            (v.sample, v.component, v.value.hex(), v.kind) for v in oracle
        ]

    @pytest.mark.parametrize(
        "misclass",
        [
            DECIMAL_ERRORS, independent_errors(DECIMAL_PARAMS), DYADIC_ERRORS,
            MisclassModel.identity(),
        ],
        ids=["binary-float", "decimal", "dyadic", "identity"],
    )
    @pytest.mark.parametrize("c, k", [(1, 2), (5, 5), (2, 1)])
    def test_table_equals_per_sample_construction(self, misclass, c, k):
        # Random rows with repeats, in sorted and in shuffled order: the table walks
        # them sorted and scatters the values back to the caller's rows.
        rng = np.random.default_rng(21)
        samples = np.vstack((rng.integers(0, 9, size=(60, 3)), [[0, 0, 0], [3, 0, 2], [3, 0, 2]]))
        want = {
            z: [float(v) for v in _per_sample_two_misclass(z, c, k, misclass)]
            for z in map(tuple, samples.tolist())
        }
        for rows in (np.unique(samples, axis=0), samples, samples[rng.permutation(len(samples))]):
            values, clamped = evaluate_table(
                EstimatorId.UB_TWO_MISCLASS_SERIES, rows, c, k, misclass=misclass
            )
            assert values.shape == (len(rows), 4) and not clamped.any()
            for z, row in zip(map(tuple, rows.tolist()), values.tolist()):
                assert repr(row) == repr(want[z]), z

    @pytest.mark.parametrize(
        "points",
        [
            [(0, 0, 1), (0, 0, 0)], [(1, 0, 0), (0, 5, 5)], [(2, 3, 1), (2, 2, 9)],
            [(0, 0, 0), (1, -1, 0)],
        ],
        ids=["last-axis", "first-axis", "middle-axis", "negative"],
    )
    def test_descending_or_negative_points_raise(self, points):
        # A negative factor count would step no factors and yield a wrong value silently.
        walk = _two_misclass_walk(1, 2, DYADIC_ERRORS, points)
        next(walk)
        with pytest.raises(ValueError, match=re.escape(f"k >= 1, ascending: {points[1]}")):
            next(walk)

    @pytest.mark.parametrize(
        "misclass, calls",
        [(independent_errors(DECIMAL_PARAMS), {0: 969, 1: 153, 2: 153}),
         (MisclassModel.identity(), {0: 17, 1: 153, 2: 153})],
        ids=["decimal", "identity"],
    )
    def test_keyed_components_compute_one_numerator_per_key(self, monkeypatch, misclass, calls):
        # At bound 16 the lattice has 969 points but only 153 keys (|z|, m) with m <= |z|:
        # components 10 and 01 have one distinct slope, so each computes 153 numerators.
        # Component 00 steps at every point under errors; at the identity all its slopes
        # are equal and its m is |z|, 17 keys.
        counted = Counter()
        kernel = _SeriesRows.numerator

        def counting(rows, i, e, n):
            counted[i] += 1
            return kernel(rows, i, e, n)

        monkeypatch.setattr(_SeriesRows, "numerator", counting)
        scan_properness(EstimatorId.UB_TWO_MISCLASS_SERIES, 1, 2, misclass=misclass, bound=16)
        assert counted == calls

    @pytest.mark.filterwarnings("ignore:misclassification parameter <= 0.5")
    def test_value_past_the_float_range_raises_naming_the_sample(self):
        # The terms at z = (400, 0, 0) pass the float range with opposite signs, so their
        # float sum would be inf - inf; the int/int division raised a bare OverflowError.
        misclass = independent_errors(IndepErrorParams(0.99, 0.05, 0.99, 0.05))
        message = re.escape("the estimate at z = (400, 0, 0) is past the float range")
        with pytest.raises(DomainError, match=message):
            evaluate_table(
                EstimatorId.UB_TWO_MISCLASS_SERIES, np.array([[400, 0, 0], [0, 0, 0]]), 1, 2,
                misclass=misclass,
            )

    def test_walk_is_lazy(self):
        # A full lattice at bound 10,000 holds 1.7e11 points; the scan stops at z = 0.
        violations = scan_properness(
            EstimatorId.UB_TWO_MISCLASS_SERIES, 1, 2,
            misclass=independent_errors(DECIMAL_PARAMS), bound=10_000, max_violations=3,
        )
        assert [(v.sample, v.component, v.kind) for v in violations] == [
            ((0, 0, 0), "p00", ViolationKind.ABOVE_ONE),
            ((0, 0, 0), "p10", ViolationKind.BELOW_ZERO),
            ((0, 0, 0), "p01", ViolationKind.BELOW_ZERO),
        ]

    @pytest.mark.parametrize("c, k", [(0, 2), (1, 0)])
    def test_scan_rejects_invalid_design(self, c, k):
        with pytest.raises(ValueError, match=r"require c >= 1, k >= 1"):
            scan_properness(EstimatorId.UB_TWO_MISCLASS_SERIES, c, k, misclass=DYADIC_ERRORS, bound=3)


class TestPropernessViolation:
    @pytest.mark.parametrize(
        "kind, violating, proper",
        [(ViolationKind.BELOW_ZERO, [0.0, -1e-300, -math.inf], [5e-324, 1.0]),
         (ViolationKind.ABOVE_ONE, [1.0, 1.5, math.inf], [0.0, 0.9999999999999999]),
         (ViolationKind.SIMPLEX_SUM, [1.0, 2.0], [0.5, -1.0])],
        ids=["below", "above", "simplex"],
    )
    def test_value_must_violate_its_bound(self, kind, violating, proper):
        for value in violating:
            assert PropernessViolation((0,), "p", value, kind).value == value
        for value in [*proper, math.nan]:
            with pytest.raises(ValueError, match="does not violate bound"):
                PropernessViolation((0,), "p", value, kind)


class TestScanProperness:
    def test_perfect_one_disease_scan_is_clean(self):
        assert scan_properness(EstimatorId.UB_ONE_PERFECT, 1, 2, bound=1000) == []

    @pytest.mark.parametrize("c, k", [(1, 1), (1, 2), (4, 3)])
    def test_perfect_row_is_unbiased_one(self, c, k):
        # The scanner reads UB_ONE_PERFECT as the misclassified row at sensitivity 1.
        for y, (a, den) in zip(range(150), _one_misclass_row(c, k, F(1))):
            assert 1 - F(a, den) == unbiased_one(y, c, k), y

    @pytest.mark.parametrize("c", [1, 3])
    @pytest.mark.parametrize("k", [1, 2, 5])
    @pytest.mark.parametrize(
        "spec, sens",
        [(0.9, 0.95), (1, 0.9), (0.98, 0.95), (F("0.9"), F("0.95")), (F(1), F("0.9")),
         (F("0.98"), F("0.95"))],
        ids=["float-0.9:0.95", "float-1:0.9", "float-0.98:0.95", "decimal-0.9:0.95",
             "decimal-1:0.9", "decimal-0.98:0.95"],
    )
    def test_one_trait_scan_matches_scale_rule(self, spec, sens, k, c):
        # The rule the integer signs replaced, written out as the oracle: the exact
        # radical Scale times -S(y), its sign and k-th power compared as Fractions.
        sens_, radical = _one_misclass_radical(k, spec, sens)
        oracle = []
        for y, (a, den) in zip(range(201), _one_misclass_row(c, k, sens_)):
            term = radical * F(-a, den)
            # A folded radical's estimate is rational: rounded once, as `estimate` prints it.
            value = float(1 + term.coeff) if term.is_rational else 1.0 + float(term)
            if term.coeff > 0:
                oracle.append(((y,), ViolationKind.ABOVE_ONE, value.hex()))
            elif (-term.coeff) ** k * term.base > 1:
                oracle.append(((y,), ViolationKind.BELOW_ZERO, value.hex()))
        got = scan_properness(
            EstimatorId.UB_ONE_MISCLASS, c, k, specificity=spec, sensitivity=sens, bound=200
        )
        assert [(v.sample, v.kind, v.value.hex()) for v in got] == oracle
        assert oracle

    def test_one_trait_scan_past_the_float_range(self):
        # Past y = 522 the estimate's quotient leaves the float range: the scan raised
        # OverflowError.  The oracle is the exact rational estimate; its reported value
        # is that estimate rounded once, or inf of its sign past the float range.
        got = scan_properness(
            EstimatorId.UB_ONE_MISCLASS, 2, 4, specificity=1.0, sensitivity=0.25, bound=600
        )
        sens, radical = _one_misclass_radical(4, 1.0, 0.25)
        assert radical.base == 1  # the radical folded, so each estimate is a Fraction
        oracle = []
        for y, (a, den) in zip(range(601), _one_misclass_row(2, 4, sens)):
            term = radical.coeff * F(-a, den)
            exact = 1 + term
            try:
                value = float(1 + term)
            except OverflowError:
                value = math.inf if term > 0 else -math.inf
            if not 0 <= exact <= 1:
                kind = ViolationKind.ABOVE_ONE if exact > 1 else ViolationKind.BELOW_ZERO
                oracle.append(((y,), kind, value))
        assert [(v.sample, v.kind, v.value) for v in got] == oracle
        assert got[-1].value == math.inf and sum(math.isinf(v.value) for v in got) == 78
        assert math.isfinite(got[-79].value) and got[-79].sample == (522,)

    @pytest.mark.parametrize("spec, sens", [(1, 1), (0.9, 0.95), (F(1), F("0.9"))])
    @pytest.mark.parametrize("c, k", [(1, 1), (1, 2), (5, 10)])
    def test_perfect_one_trait_scan_ignores_error_rates(self, spec, sens, c, k):
        # UB_ONE_PERFECT lies in [0, 1] at every y, whatever error rates it is passed.
        assert scan_properness(
            EstimatorId.UB_ONE_PERFECT, c, k, specificity=spec, sensitivity=sens, bound=500
        ) == []

    def test_misclassified_negative_at_zero(self):
        violations = scan_properness(
            EstimatorId.UB_ONE_MISCLASS, 1, 2,
            specificity=F("0.9"), sensitivity=F("0.95"), bound=0,
        )
        assert len(violations) == 1
        v = violations[0]
        assert v.sample == (0,) and v.kind is ViolationKind.BELOW_ZERO
        assert v.value == pytest.approx(-0.05718827974184881, abs=1e-10)

    def test_misclassified_witness_at_zero(self):
        # p_hat(0) = 1 - (sens/nu)^(1/k) with nu = spec + sens - 1: negative whenever spec < 1.
        violations = scan_properness(
            EstimatorId.UB_ONE_MISCLASS, 5, 5,
            specificity=F("0.98"), sensitivity=F("0.95"), bound=0,
        )
        assert [(v.sample, v.kind) for v in violations] == [((0,), ViolationKind.BELOW_ZERO)]
        assert violations[0].value == pytest.approx(-0.004264547100649496, rel=1e-12)
        assert violations[0].value == pytest.approx(1 - (0.95 / 0.93) ** (1 / 5), rel=1e-12)

    def test_two_trait_misclassified_witnesses_at_zero(self):
        # At z = 0 the leading component exceeds 1 and both cross components are negative.
        misclass = independent_errors(
            IndepErrorParams(F("0.98"), F("0.95"), F("0.97"), F("0.9"))
        )
        violations = scan_properness(
            EstimatorId.UB_TWO_MISCLASS_SERIES, 1, 2, misclass=misclass, bound=0
        )
        want = [
            ("p00", ViolationKind.ABOVE_ONE, 1.027973588992585),
            ("p10", ViolationKind.BELOW_ZERO, -0.010878333561369358),
            ("p01", ViolationKind.BELOW_ZERO, -0.017278097588727004),
        ]
        assert [(v.sample, v.component, v.kind) for v in violations] == [
            ((0, 0, 0), name, kind) for name, kind, _ in want
        ]
        for v, (_, _, value) in zip(violations, want):
            assert v.value == pytest.approx(value, rel=1e-12), v.component

    def test_shipped_two_trait_misclass_config(self):
        path = Path(__file__).resolve().parent.parent / "configs" / "scan_two_misclass.cfg"
        records, ok = run_mode(parse_config(path.read_text(encoding="utf-8")))
        assert ok and len(records) == 1546
        assert {r.estimator for r in records} == {"UB_TWO_MISCLASS_SERIES"}
        assert [(r.sample, r.component, r.flags) for r in records[:3]] == [
            ("0:0:0", "p00", "violates=above 1"),
            ("0:0:0", "p10", "violates=below 0"),
            ("0:0:0", "p01", "violates=below 0"),
        ]

    def test_shipped_two_trait_misclass_config_bytes(self):
        # The CLI parses this config's margins as binary floats, a path the benchmark's
        # decimal scan does not take.  The digest is sha256 of render_records(records,
        # "csv") from this run, recorded before the shared-denominator kernel; it equals
        # sha256sum of `gtseq scan-properness --config configs/scan_two_misclass.cfg --out F`.
        path = Path(__file__).resolve().parent.parent / "configs" / "scan_two_misclass.cfg"
        cfg = parse_config(path.read_text(encoding="utf-8"))
        records, _ = run_mode(cfg)
        text = render_records(records, cfg.format)
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest == SHIPPED_SCAN_SHA256["scan_two_misclass"]

    def test_sensitivity_only_divergence_found(self):
        violations = scan_properness(
            EstimatorId.UB_ONE_MISCLASS, 1, 2,
            specificity=F(1), sensitivity=F("0.9"),
            bound=10_000, max_violations=1,
        )
        assert len(violations) == 1
        v = violations[0]
        assert v.kind is ViolationKind.ABOVE_ONE and v.value > 1
        assert v.sample == (8,)

    @pytest.mark.parametrize("spec, sens", [(F("0.4"), F("0.5")), (F(1, 2), F(1, 2)), (0.55, 0.45)])
    def test_unidentifiable_errors_raise_the_estimator_error(self, spec, sens):
        # The scanner judges nu through the estimator's own check, so it fails as the estimator does.
        with pytest.raises(IdentifiabilityError, match="must be positive"):
            scan_properness(
                EstimatorId.UB_ONE_MISCLASS, 1, 2, specificity=spec, sensitivity=sens, bound=20
            )

    def test_two_disease_counterexample(self):
        violations = scan_properness(EstimatorId.UB_TWO_PERFECT, 1, 2, bound=2)
        simplex = [v for v in violations if v.kind is ViolationKind.SIMPLEX_SUM]
        assert [v.sample for v in simplex] == [(1, 1, 0)]
        assert simplex[0].value == pytest.approx(1.125, abs=0)
        # lexicographic report ordering
        samples = [v.sample for v in violations]
        assert samples == sorted(samples)

    @pytest.mark.parametrize("cap", [1, 2])
    @pytest.mark.parametrize(
        "estimator, params",
        [
            (EstimatorId.UB_TWO_MISCLASS_SERIES, dict(misclass=independent_errors(DECIMAL_PARAMS), bound=16)),
            (EstimatorId.UB_TWO_PERFECT, dict(bound=5)),
        ],
        ids=["series", "perfect"],
    )
    def test_max_violations_caps_two_trait_scans(self, estimator, params, cap):
        # A two-trait point can violate several bounds at once, and the scan kept the whole
        # point: a cap of 1 returned 3 violations (series, z = 0) and 2 (perfect).
        full = scan_properness(estimator, 1, 2, **params)
        capped = scan_properness(estimator, 1, 2, max_violations=cap, **params)
        assert len(full) > 2
        assert capped == full[:cap]

    @pytest.mark.parametrize("cap", [0, -1])
    def test_max_violations_below_one_rejected(self, cap):
        with pytest.raises(ValueError, match=r"max_violations must be >= 1"):
            scan_properness(EstimatorId.UB_TWO_PERFECT, 1, 2, bound=5, max_violations=cap)

    def test_mle_scans_are_empty(self):
        assert scan_properness(EstimatorId.MLE_ONE, 1, 2, bound=50) == []
        assert scan_properness(EstimatorId.MLE_TWO, 1, 2, bound=5) == []

    def test_series_estimator_scan_identity_matches_closed_form(self):
        # Whole violations, values included: the per-point closed form is the oracle, and
        # both two-trait scans read it exactly at the identity model.
        for c, k, bound in [(1, 2, 12), (2, 3, 10), (1, 1, 10)]:
            oracle = []
            for z in iter_counts(3, bound):
                oracle.extend(_simplex_violations(z, unbiased_two(z, c, k)))
            assert scan_properness(EstimatorId.UB_TWO_PERFECT, c, k, bound=bound) == oracle
            assert scan_properness(
                EstimatorId.UB_TWO_MISCLASS_SERIES, c, k,
                misclass=MisclassModel.identity(), bound=bound,
            ) == oracle
            assert oracle or k == 1, (c, k)

    def test_two_trait_perfect_scan_ignores_misclass(self):
        misclass = independent_errors(DECIMAL_PARAMS)
        got = scan_properness(EstimatorId.UB_TWO_PERFECT, 1, 2, misclass=misclass, bound=8)
        assert got == scan_properness(EstimatorId.UB_TWO_PERFECT, 1, 2, bound=8)
        assert got != scan_properness(
            EstimatorId.UB_TWO_MISCLASS_SERIES, 1, 2, misclass=misclass, bound=8
        )

    def test_shipped_two_trait_perfect_config_bytes(self):
        # sha256 of render_records(records, "csv"), recorded before the scan read the
        # perfect-test estimator through the lattice walk; it equals sha256sum of
        # `gtseq scan-properness --config configs/scan_two_perfect.cfg --out F`.
        path = Path(__file__).resolve().parent.parent / "configs" / "scan_two_perfect.cfg"
        cfg = parse_config(path.read_text(encoding="utf-8"))
        records, ok = run_mode(cfg)
        assert ok and len(records) == 5268
        assert {r.estimator for r in records} == {"UB_TWO_PERFECT"}
        text = render_records(records, cfg.format)
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest == SHIPPED_SCAN_SHA256["scan_two_perfect"]


class TestOneValuePerSample:
    """evaluate, scan_properness and evaluate_table on shared samples print one value each.

    The kernels that round an exact value once agree bit for bit.  The perfect-test
    tables multiply floats, so they are held to the per-component ulp bounds measured
    when this test was written: a change may tighten a bound but not widen it.  The
    numpy-free UB_ONE_PERFECT row equals its table, and each MLE table equals its
    scalar form, clamp flags included, bit for bit.
    """

    @staticmethod
    def hexes(values):
        return [float(v).hex() for v in values]

    @classmethod
    def agree_with_scan(cls, found, exact):
        """Each two-trait violation reports its exact component, or leading sum, rounded once."""
        want = [
            exact[v.sample][TWO_COMPONENTS.index(v.component)] if v.component in TWO_COMPONENTS
            else sum(exact[v.sample][:3])
            for v in found
        ]
        return found and [v.value.hex() for v in found] == cls.hexes(want)

    @pytest.mark.parametrize(
        "spec, sens", [(1.0, 0.9), (0.98, 0.95)], ids=["folded-1:0.9", "0.98:0.95"]
    )
    @pytest.mark.parametrize("c, k", [(1, 2), (3, 5)])
    def test_one_trait_misclass_agrees_bitwise(self, spec, sens, c, k):
        # At 1:0.9, k = 2, c = 1 the scan once printed y = 18 as 1.2561990004826562, `estimate`
        # as 1.256199000482656: the folded radical's value was rounded twice.
        est, kw, bound = EstimatorId.UB_ONE_MISCLASS, dict(specificity=spec, sensitivity=sens), 60
        single = self.hexes(evaluate(est, (y,), c, k, **kw)[0][0] for y in range(bound + 1))
        table, _ = evaluate_table(est, np.arange(bound + 1)[:, None], c, k, **kw)
        assert self.hexes(table[:, 0].tolist()) == single
        found = scan_properness(est, c, k, bound=bound, **kw)
        assert found and [v.value.hex() for v in found] == [single[v.sample[0]] for v in found]

    @pytest.mark.parametrize(
        "misclass", [MisclassModel.identity(), DECIMAL_ERRORS],
        ids=["identity", "0.98:0.95:0.97:0.9"],
    )
    def test_two_trait_series_agrees_bitwise(self, misclass):
        est, c, k, bound = EstimatorId.UB_TWO_MISCLASS_SERIES, 1, 2, 12
        points = list(iter_counts(3, bound))
        exact = {z: evaluate(est, z, c, k, misclass=misclass)[0] for z in points}
        table, _ = evaluate_table(est, np.array(points), c, k, misclass=misclass)
        assert [self.hexes(row) for row in table.tolist()] == [self.hexes(exact[z]) for z in points]
        found = scan_properness(est, c, k, misclass=misclass, bound=bound)
        assert self.agree_with_scan(found, exact)

    @pytest.mark.parametrize("c, k", [(1, 1), (1, 2), (3, 5), (20, 10)])
    def test_one_trait_perfect_row_agrees_bitwise(self, c, k):
        # verify_one walks this row in Python where it once read the table through the lattice sum.
        table, _ = evaluate_table(EstimatorId.UB_ONE_PERFECT, np.arange(4001)[:, None], c, k)
        assert self.hexes(itertools.islice(unbiased_one_row(c, k), 4001)) == self.hexes(table[:, 0].tolist())

    def test_one_trait_perfect_row_checks_its_design_on_the_call(self):
        for c, k in [(0, 2), (1, 0)]:
            with pytest.raises(ValueError, match="require c >= 1, k >= 1"):
                unbiased_one_row(c, k)

    @pytest.mark.parametrize(
        "spec, sens", [(1, 1), (1.0, 0.9), (0.98, 0.95)], ids=["perfect", "1:0.9", "0.98:0.95"]
    )
    @pytest.mark.parametrize("c, k", [(1, 2), (3, 5)])
    def test_mle_one_table_agrees_with_scalar_bitwise(self, spec, sens, c, k):
        ys = range(121)
        table, clamped = evaluate_table(
            EstimatorId.MLE_ONE, np.array(ys)[:, None], c, k, specificity=spec, sensitivity=sens
        )
        single = [mle_one(y, c, k, spec, sens) for y in ys]
        assert self.hexes(table[:, 0].tolist()) == self.hexes(r.p_hat for r in single)
        assert clamped.tolist() == [r.clamped for r in single]
        # Every misclassified grid clamps some rows, through a radicand <= 0 or a value outside [0, 1].
        assert any(clamped) == ((spec, sens) != (1, 1))

    @pytest.mark.parametrize(
        "misclass", [None, DYADIC_ERRORS, DECIMAL_ERRORS], ids=["perfect", "dyadic", "0.98:0.95:0.97:0.9"]
    )
    @pytest.mark.parametrize("c, k", [(1, 2), (4, 5)])
    def test_mle_two_table_agrees_with_scalar_bitwise(self, misclass, c, k):
        points = list(iter_counts(3, 14))
        table, clamped = evaluate_table(EstimatorId.MLE_TWO, np.array(points), c, k, misclass=misclass)
        single = [mle_two(z, c, k, misclass) for z in points]
        assert [self.hexes(row) for row in table.tolist()] == [self.hexes(r.p) for r in single]
        assert clamped.tolist() == [r.clamped for r in single]
        assert any(clamped) and not all(clamped)

    def test_perfect_tables_within_measured_ulps(self):
        def ulps(table, exact):
            return max(abs(v - float(e)) / math.ulp(float(e)) for v, e in zip(table, exact))

        ys = np.arange(401)[:, None]
        for c, k in [(1, 1), (1, 2), (3, 5), (20, 10)]:
            table, _ = evaluate_table(EstimatorId.UB_ONE_PERFECT, ys, c, k)
            exact = [unbiased_one(y, c, k) for y in range(401)]
            assert ulps(table[:, 0].tolist(), exact) <= 62, (c, k)  # 62 at c = 20, k = 10
        points = list(iter_counts(3, 24))
        # Measured worst over these designs: p00 2, p10 and p01 29, and p11 27,914 ulps,
        # where 1 - v00 - v10 - v01 cancels.
        bounds = (2, 29, 29, 27_914)
        for c, k in [(1, 2), (4, 5), (2, 10)]:
            table, _ = evaluate_table(EstimatorId.UB_TWO_PERFECT, np.array(points), c, k)
            exact = {z: unbiased_two(z, c, k) for z in points}
            for j, bound in enumerate(bounds):
                column = [e[j] for e in exact.values()]
                assert ulps(table[:, j].tolist(), column) <= bound, (c, k, j)
            # The scanner reads the same exact values and rounds each once.
            found = scan_properness(EstimatorId.UB_TWO_PERFECT, c, k, bound=24)
            assert self.agree_with_scan(found, exact)


class TestEvaluate:
    def test_shipped_two_trait_misclass_bench_config_bytes(self):
        # sha256 of render_records(records, "csv"), recorded before the series table walked
        # its rows in sorted order; it equals sha256sum of
        # `gtseq bench --config configs/bench_two_misclass.cfg --out F`.
        path = Path(__file__).resolve().parent.parent / "configs" / "bench_two_misclass.cfg"
        cfg = parse_config(path.read_text(encoding="utf-8"))
        records, ok = run_mode(cfg)
        assert ok and len(records) == 32
        assert "UB_TWO_MISCLASS_SERIES" in {r.estimator for r in records}
        text = render_records(records, cfg.format)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
            "4966ca848d012470cda1425e38d22b83f23b330607dd50ad98df5702ba938438"
        )

    def test_shipped_two_trait_bench_config_bytes(self):
        # sha256 of render_records(records, "csv"), recorded before tally and the two
        # perfect-test-grid tables (UB_TWO_PERFECT, MLE_TWO) wrote into preallocated
        # arrays; it equals sha256sum of `gtseq bench --config configs/bench_two_default.cfg
        # --out F`.  The benchmark compares these floats only to a relative 1e-9.
        path = Path(__file__).resolve().parent.parent / "configs" / "bench_two_default.cfg"
        cfg = parse_config(path.read_text(encoding="utf-8"))
        records, ok = run_mode(cfg)
        assert ok and len(records) == 27 * 2 * 4
        text = render_records(records, cfg.format)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
            "083454baddde3a8ccbfef2eaeddba7fe9744e3785f960126b1bee769ac39594c"
        )

    @pytest.mark.parametrize("estimator", list(EstimatorId))
    def test_bad_samples_or_design_raise_before_any_kernel(self, estimator):
        # The table kernels read a negative count as an index from the end: UB_ONE_PERFECT
        # gave the y = 3 value at y = -1, UB_TWO_PERFECT (0.5, 0, 0, 0.5) at z = (-1, 0, 2),
        # and c = 0 divided by zero, where the scalar estimators raise.
        width = 1 if FAMILY[estimator] == "one" else 3
        good = np.array([[3] * width, [0] * width])
        negative = good.copy()
        negative[0, 0] = -1
        params = dict(specificity=0.9, sensitivity=0.95, misclass=DYADIC_ERRORS)
        wrong_width = np.ones((2, 4 - width), dtype=np.int64)
        for samples, c, k in [(negative, 1, 2), (good, 0, 2), (good, 1, 0), (wrong_width, 1, 2),
                              (good[0], 1, 2)]:
            with pytest.raises(ValueError, match=r"require \(n, [13]\) samples >= 0, c >= 1, k >= 1"):
                evaluate_table(estimator, samples, c, k, **params)
        values, _ = evaluate_table(estimator, good, 1, 2, **params)
        assert values.shape == (2, 1 if width == 1 else 4)

    def test_scalar_mles_raise_on_bad_samples_or_design(self):
        # The scalar MLEs went to their table kernels unchecked: mle_one(-1, 1, 2) gave
        # (0.0, True), mle_one(3, 0, 2) (1.0, True), mle_two((1, 0, 0), 0, 2) (0, 1, 0, 0),
        # and mle_two((-1, 0, 0), 1, 2) a NaN row flagged not clamped.
        match = r"require \(n, [13]\) samples >= 0, c >= 1, k >= 1"
        calls = [
            lambda: mle_one(-1, 1, 2),
            lambda: mle_one(3, 0, 2),
            lambda: mle_two((-1, 0, 0), 1, 2),
            lambda: mle_two((1, 0, 0), 0, 2),
            lambda: evaluate(EstimatorId.MLE_TWO, (-1, 0, 0), 1, 2),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=match):
                call()

    @pytest.mark.parametrize("estimator", list(EstimatorId))
    def test_zero_rows(self, estimator):
        # MLE_ONE and UB_TWO_MISCLASS_SERIES raised "cannot reshape array of size 0".
        width = 1 if FAMILY[estimator] == "one" else 4
        samples = np.empty((0, 1 if width == 1 else 3), dtype=np.int64)
        values, clamped = evaluate_table(
            estimator, samples, 2, 3, specificity=0.9, sensitivity=0.95, misclass=DYADIC_ERRORS
        )
        assert values.shape == (0, width) and clamped.shape == (0,)

    @pytest.mark.parametrize("k, c", [(1, 1), (1, 4), (2, 1), (5, 3)])
    def test_one_trait_table_matches_exact(self, k, c):
        samples = np.arange(201)[:, None]
        values, clamped = evaluate_table(EstimatorId.UB_ONE_PERFECT, samples, c, k)
        assert values.shape == (201, 1) and not clamped.any()
        for (y,), value in zip(samples.tolist(), values[:, 0]):
            exact = float(evaluate(EstimatorId.UB_ONE_PERFECT, (y,), c, k)[0][0])
            assert value == pytest.approx(exact, rel=0, abs=1e-13), y

    @pytest.mark.parametrize("k, c", [(1, 1), (2, 1), (3, 4), (10, 20)])
    def test_two_trait_table_matches_exact(self, k, c):
        samples = np.array(list(iter_counts(3, 30)))
        if (k, c) in [(1, 1), (10, 20)]:
            # Totals up to 500, where the cross terms are ratios of long pool-factor products.
            edges = [(500, 0, 0), (0, 500, 0), (0, 0, 500), (1, 0, 499), (0, 1, 499), (499, 1, 0),
                     (250, 250, 0), (1, 1, 498)]
            spread = np.random.default_rng(0).integers(0, 167, size=(24, 3))
            samples = np.vstack((samples, edges, spread))
        values, clamped = evaluate_table(EstimatorId.UB_TWO_PERFECT, samples, c, k)
        assert values.shape == (len(samples), 4) and not clamped.any()
        for z, row in zip(map(tuple, samples.tolist()), values):
            exact, _ = evaluate(EstimatorId.UB_TWO_PERFECT, z, c, k)
            assert row.tolist() == pytest.approx([float(v) for v in exact], rel=0, abs=1e-13), z

    def test_two_trait_table_memory_grows_linearly(self):
        peaks = []
        for total in (1000, 2000, 4000):
            samples = np.array([[0, 0, 0], [total // 3, total // 3, total - 2 * (total // 3)]])
            tracemalloc.start()
            try:
                evaluate_table(EstimatorId.UB_TWO_PERFECT, samples, 20, 10)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[2] < 1_000_000, peaks
        assert peaks[1] < 2.5 * peaks[0] and peaks[2] < 2.5 * peaks[1], peaks

    def test_pool_row_limit_raises_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match=f"sample total {2**40} at k=3, c=2"):
                _pool_factor_rows(3, 2, 2**40)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    @pytest.mark.parametrize("k", [1, 2, 5, 10])
    @pytest.mark.parametrize("c", [1, 5, 20])
    def test_mle_two_table_equals_scalar_inversion_bitwise(self, c, k):
        samples = np.array(list(iter_counts(3, 40)))
        values, clamped = evaluate_table(EstimatorId.MLE_TWO, samples, c, k)
        for z, row, flag in zip(map(tuple, samples.tolist()), values.tolist(), clamped.tolist()):
            total = c + sum(z)
            raw = invert_cell_probs(tuple(v / total for v in z), k)
            clipped = [min(1.0, max(0.0, v)) for v in raw]
            s = ((clipped[0] + clipped[1]) + clipped[2]) + clipped[3]
            assert row == [v / s for v in clipped] and flag == (clipped != list(raw)), z
        assert clamped.any()
        for i in (0, int(clamped.argmax())):
            result = mle_two(tuple(samples[i].tolist()), c, k)
            assert result.p == tuple(values[i].tolist()) and result.clamped == clamped[i]
            assert all(type(v) is float for v in result.p)

    @pytest.mark.parametrize("misclass", [None, DYADIC_ERRORS], ids=["perfect", "dyadic"])
    def test_mle_two_table_over_root_chunks_equals_row_inversion(self, misclass):
        # 10,000 rows are 30,000 roots, several ROOT_CHUNK chunks with a short last one.
        samples = np.random.default_rng(19).integers(0, 60, size=(10_000, 3))
        assert samples.size % estimators.ROOT_CHUNK and samples.size > 2 * estimators.ROOT_CHUNK
        c, k = 3, 5
        values, clamped = mle_two_table(samples, c, k, misclass)
        for z, row, flag in zip(samples.tolist(), values.tolist(), clamped.tolist()):
            total = c + sum(z)
            radicands = two_disease_radicands(tuple(v / total for v in z), misclass)
            p00, r10, r01 = (max(r, 0.0) ** (1 / k) for r in radicands)
            raw = [p00, r10 - p00, r01 - p00, 1 - p00 - (r10 - p00) - (r01 - p00)]
            clipped = [min(1.0, max(0.0, v)) for v in raw]
            s = ((clipped[0] + clipped[1]) + clipped[2]) + clipped[3]
            assert row == [v / s for v in clipped], z
            assert flag == (min(radicands) < 0 or clipped != raw), z
        assert clamped.any() and not clamped.all()

    def test_family_and_components(self):
        assert {FAMILY[e] for e in EstimatorId} == {"one", "two"}
        assert TWO_COMPONENTS == ("p00", "p10", "p01", "p11")
        assert len(evaluate(EstimatorId.MLE_ONE, (3,), 1, 2)[0]) == 1
        for est in EstimatorId:
            if FAMILY[est] == "two":
                assert len(evaluate(est, (1, 1, 0), 1, 2)[0]) == 4
