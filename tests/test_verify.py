"""Verification helpers: certified tails and the marginal-collapse identity."""

from fractions import Fraction as F

import pytest

from gtseq.estimators import EstimatorId, estimator_callable
from gtseq.errors import ModelError
from gtseq.model import (
    IndepErrorParams,
    OneDiseaseModel,
    TwoDiseaseModel,
    independent_errors,
    observed_pos_prob,
    pool_cell_probs,
)
from gtseq.plans import imn_pmf_exact, truncated_expectation
from gtseq.verify import stopping_quantile, verify_one, verify_two


class TestStoppingQuantile:
    def test_geometric_case_exact(self):
        # c=1: tail after N is theta^(N+1); want theta^(N+1) <= 1e-6 at theta=0.5
        n = stopping_quantile(1, 0.5, 1e-6)
        assert 0.5 ** (n + 1) <= 1e-6 < 0.5 ** n

    def test_cap_respected(self):
        assert stopping_quantile(5, 0.01, 1e-300, cap=50) == 50


class TestVerifyOne:
    def test_perfect_certified(self):
        row = verify_one(OneDiseaseModel(0.05, 5, 2))
        assert row.certified and row.passed
        assert row.error <= 1e-8 + row.tail_bound

    def test_misclassified_decay_mode(self):
        row = verify_one(OneDiseaseModel(0.05, 5, 2, 0.98, 0.95))
        assert not row.certified
        assert row.decay_ratio is not None and row.decay_ratio < 1
        assert row.passed and row.error <= 1e-6

    def test_capped_truncation_fails(self):
        # mu0**c underflows, so the truncation total runs to its cap and the
        # tail bound is about 1: the row must not pass on error <= tol + tail.
        row = verify_one(OneDiseaseModel(0.5, 10, 300), cap=50)
        assert row.certified and row.max_total == 50 and row.tail_bound > 0.5
        assert not row.passed

    def test_capped_misclassified_sum_fails(self):
        # Fourteen terms are summed; the stopping rule needs eight quiet ones past the mean.
        row = verify_one(OneDiseaseModel(0.05, 5, 5, 0.98, 0.95), cap=14)
        assert not row.certified and row.max_total == 14
        assert not row.passed

    def test_failure_reported_not_hidden(self):
        row = verify_one(OneDiseaseModel(0.05, 5, 2, 0.98, 0.95), tol=1e-30)
        assert not row.passed


class TestVerifyOnePerfectRow:
    """verify_one's perfect-test row sum equals the reference lattice sum bit for bit."""

    @pytest.mark.parametrize("c", [1, 3, 20])
    @pytest.mark.parametrize("k", [1, 2, 10])
    def test_row_sum_equals_truncated_expectation(self, c, k):
        totals = set()
        for theta in (1e-6, 1e-3, 0.1, 0.5, 0.9, 0.99, 0.999):
            model = OneDiseaseModel(1 - (1 - theta) ** (1 / k), k, c)
            mu = (float(observed_pos_prob(model)),)
            for cap in (0, 4000):
                row = verify_one(model, cap=cap)
                ref = truncated_expectation(
                    estimator_callable(EstimatorId.UB_ONE_PERFECT, c, k), c, mu, max_total=row.max_total
                )
                assert row.value.hex() == ref.value.hex(), (theta, cap, row.max_total)
                totals.add(row.max_total)
        assert {0, 4000} <= totals, totals


class TestCollapseIdentity:
    """The 1-d/2-d sums in verify_two equal the raw 3-d lattice sums."""

    def test_pmf_collapse_exact(self):
        # Sum of the 3-class pmf over a fixed (z10, z01+z11) equals the
        # 2-class pmf with the merged class probability, exactly.
        c = 2
        mu = (F(1, 5), F(1, 8), F(1, 10))
        merged = mu[1] + mu[2]
        for a in range(4):
            for m in range(4):
                lhs = sum(
                    imn_pmf_exact((a, z01, m - z01), c, mu) for z01 in range(m + 1)
                )
                rhs = imn_pmf_exact((a, m), c, (mu[0], merged))
                assert lhs == rhs, (a, m)

    @pytest.mark.parametrize("component", ["p00", "p10", "p01", "p11"])
    def test_verify_two_matches_generic_enumeration(self, component):
        model = TwoDiseaseModel(0.1, 0.1, 0.05, 2, 1)
        rows = {r.component: r for r in verify_two(model)}
        row = rows[component]
        cells = tuple(float(v) for v in pool_cell_probs(model))
        fn = estimator_callable(EstimatorId.UB_TWO_PERFECT, 1, 2, component=component)
        generic = truncated_expectation(fn, 1, cells[:3], max_total=row.max_total)
        assert row.value == pytest.approx(generic.value, abs=1e-11)


class TestVerifyTwo:
    def test_all_components_pass(self):
        rows = verify_two(TwoDiseaseModel(0.1, 0.1, 0.05, 2, 3))
        assert {r.component for r in rows} == {"p00", "p10", "p01", "p11"}
        for row in rows:
            assert row.certified and row.passed, row.component

    def test_misclassified_model_rejected(self):
        errors = independent_errors(IndepErrorParams(0.98, 0.95, 0.97, 0.9))
        with pytest.raises(ModelError, match="perfect tests"):
            verify_two(TwoDiseaseModel(0.1, 0.1, 0.05, 2, 3, errors))

    def test_heavy_cell_still_certified(self):
        rows = verify_two(TwoDiseaseModel(0.1, 0.1, 0.05, 10, 20))
        for row in rows:
            assert row.passed, (row.component, row.error, row.tail_bound)
