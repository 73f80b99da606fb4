"""Verification helpers: certified tails and the marginal-collapse identity."""

import csv
import itertools
import math
from fractions import Fraction as F

import numpy as np
import pytest

from gtseq import estimators, plans, verify
from gtseq.cli import main
from gtseq.estimators import EstimatorId, evaluate_table, unbiased_one_misclass_row, unbiased_one_row
from gtseq.errors import ModelError
from gtseq.model import (
    IndepErrorParams,
    OneDiseaseModel,
    TwoDiseaseModel,
    independent_errors,
    observed_pos_prob,
    pool_cell_probs,
)
from gtseq.plans import imn_pmf_exact, negbin_terms, truncated_expectation
from gtseq.verify import stopping_quantile, verify_one, verify_two
from test_estimators import table_column


def two_walk_quantile(c, mu0, tail_target, cap):
    """(N, tail, terms) as two separate walks of the NB(c, mu0) terms once computed them."""
    terms = negbin_terms(c, mu0)
    acc = next(terms)
    n = 0
    while 1.0 - acc > tail_target and n < cap:
        acc += next(terms)
        n += 1
    head = list(itertools.islice(negbin_terms(c, mu0), n + 1))
    return n, max(0.0, 1.0 - math.fsum(head)) + 1e-12, head


def exact_tail(c, mu0, n):
    """P(total > n) for a NB(c, mu0) total, exactly: fewer than c stops in the first n + c draws."""
    mu0 = F(mu0)
    return sum(math.comb(n + c, j) * mu0**j * (1 - mu0) ** (n + c - j) for j in range(c))


class TestStoppingQuantile:
    def test_geometric_case_exact(self):
        # c=1: tail after N is theta^(N+1); want theta^(N+1) <= 1e-6 at theta=0.5
        terms, _ = stopping_quantile(1, 0.5, 1e-6)
        n = len(terms) - 1
        assert 0.5 ** (n + 1) <= 1e-6 < 0.5 ** n

    def test_cap_respected(self):
        terms, _ = stopping_quantile(5, 0.01, 1e-300, cap=50)
        assert len(terms) - 1 == 50

    @pytest.mark.parametrize("c", [1, 3, 20])
    @pytest.mark.parametrize("mu0", [0.999, 0.8, 0.3, 0.01])
    @pytest.mark.parametrize("tail_target", [5e-9, 1e-300])
    @pytest.mark.parametrize("cap", [50, 4000])
    def test_one_walk_equals_two_walks(self, c, mu0, tail_target, cap):
        terms, tail = stopping_quantile(c, mu0, tail_target, cap)
        n = len(terms) - 1
        want_n, want_tail, want_terms = two_walk_quantile(c, mu0, tail_target, cap)
        assert (n, tail.hex()) == (want_n, want_tail.hex())
        assert [t.hex() for t in terms] == [t.hex() for t in want_terms]
        if c <= 5:
            assert tail >= exact_tail(c, mu0, n)

    @pytest.mark.parametrize("c", [1, 2, 5])
    @pytest.mark.parametrize("mu0", [0.8, 0.3, 0.01])
    def test_terms_are_the_negative_binomial_pmf(self, c, mu0):
        # The walk's terms are the pmf every one-dimensional verify sum reads.
        terms, _ = stopping_quantile(c, mu0, 1e-12)
        theta = (1 - F(mu0),)
        exact = [float(imn_pmf_exact((y,), c, theta)) for y in range(len(terms))]
        assert terms == pytest.approx(exact, rel=1e-13, abs=0)

    @pytest.mark.parametrize("c", [1, 2, 5])
    @pytest.mark.parametrize("mu0", [0.8, 0.3, F(1, 7)])
    def test_exact_tail_is_one_less_the_pmf_sum(self, c, mu0):
        theta = (1 - F(mu0),)
        for n in (0, 1, 7, 30):
            assert exact_tail(c, mu0, n) == 1 - sum(imn_pmf_exact((y,), c, theta) for y in range(n + 1))


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


class TestVerifyOneFoldedRadical:
    """At specificity 1 the misclassified check reads the table's float row, built with no Fraction."""

    @pytest.mark.parametrize("spec", [1, F(1), 1.0], ids=["int", "Fraction", "float"])
    def test_rows_pinned_and_built_without_fractions(self, monkeypatch, spec):
        made = []

        def counting(*args):
            made.append(args)
            return F(*args)

        monkeypatch.setattr(estimators, "Fraction", counting)
        row = verify_one(OneDiseaseModel(0.3, 10, 1, spec, 0.6))
        assert (row.value.hex(), row.max_total) == ("0x1.3333318ae2638p-2", 419)
        assert row.passed and not row.certified
        # The radical's exponent 1/k, built once on the row's call; no value builds one.
        assert made == [(1, 10)]
        values = unbiased_one_misclass_row(1, 10, spec, 0.6)
        made.clear()
        assert all(type(v) is float for v in itertools.islice(values, 420)) and not made

    def test_estimate_past_the_float_range_fails_its_row(self, tmp_path, capsys):
        # The row's estimates pass the float range at y = 1038; the check once raised
        # OverflowError converting an exact value there, then stepped on to its cap and
        # wrote decay=nan, which read like a check that merely did not converge.
        cfg = tmp_path / "verify.cfg"
        cfg.write_text("[run]\nmode = verify-unbiased\n\n[model]\np = 0.5\nk = 10\nc = 1\nmisclass = 1:0.5\n")
        out = tmp_path / "verify.csv"
        with pytest.warns(UserWarning, match="sensitivity = 0.5"):
            assert main(["verify-unbiased", "--config", str(cfg), "--out", str(out)]) == 3
        assert "Traceback" not in capsys.readouterr().err
        (record,) = csv.DictReader(out.open())
        assert record["estimator"] == "UB_ONE_MISCLASS"
        assert record["flags"] == "FAIL;uncertified;overflow@y=1038"
        assert not math.isfinite(float(record["estimate"]))


class TestVerifyOnePerfectRow:
    """verify_one's perfect-test row sums the table row against its stopping walk's terms."""

    @pytest.mark.parametrize("c", [1, 3, 20])
    @pytest.mark.parametrize("k", [1, 2, 10])
    def test_row_sum_reads_the_stopping_walk(self, c, k):
        totals = set()
        for theta in (1e-6, 1e-3, 0.1, 0.5, 0.9, 0.99, 0.999):
            model = OneDiseaseModel(1 - (1 - theta) ** (1 / k), k, c)
            mu = (float(observed_pos_prob(model)),)
            for cap in (0, 4000):
                row = verify_one(model, cap=cap)
                terms, _ = stopping_quantile(c, 1.0 - mu[0], 1e-8 / 2, cap)
                want = math.fsum(est * term for est, term in zip(unbiased_one_row(c, k), terms))
                assert (row.value.hex(), row.max_total) == (want.hex(), len(terms) - 1)
                # The lattice sum reads the lgamma form of the same pmf; 2.6e-12 apart at worst
                # here (c = 20, k = 1, theta = 0.999, cap 4000).
                ref = truncated_expectation(
                    table_column(EstimatorId.UB_ONE_PERFECT, c, k), c, mu, max_total=row.max_total
                )
                assert row.value == pytest.approx(ref.value, rel=1e-11), (theta, cap, row.max_total)
                totals.add(row.max_total)
        assert {0, 4000} <= totals, totals


class TestOneWalkPerCheck:
    """Each certified check walks the NB(c, mu0) pmf once and sums every 1-d sum over its terms."""

    @staticmethod
    def count_calls(monkeypatch, module, name):
        calls = []
        fn = getattr(module, name)

        def counting(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
        return calls

    def test_perfect_one_trait_rows_walk_once_with_no_lgamma(self, monkeypatch):
        walks = self.count_calls(monkeypatch, verify, "negbin_terms")
        lgammas = self.count_calls(monkeypatch, math, "lgamma")
        models = [OneDiseaseModel(p, k, c) for p in (0.01, 0.3) for k in (1, 5) for c in (1, 4)]
        for model in models:
            assert verify_one(model).passed
        assert len(walks) == len(models) and not lgammas

    def test_two_trait_model_walks_once(self, monkeypatch):
        def no_lattice(*args, **kwargs):
            raise AssertionError("verify_two ran the reference lattice sum")

        monkeypatch.setattr(plans, "truncated_expectation", no_lattice)
        monkeypatch.setattr(verify, "truncated_expectation", no_lattice)
        walks = self.count_calls(monkeypatch, verify, "negbin_terms")
        pmfs = self.count_calls(monkeypatch, verify, "imn_pmf")
        models = [TwoDiseaseModel(0.1, 0.1, 0.05, 2, 3), TwoDiseaseModel(0.02, 0.01, 0.01, 5, 1)]
        for model in models:
            assert all(row.passed for row in verify_two(model))
        # The two cross sums read the 2-class pmf over (own, rest) pairs; nothing else does.
        assert len(walks) == len(models) and len(pmfs) == 2 * len(models)
        assert all(pairs.shape[1] == 2 for pairs, *_ in pmfs)

    @pytest.mark.parametrize("k, c", [(2, 3), (5, 1), (10, 20)])
    def test_two_trait_leading_sum_reads_the_walk(self, monkeypatch, k, c):
        model = TwoDiseaseModel(0.1, 0.1, 0.05, k, c)
        tables = self.count_calls(monkeypatch, verify, "evaluate_table")
        rows = {r.component: r for r in verify_two(model)}
        mu0 = float(pool_cell_probs(model)[3])
        terms, _ = stopping_quantile(c, mu0, 1e-8 / 2, 3000)
        n = len(terms) - 1
        # One table, whose first n + 1 rows are the own = 0 points (0, 0, t), t = 0, ..., n.
        ((_, samples, *_),) = tables
        leading = [[0, 0, t] for t in range(n + 1)]
        assert samples[: n + 1].tolist() == leading and len(samples) == (n + 1) * (n + 2) // 2
        p00 = evaluate_table(EstimatorId.UB_TWO_PERFECT, np.array(leading), c, k)[0][:, 0]
        want = math.fsum(est * term for est, term in zip(p00.tolist(), terms))
        assert (rows["p00"].value.hex(), rows["p00"].max_total) == (want.hex(), n)


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
        fn = table_column(EstimatorId.UB_TWO_PERFECT, 1, 2, component)
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
