"""Plans: pmf vs enumeration, path counts vs brute force, walks, diagnostics."""

import math
from fractions import Fraction as F

import numpy as np
import pytest

from gtseq import plans
from gtseq.errors import DomainError, PlanError, StepCapExceededError
from gtseq.estimators import EstimatorId
from gtseq.plans import (
    ExplicitPlan,
    FixedTotalPlan,
    StopCountPlan,
    axis_boundary_check,
    boundary_weights,
    imn_draws,
    imn_plan,
    imn_pmf,
    imn_pmf_exact,
    iter_counts,
    load_plan,
    path_count,
    save_plan,
    simulate,
    simulate_imn_counts,
    truncated_expectation,
)
from gtseq.series import AffinePowerSpec, poly_representability
from gtseq.verify import stopping_quantile
from test_estimators import table_column


def brute_force_paths(plan, point):
    """DFS over all step sequences that stop exactly at `point`."""
    target_total = sum(point)
    hits = 0

    def walk(pos, steps):
        nonlocal hits
        if plan.hits_boundary(tuple(pos)):
            if tuple(pos) == tuple(point) and steps == target_total:
                hits += 1
            return
        if steps == target_total:
            return
        for axis in range(len(pos)):
            if pos[axis] < point[axis]:
                pos[axis] += 1
                walk(pos, steps + 1)
                pos[axis] -= 1

    walk([0] * plan.dim, 0)
    return hits


class TestPmf:
    def test_worked_examples(self):
        assert imn_pmf((0,), 2, (0.3,)) == pytest.approx(0.49, rel=1e-14)
        assert imn_pmf((1,), 2, (0.3,)) == pytest.approx(0.294, rel=1e-14)
        assert imn_pmf((1, 0, 0), 1, (0.2, 0.3, 0.1)) == pytest.approx(0.08, rel=1e-14)

    def test_exact_matches_log_space(self):
        mu = (F(1, 5), F(3, 10), F(1, 10))
        for x in iter_counts(3, 4):
            exact = imn_pmf_exact(x, 2, mu)
            approx = imn_pmf(x, 2, tuple(float(v) for v in mu))
            assert approx == pytest.approx(float(exact), rel=1e-12)

    def test_brute_force_path_enumeration_oracle(self):
        # P(X = x) equals (paths) * mu-monomial; enumerate the paths directly.
        c, mu = 2, (F(1, 4), F(1, 8))
        plan = imn_plan(2, c)
        for x in iter_counts(2, 3):
            point = x + (c,)
            monomial = (1 - sum(mu)) ** c * mu[0] ** x[0] * mu[1] ** x[1]
            assert imn_pmf_exact(x, c, mu) == brute_force_paths(plan, point) * monomial

    def test_invalid_mu_rejected(self):
        with pytest.raises(DomainError):
            imn_pmf((1,), 1, (1.2,))
        with pytest.raises(DomainError):
            imn_pmf((1, 1), 1, (0.6, 0.5))
        with pytest.raises(DomainError):
            imn_pmf((1,), 1, (-0.1,))

    def test_batch_rows_equal_single_vectors(self):
        for c, mu in ((1, (0.25,)), (3, (0.25, 0.125)), (2, (0.25, 0.0, 0.125))):
            points = list(iter_counts(len(mu), 9))
            batch = imn_pmf(np.array(points), c, mu)
            assert isinstance(batch, np.ndarray) and batch.shape == (len(points),)
            assert batch.tolist() == [imn_pmf(x, c, mu) for x in points]
            assert isinstance(imn_pmf(points[-1], c, mu), float)
            exact = [float(imn_pmf_exact(x, c, mu)) for x in points]
            assert batch.tolist() == pytest.approx(exact, rel=1e-12, abs=0)

    def test_batch_domain_checks(self):
        with pytest.raises(DomainError, match="does not match"):
            imn_pmf(np.zeros((4, 3), dtype=int), 1, (0.2, 0.3))
        with pytest.raises(DomainError, match="negative count"):
            imn_pmf(np.array([[0, 1], [2, -1]]), 1, (0.2, 0.3))
        with pytest.raises(DomainError, match="c must be"):
            imn_pmf(np.array([[0, 1]]), 0, (0.2, 0.3))

    def test_normalization_monotone(self):
        mu = (0.25, 0.15)
        partial = 0.0
        previous = 0.0
        for total in range(25):
            shell = sum(
                imn_pmf(x, 3, mu)
                for x in iter_counts(2, total)
                if sum(x) == total
            )
            partial += shell
            assert previous <= partial <= 1.0 + 1e-12
            previous = partial
        assert partial == pytest.approx(1.0, abs=1e-5)


class TestPathCount:
    def test_inverse_plan_worked_example(self):
        assert path_count(imn_plan(1, 2), (3, 2)) == 4  # C(4, 3)

    def test_axis_points_have_single_path(self):
        for c in (1, 2, 5):
            assert path_count(imn_plan(1, c), (0, c)) == 1

    def test_fixed_total_is_binomial(self):
        plan = FixedTotalPlan(2, 6)
        for x in range(7):
            assert path_count(plan, (x, 6 - x)) == math.comb(6, x)

    def test_brute_force_agreement_inverse(self):
        plan = imn_plan(1, 3)
        for x in range(5):
            assert path_count(plan, (x, 3)) == brute_force_paths(plan, (x, 3))

    def test_brute_force_agreement_explicit(self):
        plan = ExplicitPlan(2, frozenset({(0, 2), (1, 1), (2, 1), (3, 0)}))
        for point in plan.boundary_points():
            assert path_count(plan, point) == brute_force_paths(plan, point)

    def test_brute_force_agreement_three_dims(self):
        plan = imn_plan(2, 2)
        for point in [(1, 0, 2), (1, 1, 2), (2, 1, 2), (0, 0, 2)]:
            assert path_count(plan, point) == brute_force_paths(plan, point)

    def test_shadowed_point_counts_zero(self):
        plan = ExplicitPlan(2, frozenset({(0, 1), (0, 3)}))
        assert path_count(plan, (0, 1)) == 1
        assert path_count(plan, (0, 3)) == 0

    def test_non_boundary_rejected(self):
        with pytest.raises(PlanError):
            path_count(imn_plan(1, 2), (3, 1))


class TestBoundaryWeights:
    @pytest.mark.parametrize("dim, total, size", [(3, 5, 21), (4, 6, 84)])
    def test_fixed_total_weights_are_path_counts(self, dim, total, size):
        plan = FixedTotalPlan(dim, total)
        weights = boundary_weights(plan)
        assert list(weights) == sorted(plan.boundary_points()) and len(weights) == size
        for point, weight in weights.items():
            assert weight == path_count(plan, point) == math.factorial(total) // math.prod(
                map(math.factorial, point)
            ), point

    def test_shadowed_point_weighs_zero(self):
        plan = ExplicitPlan(2, frozenset({(1, 0), (0, 1), (0, 3)}))
        assert boundary_weights(plan) == {(0, 1): 1, (0, 3): 0, (1, 0): 1}

    def test_open_three_dim_plan_raises(self):
        # Walks that step on the second axis and then the first never stop.
        plan = ExplicitPlan(3, frozenset({(1, 0, 0), (0, 0, 1), (0, 2, 0), (0, 1, 1)}))
        with pytest.raises(PlanError, match=r"open: walks reach \(1, 1, 1\) at total 3"):
            boundary_weights(plan)

    def test_infinite_plan_raises(self):
        with pytest.raises(PlanError):
            boundary_weights(imn_plan(1, 2))

    def test_path_count_stays_in_its_box(self):
        asked = []

        class Watched(StopCountPlan):
            def hits_boundary(self, point):
                asked.append(point)
                return super().hits_boundary(point)

        # imn_plan(2, 3) at a lopsided point: no walk to it takes a second-class step.
        assert path_count(Watched(3, 3), (6, 0, 3)) == math.comb(8, 2)
        assert asked and all(q[0] <= 6 and q[1] == 0 and q[2] <= 3 for q in asked)


class TestSimulate:
    def test_deterministic_in_seed_and_replicate(self):
        plan = imn_plan(1, 2)
        a = simulate(plan, (0.3, 0.7), seed=42, replicate_index=11)
        b = simulate(plan, (0.3, 0.7), seed=42, replicate_index=11)
        assert a == b

    def test_replicates_differ(self):
        plan = imn_plan(1, 2)
        outcomes = {
            simulate(plan, (0.5, 0.5), seed=1, replicate_index=i).terminal for i in range(64)
        }
        assert len(outcomes) > 1

    def test_zero_tracked_probability_stops_immediately(self):
        outcome = simulate(imn_plan(1, 1), (0.0, 1.0), seed=3, replicate_index=0)
        assert outcome.terminal == (0, 1) and outcome.steps == 1

    def test_terminal_on_boundary_and_path_recorded(self):
        plan = imn_plan(1, 3)
        outcome = simulate(plan, (0.4, 0.6), seed=5, replicate_index=2, record_path=True)
        assert plan.hits_boundary(outcome.terminal)
        assert outcome.path[0] == (0, 0)
        assert outcome.path[-1] == outcome.terminal
        assert len(outcome.path) == outcome.steps + 1

    def test_step_cap_raises(self):
        blocked = StopCountPlan(2, 5, axis=0)
        with pytest.raises(StepCapExceededError):
            simulate(blocked, (0.0, 1.0), seed=0, replicate_index=0, step_cap=100)

    def test_bad_probs_rejected(self):
        with pytest.raises(DomainError):
            simulate(imn_plan(1, 1), (0.5, 0.4), seed=0, replicate_index=0)

    def test_batch_matches_pmf(self):
        counts = simulate_imn_counts(2, (0.3,), 100_000, seed=2024)[:, 0]
        freq_1 = float(np.mean(counts == 1))
        se = math.sqrt(0.294 * 0.706 / 100_000)
        assert abs(freq_1 - 0.294) < 4 * se

    def test_stepwise_matches_pmf(self):
        plan = imn_plan(1, 2)
        hits = sum(
            simulate(plan, (0.3, 0.7), seed=99, replicate_index=i).terminal[0] == 1
            for i in range(3000)
        )
        se = math.sqrt(0.294 * 0.706 / 3000)
        assert abs(hits / 3000 - 0.294) < 5 * se

    def test_batch_deterministic(self):
        a = simulate_imn_counts(1, (0.2, 0.1, 0.05), 500, seed=7)
        b = simulate_imn_counts(1, (0.2, 0.1, 0.05), 500, seed=7)
        assert (a == b).all()

    @pytest.mark.parametrize("c, mu", [(1, 0.05), (5, 0.3), (20, 0.9)])
    def test_one_trait_counts_are_the_negative_binomial_stream(self, c, mu):
        # One tracked class needs no multinomial split; the bench references
        # depend on this stream staying as it is.
        counts = simulate_imn_counts(c, (mu,), 1000, 7)
        rng = np.random.default_rng(np.random.SeedSequence(7))
        assert counts.shape == (1000, 1) and counts.dtype == np.int64
        assert np.array_equal(counts[:, 0], rng.negative_binomial(c, 1 - mu, 1000))

    @pytest.mark.parametrize("mu", [(0.3,), (0.1, 0.1, 0.05)], ids=["t1", "t3"])
    @pytest.mark.parametrize(
        "rows", [0, 100, 2 * plans.IMN_BLOCK, 2 * plans.IMN_BLOCK + 1],
        ids=["empty", "under-one-block", "two-blocks", "partial-last-block"],
    )
    def test_blocked_draws_equal_one_call(self, mu, rows):
        # Generator.multinomial draws row by row, so splitting it into blocks of
        # IMN_BLOCK rows changes neither the counts nor the generator's final state.
        rng = np.random.default_rng(31)
        totals, blocks = imn_draws(3, mu, rows, rng)
        drawn = [(rows_, block.copy()) for rows_, block in blocks]
        counts = np.empty((rows, len(mu)), dtype=np.int64)
        for rows_, block in drawn:
            counts[rows_] = block
        assert len(drawn) == -(-rows // plans.IMN_BLOCK)
        want = np.random.default_rng(31)
        want_totals = want.negative_binomial(3, 1 - sum(mu), size=rows)
        want_counts = (
            want_totals[:, None] if len(mu) == 1
            else want.multinomial(want_totals, np.asarray(mu) / sum(mu))
        )
        assert np.array_equal(totals, want_totals) and totals.dtype == np.int64
        assert np.array_equal(counts, want_counts)
        assert rng.bit_generator.state == want.bit_generator.state
        assert np.array_equal(simulate_imn_counts(3, mu, rows, 31), want_counts)

    def test_blocks_may_overwrite_the_totals_already_drawn(self, monkeypatch):
        # The bench writes each block's keys over that block's totals.
        monkeypatch.setattr(plans, "IMN_BLOCK", 7)
        want = simulate_imn_counts(2, (0.2, 0.1, 0.05), 50, seed=4)
        totals, blocks = imn_draws(2, (0.2, 0.1, 0.05), 50, seed=4)
        for rows, block in blocks:
            assert np.array_equal(block, want[rows]) and len(block) <= 7
            totals[rows] = -1

    def test_no_tracked_mass_gives_zero_counts(self):
        counts = simulate_imn_counts(2, (0.0, 0.0, 0.0), 10, seed=1)
        assert counts.shape == (10, 3) and not counts.any()


class TestTruncatedExpectation:
    def test_constant_estimator_recovers_mass(self):
        terms, tail = stopping_quantile(2, 0.7, 1e-9)
        result = truncated_expectation(lambda x: 1.0, 2, (0.3,), max_total=len(terms) - 1)
        assert result.value == result.mass
        assert result.mass + tail == pytest.approx(1.0, abs=1e-9)

    def test_unbiasedness_one_disease(self):
        # theta for p=0.1, k=2 perfect: 0.19
        fn = table_column(EstimatorId.UB_ONE_PERFECT, 3, 2)
        terms, tail = stopping_quantile(3, 0.81, 1e-8)
        result = truncated_expectation(fn, 3, (0.19,), max_total=len(terms) - 1)
        tail_bound = 1.0 * tail
        assert tail_bound <= 1e-8
        assert abs(result.value - 0.1) <= 1e-8 + tail_bound

    def test_unbiasedness_two_disease_components(self):
        from gtseq.model import TwoDiseaseModel, pool_cell_probs

        model = TwoDiseaseModel(0.1, 0.1, 0.05, 2, 3)
        cells = tuple(float(v) for v in pool_cell_probs(model))
        truths = dict(zip(("p00", "p10", "p01", "p11"), (float(v) for v in model.prevalences())))
        terms, tail = stopping_quantile(3, cells[3], 1e-6)
        for component, truth in truths.items():
            fn = table_column(EstimatorId.UB_TWO_PERFECT, 3, 2, component)
            result = truncated_expectation(fn, 3, cells[:3], max_total=len(terms) - 1)
            tail_bound = 4.0 * tail
            assert abs(result.value - truth) <= 1e-6 + tail_bound, component

    def test_batch_sum_matches_pointwise_exact_oracle(self):
        # The array sum equals a point-by-point sum of the exact estimator.
        from gtseq.estimators import unbiased_two

        cells = (0.2, 0.15, 0.1)
        for idx, component in enumerate(("p00", "p10", "p01", "p11")):
            fn = table_column(EstimatorId.UB_TWO_PERFECT, 2, 3, component)
            result = truncated_expectation(fn, 2, cells, max_total=20)
            points = list(iter_counts(3, 20))
            oracle = math.fsum(
                float(unbiased_two(x, 2, 3)[idx]) * imn_pmf(x, 2, cells) for x in points
            )
            assert result.n_points == len(points)
            assert result.value == pytest.approx(oracle, rel=1e-14, abs=1e-16), component

    def test_misclassified_partial_sum(self):
        # The unbounded estimator has no tail certificate; the plain sum still lands on p.
        fn = table_column(EstimatorId.UB_ONE_MISCLASS, 2, 2, specificity=0.98, sensitivity=0.95)
        result = truncated_expectation(fn, 2, (0.1967,), max_total=70)
        assert result.value == pytest.approx(0.1, abs=1e-6)

    def test_stopping_tail_upper_bound(self):
        # exact tail for c=1: theta^(N+1)
        terms, tail = stopping_quantile(1, 0.7, 1e-5)
        exact = 0.3 ** len(terms)
        assert tail >= exact
        assert tail == pytest.approx(exact, abs=1e-11)


class TestAxisBoundaryCheck:
    def test_inverse_plan_passes(self):
        assert axis_boundary_check(imn_plan(1, 3)) == (1, True)

    def test_stop_on_tracked_axis_fails(self):
        assert axis_boundary_check(StopCountPlan(2, 3, axis=0)) == (0, False)

    def test_fixed_total_passes_necessary_condition(self):
        assert axis_boundary_check(FixedTotalPlan(2, 5)) == (1, True)

    def test_explicit_with_shadowed_axis_points(self):
        plan = ExplicitPlan(2, frozenset({(0, 2), (0, 5), (1, 1), (2, 0)}))
        assert axis_boundary_check(plan) == (1, True)

    def test_open_explicit_plan_fails(self):
        # Walks whose first step is positive never stop, although (0, 1) is the one axis point.
        plan = ExplicitPlan(2, frozenset({(0, 1), (0, 3)}))
        assert axis_boundary_check(plan) == (1, False)

    def test_explicit_without_axis_points(self):
        plan = ExplicitPlan(2, frozenset({(1, 1), (2, 0)}))
        assert axis_boundary_check(plan) == (0, False)

    def test_dimension_guard(self):
        with pytest.raises(PlanError):
            axis_boundary_check(imn_plan(2, 1))


LINEAR = AffinePowerSpec(1, (-1,), 1)  # 1 - theta
SQUARE = AffinePowerSpec(1, (-1,), 2)  # (1 - theta)^2
ROOT = AffinePowerSpec(1, (-1,), F(1, 2))  # (1 - theta)^(1/2)
# ((sens - theta)/nu)^(1/2) at spec 0.95, sens 0.9, nu = 0.85, from the decimals as written
MISCLASSIFIED_ROOT = AffinePowerSpec(F("0.9") / F("0.85"), (-1 / F("0.85"),), F(1, 2))


def generalized_binomial(xi, d):
    return math.prod(xi - i for i in range(d)) / math.factorial(d)


class TestPolyRepresentability:
    def test_linear_target_is_representable(self):
        plan = FixedTotalPlan(2, 5)
        verdict = poly_representability(plan, LINEAR)
        assert verdict.representable and verdict.certificate == 0
        assert verdict.estimator == {(x, y): F(y, 5) for x, y in plan.boundary_points()}
        assert (verdict.rank, verdict.rank_deficient) == (6, False)

    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_fixed_total_known_answers(self, n):
        # E[Y/n] = 1 - theta and E[Y(Y-1)] = n(n-1)(1 - theta)^2 for Y ~ Binomial(n, 1 - theta).
        plan = FixedTotalPlan(2, n)
        linear = poly_representability(plan, LINEAR)
        assert linear.estimator == {(x, y): F(y, n) for x, y in plan.boundary_points()}
        square = poly_representability(plan, SQUARE)
        if n == 1:
            assert not square.representable and square.certificate == 1
        else:
            want = {(x, y): F(y * (y - 1), n * (n - 1)) for x, y in plan.boundary_points()}
            assert square.representable and square.estimator == want

    def test_sqrt_target_is_not_representable(self):
        for n in (5, 60):
            verdict = poly_representability(FixedTotalPlan(2, n), ROOT)
            assert not verdict.representable and verdict.estimator is None
            assert verdict.certificate_degree == n + 1
            assert verdict.certificate == generalized_binomial(F(1, 2), n + 1) * (-1) ** (n + 1)
            assert verdict.certificate != 0

    def test_misclassified_target_is_not_representable(self):
        for n in (5, 10):
            verdict = poly_representability(FixedTotalPlan(2, n), MISCLASSIFIED_ROOT)
            assert not verdict.representable
            slope = F(-10, 9)  # a/a0 = (-1/0.85)/(0.9/0.85)
            assert verdict.certificate == generalized_binomial(F(1, 2), n + 1) * slope ** (n + 1)

    def test_requires_finite_plan(self):
        with pytest.raises(PlanError):
            poly_representability(imn_plan(1, 2), LINEAR)
        with pytest.raises(PlanError):
            poly_representability(FixedTotalPlan(3, 2), LINEAR)
        # Walks whose first step is positive never stop: the plan is open.
        with pytest.raises(PlanError, match=r"open: walks reach \(1, 3\) at total 4"):
            poly_representability(ExplicitPlan(2, frozenset({(0, 1), (0, 3)})), LINEAR)

    def test_rank_deficiency_reported(self):
        # (0, 3) lies behind (0, 1) on the axis, so no walk reaches it: rank 2 of 3.
        plan = ExplicitPlan(2, frozenset({(1, 0), (0, 1), (0, 3)}))
        linear = poly_representability(plan, LINEAR)
        assert linear.rank_deficient and linear.rank == 2
        assert linear.estimator == {(1, 0): 0, (0, 1): 1, (0, 3): 0}
        # A polynomial of low enough degree can still lie outside the span.
        square = poly_representability(plan, SQUARE)
        assert square.certificate == 0 and not square.representable


class TestPlanIO:
    def test_round_trip(self, tmp_path):
        plan = ExplicitPlan(2, frozenset({(0, 2), (1, 1), (2, 0)}))
        path = tmp_path / "plan.txt"
        save_plan(plan, path)
        loaded = load_plan(path)
        assert loaded == plan
        assert path.read_text().splitlines()[0] == "dim 2"

    def test_fixed_total_exports(self, tmp_path):
        plan = FixedTotalPlan(2, 3)
        path = tmp_path / "fixed.txt"
        save_plan(plan, path)
        loaded = load_plan(path)
        assert set(loaded.points) == set(plan.boundary_points())

    def test_loaded_plan_gets_the_rules_verdicts(self, tmp_path):
        rule = FixedTotalPlan(2, 5)
        path = tmp_path / "fixed.txt"
        save_plan(rule, path)
        loaded = load_plan(path)
        for target in (LINEAR, SQUARE, ROOT, MISCLASSIFIED_ROOT):
            assert poly_representability(loaded, target) == poly_representability(rule, target)

    def test_malformed_files_rejected(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 2\n")
        with pytest.raises(PlanError):
            load_plan(bad)
        bad.write_text("dim 2\n1 x\n")
        with pytest.raises(PlanError):
            load_plan(bad)

    def test_infinite_plan_not_savable(self, tmp_path):
        with pytest.raises(PlanError):
            save_plan(imn_plan(1, 2), tmp_path / "nope.txt")
