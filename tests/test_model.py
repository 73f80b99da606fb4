"""Model maps: frozen values, round trips, simplex preservation, identifiability."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtseq.errors import DomainError, IdentifiabilityError, ModelError
from gtseq.model import (
    IndepErrorParams,
    MisclassModel,
    OneDiseaseModel,
    TwoDiseaseModel,
    identifiability,
    independent_errors,
    invert_cell_probs,
    invert_pos_prob,
    observed_cell_probs,
    observed_pos_prob,
    pool_cell_probs,
    two_disease_radicand_forms,
)


class TestObservedPosProb:
    def test_perfect_test_exact(self):
        m = OneDiseaseModel(F(1, 10), 2, 1)
        assert observed_pos_prob(m) == F(19, 100)  # 1 - 0.9^2

    def test_misclassified_exact(self):
        # 0.95 - 0.93 * 0.81, cross-checked in exact rationals
        m = OneDiseaseModel(F(1, 10), 2, 1, F("0.98"), F("0.95"))
        expected = F("0.95") - (F("0.98") + F("0.95") - 1) * F(9, 10) ** 2
        assert observed_pos_prob(m) == expected == F("0.1967")

    def test_rare_limit_is_false_positive_rate(self):
        m = OneDiseaseModel(F(1, 10**12), 7, 3, F("0.9"), F("0.8"))
        assert abs(observed_pos_prob(m) - (1 - F("0.9"))) < F(1, 10**10)

    def test_float_backend_matches_exact(self):
        exact = observed_pos_prob(OneDiseaseModel(F(1, 10), 2, 1, F("0.98"), F("0.95")))
        approx = observed_pos_prob(OneDiseaseModel(0.1, 2, 1, 0.98, 0.95))
        assert approx == pytest.approx(float(exact), rel=1e-14)


class TestInvertPosProb:
    def test_perfect_round_trip_value(self):
        assert invert_pos_prob(F(19, 100), 2) == F(9, 10)

    def test_misclassified_round_trip_value(self):
        # (0.95 - 0.1967) / 0.93 = 0.81 exactly
        assert invert_pos_prob(F("0.1967"), 2, F("0.98"), F("0.95")) == F(9, 10)

    def test_zero_maps_to_one(self):
        assert invert_pos_prob(F(0), 3) == 1

    def test_above_sensitivity_rejected(self):
        with pytest.raises(DomainError):
            invert_pos_prob(0.97, 2, 0.98, 0.95)

    @pytest.mark.parametrize("k", [1, 2, 5, 10])
    def test_round_trip_grid(self, k):
        # Well-conditioned region: q^k stays well above float cancellation.
        points = 0
        for p100 in range(1, 61):
            for spec100, sens100 in [(100, 100), (98, 95), (90, 99), (75, 80), (85, 70)]:
                m = OneDiseaseModel(p100 / 100, k, 1, spec100 / 100, sens100 / 100)
                q = invert_pos_prob(
                    observed_pos_prob(m), k, m.specificity, m.sensitivity
                )
                assert abs(q - (1 - p100 / 100)) < 1e-12
                points += 1
        assert points >= 300  # parametrized over k: >= 1000 points in total

    @given(
        p=st.floats(min_value=0.001, max_value=0.5),
        k=st.integers(min_value=1, max_value=12),
        spec_=st.floats(min_value=0.55, max_value=1.0),
        sens=st.floats(min_value=0.55, max_value=1.0),
    )
    @settings(max_examples=200)
    def test_round_trip_property(self, p, k, spec_, sens):
        m = OneDiseaseModel(p, k, 2, spec_, sens)
        q = invert_pos_prob(observed_pos_prob(m), k, spec_, sens)
        assert q == pytest.approx(1 - p, abs=1e-12)


class TestOneDiseaseModelValidation:
    def test_nu_zero_rejected(self):
        with pytest.raises(IdentifiabilityError):
            OneDiseaseModel(F(1, 10), 2, 1, F("0.6"), F("0.4"))

    def test_weak_test_warns(self):
        # The warning names the weak parameter and points at the line that
        # built the model, not at the dataclass-generated __init__.
        with pytest.warns(UserWarning, match=r"\(specificity = 0\.45\)") as caught:
            OneDiseaseModel(0.1, 2, 1, 0.45, 0.99)
        assert caught[0].filename != "<string>"
        assert caught[0].filename == __file__
        with pytest.warns(UserWarning, match=r"\(specificity1 = 1/2, sensitivity2 = 0\.3\)") as caught:
            IndepErrorParams(F("0.5"), F("0.9"), F("0.9"), 0.3)
        assert caught[0].filename == __file__

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(p=0.0), dict(p=1.0), dict(k=0), dict(c=0),
            dict(specificity=0.0), dict(sensitivity=1.5), dict(k=2.5),
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        base = dict(p=0.1, k=2, c=1, specificity=0.98, sensitivity=0.95)
        base.update(kwargs)
        with pytest.raises(ModelError):
            OneDiseaseModel(**base)

    def test_derived_theta_range(self):
        # theta lies strictly between the false-positive rate and sensitivity
        for p100 in (1, 10, 50, 99):
            m = OneDiseaseModel(F(p100, 100), 3, 1, F("0.9"), F("0.8"))
            theta = observed_pos_prob(m)
            assert 1 - m.specificity < theta < m.sensitivity


class TestTwoDiseasePerfectTest:
    @pytest.mark.parametrize("errors, perfect", [
        (None, True),
        (MisclassModel.identity(), True),
        (independent_errors(IndepErrorParams(1.0, 1.0, 1.0, 1.0)), True),
        (independent_errors(IndepErrorParams(1, 1, 1, F("0.99"))), False),
        (independent_errors(IndepErrorParams(0.98, 0.95, 0.97, 0.9)), False),
    ], ids=["none", "identity", "float-ones", "one-rate-below-one", "erring"])
    def test_no_errors_or_the_identity_matrix_is_a_perfect_test(self, errors, perfect):
        assert TwoDiseaseModel(0.1, 0.1, 0.05, 2, 1, errors).is_perfect_test is perfect


class TestPoolCellProbs:
    def test_worked_example_exact(self):
        m = TwoDiseaseModel(F(1, 10), F(1, 10), F(1, 20), 2, 1)
        cells = pool_cell_probs(m)
        assert cells == (F("0.16"), F("0.16"), F("0.1175"), F("0.5625"))

    def test_k1_is_identity(self):
        m = TwoDiseaseModel(F(1, 10), F(1, 5), F(1, 20), 1, 3)
        cells = pool_cell_probs(m)
        assert cells[:3] == (m.p10, m.p01, m.p11)

    @given(
        p10=st.fractions(min_value=F(1, 100), max_value=F(3, 10)),
        p01=st.fractions(min_value=F(1, 100), max_value=F(3, 10)),
        p11=st.fractions(min_value=F(1, 100), max_value=F(3, 10)),
        k=st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=150)
    def test_simplex_preserved_exactly(self, p10, p01, p11, k):
        m = TwoDiseaseModel(p10, p01, p11, k, 1)
        cells = pool_cell_probs(m)
        assert sum(cells) == 1
        assert all(v > 0 for v in cells)
        assert cells[3] == m.p00 ** k


class TestInvertCellProbs:
    def test_round_trip_of_worked_example(self):
        p = invert_cell_probs((F("0.16"), F("0.16"), F("0.1175")), 2)
        assert p == (F(3, 4), F(1, 10), F(1, 10), F(1, 20))

    def test_zero_maps_to_all_negative(self):
        assert invert_cell_probs((F(0), F(0), F(0)), 5) == (1, 0, 0, 0)

    def test_k1_identity(self):
        cells = (F(1, 10), F(1, 5), F(1, 20))
        p = invert_cell_probs(cells, 1)
        assert p[1:] == cells

    def test_nonpositive_radicand_rejected(self):
        with pytest.raises(DomainError):
            invert_cell_probs((0.5, 0.4, 0.2), 2)

    @pytest.mark.parametrize("prevalences", [(F(1, 16), F(1, 16), F(1, 32)), (F(1, 5), F(1, 10), F(3, 10))])
    def test_inverts_observed_cells_under_misclassification(self, prevalences):
        params = IndepErrorParams(F("0.98"), F("0.95"), F("0.97"), F("0.9"))
        m = TwoDiseaseModel(*prevalences, 1, 1, independent_errors(params))
        assert invert_cell_probs(observed_cell_probs(m)[:3], 1, m.misclass) == m.prevalences()

    def test_round_trip_grid(self):
        checked = 0
        for p10 in (0.02, 0.1, 0.25):
            for p01 in (0.02, 0.1, 0.25):
                for p11 in (0.01, 0.05, 0.2):
                    for k in (1, 2, 4, 9):
                        m = TwoDiseaseModel(p10, p01, p11, k, 1)
                        got = invert_cell_probs(pool_cell_probs(m)[:3], k)
                        want = m.prevalences()
                        assert all(abs(a - b) < 1e-12 for a, b in zip(got, want))
                        checked += 1
        assert checked == 108


class TestMisclassModel:
    def test_identity(self):
        ident = MisclassModel.identity()
        assert ident.baseline() == (0, 0, 0)
        assert ident.contrast() == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_column_sums_enforced(self):
        bad = [[F(1, 2)] * 4 for _ in range(4)]
        with pytest.raises(ModelError):
            MisclassModel(tuple(tuple(r) for r in bad))

    def test_entry_range_enforced(self):
        rows = [list(r) for r in MisclassModel.identity().cond]
        rows[0][0], rows[1][0] = F(3, 2), F(-1, 2)
        with pytest.raises(ModelError):
            MisclassModel(tuple(tuple(r) for r in rows))


class TestIndependentErrors:
    def test_all_perfect_gives_identity(self):
        params = IndepErrorParams(F(1), F(1), F(1), F(1))
        assert independent_errors(params).cond == MisclassModel.identity().cond

    def test_product_entry(self):
        # false positive on trait 1 and true negative on trait 2
        params = IndepErrorParams(F("0.9"), F("0.8"), F("0.95"), F("0.85"))
        mis = independent_errors(params)
        a = ("10", "01", "11", "00").index("10")
        b = ("10", "01", "11", "00").index("00")
        assert mis.cond[a][b] == (1 - F("0.9")) * F("0.95") == F("0.095")

    def test_all_negative_column_sums_to_one_exactly(self):
        params = IndepErrorParams(F("0.9"), F("0.8"), F("0.95"), F("0.85"))
        mis = independent_errors(params)
        col = ("10", "01", "11", "00").index("00")
        assert sum(mis.cond[a][col] for a in range(4)) == 1


class TestObservedCellProbs:
    def test_identity_misclass_is_noop(self):
        mis = MisclassModel.identity()
        m = TwoDiseaseModel(F(1, 10), F(1, 10), F(1, 20), 2, 1, mis)
        assert observed_cell_probs(m) == pool_cell_probs(m)

    def test_affine_intercept_at_degenerate_cells(self):
        # With all mass on the all-negative pattern the observed probabilities
        # are exactly the baseline column.
        params = IndepErrorParams(F("0.98"), F("0.95"), F("0.97"), F("0.9"))
        mis = independent_errors(params)
        baseline = mis.baseline()
        contrast = mis.contrast()
        eta = [baseline[a] + sum(contrast[a][b] * 0 for b in range(3)) for a in range(3)]
        assert tuple(eta) == baseline

    def test_requires_misclass(self):
        m = TwoDiseaseModel(0.1, 0.1, 0.05, 2, 1)
        with pytest.raises(ModelError):
            observed_cell_probs(m)

    @given(
        p10=st.fractions(min_value=F(1, 50), max_value=F(1, 4)),
        p01=st.fractions(min_value=F(1, 50), max_value=F(1, 4)),
        p11=st.fractions(min_value=F(1, 50), max_value=F(1, 4)),
        k=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=100)
    def test_dual_path_and_simplex(self, p10, p01, p11, k):
        # observed_cell_probs asserts mixture == affine internally
        params = IndepErrorParams(F("0.98"), F("0.95"), F("0.97"), F("0.9"))
        m = TwoDiseaseModel(p10, p01, p11, k, 2, independent_errors(params))
        eta = observed_cell_probs(m)
        assert sum(eta) == 1
        assert all(v >= 0 for v in eta)


class TestIdentifiability:
    def test_identity_has_unit_determinant(self):
        ok, det = identifiability(MisclassModel.identity())
        assert ok and det == 1

    def test_determinant_value_from_margins(self):
        params = IndepErrorParams(F("0.9"), F("0.8"), F("0.95"), F("0.85"))
        ok, det = identifiability(independent_errors(params))
        assert ok
        assert det == (F("0.7") * F("0.8")) ** 2 == F("0.3136")

    def test_degenerate_margin_not_identifiable(self):
        with pytest.warns(UserWarning):
            params = IndepErrorParams(F("0.5"), F("0.5"), F("0.9"), F("0.9"))
        ok, det = identifiability(independent_errors(params))
        assert not ok and det == 0

    @given(
        s1=st.fractions(min_value=F(11, 20), max_value=F(1)),
        t1=st.fractions(min_value=F(11, 20), max_value=F(1)),
        s2=st.fractions(min_value=F(11, 20), max_value=F(1)),
        t2=st.fractions(min_value=F(11, 20), max_value=F(1)),
    )
    @settings(max_examples=150)
    def test_determinant_identity(self, s1, t1, s2, t2):
        params = IndepErrorParams(t1, s1, t2, s2)
        _, det = identifiability(independent_errors(params))
        assert det == (params.nu1 * params.nu2) ** 2

    def test_float_singular_contrast_has_no_inverse(self):
        # det = 1.5e-33 is zero at the float tolerance, though the binary
        # values' exact determinant is not: the inverse goes by the same rule.
        with pytest.warns(UserWarning):
            mis = independent_errors(IndepErrorParams(0.55, 0.45, 0.9, 0.9))
        ok, det = identifiability(mis)
        assert not ok and det != 0
        with pytest.raises(IdentifiabilityError, match="contrast matrix is singular"):
            two_disease_radicand_forms(mis)

    def test_radicand_forms_of_a_perfect_test(self):
        forms = two_disease_radicand_forms(None)
        assert forms == {"00": (1, (-1, -1, -1)), "10": (1, (0, -1, -1)), "01": (1, (-1, 0, -1))}
        assert two_disease_radicand_forms(MisclassModel.identity()) == forms

    def test_float_backend_threshold(self):
        params = IndepErrorParams(0.9, 0.8, 0.95, 0.85)
        ok, det = identifiability(independent_errors(params))
        assert ok
        assert det == pytest.approx(0.3136, rel=1e-12)
