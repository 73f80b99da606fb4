"""Config grammar: defaults, grids, and line-numbered validation errors."""

from pathlib import Path

import pytest

from gtseq import config
from gtseq.bench import run_mode
from gtseq.config import DEFAULT_TWO_P_GRID, parse_config
from gtseq.errors import ConfigError
from gtseq.model import identifiability, independent_errors

MINIMAL = """\
[run]
mode = bench
seed = 42

[model]
p = 0.05
k = 10
c = 5
"""


def two_estimate(z: str) -> str:
    return ("[run]\nmode = estimate\nseed = 1\n[model]\nfamily = two\n"
            f"p = 0.1:0.1:0.05\nk = 2\nc = 1\nz = {z}\n")


class TestParsing:
    def test_minimal_config_gets_documented_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.mode == "bench" and cfg.seed == 42
        assert cfg.replicates == 100_000
        assert cfg.format == "csv"
        assert cfg.misclass_grid == (None,)
        assert cfg.estimators == ("ub", "mle")

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config("# top\n\n[run]\nmode = bench  # inline\nseed = 1\n\n"
                           "[model]\np = 0.1\nk = 2\nc = 1\n")
        assert cfg.k_grid == (2,)

    def test_grid_row_major_order(self):
        text = MINIMAL.replace("p = 0.05", "p = 0.01, 0.05, 0.1").replace("k = 10", "k = 5, 10")
        points = parse_config(text).points
        assert len(points) == 6
        assert [(pt.p[0], pt.k) for pt in points] == [
            (0.01, 5), (0.01, 10), (0.05, 5), (0.05, 10), (0.1, 5), (0.1, 10),
        ]
        assert [pt.index for pt in points] == list(range(6))

    def test_misclass_pairs(self):
        text = MINIMAL + "misclass = 1:1, 0.98:0.95\n"
        cfg = parse_config(text)
        assert cfg.misclass_grid == ((1.0, 1.0), (0.98, 0.95))

    def test_two_disease_triples(self):
        text = """\
[run]
mode = bench
seed = 1

[model]
family = two
p = 0.1:0.1:0.05, 0.02:0.02:0.01
k = 2
c = 1
misclass = identity, 0.98:0.95:0.97:0.9
"""
        cfg = parse_config(text)
        assert cfg.p_grid == ((0.1, 0.1, 0.05), (0.02, 0.02, 0.01))
        assert cfg.misclass_grid == (None, (0.98, 0.95, 0.97, 0.9))

    def test_z_samples_are_integer_counts(self):
        samples = parse_config(two_estimate("0:1:2, 3:0:0")).samples
        assert samples == ((0, 1, 2), (3, 0, 0))
        assert all(type(v) is int for z in samples for v in z)

    def test_default_two_disease_grid_exists(self):
        assert len(DEFAULT_TWO_P_GRID) == 3


class TestValidationErrors:
    def test_k_zero_names_constraint_and_line(self):
        text = MINIMAL.replace("k = 10", "k = 0")
        with pytest.raises(ConfigError, match=r"line 7.*k must be >= 1"):
            parse_config(text)

    def test_unknown_key_with_line(self):
        with pytest.raises(ConfigError, match=r"line 4.*unknown key 'sed'"):
            parse_config("[run]\nmode = bench\nseed = 1\nsed = 2\n"
                         "[model]\np = 0.1\nk = 2\nc = 1\n")

    def test_removed_order_key_is_unknown(self):
        with pytest.raises(ConfigError, match=r"line 4.*unknown key 'order' in \[run\]"):
            parse_config("[run]\nmode = bench\nseed = 1\norder = 64\n"
                         "[model]\np = 0.1\nk = 2\nc = 1\n")

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("[run]\njust some words\n")

    def test_key_outside_section(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("mode = bench\n")

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match=r"line 1.*unknown section"):
            parse_config("[misc]\nx = 1\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match=r"line 4.*duplicate"):
            parse_config("[run]\nmode = bench\nseed = 1\nseed = 2\n")

    def test_missing_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config("[run]\nmode = bench\n[model]\np = 0.1\nk = 2\nc = 1\n")

    @pytest.mark.parametrize("mode", ["bench", "simulate"])
    def test_random_modes_require_seed(self, mode):
        with pytest.raises(ConfigError, match=r"^missing required key 'seed' in \[run\]$"):
            parse_config(MINIMAL.replace("mode = bench", f"mode = {mode}").replace("seed = 42\n", ""))

    @pytest.mark.parametrize(
        "text",
        [
            "[run]\nmode = scan-properness\nbound = 5\n[model]\np = 0.05\nk = 2\nc = 1\n"
            "misclass = 0.9:0.95\n",
            "[run]\nmode = verify-unbiased\n[model]\np = 0.05\nk = 2\nc = 1\n",
            "[run]\nmode = estimate\n[model]\np = 0.05\nk = 2\nc = 1\ny = 0, 3\n",
            "[run]\nmode = identify\n[model]\nfamily = two\nmisclass = 0.98:0.95:0.97:0.9\n",
        ],
        ids=["scan-properness", "verify-unbiased", "estimate", "identify"],
    )
    def test_modes_without_randomness_need_no_seed(self, text):
        # Only bench and simulate draw counts; the others failed on the missing seed line.
        cfg = parse_config(text)
        assert cfg.seed is None
        records, ok = run_mode(cfg)
        assert ok and records

    def test_missing_p(self):
        with pytest.raises(ConfigError, match="'p'"):
            parse_config("[run]\nmode = bench\nseed = 1\n[model]\nk = 2\nc = 1\n")

    def test_bad_mode(self):
        with pytest.raises(ConfigError, match=r"line 2.*mode"):
            parse_config("[run]\nmode = frobnicate\nseed = 1\n")

    def test_mode_conflict_with_override(self):
        with pytest.raises(ConfigError, match="conflicts"):
            parse_config(MINIMAL, {"mode": "simulate"})

    def test_mode_override_fills_missing_mode(self):
        text = MINIMAL.replace("mode = bench\n", "")
        cfg = parse_config(text, {"mode": "simulate"})
        assert cfg.mode == "simulate"

    def test_override_outside_the_run_keys_rejected(self):
        for key in ("p", "sed"):
            with pytest.raises(ConfigError, match=rf"^unknown override '{key}' \(not a \[run\] key\)$"):
                parse_config(MINIMAL, {key: "1"})

    def test_override_is_read_by_its_keys_rule_and_the_line_still_checked(self):
        cfg = parse_config(MINIMAL, {"seed": "7", "replicates": None, "tol": "0.5"})
        assert (cfg.seed, cfg.replicates, cfg.tol) == (7, 100_000, 0.5)
        with pytest.raises(ConfigError, match=r"^--tol must lie in \(0, 1\), got 2\.0$"):
            parse_config(MINIMAL, {"tol": "2"})
        with pytest.raises(ConfigError, match=r"^line 3: seed must be an integer, got 'x'$"):
            parse_config(MINIMAL.replace("seed = 42", "seed = x"), {"seed": "7"})

    def test_model_constructor_errors_surface_as_config_errors(self):
        text = MINIMAL.replace("p = 0.05", "p = 1.5")
        with pytest.raises(ConfigError, match="invalid grid point"):
            parse_config(text)

    def test_nu_zero_grid_point_rejected(self):
        text = MINIMAL + "misclass = 0.6:0.4\n"
        with pytest.raises(ConfigError, match="invalid grid point"):
            parse_config(text)

    def test_estimator_family_mismatch(self):
        text = MINIMAL + "estimators = MLE_TWO\n"
        with pytest.raises(ConfigError, match=r"line 9: estimator MLE_TWO does not match family"):
            parse_config(text)

    def test_two_trait_verify_with_misclassification_rejected(self):
        text = ("[run]\nmode = verify-unbiased\nseed = 1\n[model]\nfamily = two\n"
                "p = 0.1:0.1:0.05\nk = 2\nc = 1\nmisclass = identity, 0.98:0.95:0.97:0.9\n")
        with pytest.raises(ConfigError, match=r"line 9: verify-unbiased mode covers perfect tests"):
            parse_config(text)

    def test_estimate_mode_requires_samples(self):
        text = MINIMAL.replace("mode = bench", "mode = estimate")
        with pytest.raises(ConfigError, match="sample points"):
            parse_config(text)

    def test_sample_key_family_mismatch(self):
        text = MINIMAL.replace("mode = bench", "mode = estimate") + "z = 1:1:0\n"
        with pytest.raises(ConfigError, match=r"'z' does not match family"):
            parse_config(text)

    def test_identify_requires_misclass(self):
        with pytest.raises(ConfigError, match="identify"):
            parse_config("[run]\nmode = identify\nseed = 1\n")

    def test_weak_identify_entry_warns_at_the_gtseq_line_that_built_it(self):
        text = "[run]\nmode = identify\nseed = 1\n[model]\nfamily = two\nmisclass = 0.5:0.5:0.9:0.9\n"
        with pytest.warns(UserWarning, match=r"\(specificity1 = 0\.5, sensitivity1 = 0\.5\)") as caught:
            parse_config(text)
        assert all(Path(w.filename) == Path(config.__file__) for w in caught)

    def test_unknown_estimator_with_line(self):
        text = MINIMAL + "estimators = ub, bogus\n"
        with pytest.raises(ConfigError, match=r"line 9.*bogus"):
            parse_config(text)

    def test_fractional_z_count_rejected(self):
        with pytest.raises(ConfigError, match=r"line 9: z must be an integer, got '1.5'"):
            parse_config(two_estimate("1.5:0:0"))

    @pytest.mark.parametrize("tol", ["inf", "nan", "1", "-1e-9"])
    def test_tol_outside_open_unit_interval_rejected(self, tol):
        text = MINIMAL.replace("seed = 42", f"seed = 42\ntol = {tol}")
        with pytest.raises(ConfigError, match=r"line 4: tol must lie in \(0, 1\)"):
            parse_config(text)

    def test_negative_z_count_rejected(self):
        with pytest.raises(ConfigError, match=r"line 9: z must be >= 0, got -1"):
            parse_config(two_estimate("0:0:0, -1:0:0"))


def two_bench(misclass: str, estimators: str = "ub", mode: str = "bench") -> str:
    return (f"[run]\nmode = {mode}\nseed = 1\n[model]\nfamily = two\n"
            f"p = 0.1:0.1:0.05\nk = 2\nc = 1\nmisclass = {misclass}\nestimators = {estimators}\n")


class TestGridPointLines:
    """A rejected grid point names the line of the parameter its model rejects."""

    def test_rejected_prevalence_names_the_p_line(self):
        text = MINIMAL.replace("p = 0.05", "p = 0.05, 1.5")
        with pytest.raises(ConfigError, match=r"^line 6: invalid grid point p=\(1\.5,\).*p must lie"):
            parse_config(text)

    def test_rejected_two_trait_prevalence_names_the_p_line(self):
        text = two_bench("0.98:0.95:0.97:0.9").replace("p = 0.1:0.1:0.05", "p = 0.5:0.4:0.2")
        with pytest.raises(ConfigError, match=r"^line 6: invalid grid point .*p00 = 1 - p10"):
            parse_config(text)

    @pytest.mark.parametrize("text, match", [
        (MINIMAL + "misclass = 1:1, 0.6:0.4\n", r"^line 9: invalid grid point .*unidentifiable"),
        (MINIMAL + "misclass = 1.5:0.9\n", r"^line 9: invalid grid point .*specificity must lie"),
        (two_bench("1:1:1:1, 0.9:1.9:0.9:0.9"), r"^line 9: invalid grid point .*sensitivity1 must lie"),
    ], ids=["nu-zero", "specificity-above-one", "two-trait-sensitivity-above-one"])
    def test_rejected_error_rates_name_the_misclass_line(self, text, match):
        with pytest.raises(ConfigError, match=match):
            parse_config(text)


class TestEstimatorPreconditions:
    """Modes that evaluate estimators reject, at parse time, a point an estimator cannot take."""

    @pytest.mark.parametrize("mode", ["bench", "estimate", "scan-properness", "verify-unbiased"])
    def test_nonpositive_nu_rejected_at_the_misclass_line(self, mode):
        text = MINIMAL.replace("mode = bench", f"mode = {mode}") + "misclass = 1:1, 0.4:0.5\ny = 0\n"
        match = (r"^line 9: estimator UB_ONE_MISCLASS cannot run at misclass=\(0\.4, 0\.5\): "
                 r"specificity \+ sensitivity - 1 must be positive")
        with pytest.warns(UserWarning), pytest.raises(ConfigError, match=match):
            parse_config(text)

    def test_nonpositive_nu_rejected_for_the_mle_too(self):
        text = MINIMAL + "misclass = 0.4:0.5\nestimators = mle\n"
        with pytest.warns(UserWarning), pytest.raises(ConfigError, match=r"^line 9: estimator MLE_ONE"):
            parse_config(text)

    def test_singular_contrast_rejected_for_the_series_estimator(self):
        # The exact and the float-singular contrast alike: both estimators invert the
        # observation map, and identify reports both entries not-identifiable.
        cases = [
            ("ub", "UB_TWO_MISCLASS_SERIES"),
            ("UB_TWO_MISCLASS_SERIES, mle", "UB_TWO_MISCLASS_SERIES"),
            ("mle", "MLE_TWO"),
            ("mle, UB_TWO_MISCLASS_SERIES", "MLE_TWO"),
        ]
        for misclass in ("0.5:0.5:0.9:0.9", "0.55:0.45:0.9:0.9"):
            for estimators, name in cases:
                match = rf"^line 9: estimator {name} cannot run .*contrast matrix is singular"
                with pytest.warns(UserWarning), pytest.raises(ConfigError, match=match):
                    parse_config(two_bench(misclass, estimators))

    def test_modes_and_estimators_that_do_not_need_them_still_accept(self):
        with pytest.warns(UserWarning):
            assert parse_config(two_bench("0.5:0.5:0.9:0.9", mode="simulate")).points
            text = two_bench("0.5:0.5:0.9:0.9, 0.55:0.45:0.9:0.9", mode="identify")
            entries = parse_config(text).identify_entries
            assert [identifiability(independent_errors(e))[0] for e in entries] == [False, False]
            text = MINIMAL.replace("mode = bench", "mode = simulate") + "misclass = 0.4:0.5\n"
            assert parse_config(text).points

    def test_error_free_entry_is_a_perfect_test_for_two_trait_verify(self):
        points = parse_config(two_bench("1:1:1:1, identity", mode="verify-unbiased")).points
        assert [pt.misclass for pt in points] == [(1.0, 1.0, 1.0, 1.0), None]
        assert all(pt.model.is_perfect_test for pt in points)
