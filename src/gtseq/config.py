"""Experiment configuration: the key = value grammar and its validation.

Grammar: sections in square brackets ([run] and [model]), one `key = value`
per line, `#` comments, comma-separated lists whose items may be colon-separated
tuples (`misclass = 1:1, 0.98:0.95`).  Every error about a written line
carries its number; a rejected grid point names its `p` or `misclass` line.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Any

from .errors import ConfigError
from .estimators import FAMILY, EstimatorId
from .model import IndepErrorParams, OneDiseaseModel, TwoDiseaseModel, independent_errors
from .model import positive_nu, two_disease_radicand_forms

MODES = ("estimate", "verify-unbiased", "scan-properness", "identify", "simulate", "bench")
# The modes that draw random counts, and so read the seed.
SEEDED_MODES = ("simulate", "bench")
FORMATS = ("csv", "jsonl")
FAMILIES = ("one", "two")

# Artifact-defined default benchmark grid: rare-trait regimes where pooling
# is actually used, under a perfect and a mildly erring test.
DEFAULT_P_GRID = (0.01, 0.05, 0.1)
DEFAULT_K_GRID = (2, 5, 10)
DEFAULT_C_GRID = (1, 5, 20)
DEFAULT_TWO_P_GRID = tuple((p, p, p / 2) for p in DEFAULT_P_GRID)

DEFAULT_REPLICATES = 100_000
DEFAULT_SCAN_BOUND = 100


@dataclass(frozen=True)
class GridPoint:
    """One parameter point of the experiment grid and the model it validated into."""

    index: int
    family: str
    p: tuple[float, ...]  # (p,) or (p10, p01, p11)
    k: int
    c: int
    misclass: tuple[float, ...] | None  # (pi0, pi1) or (pi0_1, pi1_1, pi0_2, pi1_2)
    model: OneDiseaseModel | TwoDiseaseModel

    @classmethod
    def build(
        cls, index: int, family: str, p: tuple, k: int, c: int, misclass: tuple | None
    ) -> GridPoint:
        """Build the point's model; a parameter it rejects becomes a ConfigError."""
        try:
            if family == "one":
                model = OneDiseaseModel(p[0], k, c, *(misclass or ()))
            else:
                errors = None
                if misclass is not None:
                    errors = independent_errors(IndepErrorParams(*misclass))
                model = TwoDiseaseModel(*p, k, c, errors)
        except ValueError as exc:
            msg = f"invalid grid point p={p} k={k} c={c} misclass={misclass}: {exc}"
            raise ConfigError(msg) from exc
        return cls(index, family, p, k, c, misclass, model)


@dataclass
class ExperimentConfig:
    mode: str
    seed: int | None  # None only in a mode outside SEEDED_MODES
    family: str = "one"
    p_grid: tuple = DEFAULT_P_GRID
    k_grid: tuple[int, ...] = DEFAULT_K_GRID
    c_grid: tuple[int, ...] = DEFAULT_C_GRID
    misclass_grid: tuple = (None,)
    estimators: tuple[str, ...] = ("ub", "mle")
    replicates: int = DEFAULT_REPLICATES
    out: str | None = None
    format: str = "csv"
    threads: int | None = None
    tol: float | None = None
    bound: int = DEFAULT_SCAN_BOUND
    max_violations: int | None = None
    samples: tuple = ()

    @cached_property
    def points(self) -> list[GridPoint]:
        """Row-major cartesian product: p outermost, then k, c, misclass; built once."""
        return [
            GridPoint.build(idx, self.family, p if isinstance(p, tuple) else (p,), k, c, mis)
            for idx, (p, k, c, mis) in enumerate(
                itertools.product(self.p_grid, self.k_grid, self.c_grid, self.misclass_grid)
            )
        ]

    @cached_property
    def identify_entries(self) -> list[IndepErrorParams]:
        """Per-trait errors of each identify-mode misclass entry; a pair leaves trait 2 perfect."""
        entries = []
        for mis in self.misclass_grid:
            if mis is None:
                continue
            try:
                if len(mis) == 4:
                    entries.append(IndepErrorParams(*mis))
                else:
                    entries.append(IndepErrorParams(*mis, 1.0, 1.0))
            except ValueError as exc:
                raise ConfigError(f"invalid misclass parameters {mis}: {exc}") from exc
        return entries


# What `ub` and `mle` name at a grid point, by (family, perfect test).
_ALIASES = {
    ("one", True): (EstimatorId.UB_ONE_PERFECT, EstimatorId.MLE_ONE),
    ("one", False): (EstimatorId.UB_ONE_MISCLASS, EstimatorId.MLE_ONE),
    ("two", True): (EstimatorId.UB_TWO_PERFECT, EstimatorId.MLE_TWO),
    ("two", False): (EstimatorId.UB_TWO_MISCLASS_SERIES, EstimatorId.MLE_TWO),
}


def resolve_estimators(point: GridPoint, names: tuple[str, ...]) -> list[EstimatorId]:
    """The estimators `names` pick at a point; `ub` and `mle` follow its family and test."""
    ub, mle = _ALIASES[point.family, point.model.is_perfect_test]
    return [ub if name == "ub" else mle if name == "mle" else EstimatorId(name) for name in names]


def _check_runnable(config: ExperimentConfig, lineno: int | None) -> None:
    """Reject, at the misclass line, a grid point that an estimator of the run cannot take."""
    verify = config.mode == "verify-unbiased"
    for point in config.points:
        if verify and point.family == "two" and not point.model.is_perfect_test:
            raise ConfigError("verify-unbiased mode covers perfect tests for family 'two'", lineno)
        # Each estimator's own precondition decides; verify-unbiased runs `ub` only.
        for est in resolve_estimators(point, ("ub",) if verify else config.estimators):
            try:
                if est in (EstimatorId.UB_ONE_MISCLASS, EstimatorId.MLE_ONE):
                    positive_nu(point.model.specificity, point.model.sensitivity)
                elif est in (EstimatorId.UB_TWO_MISCLASS_SERIES, EstimatorId.MLE_TWO):
                    two_disease_radicand_forms(point.model.misclass)
            except ValueError as exc:
                msg = f"estimator {est.value} cannot run at misclass={point.misclass}: {exc}"
                raise ConfigError(msg, lineno) from exc


def _parse_entries(text: str) -> dict[tuple[str, str], tuple[str, int]]:
    entries: dict[tuple[str, str], tuple[str, int]] = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError("malformed section header", lineno)
            section = line[1:-1].strip()
            if section not in ("run", "model"):
                raise ConfigError(f"unknown section [{section}] (expected [run] or [model])", lineno)
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", lineno)
        if section is None:
            raise ConfigError("key outside of a [run] or [model] section", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError("empty key", lineno)
        if (section, key) in entries:
            raise ConfigError(f"duplicate key '{key}' in [{section}]", lineno)
        entries[(section, key)] = (value, lineno)
    return entries


def _split_list(value: str) -> list[str]:
    items = [item.strip() for item in value.split(",")]
    return [item for item in items if item]


def _parse_int(value: str, lineno: int, key: str, minimum: int | None = None) -> int:
    try:
        out = int(value)
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {value!r}", lineno) from None
    if minimum is not None and out < minimum:
        raise ConfigError(f"{key} must be >= {minimum}, got {out}", lineno)
    return out


def _parse_float(value: str, lineno: int, key: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {value!r}", lineno) from None


def _parse_tuple(value: str, lineno: int, key: str, arity: int, parse=_parse_float) -> tuple:
    parts = value.split(":")
    if len(parts) != arity:
        raise ConfigError(
            f"{key} items must be {arity} colon-separated numbers, got {value!r}", lineno
        )
    return tuple(parse(p, lineno, key) for p in parts)


def _parse_count(value: str, lineno: int, key: str) -> int:
    return _parse_int(value, lineno, key, minimum=0)


_RUN_KEYS = {
    "mode", "seed", "replicates", "format", "out", "threads",
    "tol", "bound", "max_violations",
}
_MODEL_KEYS = {"family", "p", "k", "c", "misclass", "estimators", "y", "z"}

_KNOWN_ESTIMATORS = {"ub", "mle", *(est.value for est in EstimatorId)}


def parse_config(
    text: str, mode_override: str | None = None, seed_override: int | None = None
) -> ExperimentConfig:
    """Parse and fully validate a configuration; raises ConfigError with line numbers.

    Every grid parameter is run through the model constructors before this
    returns, so a config that parses is a config that can run.  A
    `seed_override` replaces the config's seed line, or supplies one it lacks.
    """
    entries = _parse_entries(text)

    for (section, key), (_, lineno) in entries.items():
        known = _RUN_KEYS if section == "run" else _MODEL_KEYS
        if key not in known:
            raise ConfigError(f"unknown key '{key}' in [{section}]", lineno)

    def get(section: str, key: str) -> tuple[str, int] | None:
        return entries.get((section, key))

    raw_mode = get("run", "mode")
    if raw_mode is not None:
        mode_value, lineno = raw_mode
        if mode_value not in MODES:
            raise ConfigError(f"mode must be one of {', '.join(MODES)}; got {mode_value!r}", lineno)
        if mode_override is not None and mode_override != mode_value:
            raise ConfigError(
                f"config mode '{mode_value}' conflicts with requested mode '{mode_override}'",
                lineno,
            )
        mode = mode_value
    elif mode_override is not None:
        mode = mode_override
    else:
        raise ConfigError("missing required key 'mode' in [run]")

    raw_seed = get("run", "seed")
    # A seed line is checked even when overridden.
    seed = None if raw_seed is None else _parse_int(raw_seed[0], raw_seed[1], "seed", minimum=0)
    if seed_override is not None:
        seed = seed_override
    elif seed is None and mode in SEEDED_MODES:
        raise ConfigError("missing required key 'seed' in [run]")

    family = "one"
    raw_family = get("model", "family")
    if raw_family is not None:
        family, lineno = raw_family
        if family not in FAMILIES:
            raise ConfigError(f"family must be 'one' or 'two', got {family!r}", lineno)

    cfg: dict[str, Any] = {"mode": mode, "seed": seed, "family": family}

    if (raw := get("run", "replicates")) is not None:
        cfg["replicates"] = _parse_int(raw[0], raw[1], "replicates", minimum=0)
    if (raw := get("run", "format")) is not None:
        if raw[0] not in FORMATS:
            raise ConfigError(f"format must be csv or jsonl, got {raw[0]!r}", raw[1])
        cfg["format"] = raw[0]
    if (raw := get("run", "out")) is not None:
        cfg["out"] = raw[0]
    if (raw := get("run", "threads")) is not None:
        cfg["threads"] = _parse_int(raw[0], raw[1], "threads", minimum=1)
    if (raw := get("run", "tol")) is not None:
        tol = _parse_float(raw[0], raw[1], "tol")
        # Also rejects nan; a tol of 1 or more passes every verify row vacuously.
        if not 0 < tol < 1:
            raise ConfigError(f"tol must lie in (0, 1), got {tol}", raw[1])
        cfg["tol"] = tol
    if (raw := get("run", "bound")) is not None:
        cfg["bound"] = _parse_int(raw[0], raw[1], "bound", minimum=0)
    if (raw := get("run", "max_violations")) is not None:
        cfg["max_violations"] = _parse_int(raw[0], raw[1], "max_violations", minimum=1)

    needs_model = mode != "identify"
    raw_p = get("model", "p")
    if raw_p is not None:
        value, lineno = raw_p
        if family == "one":
            cfg["p_grid"] = tuple(_parse_float(v, lineno, "p") for v in _split_list(value))
        else:
            cfg["p_grid"] = tuple(_parse_tuple(v, lineno, "p", 3) for v in _split_list(value))
        if not cfg["p_grid"]:
            raise ConfigError("p grid must be non-empty", lineno)
    elif needs_model:
        raise ConfigError("missing required key 'p' in [model]")
    elif family == "two":
        cfg["p_grid"] = DEFAULT_TWO_P_GRID

    for key, minimum in (("k", 1), ("c", 1)):
        raw = get("model", key)
        if raw is not None:
            value, lineno = raw
            grid = tuple(_parse_int(v, lineno, key, minimum=minimum) for v in _split_list(value))
            if not grid:
                raise ConfigError(f"{key} grid must be non-empty", lineno)
            cfg[f"{key}_grid"] = grid
        elif needs_model:
            raise ConfigError(f"missing required key '{key}' in [model]")

    raw_mis = get("model", "misclass")
    if raw_mis is not None:
        value, lineno = raw_mis
        items = _split_list(value)
        grid: list = []
        for item in items:
            if item in ("perfect", "identity", "none"):
                grid.append(None)
            elif family == "one":
                grid.append(_parse_tuple(item, lineno, "misclass", 2))
            else:
                grid.append(_parse_tuple(item, lineno, "misclass", 4))
        if not grid:
            raise ConfigError("misclass grid must be non-empty", lineno)
        cfg["misclass_grid"] = tuple(grid)
    elif mode == "identify":
        raise ConfigError("identify mode requires a 'misclass' grid in [model]")

    if (raw := get("model", "estimators")) is not None:
        value, lineno = raw
        names = tuple(_split_list(value))
        for name in names:
            if name not in _KNOWN_ESTIMATORS:
                raise ConfigError(f"unknown estimator {name!r}", lineno)
            if name not in ("ub", "mle") and FAMILY[EstimatorId(name)] != family:
                raise ConfigError(f"estimator {name} does not match family '{family}'", lineno)
        if not names:
            raise ConfigError("estimators list must be non-empty", lineno)
        cfg["estimators"] = names

    sample_key = "y" if family == "one" else "z"
    if (raw := get("model", sample_key)) is not None:
        value, lineno = raw
        if family == "one":
            cfg["samples"] = tuple((_parse_count(v, lineno, "y"),) for v in _split_list(value))
        else:
            cfg["samples"] = tuple(
                _parse_tuple(v, lineno, "z", 3, _parse_count) for v in _split_list(value)
            )
    other_sample = "z" if family == "one" else "y"
    if get("model", other_sample) is not None:
        raise ConfigError(
            f"sample key '{other_sample}' does not match family '{family}'",
            get("model", other_sample)[1],
        )
    if mode == "estimate" and not cfg.get("samples"):
        raise ConfigError(f"estimate mode requires sample points ('{sample_key}' in [model])")

    config = ExperimentConfig(**cfg)
    try:
        # Building the models is the validation; the run reuses the cached objects.
        _ = config.identify_entries if mode == "identify" else config.points
    except ConfigError as exc:
        # A model check names what it rejects: a prevalence (p, p10, ...) or an error rate.
        key = "p" if str(exc.__cause__).startswith("p") else "misclass"
        raise ConfigError(str(exc), get("model", key)[1]) from exc.__cause__
    if mode in ("bench", "estimate", "scan-properness", "verify-unbiased"):
        _check_runnable(config, raw_mis[1] if raw_mis else None)
    return config


def load_config(
    path: str, mode_override: str | None = None, seed_override: int | None = None
) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), mode_override, seed_override)
