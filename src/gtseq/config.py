"""Experiment configuration: the key = value grammar and its validation.

Grammar: sections in square brackets ([run] and [model]), one `key = value`
per line, `#` comments, comma-separated lists whose items may be colon-separated
tuples (`misclass = 1:1, 0.98:0.95`).  Every error about a written line
carries its number; a rejected grid point names its `p` or `misclass` line.
A [run] key's one rule (RUN_RULES) reads its line and any override alike.
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
                entries.append(IndepErrorParams(*(*mis, 1.0, 1.0)[:4]))
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
            if section not in _KEYS:
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
        if key not in _KEYS[section]:
            raise ConfigError(f"unknown key '{key}' in [{section}]", lineno)
        if (section, key) in entries:
            raise ConfigError(f"duplicate key '{key}' in [{section}]", lineno)
        entries[(section, key)] = (value, lineno)
    return entries


def _split_list(value: str) -> list[str]:
    items = [item.strip() for item in value.split(",")]
    return [item for item in items if item]


def _parse_float(value: str, lineno: int | None, key: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {value!r}", lineno) from None


def _at_least(minimum: int):
    """The rule of an integer setting that may not fall below `minimum`."""

    def rule(value: str, lineno: int | None, key: str) -> int:
        try:
            out = int(value)
        except ValueError:
            raise ConfigError(f"{key} must be an integer, got {value!r}", lineno) from None
        if out < minimum:
            raise ConfigError(f"{key} must be >= {minimum}, got {out}", lineno)
        return out

    return rule


def _one_of(choices: tuple[str, ...], message: str):
    """A rule that accepts only `choices`; `message` is formatted with the key and value."""

    def rule(value: str, lineno: int | None, key: str) -> str:
        if value not in choices:
            raise ConfigError(message.format(key=key, value=value), lineno)
        return value

    return rule


def _parse_out(value: str, lineno: int | None, key: str) -> str:
    # An empty path would fail to open only after every grid point had run.
    if not value:
        raise ConfigError(f"{key} must name a file or '-' (stdout), got an empty value", lineno)
    return value


def _parse_tol(value: str, lineno: int | None, key: str) -> float:
    tol = _parse_float(value, lineno, key)
    # Also rejects nan; a tol of 1 or more passes every verify row vacuously.
    if not 0 < tol < 1:
        raise ConfigError(f"{key} must lie in (0, 1), got {tol}", lineno)
    return tol


# The one rule of each [run] key, called as rule(value, lineno, name); it returns the
# value or raises ConfigError.  `name` is the key for a config line, and the flag or
# environment variable for an override.
RUN_RULES = {
    "mode": _one_of(MODES, "{key} must be one of " + ", ".join(MODES) + "; got {value!r}"),
    "seed": _at_least(0),
    "replicates": _at_least(0),
    "format": _one_of(FORMATS, "{key} must be csv or jsonl, got {value!r}"),
    "out": _parse_out,
    "threads": _at_least(1),
    "tol": _parse_tol,
    "bound": _at_least(0),
    "max_violations": _at_least(1),
}

# The item rule of each [model] grid and the ExperimentConfig field it fills.
_GRIDS = {
    "p": (_parse_float, "p_grid"),
    "k": (_at_least(1), "k_grid"),
    "c": (_at_least(1), "c_grid"),
    "misclass": (_parse_float, "misclass_grid"),
    "y": (_at_least(0), "samples"),
    "z": (_at_least(0), "samples"),
}
# Each family's item arity in the p and misclass grids, and its sample key (y or z)
# with the arity of a sample.  Grids not named here take single values.
_FAMILY_ARITY = {
    "one": {"p": 1, "misclass": 2, "y": 1},
    "two": {"p": 3, "misclass": 4, "z": 3},
}
_parse_family = _one_of(tuple(_FAMILY_ARITY), "{key} must be 'one' or 'two', got {value!r}")
_KEYS = {"run": RUN_RULES.keys(), "model": {"family", "estimators", *_GRIDS}}

_KNOWN_ESTIMATORS = {"ub", "mle", *(est.value for est in EstimatorId)}


def _parse_grid(value: str, lineno: int, key: str, parse, arity: int) -> tuple:
    """The list rule of every [model] grid: comma-separated items, each one value read
    by `parse`, or at arity > 1 a tuple of `arity` colon-separated values.  A misclass
    item may instead name the perfect test; only the sample grids may be empty."""
    grid: list = []
    for item in _split_list(value):
        if key == "misclass" and item in ("perfect", "identity", "none"):
            grid.append(None)
        elif arity == 1:
            grid.append(parse(item, lineno, key))
        else:
            parts = item.split(":")
            if len(parts) != arity:
                msg = f"{key} items must be {arity} colon-separated numbers, got {item!r}"
                raise ConfigError(msg, lineno)
            grid.append(tuple(parse(part, lineno, key) for part in parts))
    if not grid and key not in ("y", "z"):
        raise ConfigError(f"{key} grid must be non-empty", lineno)
    return tuple(grid)


def parse_config(text: str, overrides: dict[str, Any] | None = None) -> ExperimentConfig:
    """Parse and fully validate a configuration; raises ConfigError with line numbers.

    Every grid parameter is run through the model constructors before this
    returns, so a config that parses is a config that can run.  `overrides`
    maps [run] keys to values written as on a line (None: not given), such as
    command-line flags.  Each is read by its key's rule and named `--key` in an
    error.  It replaces the key's line, which is still checked, or supplies a
    line the config lacks; a `mode` override must agree with the mode line.
    """
    entries = _parse_entries(text)
    overrides = {key: value for key, value in (overrides or {}).items() if value is not None}
    for key in overrides.keys() - RUN_RULES.keys():
        raise ConfigError(f"unknown override '{key}' (not a [run] key)")
    cfg: dict[str, Any] = {"seed": None}
    for key, rule in RUN_RULES.items():
        raw = entries.get(("run", key))
        if raw is not None:
            cfg[key] = rule(raw[0], raw[1], key)
        if key in overrides:
            value = rule(overrides[key], None, f"--{key}")
            if key == "mode" and raw is not None and cfg[key] != value:
                msg = f"config mode '{cfg[key]}' conflicts with requested mode '{value}'"
                raise ConfigError(msg, raw[1])
            cfg[key] = value
    if "mode" not in cfg:
        raise ConfigError("missing required key 'mode' in [run]")
    mode = cfg["mode"]
    if cfg["seed"] is None and mode in SEEDED_MODES:
        raise ConfigError("missing required key 'seed' in [run]")

    # A config without a family line is a one-trait config.
    family = _parse_family(*entries.get(("model", "family"), ("one", None)), "family")
    cfg["family"] = family

    arity = _FAMILY_ARITY[family]
    [sample_key] = arity.keys() & {"y", "z"}
    for key, (parse, field) in _GRIDS.items():
        if (raw := entries.get(("model", key))) is None:
            continue
        if field == "samples" and key != sample_key:
            raise ConfigError(f"sample key '{key}' does not match family '{family}'", raw[1])
        cfg[field] = _parse_grid(*raw, key, parse, arity.get(key, 1))
    # A one-trait sample y is the count vector (y,).
    cfg["samples"] = tuple(s if isinstance(s, tuple) else (s,) for s in cfg.get("samples", ()))
    raw_mis = entries.get(("model", "misclass"))
    if mode != "identify":
        for key in ("p", "k", "c"):
            if ("model", key) not in entries:
                raise ConfigError(f"missing required key '{key}' in [model]")
    elif raw_mis is None:
        raise ConfigError("identify mode requires a 'misclass' grid in [model]")

    if (raw := entries.get(("model", "estimators"))) is not None:
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

    if mode == "estimate" and not cfg["samples"]:
        raise ConfigError(f"estimate mode requires sample points ('{sample_key}' in [model])")

    config = ExperimentConfig(**cfg)
    try:
        # Building the models is the validation; the run reuses the cached objects.
        _ = config.identify_entries if mode == "identify" else config.points
    except ConfigError as exc:
        # A model check names what it rejects: a prevalence (p, p10, ...) or an error rate.
        key = "p" if str(exc.__cause__).startswith("p") else "misclass"
        raise ConfigError(str(exc), entries[("model", key)][1]) from exc.__cause__
    if mode in ("bench", "estimate", "scan-properness", "verify-unbiased"):
        _check_runnable(config, raw_mis[1] if raw_mis else None)
    return config


def load_config(path: str, overrides: dict[str, Any] | None = None) -> ExperimentConfig:
    """:func:`parse_config` of the file at `path`, with the same `overrides`."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), overrides)
