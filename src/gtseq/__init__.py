"""gtseq: unbiased prevalence estimation for pooled testing under sequential sampling."""

from .errors import (
    ConfigError,
    DomainError,
    GtseqError,
    IdentifiabilityError,
    InsufficientOrderError,
    ModelError,
    PlanError,
    StepCapExceededError,
)
from .estimators import (
    EstimatorId,
    PropernessViolation,
    ViolationKind,
    mle_one,
    mle_two,
    scan_properness,
    simplex_excess_at_one_one_zero,
    unbiased_one,
    unbiased_one_misclass,
    unbiased_two,
    unbiased_two_misclass,
)
from .model import (
    CELL_ORDER,
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
)
from .plans import (
    ExplicitPlan,
    FixedTotalPlan,
    SamplingPlan,
    StopCountPlan,
    WalkOutcome,
    axis_boundary_check,
    imn_plan,
    imn_pmf,
    imn_pmf_exact,
    load_plan,
    path_count,
    save_plan,
    simulate,
    simulate_imn_counts,
    truncated_expectation,
)
from .verify import VerifyRow, verify_one, verify_two

__version__ = "0.1.0"

# The exports of gtseq.series, the paper's construction, which no CLI mode runs: looking
# one up loads it (PEP 562), so `import gtseq` does not.
_SERIES_NAMES = (
    "AffinePowerSpec", "ScaledSeries", "TruncatedSeries", "estimator_series_one",
    "estimator_series_two", "expand_affine_power", "poly_representability", "series_mul",
    "unbiased_exact", "unbiased_from_series", "unbiased_parts",
)


def __getattr__(name: str):
    if name in _SERIES_NAMES:
        from . import series

        return getattr(series, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_SERIES_NAMES})
