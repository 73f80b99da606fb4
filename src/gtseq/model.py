"""Domain parameter types and maps between prevalence and observation space.

Pooling semantics: a pool of k individuals tests positive for a trait iff
any member carries it, so with per-individual prevalence p the true pooled
status is Bernoulli(1 - (1-p)^k).  Test errors are described by
specificity (P(negative result | truly negative)) and sensitivity
(P(positive result | truly positive)); the observed pooled-positive
probability becomes

    v = sensitivity - nu * (1 - p)^k,      nu = specificity + sensitivity - 1,

which is invertible in p exactly when nu != 0.

All maps are polymorphic over the numeric type: Fraction inputs give the
exact-rational backend used by the test oracles, floats give the ordinary
64-bit backend.  Types are immutable and operations pure.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import cache, cached_property

from .errors import DomainError, IdentifiabilityError, ModelError
from .numerics import Number, as_fraction, is_exact, kth_root

# Canonical order of the two-disease outcome patterns.  The three positive
# patterns (disease-1 only, disease-2 only, both) come first and the
# all-negative reference pattern is last, matching the sampling-plan
# convention that the stopping class is the final coordinate.
CELL_ORDER = ("10", "01", "11", "00")

#: Float tolerances below which a scaled determinant, and nu = spec + sens - 1, are zero.
DET_ZERO_RTOL = 1e-10
NU_ZERO_TOL = 1e-12

_SIMPLEX_TOL = 1e-12

# The true pooled cells (CELL_ORDER indices) each radicand takes from 1: p00^k =
# 1 - c10 - c01 - c11, (p00 + p10)^k = 1 - c01 - c11, (p00 + p01)^k = 1 - c10 - c11.
_RADICAND_CELLS = {"00": (0, 1, 2), "10": (1, 2), "01": (0, 2)}
RadicandForms = dict[str, tuple[Fraction, tuple[Fraction, ...]]]


def _check_open_unit(name: str, value: Number):
    if not 0 < value < 1:
        raise ModelError(f"{name} must lie strictly in (0, 1), got {value}")


def _check_half_open_unit(name: str, value: Number):
    if not 0 < value <= 1:
        raise ModelError(f"{name} must lie in (0, 1], got {value}")


def _check_counts(k: int, c: int):
    if not (isinstance(k, int) and k >= 1):
        raise ModelError(f"group size k must be an integer >= 1, got {k}")
    if not (isinstance(c, int) and c >= 1):
        raise ModelError(f"stop count c must be an integer >= 1, got {c}")


def _check_nu(nu: Number, exact: bool):
    if (exact and nu == 0) or (not exact and abs(float(nu)) < NU_ZERO_TOL):
        msg = "specificity + sensitivity = 1 makes the prevalence unidentifiable"
        raise IdentifiabilityError(msg)


def positive_nu(specificity: Number, sensitivity: Number) -> Number:
    """nu = specificity + sensitivity - 1, which the one-trait estimators need positive.

    Judged as passed, as :class:`OneDiseaseModel` does: exact inputs exactly, floats in floats.
    """
    nu = specificity + sensitivity - 1
    exact = is_exact(specificity) and is_exact(sensitivity)
    if nu <= 0 or (not exact and float(nu) < NU_ZERO_TOL):
        raise IdentifiabilityError(f"specificity + sensitivity - 1 must be positive, got {nu}")
    return nu


def _warn_weak_test(**params: Number):
    """Warn about parameters <= 0.5, at the frame that constructed the model.

    Called from a dataclass ``__post_init__``: stacklevel 4 skips this
    function, ``__post_init__`` and the generated ``__init__``.
    """
    weak = ", ".join(f"{name} = {value}" for name, value in params.items() if float(value) <= 0.5)
    if weak:
        warnings.warn(
            f"misclassification parameter <= 0.5 ({weak}): the test is no better than "
            "random guessing; estimates remain well-defined but fragile",
            UserWarning,
            stacklevel=4,
        )


@dataclass(frozen=True)
class OneDiseaseModel:
    """Single-trait pooled testing under inverse binomial sampling.

    p: per-individual prevalence; k: pool size; c: stop count (sampling
    stops at the c-th negative pool); specificity/sensitivity in (0, 1].
    """

    p: Number
    k: int
    c: int
    specificity: Number = 1
    sensitivity: Number = 1

    def __post_init__(self):
        _check_open_unit("p", self.p)
        _check_counts(self.k, self.c)
        _check_half_open_unit("specificity", self.specificity)
        _check_half_open_unit("sensitivity", self.sensitivity)
        _check_nu(self.nu, is_exact(self.specificity) and is_exact(self.sensitivity))
        _warn_weak_test(specificity=self.specificity, sensitivity=self.sensitivity)

    @property
    def q(self) -> Number:
        return 1 - self.p

    @property
    def nu(self) -> Number:
        return self.specificity + self.sensitivity - 1

    @property
    def is_perfect_test(self) -> bool:
        return self.specificity == 1 and self.sensitivity == 1


def observed_pos_prob(model: OneDiseaseModel) -> Number:
    """Probability that an observed pooled test is positive."""
    return model.sensitivity - model.nu * model.q ** model.k


def invert_pos_prob(
    pos_prob: Number,
    k: int,
    specificity: Number = 1,
    sensitivity: Number = 1,
) -> Number:
    """Per-individual negative fraction q from the observed positive probability.

    Exact inverse of :func:`observed_pos_prob`; requires pos_prob < sensitivity.
    """
    nu = specificity + sensitivity - 1
    _check_nu(nu, is_exact(nu) and is_exact(pos_prob))
    radicand = (sensitivity - pos_prob) / nu
    if radicand < 0:
        raise DomainError(
            f"observed positive probability {pos_prob} is not below sensitivity {sensitivity}"
        )
    return kth_root(radicand, k)


@dataclass(frozen=True)
class MisclassModel:
    """Full conditional misclassification model for two-trait pooled tests.

    cond[a][b] = P(observed pattern a | true pattern b) with patterns in
    CELL_ORDER; every column (fixed true pattern) sums to one.
    """

    cond: tuple[tuple[Number, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(row) for row in self.cond)
        if len(rows) != 4 or any(len(r) != 4 for r in rows):
            raise ModelError("cond must be a 4x4 matrix in CELL_ORDER")
        for row in rows:
            for v in row:
                if not 0 <= v <= 1:
                    raise ModelError(f"conditional probability {v} outside [0, 1]")
        for b in range(4):
            col = sum(rows[a][b] for a in range(4))
            if abs(float(col - 1)) > _SIMPLEX_TOL:
                raise ModelError(
                    f"column {CELL_ORDER[b]} of cond sums to {col}, expected 1"
                )
        object.__setattr__(self, "cond", rows)

    @classmethod
    @cache
    def identity(cls) -> "MisclassModel":
        """The error-free model; one shared instance, so its radicand forms are built once."""
        one, zero = Fraction(1), Fraction(0)
        return cls(tuple(tuple(one if i == j else zero for j in range(4)) for i in range(4)))

    @property
    def is_exact(self) -> bool:
        return all(is_exact(v) for row in self.cond for v in row)

    def baseline(self) -> tuple[Number, Number, Number]:
        """P(observed positive pattern | truly all-negative), per positive pattern."""
        b00 = CELL_ORDER.index("00")
        return tuple(self.cond[a][b00] for a in range(3))

    def contrast(self) -> tuple[tuple[Number, ...], ...]:
        """3x3 matrix of conditional-probability contrasts against the all-negative column."""
        b00 = CELL_ORDER.index("00")
        return tuple(
            tuple(self.cond[a][b] - self.cond[a][b00] for b in range(3)) for a in range(3)
        )

    @cached_property
    def radicand_forms(self) -> RadicandForms:
        """Per component 00/10/01, its radicand as an exact affine form (intercept, linear).

        The one inverse of the two-trait observation map: intercept + linear . eta
        is p00^k, (p00 + p10)^k or (p00 + p01)^k, eta the three observed positive
        cell probabilities, and the true cells are inv(contrast) (eta - baseline),
        inverted exactly at float error rates' binary values.  Built once per model;
        a contrast :func:`identifiability` judges singular raises IdentifiabilityError.
        """
        if not identifiability(self)[0]:
            raise IdentifiabilityError("misclassification contrast matrix is singular")
        det, adj = _det_adjugate([[as_fraction(v) for v in row] for row in self.contrast()])
        forms = {}
        for name, cells in _RADICAND_CELLS.items():
            # radicand = 1 - sum over cells of inv(contrast) (eta - baseline)
            linear = tuple(-sum(adj[a][b] for a in cells) / det for b in range(3))
            intercept = 1 - sum(a * as_fraction(base) for a, base in zip(linear, self.baseline()))
            if intercept <= 0:
                raise DomainError(f"radicand {name} has intercept {float(intercept):.6g} <= 0")
            forms[name] = (intercept, linear)
        return forms

    @cached_property
    def float_radicand_forms(self) -> dict[str, tuple[float, tuple[float, ...]]]:
        """:attr:`radicand_forms` rounded to float, for the float inverses."""
        return {n: (float(a0), tuple(map(float, b))) for n, (a0, b) in self.radicand_forms.items()}


@dataclass(frozen=True)
class IndepErrorParams:
    """Marginal specificity/sensitivity for two traits with independent errors."""

    specificity1: Number
    sensitivity1: Number
    specificity2: Number
    sensitivity2: Number

    def __post_init__(self):
        params = asdict(self)
        for name, value in params.items():
            _check_half_open_unit(name, value)
        _warn_weak_test(**params)

    @property
    def nu1(self) -> Number:
        return self.specificity1 + self.sensitivity1 - 1

    @property
    def nu2(self) -> Number:
        return self.specificity2 + self.sensitivity2 - 1


def independent_errors(params: IndepErrorParams) -> MisclassModel:
    """Build the full conditional matrix from per-trait errors combined independently."""

    def marginal(observed: int, true: int, spec_: Number, sens: Number) -> Number:
        if true == 1:
            return sens if observed == 1 else 1 - sens
        return spec_ if observed == 0 else 1 - spec_

    bits = {"10": (1, 0), "01": (0, 1), "11": (1, 1), "00": (0, 0)}
    cond = tuple(
        tuple(
            marginal(bits[a][0], bits[b][0], params.specificity1, params.sensitivity1)
            * marginal(bits[a][1], bits[b][1], params.specificity2, params.sensitivity2)
            for b in CELL_ORDER
        )
        for a in CELL_ORDER
    )
    return MisclassModel(cond)


def _det_adjugate(m) -> tuple[Number, tuple[tuple[Number, ...], ...]]:
    """Determinant and adjugate of a 3x3 matrix, in the arithmetic of its entries."""
    (a, b, c_), (d, e, f), (g, h, i) = m
    adj = (
        (e * i - f * h, c_ * h - b * i, b * f - c_ * e),
        (f * g - d * i, a * i - c_ * g, c_ * d - a * f),
        (d * h - e * g, b * g - a * h, a * e - b * d),
    )
    return a * adj[0][0] + b * adj[1][0] + c_ * adj[2][0], adj


def identifiability(misclass: MisclassModel) -> tuple[bool, Number]:
    """Whether distinct prevalence vectors stay distinguishable, and the contrast determinant.

    Exact inputs get an exact zero test; float inputs use a threshold scaled
    by the cube of the largest contrast entry.  This is the rule every
    two-trait inverse of the observation map goes by.
    """
    m = misclass.contrast()
    det, _ = _det_adjugate(m)
    if misclass.is_exact:
        return det != 0, det
    scale = max(abs(float(v)) for row in m for v in row) or 1.0
    return abs(float(det)) >= DET_ZERO_RTOL * scale ** 3, det


def two_disease_radicand_forms(misclass: MisclassModel | None) -> RadicandForms:
    """:attr:`MisclassModel.radicand_forms` of `misclass`; None is a perfect test."""
    return (misclass or MisclassModel.identity()).radicand_forms


def two_disease_radicands(cells, misclass: MisclassModel | None = None) -> tuple:
    """Radicands of components 00, 10, 01 at observed cells (c10, c01, c11), summed left to right.

    Float cells (scalars or arrays) read the float forms: a perfect test's give the subset sums.
    """
    model = misclass or MisclassModel.identity()
    forms = model.radicand_forms if all(map(is_exact, cells)) else model.float_radicand_forms
    out = []
    for radicand, linear in forms.values():
        for a, v in zip(linear, cells):
            radicand = radicand + a * v
        out.append(radicand)
    return tuple(out)


@dataclass(frozen=True)
class TwoDiseaseModel:
    """Two correlated traits screened jointly under inverse multinomial sampling.

    p10/p01/p11 are the joint per-individual prevalences of the three
    positive patterns; sampling stops at the c-th pool with neither trait.
    """

    p10: Number
    p01: Number
    p11: Number
    k: int
    c: int
    misclass: MisclassModel | None = None

    def __post_init__(self):
        for name in ("p10", "p01", "p11"):
            _check_open_unit(name, getattr(self, name))
        _check_open_unit("p00 = 1 - p10 - p01 - p11", self.p00)
        _check_counts(self.k, self.c)

    @property
    def p00(self) -> Number:
        return 1 - self.p10 - self.p01 - self.p11

    def prevalences(self) -> tuple[Number, Number, Number, Number]:
        return (self.p00, self.p10, self.p01, self.p11)

    @property
    def is_perfect_test(self) -> bool:
        return self.misclass is None or self.misclass == MisclassModel.identity()


def pool_cell_probs(model: TwoDiseaseModel) -> tuple[Number, Number, Number, Number]:
    """True pooled-outcome probabilities (cell10, cell01, cell11, cell00).

    cell00 = p00^k exactly; the four components sum to one by construction.
    """
    k = model.k
    p00 = model.p00
    a = (p00 + model.p10) ** k
    b = (p00 + model.p01) ** k
    neither = p00 ** k
    cell10 = a - neither
    cell01 = b - neither
    cell11 = 1 - a - b + neither
    return (cell10, cell01, cell11, neither)


def invert_cell_probs(
    cells: tuple[Number, Number, Number], k: int, misclass: MisclassModel | None = None
) -> tuple[Number, Number, Number, Number]:
    """Prevalences (p00, p10, p01, p11) from the three positive observed pooled-cell probabilities.

    Exact inverse of :func:`pool_cell_probs`, or of :func:`observed_cell_probs`
    under `misclass`; every radicand must be positive.
    """
    radicands = two_disease_radicands(cells, misclass)
    for name, radicand in zip(_RADICAND_CELLS, radicands):
        if radicand <= 0:
            raise DomainError(f"nonpositive radicand {radicand} for component {name}")
    p00, r10, r01 = (kth_root(radicand, k) for radicand in radicands)
    p10, p01 = r10 - p00, r01 - p00
    return (p00, p10, p01, 1 - p00 - p10 - p01)


def observed_cell_probs(model: TwoDiseaseModel) -> tuple[Number, Number, Number, Number]:
    """Observed pooled-outcome probabilities under misclassification.

    Computed both as the four-term mixture over true patterns and as the
    affine form baseline + contrast . cells; the two must agree (exactly for
    exact inputs, to 1e-12 otherwise), which guards the contrast-matrix
    indexing.
    """
    if model.misclass is None:
        raise ModelError("observed_cell_probs requires a misclassification model")
    cells = pool_cell_probs(model)
    cond = model.misclass.cond
    # Mixture over true patterns: cells and cond columns are both in CELL_ORDER.
    mixture = [sum(cond[a][b] * cells[b] for b in range(4)) for a in range(4)]
    baseline = model.misclass.baseline()
    contrast = model.misclass.contrast()
    affine = [baseline[a] + sum(contrast[a][b] * cells[b] for b in range(3)) for a in range(3)]
    exact = model.misclass.is_exact and all(is_exact(v) for v in cells)
    for a in range(3):
        diff = mixture[a] - affine[a]
        if (exact and diff != 0) or (not exact and abs(float(diff)) > _SIMPLEX_TOL):
            raise AssertionError(f"mixture and affine observation probabilities disagree by {diff}")
    return (mixture[0], mixture[1], mixture[2], mixture[3])
