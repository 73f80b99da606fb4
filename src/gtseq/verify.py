"""Unbiasedness verification at desk scale.

Each check sums estimator * pmf over all sample points up to a truncation
total and compares against the true parameter.  Estimators that are provably
bounded get a certified tail (bound times the stopping-class tail
probability, which :func:`stopping_quantile` gives with the truncation total
from one walk of the NB(c, mu0) pmf); the misclassified one-disease
estimator is unbounded, so its check reports a partial sum with a term-decay
diagnostic instead, and fails where an estimate passes the float range.
Every certificate and pass verdict is computed here.  Each certified check
walks the NB pmf once: the walk's terms are the pmf that every
one-dimensional sum reads.  The one-disease checks read the estimator
tables' float rows in Python, with no lattice and no numpy;
plans.truncated_expectation, the reference lattice sum, serves the tests
only.

The two-disease sums exploit that each component of the estimator depends
on at most two scalar summaries of the count vector, which collapses the
3-d lattice sum into 1-d/2-d sums over exactly the same truncation region
(the collapse identity is itself tested against the generic enumeration).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .estimators import (
    TWO_COMPONENTS, EstimatorId, evaluate_table, unbiased_one_misclass_row, unbiased_one_row,
)
# Not called since verify_one walks the one-pass row; perfbench/spans.py traces this name.
from .estimators import unbiased_one_misclass  # noqa: F401
from .errors import ModelError
from .model import OneDiseaseModel, TwoDiseaseModel, observed_pos_prob, pool_cell_probs
from .plans import imn_pmf, negbin_terms
# Not called since verify_two's leading sum reads the stopping walk's terms; perfbench/spans.py
# traces this name.
from .plans import truncated_expectation  # noqa: F401

# Bounds certified by the product structure of the closed forms: the
# perfect-test estimates lie in [0, 1]; each two-disease leading component
# is a difference of two values in (0, 1]; the complement is bounded by 4.
ONE_PERFECT_BOUND = 1.0
TWO_COMPONENT_BOUND = 1.0
TWO_COMPLEMENT_BOUND = 4.0


@dataclass(frozen=True)
class VerifyRow:
    """One truncated-expectation check of estimator against target."""

    estimator: str
    component: str
    target: float
    value: float
    tol: float
    tail_bound: float | None
    max_total: int
    decay_ratio: float | None = None
    tail_target: float | None = None  # the tail bound the truncation total aimed at
    capped: bool = False  # an uncertified sum stopped at its cap before its stopping rule held

    @property
    def certified(self) -> bool:
        return self.tail_bound is not None

    @property
    def error(self) -> float:
        return abs(self.value - self.target)

    @property
    def passed(self) -> bool:
        if self.certified:
            # A truncation that stopped short of its tail target (at its cap) certifies nothing.
            tail = self.tail_bound
            return tail <= self.tail_target and self.error <= self.tol + tail
        return not self.capped and self.error <= self.tol and (self.decay_ratio or math.inf) < 1.0


def stopping_quantile(
    c: int, mu0: float, tail_target: float, cap: int = 4000
) -> tuple[list[float], float]:
    """(terms, tail) for a NB(c, mu0) total, from one walk of its pmf.

    terms is the pmf at totals 0, ..., N, where N = len(terms) - 1 is the smallest total, at most
    `cap`, with 1 - (running sum) <= tail_target; tail bounds P(total > N) by 1 - fsum(terms),
    plus a 1e-12 slack for float rounding.
    """
    walk = negbin_terms(c, mu0)
    terms = [next(walk)]
    acc = terms[0]
    while 1.0 - acc > tail_target and len(terms) <= cap:
        terms.append(next(walk))
        acc += terms[-1]
    return terms, max(0.0, 1.0 - math.fsum(terms)) + 1e-12


def verify_one(model: OneDiseaseModel, *, tol: float | None = None, cap: int = 4000) -> VerifyRow:
    """Check E[p_hat] = p for the one-disease unbiased estimator."""
    k, c = model.k, model.c
    theta = float(observed_pos_prob(model))
    mu0 = 1.0 - theta
    if model.is_perfect_test:
        tol = 1e-8 if tol is None else tol
        aim = tol / (2 * ONE_PERFECT_BOUND)
        terms, tail = stopping_quantile(c, mu0, aim, cap)
        value = math.fsum(est * term for est, term in zip(unbiased_one_row(c, k), terms))
        return VerifyRow(
            estimator=EstimatorId.UB_ONE_PERFECT.value,
            component="p",
            target=float(model.p),
            value=value,
            tol=tol,
            tail_bound=ONE_PERFECT_BOUND * tail,
            max_total=len(terms) - 1,
            tail_target=ONE_PERFECT_BOUND * aim,
        )
    # Unbounded estimator: adaptive partial sum with decay diagnostic.  An estimate past the
    # float range ends the sum at its non-finite term, so the row fails at that y.
    tol = 1e-6 if tol is None else tol
    contributions = []
    decay = None
    prev = None
    quiet = 0
    capped = False
    mean_total = c * theta / max(mu0, 1e-12)
    estimates = unbiased_one_misclass_row(c, k, model.specificity, model.sensitivity)
    for y, pmf, est in zip(range(cap + 1), negbin_terms(c, mu0), estimates):
        contrib = est * pmf
        contributions.append(contrib)
        if not math.isfinite(est):
            break
        magnitude = abs(contrib)
        if prev is not None and prev > 0 and magnitude > 0:
            decay = magnitude / prev
        if magnitude > 0:
            prev = magnitude
        quiet = quiet + 1 if magnitude < tol * 1e-3 else 0
        if quiet >= 8 and y > mean_total:
            break
    else:
        capped = True
    value = math.fsum(contributions)
    return VerifyRow(
        estimator=EstimatorId.UB_ONE_MISCLASS.value,
        component="p",
        target=float(model.p),
        value=value,
        tol=tol,
        tail_bound=None,
        max_total=y,
        decay_ratio=decay,
        capped=capped,
    )


def verify_two(
    model: TwoDiseaseModel, *, tol: float | None = None, cap: int = 3000
) -> list[VerifyRow]:
    """Check E[p_hat] = p componentwise for the two-disease unbiased estimator.

    Covers perfect tests only.  Sums are taken over sum(z) <= N with N chosen
    so the certified tail is below tol/2.  The leading component depends only
    on the total count and each cross component only on (own count, sum of
    the other two), so the sums run over 1-d/2-d collapses of the count lattice,
    reading the shipped UB_TWO_PERFECT estimator at one sample per collapsed point.
    """
    import numpy as np
    if not model.is_perfect_test:
        raise ModelError("verify_two covers perfect tests; the model carries misclassification")
    tol = 1e-8 if tol is None else tol
    k, c = model.k, model.c
    cells = tuple(float(v) for v in pool_cell_probs(model))
    t10, t01, t11, mu0 = cells
    aim = tol / (2 * TWO_COMPONENT_BOUND)
    terms, tail = stopping_quantile(c, mu0, aim, cap)
    n = len(terms) - 1

    # One table over the points (own, 0, rest) of the triangle own + rest <= n.
    totals = np.arange(n + 1)
    pairs = np.column_stack(np.nonzero(np.add.outer(totals, totals) <= n))
    values = evaluate_table(EstimatorId.UB_TWO_PERFECT, np.insert(pairs, 1, 0, axis=1), c, k)[0]

    # Leading component: depends on the total only, an NB(c, mu0) sum.  np.nonzero walks the
    # triangle row by row, so its first n + 1 points are (0, 0, t) for t = 0, ..., n, and their
    # p00 column is the leading estimate at total t.
    e00 = math.fsum((values[: n + 1, 0] * terms).tolist())
    mass = math.fsum(terms)

    # Cross components: (own count, sum of the other two).  p10 at (own, 0, rest) equals p01 at
    # (0, own, rest), so the p10 column serves both sums.
    def cross_expectation(own_prob: float, rest_prob: float) -> float:
        return float(np.sum(values[:, 1] * imn_pmf(pairs, c, (own_prob, rest_prob))))

    e10 = cross_expectation(t10, t01 + t11)
    e01 = cross_expectation(t01, t10 + t11)
    e11 = mass - e00 - e10 - e01

    bounds = (TWO_COMPONENT_BOUND,) * 3 + (TWO_COMPLEMENT_BOUND,)
    checks = zip(TWO_COMPONENTS, model.prevalences(), (e00, e10, e01, e11), bounds)
    return [
        VerifyRow("UB_TWO_PERFECT", name, float(truth), value, tol, bound * tail, n,
                  tail_target=bound * aim)
        for name, truth, value, bound in checks
    ]
