"""Power series, the series-based estimator constructor, and exact finite-plan representability.

The estimator construction implemented here turns the Taylor coefficients of

    g(mu) = h(mu) / mu0^c,        mu0 = 1 - sum(mu),

into the unique unbiased estimator of h under inverse multinomial sampling
that stops at c reference-class observations: the estimate at sample point
x is the coefficient of mu^x times prod(x_i!) * (c-1)!/(c + |x| - 1)!.

Every target function in this package is a sum of products of powers of
affine forms, so the engine only needs: generalized-binomial expansion of
(a0 + a.mu)^xi, truncated Cauchy products, and sums.  Coefficients are kept
as exact rationals; the single irrational multiplier a0^xi of a normalized
affine power is carried symbolically in a :class:`gtseq.numerics.Scale` so
that alternating sums (which are catastrophically cancellative in floats)
are evaluated exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, InsufficientOrderError, PlanError
from .model import positive_nu, two_disease_radicand_forms
from .numerics import ONE, Number, Scale, as_fraction
from .plans import Point, SamplingPlan, boundary_weights, iter_counts

MultiIndex = tuple[int, ...]


class TruncatedSeries:
    """Sparse multivariate power series truncated at a total degree.

    Absent multi-indices are zero.  Arithmetic is polymorphic over the
    coefficient type; the package always builds these with Fractions.
    """

    __slots__ = ("dim", "order", "_coeffs")

    def __init__(self, dim: int, order: int, coeffs: dict[MultiIndex, Number] | None = None):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        if order < 0:
            raise ValueError("order must be >= 0")
        self.dim = dim
        self.order = order
        clean: dict[MultiIndex, Number] = {}
        for key, val in (coeffs or {}).items():
            if len(key) != dim:
                raise ValueError(f"multi-index {key} has wrong length for dim {dim}")
            if any(e < 0 for e in key):
                raise ValueError(f"negative exponent in multi-index {key}")
            if sum(key) > order:
                raise ValueError(f"multi-index {key} exceeds truncation order {order}")
            if val != 0:
                clean[tuple(key)] = val
        self._coeffs = clean

    @classmethod
    def constant(cls, dim: int, order: int, value: Number) -> "TruncatedSeries":
        return cls(dim, order, {(0,) * dim: value})

    def coeff(self, index: MultiIndex) -> Number:
        index = tuple(index)
        if sum(index) > self.order:
            raise InsufficientOrderError(
                f"coefficient at {index} (degree {sum(index)}) exceeds order {self.order}"
            )
        return self._coeffs.get(index, Fraction(0))

    def truncate(self, order: int) -> "TruncatedSeries":
        if order >= self.order:
            return TruncatedSeries(self.dim, order, self._coeffs)
        kept = {k: v for k, v in self._coeffs.items() if sum(k) <= order}
        return TruncatedSeries(self.dim, order, kept)

    def _check_dim(self, other: "TruncatedSeries"):
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_dim(other)
        order = min(self.order, other.order)
        out = {k: v for k, v in self._coeffs.items() if sum(k) <= order}
        for k, v in other._coeffs.items():
            if sum(k) <= order:
                out[k] = out.get(k, Fraction(0)) + v
        return TruncatedSeries(self.dim, order, out)

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(self.dim, self.order, {k: -v for k, v in self._coeffs.items()})

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + (-other)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_dim(other)
        order = min(self.order, other.order)
        rhs = [(k, sum(k), v) for k, v in other._coeffs.items()]
        out: dict[MultiIndex, Number] = {}
        for ka, va in self._coeffs.items():
            da = sum(ka)
            if da > order:
                continue
            for kb, db, vb in rhs:
                if da + db > order:
                    continue
                key = tuple(a + b for a, b in zip(ka, kb))
                prod = va * vb
                if key in out:
                    out[key] = out[key] + prod
                else:
                    out[key] = prod
        return TruncatedSeries(self.dim, order, out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.order == other.order
            and self._coeffs == other._coeffs
        )

    def __hash__(self):
        return hash((self.dim, self.order, frozenset(self._coeffs.items())))

    def __repr__(self):
        head = dict(sorted(self._coeffs.items())[:4])
        more = "..." if len(self._coeffs) > 4 else ""
        return f"TruncatedSeries(dim={self.dim}, order={self.order}, {head}{more})"


@dataclass(frozen=True)
class AffinePowerSpec:
    """The affine power (intercept + linear . mu)^exponent, analytic at 0."""

    intercept: Fraction
    linear: tuple[Fraction, ...]
    exponent: Fraction

    def __post_init__(self):
        object.__setattr__(self, "intercept", as_fraction(self.intercept))
        object.__setattr__(self, "linear", tuple(as_fraction(a) for a in self.linear))
        object.__setattr__(self, "exponent", as_fraction(self.exponent))
        if self.intercept <= 0:
            raise DomainError(
                f"affine power intercept must be positive for analyticity at 0, got {self.intercept}"
            )


@dataclass(frozen=True)
class ScaledSeries:
    """scale * series with rational series coefficients.

    The scale absorbs the (possibly irrational) a0^xi multiplier of a
    normalized affine power; sums of these with distinct radicals are kept
    as tuples of terms.
    """

    scale: Scale
    series: TruncatedSeries

    def __mul__(self, other: "ScaledSeries | TruncatedSeries | Scale | Number") -> "ScaledSeries":
        if isinstance(other, ScaledSeries):
            return ScaledSeries(self.scale * other.scale, self.series * other.series)
        if isinstance(other, TruncatedSeries):
            return ScaledSeries(self.scale, self.series * other)
        if isinstance(other, Scale):
            return ScaledSeries(self.scale * other, self.series)
        return ScaledSeries(self.scale * as_fraction(other), self.series)

    def __neg__(self) -> "ScaledSeries":
        return ScaledSeries(-self.scale, self.series)


def expand_affine_power(spec: AffinePowerSpec, order: int) -> ScaledSeries:
    """Generalized binomial expansion of (a0 + a.mu)^xi through total degree `order`.

    Normalizes to a0^xi * (1 + (a/a0).mu)^xi; the a0^xi factor lands in the
    scale (exactly folded when rational) and all series coefficients are
    exact rationals:

        coeff(m) = [prod_{i<|m|}(xi - i) / |m|!] * multinomial(|m|; m) * prod (a_j/a0)^{m_j}
    """
    a0, xi = spec.intercept, spec.exponent
    support = [(j, aj / a0) for j, aj in enumerate(spec.linear) if aj != 0]
    dim = len(spec.linear)
    coeffs: dict[MultiIndex, Fraction] = {}
    # Generalized binomial coefficients C(xi, d) for each total degree.
    genbin = [Fraction(1)]
    for d in range(1, order + 1):
        genbin.append(genbin[-1] * (xi - (d - 1)) / d)
    positions = [j for j, _ in support]
    ratios = [b for _, b in support]
    nsup = len(support)
    if nsup == 0:
        coeffs[(0,) * dim] = genbin[0]
        return ScaledSeries(Scale(1, a0, xi), TruncatedSeries(dim, order, coeffs))
    for degs in iter_counts(nsup, order):
        d = sum(degs)
        if genbin[d] == 0:
            continue
        # multinomial(d; degs) * prod ratios^degs
        weight = math.factorial(d)
        value = genbin[d]
        for e, b in zip(degs, ratios):
            weight //= math.factorial(e)
            value *= b ** e
        key = [0] * dim
        for pos, e in zip(positions, degs):
            key[pos] = e
        coeffs[tuple(key)] = value * weight
    return ScaledSeries(Scale(1, a0, xi), TruncatedSeries(dim, order, coeffs))


def series_mul(a, b):
    """Truncated Cauchy product; accepts TruncatedSeries or ScaledSeries."""
    if isinstance(a, TruncatedSeries) and isinstance(b, TruncatedSeries):
        return a * b
    if isinstance(a, TruncatedSeries):
        a = ScaledSeries(ONE, a)
    if isinstance(b, TruncatedSeries):
        b = ScaledSeries(ONE, b)
    return a * b


GTerms = tuple[ScaledSeries, ...]


def coefficient_weight(c: int, x: MultiIndex) -> Fraction:
    """prod(x_i!) * (c-1)! / (c + |x| - 1)! as a product of small factors.

    The falling/rising products never materialize large factorials, so this
    is exact and safe for any stop count c.
    """
    s = sum(x)
    num = 1
    for xi in x:
        num *= math.factorial(xi)
    den = 1
    for j in range(s):
        den *= c + j
    return Fraction(num, den)


def _as_terms(g) -> GTerms:
    if isinstance(g, TruncatedSeries):
        return (ScaledSeries(ONE, g),)
    if isinstance(g, ScaledSeries):
        return (g,)
    return tuple(g)


def unbiased_parts(g, c: int, x: MultiIndex) -> tuple[Scale, ...]:
    """Exact pieces of the estimator value at sample point x.

    Returns scales whose (implied) sum is the estimate, merged by radical so
    a purely rational estimate comes back as a single trivial-radical term.
    """
    terms = _as_terms(g)
    x = tuple(x)
    weight = coefficient_weight(c, x)
    merged: dict[tuple[Fraction, Fraction], Fraction] = {}
    for term in terms:
        coeff = term.series.coeff(x)
        if coeff == 0:
            continue
        key = term.scale.radical_key()
        merged[key] = merged.get(key, Fraction(0)) + term.scale.coeff * as_fraction(coeff) * weight
    parts = tuple(
        Scale(q, base, exp) for (base, exp), q in sorted(merged.items()) if q != 0
    )
    return parts or (Scale(Fraction(0)),)


def unbiased_from_series(g, c: int, x: MultiIndex) -> float:
    """Estimator value at sample point x from the Taylor coefficients of g."""
    return float(sum(float(scale) for scale in unbiased_parts(g, c, x)))


def unbiased_exact(g, c: int, x: MultiIndex) -> Fraction | None:
    """Exact rational estimate when no irrational radical survives, else None."""
    total = Fraction(0)
    for scale in unbiased_parts(g, c, x):
        if not scale.is_rational:
            return None
        total += scale.as_fraction()
    return total


# ---------------------------------------------------------------------------
# Estimator series for the pooled-testing models
# ---------------------------------------------------------------------------


def estimator_series_one(
    k: int,
    c: int,
    order: int,
    specificity: Number = 1,
    sensitivity: Number = 1,
) -> GTerms:
    """Expansion of g for the one-disease inverse-binomial target q = (1-p).

    Perfect test: g(v) = (1 - v)^(1/k - c).  With misclassification the
    target is ((sens - v)/nu)^(1/k) / (1 - v)^c where nu = spec + sens - 1,
    and the irrational (sens/nu)^(1/k) multiplier is carried in the scale.
    """
    xi = Fraction(1, k)
    if specificity == 1 and sensitivity == 1:
        return (expand_affine_power(AffinePowerSpec(Fraction(1), (Fraction(-1),), xi - c), order),)
    positive_nu(specificity, sensitivity)
    spec_, sens = as_fraction(specificity), as_fraction(sensitivity)
    numerator = expand_affine_power(AffinePowerSpec(sens, (Fraction(-1),), xi), order)
    denominator = expand_affine_power(
        AffinePowerSpec(Fraction(1), (Fraction(-1),), Fraction(-c)), order
    )
    return ((numerator * denominator) * Scale(Fraction(1), spec_ + sens - 1, -xi),)


def estimator_series_two(
    k: int,
    c: int,
    order: int,
    component: str,
    misclass=None,
) -> GTerms:
    """Expansion of g for one component of the two-disease prevalence vector.

    component is one of "00", "10", "01" (the "11" estimate is the simplex
    complement and needs no series).  `misclass` is an optional
    column-stochastic misclassification model from :mod:`gtseq.model`.
    """
    if component not in ("00", "10", "01"):
        raise ValueError(f"component must be one of 00/10/01, got {component!r}")
    xi = Fraction(1, k)
    forms = two_disease_radicand_forms(misclass)
    stop = (Fraction(1), (Fraction(-1),) * 3)  # mu0 = 1 - sum(mu), the stopping-class probability

    def power_over_denominator(name: str) -> ScaledSeries:
        if forms[name] == stop:
            # Radicand equals the stopping-class probability: single power.
            return expand_affine_power(AffinePowerSpec(*stop, xi - c), order)
        top = expand_affine_power(AffinePowerSpec(*forms[name], xi), order)
        return top * expand_affine_power(AffinePowerSpec(*stop, Fraction(-c)), order)

    g00 = power_over_denominator("00")
    if component == "00":
        return (g00,)
    return (power_over_denominator(component), -g00)


@dataclass(frozen=True)
class Representability:
    """Exact verdict on one target under one finite plan; see :func:`poly_representability`."""

    representable: bool
    estimator: dict[Point, Fraction] | None  # one exact value per boundary point
    certificate: Fraction  # the target's theta^certificate_degree coefficient, a0^xi left out
    certificate_degree: int
    rank: int
    rank_deficient: bool


def poly_representability(plan: SamplingPlan, target: AffinePowerSpec) -> Representability:
    """Decide exactly whether some estimator under a finite 2-d plan is unbiased for `target`.

    E_theta f = sum_b f(b) w_b theta^x (1-theta)^y, every w_b from one
    :func:`boundary_weights` walk, has degree <= D, the largest boundary total,
    so a nonzero theta^(D+1) coefficient of the target certifies that no
    unbiased estimator exists.  Otherwise the target is a polynomial, and
    Gauss-Jordan elimination on monomial coefficients solves for f (free
    values set to 0) or finds the target outside the span.  An open plan
    (some walk never stops) raises PlanError, and an irrational constant
    target raises ValueError.
    """
    if not plan.finite or plan.dim != 2 or len(target.linear) != 1:
        raise PlanError("representability is decided for finite 2-d plans and one-variable targets")
    weights = boundary_weights(plan)
    boundary = list(weights)
    n, degree = len(boundary), max(map(sum, boundary))
    expansion = expand_affine_power(target, degree + 1)
    certificate = expansion.series.coeff((degree + 1,))
    # Row d: the theta^d coefficients of each w_b theta^x (1-theta)^y, then of the target
    # (left at 0 when the certificate has decided already).
    scale = expansion.scale.as_fraction() if certificate == 0 else 0
    rows = [[Fraction(0)] * n + [scale * expansion.series.coeff((d,))] for d in range(degree + 1)]
    for j, ((x, y), weight) in enumerate(weights.items()):
        for i in range(y + 1):
            rows[x + i][j] = Fraction((-1) ** i * weight * math.comb(y, i))
    pivots: list[int] = []
    for col in range(n):
        top = next((i for i in range(len(pivots), len(rows)) if rows[i][col] != 0), None)
        if top is None:
            continue
        pivot = [v / rows[top][col] for v in rows[top]]
        rows[top], rows[len(pivots)] = rows[len(pivots)], pivot
        for i, row in enumerate(rows):
            if row is not pivot and row[col] != 0:
                # Only the pivot row's nonzeros cost Fraction arithmetic: O(n^2) when triangular.
                rows[i] = [a - row[col] * b if b else a for a, b in zip(row, pivot)]
        pivots.append(col)
    rank = len(pivots)
    solved = certificate == 0 and all(row[n] == 0 for row in rows[rank:])
    estimator = dict.fromkeys(boundary, Fraction(0))
    estimator.update((boundary[col], row[n]) for row, col in zip(rows, pivots))
    return Representability(
        solved, estimator if solved else None, certificate, degree + 1, rank, rank < n
    )
