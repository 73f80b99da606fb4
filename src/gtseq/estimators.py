"""Closed-form unbiased estimators, MLE baselines, and the properness scanner.

:func:`evaluate` is the single dispatch over :class:`EstimatorId`: every
mode (bench, estimate, scan, verify) evaluates an estimator through it, or
through :func:`evaluate_table`, its float batch form with one kernel each.

The closed forms are implemented in their algebraically cancelled shape:
the leading factor of each product equals the reciprocal of its prefactor,
so the cancelled products below are defined everywhere (including the
removable 0/0 at k = 1, c = 1) and evaluate exactly over rationals.

The misclassified estimators need one Taylor coefficient per sample point.
For two traits it is read in integer arithmetic from the polynomial
prod_j (1 + p_j s)^(z_j) against prefix rows that do not depend on the
sample (:class:`_SeriesRows`): each component's value is an integer
numerator over the denominator of its radical group, the components that
the radical merge adds, so the merge adds integer numerators and divides
once per output float.  Every two-trait value comes from
:func:`_two_misclass_walk` over lexicographically ascending points.  A
component whose nonzero slopes are all equal depends on a point only
through its total and one count, and reads its numerator from a dict keyed
by that pair; any other steps its polynomials between points, one factor
per point of the scanner's lattice.  For one
trait the coefficients obey a three-term recurrence, so
:func:`_one_misclass_row` yields every y = 0, 1, 2, ... in one integer pass
(:func:`unbiased_one_misclass_row`), which bench, verify and the scanner
walk once per grid point.  Both kernels are exact at the error-free model,
so the scanner walks the perfect-test estimators through them too.
verify reads the one-trait perfect-test floats from :func:`unbiased_one_row`,
the UB_ONE_PERFECT table's values in pure Python.
The truncated-series constructor in :mod:`gtseq.series` is the paper's
construction, not used at run time: it is the independent oracle that the
test suite checks every estimator here against.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import DomainError
from .model import MisclassModel, positive_nu, two_disease_radicand_forms
# Not called since mle_two_table inverts every sample at once; perfbench/spans.py traces this name.
from .model import invert_cell_probs  # noqa: F401
from .numerics import Number, Scale, as_fraction, float_quotient
from .plans import iter_counts

# Not called since the coefficient kernel replaced them; perfbench/spans.py traces these
# names.  Looking one up loads gtseq.series, which no mode runs (PEP 562).
_SERIES_NAMES = ("estimator_series_two", "unbiased_exact", "unbiased_from_series")


def __getattr__(name: str):
    if name in _SERIES_NAMES:
        from . import series

        return getattr(series, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class EstimatorId(enum.Enum):
    UB_ONE_PERFECT = "UB_ONE_PERFECT"
    UB_ONE_MISCLASS = "UB_ONE_MISCLASS"
    UB_TWO_PERFECT = "UB_TWO_PERFECT"
    UB_TWO_MISCLASS_SERIES = "UB_TWO_MISCLASS_SERIES"
    MLE_ONE = "MLE_ONE"
    MLE_TWO = "MLE_TWO"


FAMILY = {
    EstimatorId.UB_ONE_PERFECT: "one",
    EstimatorId.UB_ONE_MISCLASS: "one",
    EstimatorId.MLE_ONE: "one",
    EstimatorId.UB_TWO_PERFECT: "two",
    EstimatorId.UB_TWO_MISCLASS_SERIES: "two",
    EstimatorId.MLE_TWO: "two",
}
TWO_COMPONENTS = ("p00", "p10", "p01", "p11")


class ViolationKind(enum.Enum):
    BELOW_ZERO = "below 0"
    ABOVE_ONE = "above 1"
    SIMPLEX_SUM = "simplex sum > 1"


@dataclass(frozen=True)
class PropernessViolation:
    """One estimator value falling outside the parameter space."""

    sample: tuple[int, ...]
    component: str
    value: float
    kind: ViolationKind

    def __post_init__(self):
        # A NaN value passes neither comparison, so it raises too.
        if not (self.value <= 0 if self.kind is ViolationKind.BELOW_ZERO else self.value >= 1):
            raise ValueError(f"value {self.value} does not violate bound {self.kind.value}")


# ---------------------------------------------------------------------------
# Pool-factor products
# ---------------------------------------------------------------------------


def _descending_pool_product(k: int, c: int, offset: int, count: int) -> Fraction:
    """prod_{j<count} (m_j - 1)/m_j, m_j = k(c + offset + j), as one exact quotient; empty is 1."""
    first, stop = k * (c + offset), k * (c + offset + count)
    return Fraction(math.prod(range(first - 1, stop - 1, k)), math.prod(range(first, stop, k)))


# Entries one pool-factor row may hold: three float64 rows this long take 384 MiB.
POOL_ROW_LIMIT = 2**24


def _pool_factor_rows(k: int, c: int, total: int) -> tuple[np.ndarray, np.ndarray]:
    """head[m] = prod_{j<m} f_j, tail[m] = prod_{1<=j<m} f_j, f_j = 1 - 1/(k(c + j)), m <= total.

    1 - head[y] is :func:`unbiased_one` in floats.  For a >= 1 the product over
    a <= j < a + m is tail[a + m]/tail[a]; tail skips f_0, which is 0 at k = c = 1.
    """
    import numpy as np
    if total >= POOL_ROW_LIMIT:
        raise DomainError(
            f"sample total {total} at k={k}, c={c} exceeds the pool-factor row limit {POOL_ROW_LIMIT}"
        )
    factors = 1.0 - 1.0 / (k * (c + np.arange(total)))
    head, tail = np.ones(total + 1), np.ones(total + 1)
    np.cumprod(factors, out=head[1:])
    np.cumprod(factors[1:], out=tail[2:])
    return head, tail


# ---------------------------------------------------------------------------
# One disease
# ---------------------------------------------------------------------------


def unbiased_one(y: int, c: int, k: int) -> Fraction:
    """Unbiased prevalence estimate for a perfect test after y positive pools.

    1 - prod_{i=0}^{y-1} (1 - 1/(k(c+i))), exact.  Values lie in [0, 1); the
    single boundary case k = c = 1 attains exactly 1 for y >= 1.
    """
    if y < 0 or c < 1 or k < 1:
        raise ValueError("require y >= 0, c >= 1, k >= 1")
    return 1 - _descending_pool_product(k, c, 0, y)


def _integer_slopes(b: tuple[Fraction, ...]) -> tuple[tuple[int, ...], int]:
    """(p, q) with b = p/q, q the common denominator of the slopes b."""
    q = math.lcm(*(v.denominator for v in b))
    return tuple(v.numerator * (q // v.denominator) for v in b), q


def _affine_power_step(e: list[int], p: int) -> list[int]:
    """e(s) (1 + p s): one more factor of prod_j (1 + p_j s)^(x_j), O(len(e)) integer steps."""
    if not p:
        return e
    return [a + p * b for a, b in zip(e + [0], [0] + e)]


def _affine_power(p: tuple[int, ...], x: tuple[int, ...]) -> list[int]:
    """The s^d coefficients of prod_j (1 + p_j s)^(x_j), built one factor at a time."""
    e = [1]
    for pj, xj in zip(p, x):
        e = reduce(_affine_power_step, itertools.repeat(pj, xj), e)
    return e


def _binomial_powers(v: int, m: int) -> list[int]:
    """The s^d coefficients C(m, d) v^d of (1 + v s)^m, d = 0, ..., m."""
    e = [1]
    for d in range(1, m + 1):
        e.append(e[-1] * (m + 1 - d) * v // d)  # exact: d divides C(m, d - 1) (m + 1 - d)
    return e


class _SeriesRows:
    """Integer rows that give component i's series value as N_i/R_i[n] at any total n.

    For slopes b_i = p_i/q_i, the value sum_d (1/k)_d (c)_(n-d) E_d /
    (q_i^d (c)_n) of a point whose polynomial prod_j (1 + p_ij s)^(x_j) has
    coefficients E, n = |x|, is N_i/R_i[n] with

        N_i = sum_d E_d F[d] R_i[n - d],    R_i[m] = (c)_m (k q_i)^m,

    and F[d] = prod_(j<d) (1 - jk) (so (1/k)_d = F[d]/k^d).  Components given
    the same q share one row R.  None of the rows depends on n: each is a
    prefix row, extended one integer step per total the first time a larger
    n is read, so memory stays O(largest n) and no division happens here.
    """

    def __init__(self, c: int, k: int, q: tuple[int, ...]):
        self.c, self.k = c, k
        shared = {v: [1] for v in q}
        self.kq = tuple(k * v for v in q)
        self.r = tuple(shared[v] for v in q)
        self._steps = tuple((k * v, r) for v, r in shared.items())
        self.f = [1]

    def numerator(self, i: int, e: list[int], n: int) -> int:
        """N_i for component i's coefficients e at total n >= len(e) - 1; R_i[n] is self.r[i][n].

        The sum over d runs by Horner's rule up to the top degree t = len(e) - 1:
        R_i[n - d] = R_i[n - t] prod_(n-t <= m < n-d) k q_i (c + m), so each
        degree costs one small factor and one product E_d F[d], and R_i is
        read once.
        """
        c = self.c
        for m in range(len(self.f) - 1, n):
            rise = c + m
            self.f.append(self.f[m] * (1 - m * self.k))
            for kq, r in self._steps:
                r.append(r[m] * (kq * rise))
        kq = self.kq[i]
        acc = 0
        # The step to degree d is k q_i (c + n - d) = R_i[n - d + 1]/R_i[n - d].
        for a, f_d, step in zip(e, self.f, range(kq * (c + n), 0, -kq)):
            acc = acc * step + a * f_d
        return acc * self.r[i][n + 1 - len(e)]


def _series_coefficient(b: tuple[Fraction, ...], x: tuple[int, ...], c: int, k: int) -> Fraction:
    """The series estimator's value at sample point x for a radicand a0 (1 + b.mu), less a0^(1/k).

    That is prod(x!) (c-1)!/(c+n-1)!, n = |x|, times the coefficient of mu^x
    in (1 + b.mu)^(1/k) (1 - sum(mu))^(-c), which equals sum_d (1/k)_d
    (c)_(n-d) e_d / (c)_n, with (1/k)_d a falling and (c)_m a rising
    factorial, and e_d the t^d coefficient of prod_j (1 + b_j t)^(x_j).  Over
    b = p/q with common denominator q, E_d = e_d q^d are the s^d coefficients
    of prod_j (1 + p_j s)^(x_j) (:func:`_affine_power`), and the value is
    N/R[n] of :class:`_SeriesRows`, the kernel the two-trait estimator and
    the scanner's lattice walk read as integers.
    """
    p, q = _integer_slopes(b)
    rows, n = _SeriesRows(c, k, (q,)), sum(x)
    return Fraction(rows.numerator(0, _affine_power(p, x), n), rows.r[0][n])


def _one_misclass_row(c: int, k: int, sens: Fraction) -> Iterator[tuple[int, int]]:
    """(A_n, den_n) for n = 0, 1, 2, ...: S(n) = A_n/den_n, the coefficient of the radicand 1 - v/sens.

    S(n) is :func:`_series_coefficient` at b = (-1/sens,), x = (n,).  Its
    product g = (1 + bv)^(1/k) (1 - v)^(-c) is D-finite:
    (1 + bv)(1 - v) g' = (b(1 - v)/k + c(1 + bv)) g.  Over b = B/Q with
    B = -sens.denominator, Q = sens.numerator, the scaled coefficients obey
    A_(n+1) = (B + kcQ - k(B - Q)n) A_n + B(kc - 1 + k(n - 1)) kQn A_(n-1) and
    den_(n+1) = den_n kQ(c + n), from A_(-1) = 0, A_0 = den_0 = 1: one integer
    step per sample and no division, so c = 1 and k = 1 need no special case.
    """
    big_b, q = -sens.denominator, sens.numerator
    kq = k * q
    prev, a, den = 0, 1, 1
    for n in itertools.count():
        yield a, den
        prev, a = a, (
            (big_b + c * kq - k * (big_b - q) * n) * a
            + big_b * (k * c - 1 + k * (n - 1)) * kq * n * prev
        )
        den *= kq * (c + n)


def _one_misclass_radical(
    k: int, specificity: Number, sensitivity: Number
) -> tuple[Fraction, Scale]:
    """(sens, (sens/nu)^(1/k)) exactly; raises on the call unless nu > 0 as passed."""
    positive_nu(specificity, sensitivity)
    spec_, sens = as_fraction(specificity), as_fraction(sensitivity)
    return sens, Scale(1, sens / (spec_ + sens - 1), Fraction(1, k))


def _one_misclass_values(radical: Scale, exact: bool) -> Callable[[int, int], Number]:
    """The estimate 1 - radical * a/den at a row entry (a, den), rounded at most once.

    A radical folded to C gives (C.den den - C.num a)/(C.den den): a Fraction
    when `exact`, else one correctly rounded int/int true division, with no
    gcd.  Otherwise C = 1 and the value is the float 1 + (-a/den) B^(1/k).  A
    float past the range is inf with the sign of -a (:func:`float_quotient`),
    which is what `estimate` prints for the exact value too.
    """
    if not radical.is_rational:
        r = float(radical)
        return lambda a, den: 1.0 + float_quotient(-a, den) * r
    num, scale = radical.coeff.numerator, radical.coeff.denominator
    quotient = Fraction if exact else float_quotient
    return lambda a, den: quotient(scale * den - num * a, scale * den)


def unbiased_one_misclass_parts(
    y: int, c: int, k: int, specificity: Number, sensitivity: Number
) -> tuple[Fraction, Scale]:
    """Exact decomposition p_hat = constant + radical of the misclassified estimator.

    The radical part is -(sens/nu)^(1/k) * S(y) carried symbolically, so sign
    and bound checks can be done exactly by comparing k-th powers.  S(y) is
    the series coefficient of the radicand 1 - v/sens at v^y.
    """
    if y < 0 or c < 1 or k < 1:
        raise ValueError("require y >= 0, c >= 1, k >= 1")
    sens, radical = _one_misclass_radical(k, specificity, sensitivity)
    a, den = next(itertools.islice(_one_misclass_row(c, k, sens), y, None))
    return Fraction(1), radical * Fraction(-a, den)


def unbiased_one_misclass_row(
    c: int, k: int, specificity: Number, sensitivity: Number
) -> Iterator[Number]:
    """:func:`unbiased_one_misclass` at y = 0, 1, 2, ..., the same values, one recurrence step each.

    Raises on the call, not on the first value, unless nu > 0, c >= 1 and k >= 1.
    """
    if c < 1 or k < 1:
        raise ValueError("require c >= 1, k >= 1")
    sens, radical = _one_misclass_radical(k, specificity, sensitivity)
    value = _one_misclass_values(radical, exact=True)
    return itertools.starmap(value, _one_misclass_row(c, k, sens))


def unbiased_one_row(c: int, k: int) -> Iterator[float]:
    """:func:`unbiased_one` at y = 0, 1, 2, ... in floats, with no numpy.

    1 - head with head *= 1 - 1/(k(c + y)): the products of
    :func:`_pool_factor_rows`' cumprod, so each value equals the
    UB_ONE_PERFECT column of :func:`evaluate_table` bit for bit.  Raises on
    the call, not on the first value, unless c >= 1 and k >= 1.
    """
    if c < 1 or k < 1:
        raise ValueError("require c >= 1, k >= 1")

    def row() -> Iterator[float]:
        head = 1.0
        for m in itertools.count(k * c, k):
            yield 1.0 - head
            head *= 1.0 - 1.0 / m

    return row()


def unbiased_one_misclass(
    y: int, c: int, k: int, specificity: Number, sensitivity: Number
) -> Number:
    """Unbiased prevalence estimate under known misclassification.

    Reduces exactly to :func:`unbiased_one` at specificity = sensitivity = 1.
    Improper whenever the test errs: negative at y = 0 for specificity < 1,
    and unbounded in y for specificity = 1, sensitivity < 1.  Returns an
    exact Fraction when the radical collapses (specificity = 1), else float,
    inf of its sign past the float range.
    """
    if y < 0 or c < 1 or k < 1:
        raise ValueError("require y >= 0, c >= 1, k >= 1")
    sens, radical = _one_misclass_radical(k, specificity, sensitivity)
    a, den = next(itertools.islice(_one_misclass_row(c, k, sens), y, None))
    return _one_misclass_values(radical, exact=True)(a, den)


# Values per Python float list in _float_roots.
ROOT_CHUNK = 4096


def _float_roots(values: np.ndarray, k: int) -> None:
    """In-place k-th roots of a 1-D array by Python's float pow; np.power can round differently."""
    power = 1.0 / k
    for start in range(0, values.size, ROOT_CHUNK):
        chunk = values[start:start + ROOT_CHUNK]
        chunk[:] = [r**power for r in chunk.tolist()]


def mle_one_table(
    samples: np.ndarray, c: int, k: int, specificity: Number = 1, sensitivity: Number = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Plug-in MLE baseline over an (n, 1) sample array: invert the map at v_hat = y/(c+y).

    Returns (n, 1) float estimates and clamp flags.  A radicand (sens - v_hat)/nu
    <= 0 gives 1; an estimate outside [0, 1] is clamped to it; both flag the row.
    """
    import numpy as np
    nu = float(positive_nu(specificity, sensitivity))
    y = np.asarray(samples, dtype=np.int64)[:, 0]
    radicands = (float(sensitivity) - y / (c + y)) / nu
    nonpositive = radicands <= 0
    _float_roots(np.maximum(radicands, 0, out=radicands), k)
    values = 1 - radicands
    clamped = nonpositive | (values < 0) | (values > 1)
    return np.clip(values, 0.0, 1.0, out=values)[:, None], clamped


class MleOneResult(NamedTuple):
    p_hat: float
    clamped: bool


def mle_one(
    y: int, c: int, k: int, specificity: Number = 1, sensitivity: Number = 1
) -> MleOneResult:
    """Plug-in MLE baseline at one sample: a one-row :func:`evaluate_table`, with its checks."""
    import numpy as np
    values, clamped = evaluate_table(
        EstimatorId.MLE_ONE, np.array([[y]]), c, k, specificity=specificity, sensitivity=sensitivity
    )
    return MleOneResult(values.item(), bool(clamped[0]))


# ---------------------------------------------------------------------------
# Two diseases
# ---------------------------------------------------------------------------


def unbiased_two(
    z: tuple[int, int, int], c: int, k: int
) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """Unbiased estimate of (p00, p10, p01, p11) for two traits, perfect tests.

    Components sum to one exactly (the last is the simplex complement).
    Improper: at z = (1, 1, 0) the three leading components exceed one in
    total for every k > 1.
    """
    z10, z01, z11 = z
    if min(z) < 0 or c < 1 or k < 1:
        raise ValueError("require z >= 0 componentwise, c >= 1, k >= 1")
    total = z10 + z01 + z11
    p00 = _descending_pool_product(k, c, 0, total)
    p10 = _descending_pool_product(k, c, z10, z01 + z11) - p00
    p01 = _descending_pool_product(k, c, z01, z10 + z11) - p00
    return (p00, p10, p01, 1 - p00 - p10 - p01)


class _TwoMisclassForms(NamedTuple):
    """The two-trait series estimator's per-model constants, components 00/10/01 in order.

    Component i's series value at z is a0_i^(1/k) S_i(z), S_i the
    :func:`_series_coefficient` of its slopes, and a0_i^(1/k) folds to coeff
    base^exponent (:class:`Scale`).  `merge` lists, for p00, p10 and p01,
    its terms in sorted (base, exponent) order: the term's rational factor as
    (component, integer weight) pairs, sum_i a_i S_i over the one common
    denominator `weight_den`, and the radical float(base)**float(exponent),
    None where it is rational.  float(Scale(q, base, exponent)) of a folded
    key is float(q) times that radical, so every float keeps its bits.

    A radical group is the set of components that one merge term adds before
    rounding.  Each component's slopes are p_i/q_i over its group's common
    denominator q_i, so S_i = N_i/R_i[n] of :class:`_SeriesRows` and the
    members of a term share one denominator.  `slope` is v where every nonzero
    p_ij equals v, so that S_i depends on z only through (|z|, the count m
    over `sloped[i]`), with polynomial (1 + v s)^m; it is None where a
    component has two or more distinct slopes.
    """

    p: tuple[tuple[int, ...], ...]
    q: tuple[int, ...]
    slope: tuple[int | None, ...]
    sloped: tuple[tuple[int, ...], ...]
    merge: tuple[tuple[tuple[tuple[tuple[int, int], ...], float | None], ...], ...]
    weight_den: int


@lru_cache(maxsize=64)
def _two_misclass_forms(k: int, misclass: MisclassModel | None) -> _TwoMisclassForms:
    """The radicands' slopes and the radical merge of p00 = S00, p10 = S10 - S00, p01 = S01 - S00."""
    forms = two_disease_radicand_forms(misclass)
    scales = [Scale(1, a0, Fraction(1, k)) for a0, _ in forms.values()]
    slopes = [tuple(a / a0 for a in linear) for a0, linear in forms.values()]
    weight_den = math.lcm(*(scale.coeff.denominator for scale in scales))
    merge = []
    group = [{i} for i in range(3)]
    for signs in ((1, 0, 0), (-1, 1, 0), (-1, 0, 1)):
        terms: dict[tuple[Fraction, Fraction], list[tuple[int, int]]] = {}
        for i, (sign, scale) in enumerate(zip(signs, scales)):
            if sign:
                terms.setdefault(scale.radical_key(), []).append((i, sign * int(scale.coeff * weight_den)))
        for pairs in terms.values():
            members = set().union(*(group[i] for i, _ in pairs))
            for i in members:
                group[i] = members
        merge.append(tuple(
            (tuple(pairs), None if base == 1 else float(base) ** float(exponent))
            for (base, exponent), pairs in sorted(terms.items())
        ))
    q = tuple(math.lcm(*(v.denominator for j in group[i] for v in slopes[j])) for i in range(3))
    p = tuple(tuple(int(v * q_i) for v in b) for b, q_i in zip(slopes, q))
    distinct = [set(row) - {0} for row in p]
    return _TwoMisclassForms(
        p, q, tuple(max(d, default=0) if len(d) <= 1 else None for d in distinct),
        tuple(tuple(j for j, v in enumerate(row) if v) for row in p),
        tuple(merge), weight_den,
    )


def _two_misclass_values(
    forms: _TwoMisclassForms, numerators: list[int], scales: list[int]
) -> tuple[Number, Number, Number, Number]:
    """(p00, p10, p01, p11) from the series values N_i/R_i, merged by radical; scales[i] = W R_i.

    A term's rational factor is sum_i a_i N_i / (W R), R its members' shared
    denominator: it is zero-tested on that integer numerator and rounded by
    one int/int true division, which rounds correctly, so it is
    float(Fraction(...)) bit for bit.  A value is an exact Fraction when every
    surviving (nonzero) term's radical is rational (at most one term is),
    else a float summed in sorted radical order, bit for bit as
    :func:`gtseq.series.unbiased_from_series`.  A value whose float is not
    finite raises OverflowError: terms past the range can cancel to NaN.
    """
    values = []
    for terms in forms.merge:
        value, rational, irrational = 0, None, False
        for pairs, radical in terms:
            numerator = 0
            for i, a in pairs:
                numerator += a * numerators[i]
            if not numerator:
                continue
            scale = scales[pairs[0][0]]
            if radical is None:
                rational = numerator, scale
                value += numerator / scale
            else:
                irrational = True
                value += numerator / scale * radical
        values.append(value if irrational else Fraction(*rational) if rational else Fraction(0))
    p00, p10, p01 = values
    # Every term was rounded on the way, so a component past the range raised or made p11
    # inf or NaN; a Fraction p11 past it raises when isfinite converts it.
    if not math.isfinite(p11 := 1 - p00 - p10 - p01):
        raise OverflowError(p11)
    return p00, p10, p01, p11


def unbiased_two_misclass(
    z: tuple[int, int, int],
    c: int,
    k: int,
    misclass: MisclassModel | None,
) -> tuple[Number, Number, Number, Number]:
    """Series-constructed unbiased estimate of (p00, p10, p01, p11) under misclassification.

    Requires a non-singular contrast matrix.  p00 is the series value of its
    own radicand; p10 and p01 are that of theirs less p00's.  With the
    identity misclassification model this reduces exactly to
    :func:`unbiased_two`.  Values are exact Fractions when no irrational
    radical survives (e.g. the identity case), floats otherwise.  A value
    past the float range raises DomainError.
    """
    return next(_two_misclass_walk(c, k, misclass, [tuple(int(v) for v in z)]))[1]


def _two_misclass_walk(
    c: int, k: int, misclass: MisclassModel | None, points: Iterable[Sequence[int]]
) -> Iterator[tuple[Sequence[int], tuple[Number, Number, Number, Number]]]:
    """(z, :func:`unbiased_two_misclass` at z) for each z of `points`, lazily, in their order.

    A component with one distinct nonzero slope v (`_TwoMisclassForms.slope`)
    reads its numerator sum_d C(m, d) v^d F[d] R_i[n - d] from a dict keyed
    by (n, m), n = |z| and m its count over the sloped axes, filled the first
    time a key is visited.  Each other component keeps its live polynomials:
    live[a] is prod_(j<=a) (1 + p_j s)^(z_j), one per axis.  With a the
    first axis where z differs from its predecessor (the origin before the
    first point), live[a] gains z_a - prev_a factors and each later axis is
    rebuilt from the one before: one factor per point in ``iter_counts``
    order, none at a repeat.  A negative count, from a negative or descending
    point, raises ValueError; a value past the float range raises DomainError
    naming the point.  One :class:`_SeriesRows` serves the whole walk, so
    memory stays O(largest total) plus one integer per distinct key, and each
    point costs O(total) integer steps per stepped component and one division
    per output float.
    """
    if c < 1 or k < 1:
        raise ValueError("require z >= 0 componentwise, c >= 1, k >= 1")
    forms = _two_misclass_forms(k, misclass)
    rows = _SeriesRows(c, k, forms.q)
    numerator = rows.numerator
    stepped = [(i, p, [[1]] * 3) for i, (p, v) in enumerate(zip(forms.p, forms.slope)) if v is None]
    keyed = [(i, v, axes, {}) for i, (v, axes) in enumerate(zip(forms.slope, forms.sloped)) if v is not None]
    numerators, scales = [0] * 3, {}
    for prev, z in itertools.pairwise(itertools.chain([(0, 0, 0)], points)):
        axis = next((j for j in range(3) if z[j] != prev[j]), 2)
        counts = (z[axis] - prev[axis], *z[axis + 1:])
        if min(counts) < 0:
            raise ValueError(f"require z >= 0 componentwise, c >= 1, k >= 1, ascending: {z}")
        n = sum(z)
        for i, p, polys in stepped:
            e = polys[axis]
            for j, count in enumerate(counts, axis):
                for _ in range(count):
                    e = _affine_power_step(e, p[j])
                polys[j] = e
            numerators[i] = numerator(i, e, n)
        for i, v, axes, memo in keyed:
            key = (n, sum(map(z.__getitem__, axes)))
            if (value := memo.get(key)) is None:
                value = memo[key] = numerator(i, _binomial_powers(v, key[1]), n)
            numerators[i] = value
        if (scale := scales.get(n)) is None:
            scale = scales[n] = [forms.weight_den * r[n] for r in rows.r]
        try:
            values = _two_misclass_values(forms, numerators, scale)
        except OverflowError:
            raise DomainError(f"the estimate at z = {tuple(z)} is past the float range") from None
        yield z, values


def mle_two_table(
    samples: np.ndarray, c: int, k: int, misclass: MisclassModel | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Plug-in MLE baseline for two traits over an (n, 3) sample array.

    Returns float values (p00, p10, p01, p11), one row per sample, and clamp
    flags.  Each row inverts v_hat = z/(c + sum(z)) as
    :func:`gtseq.model.invert_cell_probs` does, except that a negative
    radicand (only under misclassification) is clipped to 0 and flags the
    row, as in :func:`mle_one_table`.  The row is then clamped to [0, 1] and
    renormalized by the left-to-right sum of its components.  It writes into
    one preallocated column-major (n, 4) table with `out=` arithmetic, each
    radicand its intercept plus a_j (z_j/total) in j order, as
    :func:`gtseq.model.two_disease_radicands` sums it.
    """
    import numpy as np
    samples = np.asarray(samples, dtype=np.int64)
    total = c + samples.sum(axis=1)
    values, scratch = np.empty((len(samples), 4), order="F"), np.empty(len(samples))
    forms = (misclass or MisclassModel.identity()).float_radicand_forms.values()
    values[:, :3] = [intercept for intercept, _ in forms]
    for j, z in enumerate(samples.T):
        cell = np.divide(z, total, out=values[:, 3])
        for radicand, (_, linear) in zip(values.T, forms):  # columns p00, p10, p01
            radicand += np.multiply(linear[j], cell, out=scratch)
    negative = (values[:, :3] < 0).any(axis=1)
    # values[:, :3] is F-contiguous, so ravel("F") is a view and the roots land in place.
    _float_roots(np.maximum(values[:, :3], 0, out=values[:, :3]).ravel("F"), k)
    values[:, 1:3] -= values[:, :1]
    values[:, 3] = 1.0 - values[:, 0] - values[:, 1] - values[:, 2]
    clamped = negative | ((values < 0) | (values > 1)).any(axis=1)
    np.clip(values, 0.0, 1.0, out=values)
    values /= (((values[:, 0] + values[:, 1]) + values[:, 2]) + values[:, 3])[:, None]
    return values, clamped


class MleTwoResult(NamedTuple):
    p: tuple[float, float, float, float]
    clamped: bool


def mle_two(
    z: tuple[int, int, int], c: int, k: int, misclass: MisclassModel | None = None
) -> MleTwoResult:
    """Plug-in MLE baseline for two traits at one sample: a one-row :func:`evaluate_table`."""
    import numpy as np
    values, clamped = evaluate_table(EstimatorId.MLE_TWO, np.array([z]), c, k, misclass=misclass)
    return MleTwoResult(tuple(values[0].tolist()), bool(clamped[0]))


# ---------------------------------------------------------------------------
# Evaluation: the one dispatch over EstimatorId
# ---------------------------------------------------------------------------


def evaluate(
    estimator: EstimatorId,
    x: tuple[int, ...],
    c: int,
    k: int,
    *,
    specificity: Number = 1,
    sensitivity: Number = 1,
    misclass: MisclassModel | None = None,
) -> tuple[tuple[Number, ...], bool]:
    """(values, clamped) of `estimator` at sample point x.

    x is (y,) for one trait and (z10, z01, z11) for two.  values is (p,) or
    (p00, p10, p01, p11), as exact as the estimator returns them; clamped is
    True only where an MLE baseline had to clamp.  The misclassification
    parameters are read by the estimators that take them and ignored by the
    others.
    """
    if estimator is EstimatorId.UB_ONE_PERFECT:
        return (unbiased_one(x[0], c, k),), False
    if estimator is EstimatorId.UB_ONE_MISCLASS:
        return (unbiased_one_misclass(x[0], c, k, specificity, sensitivity),), False
    if estimator is EstimatorId.MLE_ONE:
        p_hat, clamped = mle_one(x[0], c, k, specificity, sensitivity)
        return (p_hat,), clamped
    if estimator is EstimatorId.UB_TWO_PERFECT:
        return unbiased_two(x, c, k), False
    if estimator is EstimatorId.UB_TWO_MISCLASS_SERIES:
        return unbiased_two_misclass(x, c, k, misclass), False
    if estimator is EstimatorId.MLE_TWO:
        return mle_two(x, c, k, misclass)
    raise ValueError(f"unknown estimator {estimator}")


def evaluate_table(
    estimator: EstimatorId, samples: np.ndarray, c: int, k: int, *, specificity: Number = 1,
    sensitivity: Number = 1, misclass: MisclassModel | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Float values (one row per sample, one column per component) and clamp flags.

    `samples` is an integer array with one sample point per row; negative counts,
    c < 1, k < 1 or a column count other than the family's (1 or 3) raise
    ValueError before any kernel runs.  The two perfect-test closed forms read
    one pool-factor row (O(max total) memory), UB_TWO_PERFECT into one column-major
    (n, 4) table, UB_ONE_MISCLASS one :func:`unbiased_one_misclass_row` up to the
    largest y, UB_TWO_MISCLASS_SERIES one :func:`_two_misclass_walk` over the sorted
    rows, and the MLEs are :func:`mle_one_table` and :func:`mle_two_table`.
    """
    import numpy as np
    samples = np.asarray(samples, dtype=np.int64)
    width = 1 if FAMILY.get(estimator) == "one" else 3
    if samples.ndim != 2 or samples.shape[1] != width or samples.min(initial=0) < 0 or c < 1 or k < 1:
        raise ValueError(f"require (n, {width}) samples >= 0, c >= 1, k >= 1")
    n = len(samples)
    if estimator is EstimatorId.UB_ONE_PERFECT:
        y = samples[:, 0]
        head, _ = _pool_factor_rows(k, c, int(y.max(initial=0)))
        return (1.0 - head[y])[:, None], np.zeros(n, dtype=bool)
    if estimator is EstimatorId.UB_TWO_PERFECT:
        totals = samples.sum(axis=1)
        head, tail = _pool_factor_rows(k, c, int(totals.max(initial=0)))
        values = np.empty((n, 4), order="F")
        v00, v10, v01, v11 = values.T
        # No index passes its row's total; mode="clip" writes in place where "raise" buffers.
        np.take(head, totals, out=v00, mode="clip")
        for v, z in zip((v10, v01), samples.T):
            # v = (tail[total]/tail[z] where z > 0, else v00) - v00; v11 holds tail[z] meanwhile.
            np.take(tail, totals, out=v, mode="clip")
            np.divide(v, np.take(tail, z, out=v11, mode="clip"), out=v)
            np.copyto(v, v00, where=z == 0)
            v -= v00
        v11[:] = 1.0 - v00 - v10 - v01
        return values, np.zeros(n, dtype=bool)
    if estimator is EstimatorId.UB_ONE_MISCLASS:
        y = samples[:, 0]
        sens, radical = _one_misclass_radical(k, specificity, sensitivity)
        row = itertools.islice(_one_misclass_row(c, k, sens), int(y.max(initial=0)) + 1)
        values = np.array(list(itertools.starmap(_one_misclass_values(radical, exact=False), row)))
        return values[y][:, None], np.zeros(n, dtype=bool)
    if estimator is EstimatorId.UB_TWO_MISCLASS_SERIES:
        order = np.lexsort(samples.T[::-1])
        walk = _two_misclass_walk(c, k, misclass, samples[order].tolist())
        values = np.reshape([[float(v) for v in vals] for _, vals in walk], (n, 4))
        return values[np.argsort(order)], np.zeros(n, dtype=bool)
    if estimator is EstimatorId.MLE_ONE:
        return mle_one_table(samples, c, k, specificity, sensitivity)
    if estimator is EstimatorId.MLE_TWO:
        return mle_two_table(samples, c, k, misclass)
    raise ValueError(f"unknown estimator {estimator}")


# ---------------------------------------------------------------------------
# Properness scanner
# ---------------------------------------------------------------------------


def _one_trait_violations(
    c: int, k: int, specificity: Number, sensitivity: Number, bound: int
) -> Iterator[list[PropernessViolation]]:
    """Bound checks of p_hat = 1 - (C a/den) B^(1/k) at y = 0, ..., bound, decided in integers.

    C B^(1/k), C > 0, is the radical of :func:`_one_misclass_radical` and
    (a, den) the row of :func:`_one_misclass_row`.  With e = 1 if the radical
    folded (B = 1), else k: p_hat > 1 iff a < 0, and p_hat < 0 iff
    (C.num a)^e B.num > (C.den den)^e B.den.  A reported value is the float of
    :func:`_one_misclass_values`, so `estimate` prints the same digits; one past
    the float range is reported as inf with the sign of -a.
    """
    # Passed as given: _one_misclass_radical judges nu before it converts them.
    sens, radical = _one_misclass_radical(k, specificity, sensitivity)
    coeff, base, e = radical.coeff, radical.base, radical.exponent.denominator
    value_at = _one_misclass_values(radical, exact=False)
    num_scale = coeff.numerator**e * base.numerator
    den_scale = coeff.denominator**e * base.denominator
    for y, (a, den) in zip(range(bound + 1), _one_misclass_row(c, k, sens)):
        if a < 0:
            kind = ViolationKind.ABOVE_ONE
        elif a**e * num_scale > den**e * den_scale:
            kind = ViolationKind.BELOW_ZERO
        else:
            yield []
            continue
        yield [PropernessViolation((y,), "p", value_at(a, den), kind)]


def _simplex_violations(
    z: tuple[int, int, int], values: tuple[Number, ...]
) -> list[PropernessViolation]:
    """Bound and simplex-sum violations of a two-disease estimate, compared as given."""
    out = []
    for name, value in zip(TWO_COMPONENTS, values):
        if value < 0:
            out.append(PropernessViolation(z, name, float(value), ViolationKind.BELOW_ZERO))
        elif value > 1:
            out.append(PropernessViolation(z, name, float(value), ViolationKind.ABOVE_ONE))
    lead = values[0] + values[1] + values[2]
    if lead > 1:
        out.append(PropernessViolation(z, "p00+p10+p01", float(lead), ViolationKind.SIMPLEX_SUM))
    return out


def scan_properness(
    estimator: EstimatorId,
    c: int,
    k: int,
    *,
    specificity: Number = 1,
    sensitivity: Number = 1,
    misclass: MisclassModel | None = None,
    bound: int = 100,
    max_violations: int | None = None,
) -> list[PropernessViolation]:
    """Enumerate sample points with total count <= bound and record violations.

    Enumeration is lexicographic, so reports are reproducible.  Each trait
    family takes one lazy walk through its misclassified kernel, which is
    exact at the error-free model: the one-trait recurrence row
    (:func:`_one_trait_violations`) or the two-trait lattice walk
    (:func:`_two_misclass_walk`).  UB_ONE_PERFECT is read at specificity =
    sensitivity = 1 and UB_TWO_PERFECT at the identity model, whatever error
    rates they are passed.  Bound checks are exact except where an
    irrational radical survives (UB_TWO_MISCLASS_SERIES under a genuine
    misclassification model), whose values are compared in floats.
    `max_violations` caps the report at the first that many violations in
    scan order and stops the scan there, which keeps scans of divergent
    estimators affordable; a two-trait point can hold several violations,
    so its last ones may be cut.

    MLE baselines are proper by construction and always yield an empty list.
    """
    if bound < 0:
        raise ValueError("bound must be >= 0")
    if max_violations is not None and max_violations < 1:
        raise ValueError("max_violations must be >= 1")
    violations: list[PropernessViolation] = []
    if estimator in (EstimatorId.MLE_ONE, EstimatorId.MLE_TWO):
        return violations

    if c < 1 or k < 1:
        raise ValueError("require c >= 1, k >= 1")

    if estimator is EstimatorId.UB_TWO_PERFECT:
        misclass = None
    elif estimator is EstimatorId.UB_ONE_PERFECT:
        specificity = sensitivity = 1
    if FAMILY[estimator] == "two":
        walk = _two_misclass_walk(c, k, misclass, iter_counts(3, bound))
        found = (_simplex_violations(z, values) for z, values in walk)
    else:
        found = _one_trait_violations(c, k, specificity, sensitivity, bound)

    for hits in found:
        violations.extend(hits)
        if max_violations is not None and len(violations) >= max_violations:
            return violations[:max_violations]
    return violations


def simplex_excess_at_one_one_zero(c: int, k: int) -> Fraction:
    """Exact excess sum(leading three estimates) - 1 at z = (1, 1, 0).

    Equals (1/(kc)) * (1 - (c + 1/k)/(c + 1)); positive for every k > 1 and
    zero at k = 1.
    """
    est = unbiased_two((1, 1, 0), c, k)
    return est[0] + est[1] + est[2] - 1


def estimator_callable(
    estimator: EstimatorId,
    c: int,
    k: int,
    *,
    specificity: Number = 1,
    sensitivity: Number = 1,
    misclass: MisclassModel | None = None,
    component: str | None = None,
) -> Callable[[np.ndarray], np.ndarray]:
    """Batch view of any estimator for expectation sums: one column of :func:`evaluate_table`.

    The callable maps an (n, t) integer sample array to n floats.
    `component` picks one of p00/p10/p01/p11 for the two-disease estimators
    (or "p" / None for one disease).
    """
    if FAMILY[estimator] == "one":
        idx = 0
    elif component in TWO_COMPONENTS:
        idx = TWO_COMPONENTS.index(component)
    else:
        raise ValueError(f"two-disease estimators need component in {sorted(TWO_COMPONENTS)}")
    params = dict(specificity=specificity, sensitivity=sensitivity, misclass=misclass)
    return lambda samples: evaluate_table(estimator, samples, c, k, **params)[0][:, idx]
