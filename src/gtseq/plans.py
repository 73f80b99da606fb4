"""Sampling plans: lattice boundaries, pmf, random walks, path counts, diagnostics.

A sampling plan is a stopping set of lattice points for a multinomial random
walk from the origin.  Points are tuples ordered with the tracked outcome
counts first and the stopping (reference) class count last, so a
two-dimensional point reads (positives, negatives) for the classic design
that stops at the c-th negative pool.

The inverse multinomial distribution IMN_t(c, mu) arises from the rule-based
plan "stop when the reference coordinate reaches c" with reference-class
probability mu0 = 1 - sum(mu); its pmf over the tracked counts x is

    C(c + sum(x) - 1; c-1, x1, ..., xt) * mu0^c * prod(mu_i^x_i).

Its total sum(x) is negative binomial NB(c, mu0), whose pmf
:func:`negbin_terms` walks in Python: every one-dimensional verify sum reads
those terms.  :func:`truncated_expectation` is the numpy reference lattice
sum over :func:`imn_pmf`, which the tests check verify against.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Sequence

from .errors import DomainError, PlanError, StepCapExceededError
from .numerics import Number, as_fraction, multinomial_coeff

Point = tuple[int, ...]

DEFAULT_STEP_CAP = 10_000_000


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------


class SamplingPlan:
    """Base class: a boundary membership predicate over lattice points."""

    dim: int
    finite: bool

    def hits_boundary(self, point: Point) -> bool:
        raise NotImplementedError

    def boundary_points(self) -> Iterator[Point]:
        raise PlanError(f"{type(self).__name__} has no finite boundary enumeration")

    def _check_point(self, point: Point) -> Point:
        point = tuple(int(v) for v in point)
        if len(point) != self.dim:
            raise PlanError(f"point {point} has wrong dimension for plan of dim {self.dim}")
        if any(v < 0 for v in point):
            raise PlanError(f"point {point} has negative coordinates")
        return point


@dataclass(frozen=True)
class StopCountPlan(SamplingPlan):
    """Rule-based plan: stop when one coordinate reaches `count`.

    The default stopping axis is the last coordinate (the reference class),
    which yields inverse multinomial sampling.  Stopping on a tracked
    coordinate instead (axis 0 in two dimensions) is the design that counts
    reference draws until `count` tracked observations; it has no boundary
    point on the tracked-coordinate-zero axis.
    """

    dim: int
    count: int
    axis: int | None = None
    finite = False

    def __post_init__(self):
        if self.dim < 2:
            raise PlanError("plan dimension must be >= 2")
        if self.count < 1:
            raise PlanError("stop count must be >= 1")
        axis = self.dim - 1 if self.axis is None else self.axis
        if not 0 <= axis < self.dim:
            raise PlanError(f"axis {axis} out of range for dim {self.dim}")
        object.__setattr__(self, "axis", axis)

    def hits_boundary(self, point: Point) -> bool:
        return point[self.axis] == self.count


@dataclass(frozen=True)
class FixedTotalPlan(SamplingPlan):
    """Fixed-sample-size design: stop when the total draw count reaches `total`."""

    dim: int
    total: int
    finite = True

    def __post_init__(self):
        if self.dim < 2:
            raise PlanError("plan dimension must be >= 2")
        if self.total < 1:
            raise PlanError("total must be >= 1")

    def hits_boundary(self, point: Point) -> bool:
        return sum(point) == self.total

    def boundary_points(self) -> Iterator[Point]:
        for head in iter_counts(self.dim - 1, self.total):
            yield head + (self.total - sum(head),)


@dataclass(frozen=True)
class ExplicitPlan(SamplingPlan):
    """Plan given by an explicit finite set of boundary points."""

    dim: int
    points: frozenset[Point]
    finite = True

    def __post_init__(self):
        if self.dim < 2:
            raise PlanError("plan dimension must be >= 2")
        pts = frozenset(tuple(int(v) for v in p) for p in self.points)
        if not pts:
            raise PlanError("explicit plan needs at least one boundary point")
        for p in pts:
            if len(p) != self.dim or any(v < 0 for v in p):
                raise PlanError(f"bad boundary point {p}")
        object.__setattr__(self, "points", pts)

    def hits_boundary(self, point: Point) -> bool:
        return point in self.points

    def boundary_points(self) -> Iterator[Point]:
        return iter(sorted(self.points))


def imn_plan(t: int, c: int) -> StopCountPlan:
    """The inverse multinomial plan over t tracked classes: stop at c reference draws."""
    return StopCountPlan(dim=t + 1, count=c)


def load_plan(path: str | Path) -> ExplicitPlan:
    """Read an explicit plan: first line "dim <t+1>", then one point per line."""
    lines = Path(path).read_text().splitlines()
    rows = [ln.strip() for ln in lines if ln.strip() and not ln.strip().startswith("#")]
    if not rows or not rows[0].startswith("dim "):
        raise PlanError("plan file must start with a 'dim <t+1>' line")
    try:
        dim = int(rows[0].split()[1])
    except (IndexError, ValueError) as exc:
        raise PlanError(f"bad dim line {rows[0]!r}") from exc
    points = []
    for row in rows[1:]:
        try:
            points.append(tuple(int(tok) for tok in row.split()))
        except ValueError as exc:
            raise PlanError(f"bad boundary point line {row!r}") from exc
    return ExplicitPlan(dim, frozenset(points))


def save_plan(plan: SamplingPlan, path: str | Path) -> None:
    if not plan.finite:
        raise PlanError("only finite plans can be saved")
    lines = [f"dim {plan.dim}"]
    lines += [" ".join(str(v) for v in p) for p in sorted(plan.boundary_points())]
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Inverse multinomial pmf
# ---------------------------------------------------------------------------


def _check_mu(mu: Sequence[Number]) -> tuple[Number, ...]:
    mu = tuple(mu)
    if not mu:
        raise DomainError("mu must have at least one component")
    if any(v < 0 for v in mu):
        raise DomainError(f"negative class probability in {mu}")
    if sum(mu) >= 1:
        raise DomainError(f"tracked class probabilities {mu} must sum to less than 1")
    return mu


def imn_pmf(x: Sequence[int] | np.ndarray, c: int, mu: Sequence[Number]) -> float | np.ndarray:
    """P(X = x) under IMN_t(c, mu), evaluated in log space.

    x is one count vector (the result is a float) or an (n, t) integer array
    with one count vector per row (the result is n floats).
    """
    import numpy as np
    mu = _check_mu(mu)
    counts = np.asarray(x, dtype=np.int64)
    if counts.ndim not in (1, 2) or counts.shape[-1] != len(mu):
        raise DomainError(f"count vector {x} does not match mu of length {len(mu)}")
    if (counts < 0).any():
        raise DomainError(f"negative count in {x}")
    if c < 1:
        raise DomainError("c must be >= 1")
    rows = counts.reshape(-1, len(mu))
    totals = rows.sum(axis=1)
    # log m! for 0 <= m < c + max total, the only factorials the pmf needs.
    log_fact = np.array([math.lgamma(m + 1) for m in range(c + int(totals.max(initial=0)))])
    mu0 = 1 - sum(float(v) for v in mu)
    log_p = log_fact[c + totals - 1] - log_fact[c - 1] + c * math.log(mu0)
    for xi, mui in zip(rows.T, mu):
        mf = float(mui)
        seen = xi > 0
        if mf == 0.0:
            log_p[seen] = -math.inf
        else:
            log_p += np.where(seen, xi * math.log(mf) - log_fact[xi], 0.0)
    # math.exp, not np.exp: numpy's vectorised exp may round differently in the last bit.
    pmf = np.fromiter(map(math.exp, log_p.tolist()), float, len(log_p))
    return float(pmf[0]) if counts.ndim == 1 else pmf


def imn_pmf_exact(x: Sequence[int], c: int, mu: Sequence[Number]) -> Fraction:
    """Exact rational pmf for rational mu."""
    mu = _check_mu(mu)
    x = tuple(int(v) for v in x)
    s = sum(x)
    coeff = multinomial_coeff(c + s - 1, (c - 1,) + x)
    mu0 = 1 - sum(as_fraction(v) for v in mu)
    out = Fraction(coeff) * mu0 ** c
    for xi, mui in zip(x, mu):
        if xi:
            out *= as_fraction(mui) ** xi
    return out


def iter_counts(t: int, max_total: int) -> Iterator[Point]:
    """All tracked-count vectors with total <= max_total, lexicographic."""
    for head in itertools.product(range(max_total + 1), repeat=t - 1):
        s = sum(head)
        if s <= max_total:
            for last in range(max_total - s + 1):
                yield head + (last,)


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WalkOutcome:
    """Terminal state of one simulated walk."""

    terminal: Point
    steps: int
    path: tuple[Point, ...] | None = None


def simulate(
    plan: SamplingPlan,
    step_probs: Sequence[float],
    seed: int,
    replicate_index: int,
    *,
    step_cap: int = DEFAULT_STEP_CAP,
    record_path: bool = False,
) -> WalkOutcome:
    """Run one walk; a pure function of (seed, replicate_index).

    Each replicate draws from its own RNG stream spawned from the master
    seed, so outcomes do not depend on scheduling or batch shape.  The step
    cap guards against non-terminating plans (inverse plans with a positive
    reference probability terminate almost surely).
    """
    import numpy as np
    probs = np.asarray(step_probs, dtype=float)
    if probs.shape != (plan.dim,):
        raise DomainError(f"step_probs must have length {plan.dim}")
    if (probs < 0).any() or abs(probs.sum() - 1.0) > 1e-9:
        raise DomainError("step_probs must be a probability vector")
    probs = probs / probs.sum()
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(replicate_index,)))
    position = [0] * plan.dim
    trail = [tuple(position)] if record_path else None
    steps = 0
    chunk = 256
    while True:
        draws = rng.choice(plan.dim, size=chunk, p=probs)
        for d in draws:
            position[d] += 1
            steps += 1
            point = tuple(position)
            if trail is not None:
                trail.append(point)
            if plan.hits_boundary(point):
                return WalkOutcome(point, steps, tuple(trail) if trail else None)
            if steps >= step_cap:
                raise StepCapExceededError(
                    f"walk exceeded {step_cap} steps without reaching the boundary"
                )


# Rows per multinomial draw in imn_draws.
IMN_BLOCK = 1 << 14


def imn_draws(
    c: int,
    mu: Sequence[float],
    n_replicates: int,
    seed: int | np.random.SeedSequence | np.random.Generator,
) -> tuple[np.ndarray, Iterator[tuple[slice, np.ndarray]]]:
    """Totals of `n_replicates` IMN_t(c, mu) walks, and their counts in blocks of rows.

    The tracked draws before the c-th reference draw are negative binomial in
    number and multinomial in split.  Every total is drawn first; the iterator
    then draws IMN_BLOCK rows' splits at a time and yields (rows, counts), so a
    caller may overwrite the totals of blocks already yielded.  Since
    `Generator.multinomial` draws row by row (nothing for one class), neither
    the counts nor the generator's final state depend on the block size.
    """
    import numpy as np
    mu = _check_mu(tuple(float(v) for v in mu))
    rng = np.random.default_rng(seed)
    tracked = float(sum(mu))
    totals = rng.negative_binomial(c, 1.0 - tracked, size=n_replicates)
    split = np.asarray(mu) / (tracked or 1.0)  # with no tracked mass every total is 0
    blocks = (slice(start, start + IMN_BLOCK) for start in range(0, n_replicates, IMN_BLOCK))
    return totals, ((rows, rng.multinomial(totals[rows], split)) for rows in blocks)


def simulate_imn_counts(
    c: int,
    mu: Sequence[float],
    n_replicates: int,
    seed: int | np.random.SeedSequence | np.random.Generator,
) -> np.ndarray:
    """Terminal tracked counts of IMN_t(c, mu) walks, one walk per row, from :func:`imn_draws`.

    Distributionally identical to stepping walks under :func:`imn_plan`;
    deterministic in (seed, n_replicates).  The bench tallies the same draws
    holding one int64 per replicate plus one block, not these (n, t) counts.
    """
    import numpy as np
    totals, blocks = imn_draws(c, mu, n_replicates, seed)
    counts = np.empty((totals.size, len(mu)), dtype=np.int64)
    for rows, block in blocks:
        counts[rows] = block
    return counts


# ---------------------------------------------------------------------------
# Path counting
# ---------------------------------------------------------------------------


def _walk(
    plan: SamplingPlan, depth: int | None = None, box: Point | None = None
) -> tuple[dict[Point, int], dict[Point, int]]:
    """Count admissible walks from the origin in exact ints, one total at a time.

    Returns (stopped, live): how many walks stop at each boundary point they
    reach, and how many still run at each point of total `depth`.  The
    default depth is one past a finite plan's largest boundary total, where
    a walk still running never stops.  With `box`, walks stay below it.
    """
    if depth is None:
        depth = max(map(sum, plan.boundary_points())) + 1
    limit = box or (depth,) * plan.dim
    live = {(0,) * plan.dim: 1}
    stopped: dict[Point, int] = {}
    for total in range(depth + 1):
        stopped.update((p, live.pop(p)) for p in [p for p in live if plan.hits_boundary(p)])
        if total < depth:
            step: dict[Point, int] = {}
            for p, n in live.items():
                for axis, v in enumerate(p):
                    if v < limit[axis]:
                        q = p[:axis] + (v + 1,) + p[axis + 1 :]
                        step[q] = step.get(q, 0) + n
            live = step
    return stopped, live


def path_count(plan: SamplingPlan, point: Point) -> int:
    """Number of admissible walks from the origin that stop exactly at `point`.

    Counted by :func:`_walk`, confined to the box below the point; a walk is
    admissible when no proper prefix hits the boundary.
    """
    point = plan._check_point(point)
    if not plan.hits_boundary(point):
        raise PlanError(f"{point} is not a boundary point of the plan")
    return _walk(plan, sum(point), point)[0].get(point, 0)


def boundary_weights(plan: SamplingPlan) -> dict[Point, int]:
    """Path count of every boundary point of a finite plan, sorted, from one walk.

    A shadowed point weighs 0.  An open plan, where some walk never stops,
    raises PlanError.
    """
    stopped, live = _walk(plan)
    if live:
        p = min(live)
        raise PlanError(f"plan is open: walks reach {p} at total {sum(p)} without stopping")
    return {b: stopped.get(b, 0) for b in sorted(plan.boundary_points())}


# ---------------------------------------------------------------------------
# Truncated expectation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExpectationResult:
    """Sum of estimator * pmf over the n_points sample points with total count <= max_total."""

    value: float
    mass: float
    n_points: int


def negbin_terms(c: int, mu0: float) -> Iterator[float]:
    """NB(c, mu0) pmf at totals 0, 1, 2, ...: mu0^c, then term *= q (c + s) / (s + 1), q = 1 - mu0.

    This is the pmf of the total of an IMN_t(c, mu) walk, mu0 = 1 - sum(mu),
    and the t = 1 :func:`imn_pmf` in one multiplication per total.
    """
    q = 1.0 - mu0
    term = mu0 ** c
    for s in itertools.count():
        yield term
        term *= q * (c + s) / (s + 1)


def truncated_expectation(
    estimator: Callable[[np.ndarray], np.ndarray | float],
    c: int,
    mu: Sequence[float],
    *,
    max_total: int,
) -> ExpectationResult:
    """Sum estimator(x) * pmf(x) over all x with total <= max_total.

    `estimator` is a batch estimator: it maps an (n, t) integer array of
    sample points to n floats (a constant broadcasts).  This is the reference
    lattice sum, which no mode runs, and certifies nothing: tail bounds and
    verdicts are verify's.
    """
    import numpy as np
    mu = _check_mu(tuple(float(v) for v in mu))
    points = np.array(list(iter_counts(len(mu), max_total)), dtype=np.int64).reshape(-1, len(mu))
    masses = imn_pmf(points, c, mu)
    contributions = np.broadcast_to(estimator(points), (len(points),)) * masses
    return ExpectationResult(
        math.fsum(contributions.tolist()), math.fsum(masses.tolist()), len(points)
    )


# ---------------------------------------------------------------------------
# Diagnostics from the non-existence arguments
# ---------------------------------------------------------------------------


class AxisCheckResult(NamedTuple):
    count_on_axis: int
    passes: bool


def axis_boundary_check(plan: SamplingPlan) -> AxisCheckResult:
    """Count reachable boundary points with first coordinate zero (2-d plans).

    Exactly one such point is necessary for unbiased estimation under the
    plan: the all-reference walk must stop somewhere, and at exactly one
    place.  Designs that stop on the tracked coordinate have none.  An open
    explicit plan fails whatever its count: some walk never stops.
    """
    if plan.dim != 2:
        raise PlanError("axis check is defined for 2-dimensional plans")
    if isinstance(plan, StopCountPlan):
        return AxisCheckResult(int(plan.axis == 1), plan.axis == 1)
    # A finite plan: only the lowest axis point is reached, the higher ones are shadowed.
    stopped, live = _walk(plan)
    count = sum(1 for x, _ in stopped if x == 0)
    return AxisCheckResult(count, count == 1 and not live)
