#!/usr/bin/env python3
"""Quick property report: unbiasedness, identifiability, plan diagnostics.

A condensed version of the acceptance checks, for eyeballing after changes.
"""

import sys
from fractions import Fraction as F
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gtseq.config import DEFAULT_C_GRID, DEFAULT_K_GRID, DEFAULT_P_GRID  # noqa: E402
from gtseq.model import (  # noqa: E402
    IndepErrorParams,
    OneDiseaseModel,
    TwoDiseaseModel,
    identifiability,
    independent_errors,
)
from gtseq.plans import (  # noqa: E402
    FixedTotalPlan,
    StopCountPlan,
    axis_boundary_check,
    imn_plan,
)
from gtseq.series import AffinePowerSpec, poly_representability  # noqa: E402
from gtseq.verify import verify_one, verify_two  # noqa: E402


def main() -> int:
    ok = True

    print("unbiasedness (truncated expectations, certified tails where bounded)")
    worst = 0.0
    for p in DEFAULT_P_GRID:
        for k in DEFAULT_K_GRID:
            for c in DEFAULT_C_GRID:
                row = verify_one(OneDiseaseModel(p, k, c))
                worst = max(worst, row.error)
                ok &= row.passed
                row = verify_one(OneDiseaseModel(p, k, c, 0.98, 0.95))
                worst = max(worst, row.error)
                ok &= row.passed
                for two_row in verify_two(TwoDiseaseModel(p, p, p / 2, k, c)):
                    worst = max(worst, two_row.error)
                    ok &= two_row.passed
    print(f"  worst |E[estimate] - truth| over the default grid: {worst:.2e}")

    print("identifiability (independent errors, exact determinants)")
    params = IndepErrorParams(F("0.9"), F("0.8"), F("0.95"), F("0.85"))
    identifiable, det = identifiability(independent_errors(params))
    ok &= identifiable and det == (params.nu1 * params.nu2) ** 2
    print(f"  det = {det} = (nu1*nu2)^2: {identifiable}")

    print("plan diagnostics")
    stop_neg = axis_boundary_check(imn_plan(1, 3))
    stop_pos = axis_boundary_check(StopCountPlan(2, 3, axis=0))
    ok &= stop_neg.passes and not stop_pos.passes
    print(f"  stop-at-negatives plan axis points: {stop_neg.count_on_axis} (needs exactly 1)")
    print(f"  stop-at-positives plan axis points: {stop_pos.count_on_axis} (no unbiased estimator)")
    fixed5 = FixedTotalPlan(2, 5)
    linear = poly_representability(fixed5, AffinePowerSpec(1, (-1,), 1))
    root = poly_representability(FixedTotalPlan(2, 60), AffinePowerSpec(1, (-1,), F(1, 2)))
    # ((sens - theta)/nu)^(1/2) at spec 0.95, sens 0.9: nu = 0.85
    mis = poly_representability(
        FixedTotalPlan(2, 10), AffinePowerSpec(F("0.9") / F("0.85"), (-1 / F("0.85"),), F(1, 2))
    )
    y_over_5 = linear.estimator == {(x, y): F(y, 5) for x, y in fixed5.boundary_points()}
    ok &= y_over_5 and not root.representable and not mis.representable
    print(f"  fixed total 5, linear target: representable={linear.representable}, y/5: {y_over_5}")
    for name, total, verdict in (("k=2 root", 60, root), ("misclassified root", 10, mis)):
        print(
            f"  fixed total {total}, {name} target: representable={verdict.representable},"
            f" theta^{verdict.certificate_degree} certificate {float(verdict.certificate):.3g}"
        )

    print("ALL CHECKS PASS" if ok else "SOME CHECKS FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
