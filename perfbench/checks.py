"""Output checks behind the benchmark's `correct`, `attempted` and `failed`.

At every seed a record must keep the reference's schema and grid identity
(estimator, parameters, component, sample, replicates), carry no FAIL or
error= flag, satisfy estimate - bias = true parameter, and, for a Monte Carlo
row of an unbiased estimator, |bias| <= 5 se.  Verify rows must be `ok`.
Where the reference applies (the default seed, a deterministic workload, or
the reference probe a bench run makes at any other seed) every field must
also match it: numbers within REL_TOL, flags exactly, and for the scan the
same (sample, component, kind) violations.

`self_test` applies known defects to a good output and requires each to be
caught, so the gate cannot pass vacuously.
"""

from __future__ import annotations

import csv
import io
import json
import math

# Far below any statistical or verify tolerance; absorbs last-digit float changes.
REL_TOL = 1e-9
ABS_TOL = 1e-15
SE_LIMIT = 5.0
NUMERIC = ("estimate", "bias", "mse", "se")
# Fields fixed by the grid, whatever the seed.
IDENTITY = (
    "estimator", "p", "p10", "p01", "p11", "k", "c", "pi0", "pi1", "pi0_2", "pi1_2",
    "component", "sample", "replicates",
)


class Tally:
    """Counts checks attempted and failed, keeping the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)

    def fail_all(self, count: int, message: str) -> None:
        for _ in range(count):
            self.check(False, message)


def _close(a: str, b: str) -> bool:
    if a == b:
        return True
    try:
        return math.isclose(float(a), float(b), rel_tol=REL_TOL, abs_tol=ABS_TOL)
    except ValueError:
        return False


def _truth(rec: dict) -> float:
    if rec["component"] == "p":
        return float(rec["p"])
    if rec["component"] == "p00":
        return 1.0 - float(rec["p10"]) - float(rec["p01"]) - float(rec["p11"])
    return float(rec[rec["component"]])


def _record_problems(workload, rec: dict, ref: dict, exact: bool) -> list[str]:
    problems = [f"{f} {rec[f]!r} != {ref[f]!r}" for f in IDENTITY if rec[f] != ref[f]]
    flags = rec["flags"]
    if "FAIL" in flags or "error=" in flags:
        problems.append(f"flags {flags!r}")
    if workload.mode == "verify-unbiased" and not flags.startswith("ok;"):
        problems.append(f"verify row not ok: {flags!r}")
    try:
        estimate, bias = float(rec["estimate"]), float(rec["bias"])
    except ValueError:
        return problems + ["estimate or bias missing"]
    if not math.isclose(estimate - bias, _truth(rec), rel_tol=0, abs_tol=1e-12):
        problems.append(f"estimate - bias = {estimate - bias!r} is not the true parameter")
    if workload.mode == "bench":
        mse, se = float(rec["mse"]), float(rec["se"])
        if not (se >= 0 and mse >= bias * bias * (1 - REL_TOL)):
            problems.append(f"inconsistent se {se!r} / mse {mse!r}")
        if rec["estimator"].startswith("UB_") and not abs(bias) <= SE_LIMIT * se:
            problems.append(f"|bias| {abs(bias):.3g} > {SE_LIMIT} se ({se:.3g})")
    if exact:
        problems += [f"{f} {rec[f]!r} != reference {ref[f]!r}" for f in NUMERIC if not _close(rec[f], ref[f])]
        if flags != ref["flags"]:
            problems.append(f"flags {flags!r} != reference {ref['flags']!r}")
    return problems


def _check_records(workload, text: str, ref_text: str, exact: bool, rows: int, tally: Tally) -> None:
    parsed = list(csv.reader(io.StringIO(text)))
    ref_rows = list(csv.reader(io.StringIO(ref_text)))
    header, body = (parsed[0], parsed[1:]) if parsed else ([], [])
    ref_header, ref_body = ref_rows[0], ref_rows[1:]
    tally.check(
        header == ref_header and len(body) == rows,
        f"schema: {len(body)} records (want {rows}), header match {header == ref_header}",
    )
    for i in range(rows):
        if i >= len(body) or len(body[i]) != len(header) or header != ref_header:
            tally.check(False, f"record {i} missing or malformed")
            continue
        rec = dict(zip(header, body[i]))
        ref = dict(zip(ref_header, ref_body[i]))
        problems = _record_problems(workload, rec, ref, exact)
        tally.check(not problems, f"record {i}: {'; '.join(problems)}")


def _check_violations(workload, text: str, ref_text: str, tally: Tally) -> None:
    found = {(tuple(s), comp): (value, kind) for s, comp, value, kind in json.loads(text)}
    ref = {(tuple(s), comp): (value, kind) for s, comp, value, kind in json.loads(ref_text)}
    tally.check(len(found) == workload.rows, f"schema: {len(found)} violations (want {workload.rows})")
    for key, (ref_value, ref_kind) in ref.items():
        if key not in found:
            tally.check(False, f"violation {key} missing")
            continue
        value, kind = found[key]
        tally.check(
            kind == ref_kind and math.isclose(value, ref_value, rel_tol=REL_TOL, abs_tol=ABS_TOL),
            f"violation {key}: {kind} {value!r} != reference {ref_kind} {ref_value!r}",
        )
    for key in found.keys() - ref.keys():
        tally.check(False, f"violation {key} not in the reference")


def check_output(workload, text: str, ref_text: str, exact: bool, tally: Tally, rows: int | None = None) -> None:
    """Check one job's output against the reference; `exact` compares every value.

    `rows` checks a shorter output against the reference's first records.
    """
    if workload.mode is None:
        _check_violations(workload, text, ref_text, tally)
    else:
        _check_records(workload, text, ref_text, exact, rows or workload.rows, tally)


def _mutations(workload, text: str) -> dict[str, str]:
    if workload.mode is None:
        items = json.loads(text)
        bumped = [items[0][:2] + [items[0][2] * (1 + 1e-6), items[0][3]]] + items[1:]
        return {"drop one violation": json.dumps(items[1:]), "perturb one value": json.dumps(bumped)}
    rows = list(csv.reader(io.StringIO(text)))
    col = rows[0].index

    def edit(change) -> str:
        edited = [list(r) for r in rows]
        change(edited[1])
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(edited)
        return buf.getvalue()

    def perturb(row):
        row[col("estimate")] = format(float(row[col("estimate")]) + 1e-6, ".17g")

    def flip(row):
        row[col("flags")] = row[col("flags")].replace("ok;", "FAIL;", 1)

    out = {"perturb one estimate": edit(perturb)}
    if workload.mode == "verify-unbiased":
        out["flip one ok to FAIL"] = edit(flip)
    return out


def self_test(workload, text: str, ref_text: str, exact: bool) -> dict[str, int]:
    """Failed-check counts for each known defect applied to a good output; each must be > 0."""
    results = {}
    for label, mutated in _mutations(workload, text).items():
        tally = Tally()
        check_output(workload, mutated, ref_text, exact, tally)
        results[label] = tally.failed
    return results
