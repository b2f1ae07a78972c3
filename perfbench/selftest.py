"""Tests of the benchmark's own checkers, on fabricated outputs.

Each case builds a correct CLI-style output, confirms the checker accepts
it, then spoils it and confirms the checker rejects it: a wrong exact value,
a float outside tolerance, a Monte Carlo mean 6 standard errors off, a
non-uniform shape tally, a verify check that ran fewer trials than asked,
and a wrong value from the verify round's engine. The references are also checked against each
other: the series against Werner's closed forms and against enumeration.
``run.py`` runs these before every benchmark run; run them alone with

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import sys
from fractions import Fraction

import workloads
from workloads import Checker


def _table(header: str, *rows) -> str:
    return header + "\n" + "".join(",".join(str(v) for v in row) + "\n" for row in rows)


def _cases(checker: Checker):
    """(name, op, good output, spoiled output)."""
    n = 10
    value = checker.expectation(n, 2, "S1")
    op = workloads._expect("S1", 2, [n])
    head = "n,r,f,value,value_decimal,mode"
    good = _table(head, (n, 2, "S1", value, f"{float(value):.12g}", "exact"))
    wrong = value + 1
    bad = _table(head, (n, 2, "S1", wrong, f"{float(wrong):.12g}", "exact"))
    yield "wrong exact value", op, good, bad

    n, k, r = 1000, 1, 3
    ratio = checker.moments.moment(n, r) / checker.moments.moment(n, r + 1)
    expansion = workloads.ref.expansion_ratio(k, r, n)
    op = workloads._ratio("S1", r, [n], "float")
    head = "n,r,f,ratio,ratio_decimal,asymptotic,asymptotic_decimal,limit,residual_decimal,mode"

    def ratio_row(x: float):
        residual = x - float(expansion)
        return (n, r, "S1", "", f"{x:.12g}", expansion, f"{float(expansion):.12g}", 4,
                f"{residual:.12g}", "float")

    off = float(ratio) * (1 + 100 * workloads.FLOAT_RTOL)
    yield ("float outside tolerance", op, _table(head, ratio_row(float(ratio))),
           _table(head, ratio_row(off)))

    n, seed, trials, stderr = 1000, 7, 200, 0.5
    mean = float(checker.expectation(n, 2, "S1"))
    op = workloads._sample("S1", 2, n, trials, seed)
    head = "n,r,f,trials,seed,mean,stderr,reference,mode"

    def sample_row(x: float):
        return (n, 2, "S1", trials, seed, f"{x:.12g}", stderr, f"{mean:.12g}", "float")

    yield ("MC mean 6 stderr off", op, _table(head, sample_row(mean + stderr)),
           _table(head, sample_row(mean + 6 * stderr)))

    op = {"id": "uniform", "kind": "uniform", "rc": 0, "n": 6, "trials": 42 * 50}
    shapes = [repr(t) for t in checker.enum.trees(6)]
    even = {s: 50 for s in shapes}
    skewed = dict(even)
    skewed[shapes[0]] += 50
    skewed[shapes[1]] -= 50
    yield "non-uniform shape tally", op, even, skewed

    op = {"id": "verify sampler", "kind": "verify", "rc": 0, "name": "sampler",
          "max_n": workloads.VERIFY_MAX_N, "trials": workloads.VERIFY_TRIALS}
    mean = float(workloads.ref.werner_mean(op["max_n"]))

    def sampler_out(trials: int):
        detail = f"p = 0.5000; MC mean {mean:.4f} vs {mean:.4f} (stderr 0.5000, {trials} trials)"
        return {"name": "sampler", "passed": True, "detail": detail, "seconds": 0.0}

    yield ("verify check with fewer trials", op, sampler_out(op["trials"]),
           sampler_out(op["trials"] // 10))


def _spot_values(checker: Checker) -> list:
    """The references' own answers to ``VERIFY_SPOTS``, as the worker prints them."""
    values = []
    for kind, n, r, *rest in workloads.VERIFY_SPOTS:
        mean = checker.moments.moment(n, r)
        if kind == "exact":
            values.append(str(checker.expectation(n, r, rest[0])))
        elif kind == "variance":
            values.append(str(checker.moments.moment(n, r, 2) - mean * mean))
        else:
            values.append(f"1 {mean}")
    return values


def _reference_problems(checker: Checker) -> list:
    """The references must agree with each other where they overlap."""
    moments, ref = checker.moments, workloads.ref
    found = []
    for n in (10, 100, 1000):
        mean = moments.moment(n, 2)
        if mean != ref.werner_mean(n) or moments.moment(n, 2, 2) - mean**2 != ref.werner_variance(n):
            found.append(f"series and Werner's closed forms disagree at n={n}")
    for f in ref.WINDOW_FUNCTIONS:
        for r in (1, 2, 3, 4):
            for n in range(2, ref.ENUM_MAX + 1):
                if (r == 1 or f in ("S1", "S1^2")) and (
                    checker.expectation(n, r, f) != checker.enum.expectation(n, r, f)
                ):
                    found.append(f"reference for {f} at r={r}, n={n} disagrees with enumeration")
    return found


def problems() -> list:
    """Cases the checker got wrong; empty when every checker works."""
    checker = Checker()
    found = _reference_problems(checker)
    for name, op, good, bad in _cases(checker):
        if checker.check(op, good):
            found.append(f"{name}: correct output rejected: {checker.check(op, good)}")
        if not checker.check(op, bad):
            found.append(f"{name}: spoiled output accepted")
    good = _spot_values(checker)
    wrong = [str(Fraction(good[0]) + 1)] + good[1:]
    if checker.spots(good) or not checker.spots(wrong):
        found.append("verify engine spot values: checker got a case wrong")
    return found


if __name__ == "__main__":
    wrong = problems()
    for line in wrong:
        print(line, file=sys.stderr)
    print("checker self-test:", "FAIL" if wrong else "ok")
    sys.exit(1 if wrong else 0)
