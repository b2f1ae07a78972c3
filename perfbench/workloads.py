"""The four workloads: their operation lists and the checks on each output.

An operation is a plain dict, so the parent (which never imports strahler)
and the worker build the same list from the same (workload, seed):

* ``cli``: one ``strahler.cli.main(argv)`` invocation, stdout captured;
* ``verify``: ``strahler.verification.run_all(names=[check])`` for one check,
  on an engine shared by the round's checks;
* ``uniform``: ``strahler.sampling.sample_uniform(6, s)`` over a fixed stream
  of seeds, tallied by shape.

``rc`` is the exit code the operation should return. The three known
faults of ``exact-grid`` should return 2 but let an exception escape
``main`` today, so they count as failed operations on every round.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import random
import re
from fractions import Fraction

import reference as ref

WORKLOADS = ("exact-grid", "float-sweep", "monte-carlo", "verify")

HORTON_GRID = (100, 158, 251, 398, 631, 1000, 1585, 2512, 3981, 6310, 10000)
# r >= 2 stops at 2512: to 10^4 the grid costs ~25 s and ~900 MB per round.
HORTON_GRID_DEEP = HORTON_GRID[:8]
SMALL = tuple(range(2, ref.ENUM_MAX + 1))
MAX_N = "1000"

# Canonical printed form of each observable (the CLI's ``f`` column).
CANONICAL = {"S1": "S1", "S1^2": "S1^2", "S1^3": "S1^3", "S2/S1": "(S2/S1)",
             "S1*S2-S3": "((S1*S2)-S3)"}

VERIFY_CHECKS = (
    "oracle-equivalence",
    "multiplicity",
    "werner-closed-forms",
    "expansion-reproduction",
    "ratio-identity",
    "variance-pipeline",
    "sampler",
    "distribution-normalization",
)
VERIFY_MAX_N = 500
VERIFY_TRIALS = 200
# The scope each passing check must state in its detail, so a check that
# shrinks or ignores max_n does not pass unnoticed. multiplicity covers
# every shape of magnitude m <= 4 at each n from 2m to 10.
_MULTIPLICITY_CASES = sum(math.comb(2 * m - 2, m - 1) // m * (11 - 2 * m) for m in range(1, 5))
VERIFY_SCOPE = {
    "oracle-equivalence": r"\(n <= 12, r <= 4\)$",
    "multiplicity": rf"^{_MULTIPLICITY_CASES} \(tau, n\) classes",
    "werner-closed-forms": r"4 <= n <= 200$",
    "ratio-identity": rf"at n in \(200, {VERIFY_MAX_N}\);",
    "sampler": r"^p = (\S+); MC mean (\S+) vs (\S+) \(stderr (\S+), (\d+) trials\)$",
    "distribution-normalization": r"n <= 100, r <= 5$",
}
# Queries the worker puts to the verify round's engine after the checks,
# compared with the references: ("exact", n, r, f), ("variance", n, r),
# ("dist", n, r) giving the distribution's sum and mean.
VERIFY_SPOTS = tuple(
    ("exact", 9, r, f) for r in (1, 2, 3, 4) for f in ("S1", "S2/S1", "S1*S2-S3")
) + (("exact", VERIFY_MAX_N, 1, "S2/S1"), ("exact", 200, 2, "S1"), ("variance", 200, 2),
     ("dist", 100, 3))

UNIFORM_N = 6
UNIFORM_TRIALS = 2100  # 50 per shape on average
UNIFORM_SEED = "uniform-shapes"  # fixed: a p-value test fails on 1 in 1000 honest streams

FLOAT_RTOL = 1e-9  # engine's own bound is 4.3e-10 at n = 10^4, r = 3
DECIMAL_RTOL = 1e-11  # 12 significant digits
MC_STDERRS = 5
UNIFORM_MIN_P = 0.001


def _grid(*ns) -> str:
    return ",".join(str(n) for n in ns)


def _expect(f, r, grid, mode="exact"):
    argv = ["expect", "--r", str(r), "--f", f, "--mode", mode, "--n-grid", _grid(*grid)]
    if mode == "exact":
        argv += ["--max-n", MAX_N]
    return {"id": f"expect {f} r={r}", "kind": "cli", "argv": argv, "rc": 0,
            "f": f, "r": r, "grid": list(grid), "mode": mode}


def _ratio(f, r, grid, mode):
    op = _expect(f, r, grid, mode)
    op["argv"][0] = "ratio"
    op["id"] = f"ratio {f} r={r} {mode} n<={max(grid)}"
    return op


def _dist(r, n, mode):
    argv = ["dist", "--r", str(r), "--n", str(n), "--mode", mode]
    if mode == "exact":
        argv += ["--max-n", MAX_N]
    return {"id": f"dist r={r} n={n} {mode}", "kind": "cli", "argv": argv, "rc": 0,
            "r": r, "grid": [n], "mode": mode}


def _asympt(f, r, grid):
    op = _expect(f, r, grid)
    op["argv"] = ["asympt", "--r", str(r), "--f", f, "--max-n", MAX_N,
                  "--n-grid", _grid(*grid)]
    op["id"] = f"asympt {f} r={r}"
    return op


def _sample(f, r, n, trials, seed):
    argv = ["sample", "--r", str(r), "--f", f, "--n", str(n),
            "--trials", str(trials), "--seed", str(seed)]
    return {"id": f"sample {f} r={r} n={n}", "kind": "cli", "argv": argv, "rc": 0,
            "f": f, "r": r, "grid": [n], "trials": trials, "seed": seed}


def _fault(name, argv):
    return {"id": f"fault {name}", "kind": "cli", "argv": argv, "rc": 2}


def _derived_seed(seed: int, label: str) -> int:
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def build(workload: str, seed: int) -> list:
    """Operation list of one round; the seed fixes sample seeds and the order."""
    if workload == "exact-grid":
        hundreds = range(100, 1001, 100)
        ops = [
            _expect("S1", 1, hundreds),
            _expect("S1", 2, hundreds),
            _expect("S1", 3, range(100, 601, 100)),
            _expect("S1", 4, (250, 500, 750, 1000)),
            _expect("S1^2", 1, hundreds),
            _expect("S1^2", 2, range(100, 501, 100)),
            _expect("S1^2", 3, (200, 300, 400)),
            _expect("S1^2", 4, (200, 400)),
            _expect("S2/S1", 1, range(200, 1001, 200)),
            _expect("S1*S2-S3", 1, (100, 200, 300)),
        ]
        ops += [_expect(f, r, SMALL) for f in ("S2/S1", "S1*S2-S3") for r in (2, 3, 4)]
        ops += [
            _dist(3, 400, "exact"),
            _ratio("S1", 1, hundreds, "exact"),
            _asympt("S1", 1, (50, 100, 200, 400, 800)),
            _asympt("S1", 2, (50, 100, 200, 400, 800)),
            _fault("n=0", ["expect", "--n", "0"]),
            _fault("r=0", ["expect", "--n", "5", "--r", "0"]),
            _fault("deep", ["expect", "--n", "5", "--f", "(" * 3000 + "S1" + ")" * 3000]),
        ]
    elif workload == "float-sweep":
        ops = [
            _ratio("S1", 1, HORTON_GRID, "float"),
            _ratio("S1", 2, HORTON_GRID_DEEP, "float"),
            _ratio("S1", 3, HORTON_GRID_DEEP, "float"),
        ]
        ops += [_ratio(f"S1^{k}" if k > 1 else "S1", r, (500, 1000, 2000), "float")
                for k in (1, 2, 3) for r in (1, 2)]
        ops.append(_dist(3, 4000, "float"))
    elif workload == "monte-carlo":
        ops = [
            _sample("S1", 2, 1000, 200, _derived_seed(seed, "growth-1000")),
            _sample("S1", 3, 4000, 40, _derived_seed(seed, "growth-4000")),
            _sample("S2/S1", 1, 48, 2000, _derived_seed(seed, "unrank-48")),
            {"id": "uniform n=6", "kind": "uniform", "rc": 0, "n": UNIFORM_N,
             "trials": UNIFORM_TRIALS},
        ]
    elif workload == "verify":
        # The checks take no seed; the seed orders them on the round's shared engine.
        ops = [{"id": f"verify {name}", "kind": "verify", "rc": 0, "name": name,
                "max_n": VERIFY_MAX_N, "trials": VERIFY_TRIALS} for name in VERIFY_CHECKS]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(seed).shuffle(ops)
    return ops


def uniform_seeds(trials: int) -> list:
    return [_derived_seed(0, f"{UNIFORM_SEED}:{i}") for i in range(trials)]


# -- checks ----------------------------------------------------------------------


def _close(value: float, want, rtol: float) -> bool:
    want = float(want)
    return abs(value - want) <= rtol * max(abs(want), 1e-300)


def _power(f: str) -> int:
    if f == "S1":
        return 1
    base, _, k = f.partition("^")
    if base != "S1" or not k.isdigit():
        raise KeyError(f)
    return int(k)


class Checker:
    """Checks each output against the references of ``reference.py``."""

    def __init__(self):
        self.moments = ref.MomentTable()
        self.enum = ref.Enumerator()

    # references ------------------------------------------------------------------

    def expectation(self, n: int, r: int, f: str) -> Fraction:
        if f == "S1" or f.startswith("S1^"):
            return self.moments.moment(n, r, _power(f))
        if r == 1 and f == "S2/S1":
            return ref.ratio_s2_over_s1_order1(n)
        if r == 1 and f == "S1*S2-S3":
            return n * self.moments.moment(n, 2) - self.moments.moment(n, 3)
        if n <= ref.ENUM_MAX:
            return self.enum.expectation(n, r, f)
        raise KeyError(f"no reference for {f} at r={r}, n={n}")

    # per-kind checks -----------------------------------------------------------

    def check(self, op: dict, out) -> list:
        """Problems with one operation's output; empty when it is correct."""
        if op["rc"] != 0:
            return []  # a known fault: its only output is the exit code
        if op["kind"] == "verify":
            return self._verify(op, out)
        if op["kind"] == "uniform":
            return self._uniform(op, out)
        rows = list(csv.DictReader(io.StringIO(out)))
        if not rows:
            return ["no rows"]
        command = op["argv"][0]
        problems = []
        if command != "dist":
            seen = [int(row["n"]) for row in rows]
            if seen != op["grid"]:
                problems.append(f"rows for n={seen}, asked for {op['grid']}")
            for row in rows:
                if row["f"] != CANONICAL[op["f"]] or int(row["r"]) != op["r"]:
                    problems.append(f"row labels {row['f']} r={row['r']}")
        try:
            if command == "dist":
                return problems + self._dist(op, rows)
            checker = getattr(self, "_" + command)
            for row in rows:
                problems += checker(op, row)
        except (KeyError, ValueError, ZeroDivisionError) as err:
            problems.append(f"unreadable output: {err!r}")
        return problems

    def _expect(self, op, row) -> list:
        n = int(row["n"])
        want = self.expectation(n, op["r"], op["f"])
        if op["mode"] == "exact":
            if Fraction(row["value"]) != want:
                return [f"n={n}: {row['value']} != {want}"]
            if not _close(float(row["value_decimal"]), want, DECIMAL_RTOL):
                return [f"n={n}: decimal {row['value_decimal']} != {float(want)}"]
        elif not _close(float(row["value_decimal"]), want, FLOAT_RTOL):
            return [f"n={n}: {row['value_decimal']} not within {FLOAT_RTOL} of {float(want)}"]
        return []

    def _ratio(self, op, row) -> list:
        n, r, f = int(row["n"]), op["r"], op["f"]
        k = _power(f)
        want = self.moments.moment(n, r, k) / self.moments.moment(n, r + 1, k)
        if r == 1 and k == 1 and want != ref.horton_ratio_order1(n):
            return [f"n={n}: references disagree"]
        problems = []
        got = float(row["ratio_decimal"])
        if op["mode"] == "exact":
            if Fraction(row["ratio"]) != want:
                problems.append(f"n={n}: ratio {row['ratio']} != {want}")
        elif not _close(got, want, FLOAT_RTOL):
            problems.append(f"n={n}: ratio {got!r} not within {FLOAT_RTOL} of {float(want)!r}")
        expansion = ref.expansion_ratio(k, r, n)
        if Fraction(row["asymptotic"]) != expansion:
            problems.append(f"n={n}: expansion {row['asymptotic']} != {expansion}")
        if Fraction(row["limit"]) != 4**k:
            problems.append(f"n={n}: limit {row['limit']} != {4**k}")
        residual = float(want) - float(expansion)
        if abs(float(row["residual_decimal"]) - residual) > FLOAT_RTOL * float(want):
            problems.append(f"n={n}: residual {row['residual_decimal']} != {residual!r}")
        return problems

    def _asympt(self, op, row) -> list:
        n, r, k = int(row["n"]), op["r"], _power(op["f"])
        problems = []
        expansion = ref.expansion_moment(k, r, n)
        a_r, b_r = Fraction(row["a_r"]), Fraction(row["b_r"])
        if int(row["k"]) != k or a_r != Fraction(1, 4 ** (k * (r - 1))):
            problems.append(f"n={n}: k={row['k']} a_r={row['a_r']}")
        if Fraction(row["asymptotic"]) != expansion or a_r * n**k + b_r * n ** (k - 1) != expansion:
            problems.append(f"n={n}: expansion {row['asymptotic']} != {expansion}")
        exact = self.moments.moment(n, r, k)
        if Fraction(row["exact"]) != exact:
            problems.append(f"n={n}: exact {row['exact']} != {exact}")
        residual = exact - expansion
        if not _close(float(row["residual_decimal"]), residual, DECIMAL_RTOL):
            problems.append(f"n={n}: residual {row['residual_decimal']} != {float(residual)}")
        # The residual is O(n^(k-2)); the CLI leaves the slope blank when it vanishes.
        slope = row["fitted_slope"]
        if residual and not (slope and float(slope) < k - 2 + 0.3):
            problems.append(f"fitted slope {slope!r} is not below {k - 2 + 0.3}")
        return problems

    def _sample(self, op, row) -> list:
        n = int(row["n"])
        want = self.expectation(n, op["r"], op["f"])
        mean, stderr = float(row["mean"]), float(row["stderr"])
        problems = []
        if int(row["trials"]) != op["trials"] or int(row["seed"]) != op["seed"]:
            problems.append(f"trials/seed {row['trials']}/{row['seed']}")
        if not abs(mean - float(want)) <= MC_STDERRS * stderr:
            problems.append(
                f"n={n}: mean {mean} is {abs(mean - float(want)) / stderr:.2f} stderr "
                f"from {float(want)}"
            )
        if not _close(float(row["reference"]), want, FLOAT_RTOL):
            problems.append(f"n={n}: reference {row['reference']} != {float(want)}")
        return problems

    def _dist(self, op, rows) -> list:
        n, r = op["grid"][0], op["r"]
        if any(int(row["n"]) != n or int(row["r"]) != r for row in rows):
            return ["row labels"]
        want = self.moments.moment(n, r)
        if op["mode"] == "exact":
            probs = {int(row["s"]): Fraction(row["probability"]) for row in rows}
            total = sum(probs.values())
            mean = sum(s * p for s, p in probs.items())
            ok_total, ok_mean = total == 1, mean == want
        else:
            probs = {int(row["s"]): float(row["probability_decimal"]) for row in rows}
            total = math.fsum(probs.values())
            mean = math.fsum(s * p for s, p in probs.items())
            ok_total, ok_mean = _close(total, 1, FLOAT_RTOL), _close(mean, want, FLOAT_RTOL)
        problems = []
        if not ok_total:
            problems.append(f"probabilities sum to {total}")
        if not ok_mean:
            problems.append(f"mean {mean} != {float(want)}")
        return problems

    def _verify(self, op, out) -> list:
        if out["name"] != op["name"]:
            return [f"ran check {out['name']}"]
        if not out["passed"]:
            return [out["detail"]]
        if op["name"] not in VERIFY_SCOPE:
            return []  # judged on its verdict alone (README)
        match = re.search(VERIFY_SCOPE[op["name"]], out["detail"])
        if match is None:
            return [f"detail {out['detail']!r} does not state the scope asked for"]
        if op["name"] != "sampler":
            return []
        p_value, mean, reference, stderr, trials = (float(x) for x in match.groups())
        want = ref.werner_mean(op["max_n"])
        if int(trials) != op["trials"] or p_value < UNIFORM_MIN_P:
            return [f"sampler ran {trials:g} trials with p = {p_value}"]
        if abs(reference - float(want)) > 1e-4 or abs(mean - float(want)) > MC_STDERRS * stderr:
            return [f"sampler mean {mean} (reference {reference}) is not {float(want)}"]
        return []

    def spots(self, values: list) -> list:
        """Problems with the verify engine's answers to ``VERIFY_SPOTS``."""
        problems = []
        for query, text in zip(VERIFY_SPOTS, values, strict=True):
            kind, n, r, *rest = query
            if kind == "exact":
                ok = Fraction(text) == self.expectation(n, r, rest[0])
            elif kind == "variance":
                mean = self.moments.moment(n, r)
                ok = Fraction(text) == self.moments.moment(n, r, 2) - mean * mean
            else:
                total, mean = (Fraction(x) for x in text.split())
                ok = total == 1 and mean == self.moments.moment(n, r)
            if not ok:
                problems.append(f"engine spot {query}: {text}")
        return problems

    def _uniform(self, op, tally: dict) -> list:
        shapes = {repr(tree) for tree in self.enum.trees(op["n"])}
        if set(tally) - shapes:
            return [f"{len(set(tally) - shapes)} sampled trees are not magnitude-{op['n']} shapes"]
        if sum(tally.values()) != op["trials"]:
            return [f"{sum(tally.values())} trees tallied, {op['trials']} drawn"]
        expected = op["trials"] / len(shapes)
        stat = sum((tally.get(s, 0) - expected) ** 2 / expected for s in shapes)
        p_value = ref.chi2_sf(stat, len(shapes) - 1)
        if p_value < UNIFORM_MIN_P:
            return [f"chi-square p = {p_value:.3g} < {UNIFORM_MIN_P}"]
        return []
