"""Expectations of observables over the uniform tree model.

The engine evaluates E_n[f(S_r, ..., S_{r+p-1})] three ways:

* ``expectation_bruteforce`` enumerates every magnitude-n shape and averages
  f over the branch profiles with equal weight. This is the independent
  oracle; it shares nothing with the recursive path below.
* ``expectation_exact`` works in the counting domain. It descends the
  magnitude recursion on T_r(n) = c_{n-1} E_n[f at base r], the sum of f
  over all c_{n-1} magnitude-n shapes: T_r(n) = sum over m <= n/2 of
  multiplicity(n, m) T_{r-1}(m), because exactly multiplicity(n, m) trees
  collapse onto each magnitude-m tree. The r=1 base case is c_{n-1} f(n)
  when f has one variable, and otherwise pins the first variable to n and
  recurses on the remainder one order up. Every term is an integer when f
  is integer-valued (a rational observable such as S2/S1 carries Fractions
  only in its values), so the one division, T / c_{n-1}, happens once per
  answer.
* ``expectation_float`` runs the probability form of the recursion,
  E_r(n) = sum of w(n, m) E_{r-1}(m) with log-gamma weights w(n, m) =
  multiplicity(n, m) c_{m-1} / c_{n-1}, and returns a first-order
  relative-error bound alongside the value.

Distributions of single branch counts follow the same two forms: exact
tables are integer counts N_r(n, s) = sum of multiplicity(n, m) N_{r-1}(m, s),
divided by c_{n-1} once per table. f-bifurcation ratios and variances are
built on top. Memoisation keys include the canonical printed form of the
(possibly rebound) observable, so results are independent of call order;
fills are idempotent, which keeps concurrent use safe under the usual dict
atomicity. Float summations always run in ascending image magnitude for
reproducibility.
"""

from __future__ import annotations

import math
import sys
import warnings
from collections import Counter
from fractions import Fraction
from typing import NamedTuple

from . import combinatorics as comb
from . import trees as trees_mod
from .observables import Observable, parse as _parse

DEFAULT_EXACT_LIMIT = 300
_EPS = sys.float_info.epsilon


class LimitExceededError(Exception):
    """A query asked for more magnitude than the configured ceiling allows."""


class DegenerateRatioError(ZeroDivisionError):
    """The denominator expectation of a bifurcation ratio is zero."""


class FloatEstimate(NamedTuple):
    value: float
    rel_error_bound: float


class ExpectationEngine:
    """Exact and floating expectation queries with shared memo tables.

    ``enumeration_limit`` caps the brute-force oracle (c_13 = 742900 shapes
    at magnitude 14 is the practical ceiling); ``exact_limit`` caps exact
    recursion, beyond which auto mode falls back to floats with a warning.
    """

    def __init__(
        self,
        enumeration_limit: int = trees_mod.DEFAULT_ENUMERATION_LIMIT,
        exact_limit: int = DEFAULT_EXACT_LIMIT,
    ):
        self.enumeration_limit = enumeration_limit
        self.exact_limit = exact_limit
        self._profiles: dict[int, Counter] = {}
        self._count_memo: dict = {}
        self._float_memo: dict = {}
        self._dist_memo: dict = {}
        self._float_weight_rows: dict[int, list] = {}

    # -- brute-force oracle ---------------------------------------------------

    def profile_counts(self, n: int) -> Counter:
        """Multiset of branch profiles over all magnitude-n shapes."""
        if n > self.enumeration_limit:
            raise LimitExceededError(
                f"magnitude {n} exceeds the enumeration limit {self.enumeration_limit}"
            )
        if n not in self._profiles:
            self._profiles[n] = Counter(
                trees_mod.branch_counts(t).counts
                for t in trees_mod.enumerate_trees(n, self.enumeration_limit)
            )
        return self._profiles[n]

    def expectation_bruteforce(self, n: int, r: int, f: Observable) -> Fraction:
        """Average of f over every magnitude-n shape, equal weight each."""
        _validate_query(n, r)
        p = f.arity
        total = Fraction(0)
        for counts, mult in self.profile_counts(n).items():
            window = trees_mod.BranchProfile(counts).window(r, p)
            total += mult * f.evaluate(window)
        return total / comb.catalan(n - 1)

    # -- exact recursion --------------------------------------------------------

    def expectation_exact(self, n: int, r: int, f: Observable) -> Fraction:
        _validate_query(n, r)
        if n > self.exact_limit:
            raise LimitExceededError(
                f"magnitude {n} exceeds the exact-mode limit {self.exact_limit}"
            )
        return Fraction(self._count(n, r, f), comb.catalan(n - 1))

    def _count(self, n: int, r: int, f: Observable):
        """T_r(n) = c_{n-1} E_n[f at base r]; an int whenever f is integer-valued."""
        key = (n, r, f.text)
        hit = self._count_memo.get(key)
        if hit is not None:
            return hit
        if n == 1:
            # Single leaf: the profile is (1,); everything above order 1 is 0.
            window = trees_mod.BranchProfile((1,)).window(r, f.arity)
            total = _integral(f.evaluate(window))
        elif r == 1 and f.arity == 1:
            total = comb.catalan(n - 1) * _integral(f.evaluate((n,)))
        else:
            g = f.bind_first(n) if r == 1 else f
            sub_order = 1 if r == 1 else r - 1
            total = sum(
                mu * self._count(m, sub_order, g) for m, mu in comb.multiplicities(n)
            )
        self._count_memo[key] = total
        return total

    # -- float recursion --------------------------------------------------------

    def _float_weights(self, n: int) -> list:
        """Rows of (m, w) pairs in ascending m; summation order is fixed."""
        row = self._float_weight_rows.get(n)
        if row is None:
            row = comb.float_weight_row(n)
            self._float_weight_rows[n] = row
        return row

    def expectation_float(self, n: int, r: int, f: Observable) -> FloatEstimate:
        _validate_query(n, r)
        return self._float(n, r, f)

    def _float(self, n: int, r: int, f: Observable) -> FloatEstimate:
        key = (n, r, f.text)
        hit = self._float_memo.get(key)
        if hit is not None:
            return hit
        if n == 1:
            window = trees_mod.BranchProfile((1,)).window(r, f.arity)
            est = FloatEstimate(float(f.evaluate(window)), 2 * _EPS)
        elif r == 1 and f.arity == 1:
            est = FloatEstimate(float(f.evaluate((n,))), 2 * _EPS)
        else:
            g = f.bind_first(n) if r == 1 else f
            sub_order = 1 if r == 1 else r - 1
            row = self._float_weights(n)
            weight_err = _weight_rel_error(n)
            total = 0.0
            abs_mass = 0.0
            err_mass = 0.0
            for m, w in row:
                child = self._float(m, sub_order, g)
                total += w * child.value
                mag = abs(w * child.value)
                abs_mass += mag
                err_mass += mag * (child.rel_error_bound + weight_err)
            err_mass += abs_mass * len(row) * _EPS  # summation rounding
            rel = err_mass / abs(total) if total else float("inf")
            est = FloatEstimate(total, rel)
        self._float_memo[key] = est
        return est

    def expectation(self, n: int, r: int, f: Observable, mode: str = "auto"):
        """Dispatch by mode; auto switches to float past the exact ceiling."""
        if mode == "exact":
            return self.expectation_exact(n, r, f)
        if mode == "float":
            return self.expectation_float(n, r, f).value
        if mode == "auto":
            if n <= self.exact_limit:
                return self.expectation_exact(n, r, f)
            warnings.warn(
                f"magnitude {n} exceeds the exact ceiling {self.exact_limit}; "
                "falling back to float mode",
                stacklevel=2,
            )
            return self.expectation_float(n, r, f).value
        raise ValueError(f"unknown mode {mode!r}")

    # -- distributions ----------------------------------------------------------

    def distribution(self, n: int, r: int, mode: str = "exact") -> dict:
        """P_n(S_r = s) over the nonzero support, exact or float."""
        _validate_query(n, r)
        if mode == "exact":
            if n > self.exact_limit:
                raise LimitExceededError(
                    f"magnitude {n} exceeds the exact-mode limit {self.exact_limit}"
                )
            total = comb.catalan(n - 1)
            return {s: Fraction(c, total) for s, c in self._dist(n, r, True).items()}
        return self._dist(n, r, False)

    def _dist(self, n: int, r: int, exact: bool) -> dict:
        """Integer counts N_r(n, s) when exact, else float probabilities."""
        key = (n, r, exact)
        hit = self._dist_memo.get(key)
        if hit is not None:
            return hit
        if r == 1:
            table = {n: comb.catalan(n - 1) if exact else 1.0}
        elif n == 1:
            table = {0: 1 if exact else 1.0}
        elif r == 2 and not exact:
            # The weight row is the table itself; skipping the n/2 child
            # lookups matters in float sweeps to n = 10^4.
            table = dict(self._float_weights(n))
        else:
            table = {}
            rows = comb.multiplicities(n) if exact else self._float_weights(n)
            for m, w in rows:
                for s, x in self._dist(m, r - 1, exact).items():
                    table[s] = table.get(s, 0) + w * x
        self._dist_memo[key] = table
        return table

    # -- derived statistics -------------------------------------------------------

    def bifurcation_ratio(self, n: int, r: int, f: Observable, mode: str = "auto"):
        """E_n[f at base r] / E_n[f at base r+1]; exact when mode allows."""
        num = self.expectation(n, r, f, mode)
        den = self.expectation(n, r + 1, f, mode)
        if den == 0:
            raise DegenerateRatioError(
                f"denominator expectation at base order {r + 1} is zero for n={n}"
            )
        return num / den

    def variance(self, n: int, r: int, mode: str = "auto"):
        """Var(S_r) over magnitude n: E[S_r^2] - E[S_r]^2."""
        sq = self.expectation(n, r, _SQUARE, mode)
        mean = self.expectation(n, r, _LINEAR, mode)
        return sq - mean * mean


def _validate_query(n: int, r: int):
    if n < 1:
        raise ValueError(f"magnitude must be >= 1, got {n}")
    if r < 1:
        raise ValueError(f"base order must be >= 1, got {r}")


def _integral(value: Fraction):
    """An integral Fraction as an int, so counting sums skip the gcd."""
    return value.numerator if value.denominator == 1 else value


def _weight_rel_error(n: int) -> float:
    """First-order relative error of one log-gamma weight entry."""
    return 8 * _EPS * max(1.0, 2 * n * math.log(2 * n))


_LINEAR = _parse("S1")
_SQUARE = _parse("S1^2")
