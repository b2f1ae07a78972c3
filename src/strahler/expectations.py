"""Expectations of observables over the uniform tree model.

The leaf-removal transform maps a uniform magnitude-n tree onto a uniform
magnitude-m tree with probability w(n, m) and shifts every branch order down
by one, so S_1 = n, S_2, S_3, ... is a Markov chain on magnitudes with one
kernel K(n, m), m = 0..n//2. Magnitude 0 is the absorbing state above the
root order (K(0, .) = K(1, .) = δ_0, its window all zeros), which every
chain reaches within n.bit_length() steps. Queries use that kernel or the
independent oracle:

* ``expectation_bruteforce`` averages f over every magnitude-n shape.
* ``expectation_exact`` and ``expectation_float`` apply the kernel backward:
  V_r(n) = K(n, .) . V_{r-1}; at r = 1 it is f(n) when f has one variable,
  and otherwise K(n, .) . V_1 of f with its first variable bound to n.
* ``distribution`` pushes δ_n forward through r - 1 kernel steps, in O(n)
  memory and with no memo.

The modes differ only in data (``_Arithmetic``). Exact mode counts: its rows
hold multiplicity(n, m) and its values are T(n) = c_{n-1} V(n), integers
whenever f is integer-valued, divided by c_{n-1} once per answer or table.
Float mode uses the log-gamma rows w(n, m) and carries a first-order
absolute error bound alongside every value.

The levels below a query are kept in tables over magnitudes 0..top, one per
key (mode, canonical text of the possibly rebound observable, level), so
results do not depend on call order. A fill assigns a longer table under
its key and never mutates one; every entry is a pure function of the key
and its magnitude, which keeps concurrent use safe under the usual dict
atomicity. An error of f at the all-zeros window (magnitude 0) is raised
only by a row that weights magnitude 0, as the oracle raises it only where
a tree has that window. Float results are deterministic from run to run.
"""

from __future__ import annotations

import math
import operator
import sys
import warnings
from collections import Counter
from fractions import Fraction
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

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


class _Arithmetic(NamedTuple):
    """What tells the modes apart; the recursion and the push are shared.

    An exact table entry is an int count, or a Fraction for a rational f;
    a float entry is (value, |value|, absolute error bound), so one kernel
    dot yields the sum, its absolute mass and the propagated error.
    """

    dtype: type
    row: Callable  # n -> K(n, .) over m = 0..n//2
    scale: Callable  # m -> level-1 factor: c_{m-1} for counts, 1 for probabilities
    leaf: Callable  # scaled observable value -> table entry
    settle: Callable  # (n, K(n, .) @ level below) -> table entry
    divide: Callable  # (count, normaliser) -> answer


class ExpectationEngine:
    """Exact and floating expectation queries over shared level tables.

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
        self._tables: dict = {}

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

    # -- the kernel, backward -------------------------------------------------

    def expectation_exact(self, n: int, r: int, f: Observable) -> Fraction:
        _validate_query(n, r)
        self._check_exact_limit(n)
        return Fraction(self._expect(_EXACT, n, r, f), comb.catalan(n - 1))

    def expectation_float(self, n: int, r: int, f: Observable) -> FloatEstimate:
        _validate_query(n, r)
        value, _mass, error = self._expect(_FLOAT, n, r, f)
        if value:
            return FloatEstimate(value, error / abs(value))
        # An exact zero is exact; a zero left by cancellation has no relative bound.
        return FloatEstimate(value, math.inf if error else 0.0)

    def _expect(self, arith: _Arithmetic, n: int, r: int, f: Observable):
        """The entry V_r(n) of f; only the levels below r are stored."""
        r = min(r, n.bit_length() + 1)  # past this order every window is all zeros
        if r == 1:
            return self._first(arith, f, n)
        return _step(arith, n, *self._level(arith, f, r - 1, n // 2))

    def _level(self, arith: _Arithmetic, f: Observable, j: int, top: int):
        """The level-j table of f over magnitudes 0..top, and the error f
        raises at magnitude 0 (the all-zeros window) or None. Only rows below
        magnitude 2 weight magnitude 0, so that error waits for ``_step``;
        every other entry a fill computes is one its query weights."""
        key = (arith, f.text, j)
        table, undefined = self._tables.get(key, ((), None))
        done = len(table)
        if done > top:
            return table, undefined
        if j > 1:
            below, undefined = self._level(arith, f, j - 1, top // 2)
            entry = partial(_step, arith, below=below, undefined=undefined)
        else:
            entry = partial(self._first, arith, f)
        fresh = []
        if done == 0:
            try:
                fresh.append(entry(0))
            except ArithmeticError as exc:
                fresh.append(arith.leaf(0))
                undefined = exc
        fresh += [entry(m) for m in range(done + len(fresh), top + 1)]
        fresh = np.array(fresh, dtype=arith.dtype)
        table = fresh if done == 0 else np.concatenate((table, fresh))
        self._tables[key] = (table, undefined)
        return table, undefined

    def _first(self, arith: _Arithmetic, f: Observable, n: int):
        """The level-1 entry V_1(n) of f."""
        if f.arity == 1 or n < 2:
            # The whole window is (n, 0, ...): S_1 = n, and magnitudes below
            # 2 have nothing above order 1. This also bounds the binding chain.
            window = (n,) + (0,) * (f.arity - 1)
            return arith.leaf(arith.scale(n) * f.evaluate(window))
        return _step(arith, n, *self._level(arith, f.bind_first(n), 1, n // 2))

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

    # -- the kernel, forward --------------------------------------------------

    def distribution(self, n: int, r: int, mode: str = "exact") -> dict:
        """P_n(S_r = s) over the nonzero support, exact or float."""
        _validate_query(n, r)
        arith = _EXACT if mode == "exact" else _FLOAT
        if arith is _EXACT:
            self._check_exact_limit(n)
        law = np.zeros(n + 1, dtype=arith.dtype)
        law[n] = 1
        for _ in range(min(r - 1, n.bit_length())):  # then the law stays at δ_0
            pushed = np.zeros((len(law) + 1) // 2, dtype=arith.dtype)
            for k, x in enumerate(law.tolist()):
                if x:
                    row = arith.row(k)
                    pushed[: len(row)] += x * row
            law = pushed
        total = arith.scale(n)
        return {
            s: arith.divide(x * arith.scale(s), total)
            for s, x in enumerate(law.tolist())
            if x
        }

    def _check_exact_limit(self, n: int):
        if n > self.exact_limit:
            raise LimitExceededError(
                f"magnitude {n} exceeds the exact-mode limit {self.exact_limit}"
            )

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


def _step(arith: _Arithmetic, n: int, below, undefined=None):
    """One backward kernel step: the entry K(n, .) . (level below), or the
    level's magnitude-0 error if the row gives that entry weight."""
    row = arith.row(n)
    if undefined is not None and row[0]:
        raise undefined.with_traceback(None)
    return arith.settle(n, row @ below[: len(row)])


def _integral(value: Fraction):
    """An integral Fraction as an int, so counting sums skip the gcd."""
    return value.numerator if value.denominator == 1 else value


def _float_leaf(value: Fraction) -> tuple:
    v = float(value)
    return v, abs(v), 2 * _EPS * abs(v)


def _float_settle(n: int, dot: np.ndarray) -> tuple:
    """The entry from w(n, .) @ (level below): the weights' own error and the
    summation rounding add to the children's errors in proportion to the mass."""
    total, mass, error = dot.tolist()
    weight_error = 8 * _EPS * max(1.0, 2 * n * math.log1p(2 * n))  # log-gamma rows
    return total, abs(total), error + mass * (weight_error + (n // 2 + 1) * _EPS)


# (dtype, row, scale, leaf, settle, divide) of each mode
_EXACT = _Arithmetic(
    object, comb.multiplicity_row, lambda m: comb.catalan(max(m - 1, 0)), _integral,
    lambda n, dot: dot, Fraction,
)
_FLOAT = _Arithmetic(
    float, comb.float_weight_row, lambda m: 1, _float_leaf, _float_settle,
    operator.truediv,
)

_LINEAR = _parse("S1")
_SQUARE = _parse("S1^2")
