"""Expectations of observables over the uniform tree model.

The leaf-removal transform maps a uniform magnitude-n tree onto a uniform
magnitude-m tree with probability w(n, m) and shifts every branch order down
by one, so S_1 = n, S_2, S_3, ... is a Markov chain on magnitudes with one
kernel K(n, m), m = 0..n//2. Magnitude 0 is the absorbing state above the
root order (K(0, .) = K(1, .) = δ_0, its window all zeros), which every
chain reaches within n.bit_length() steps. Queries use that kernel or the
independent oracle:

* ``expectation_bruteforce`` averages f over the branch profiles of every
  magnitude-n shape. ``profile_counts`` tallies those profiles by the root
  split, not by walking the shapes: a shape is a (left, right) pair of
  smaller shapes, and the Horton-Strahler join rule, ``trees.join``, gives
  its profile from theirs (Flajolet, Raoult & Vuillemin, 1979). The tally
  shares nothing with the kernel, so it checks the kernel independently.
* ``expectation_exact`` and ``expectation_float`` apply the kernel backward:
  V_r(n) = K(n, .) . V_{r-1}; at r = 1 it is f(n) when f has one variable,
  and otherwise K(n, .) . V_1 of f with its first variable bound to n.
* ``distribution`` pushes δ_n forward through r - 1 kernel steps. Every
  pushed law is memoised per (mode, n, step), so a higher order of the same
  magnitude continues from the last law an earlier query left.

Every public query resolves its mode once, in ``_arithmetic``: auto is exact
up to ``exact_limit`` and float past it, where it warns once, at the caller
of the query; an explicit exact query past the ceiling raises.

The modes differ only in data (``_Arithmetic``). Exact mode counts: its rows
hold multiplicity(n, m) and its values are T(n) = c_{n-1} V(n), integers
whenever f is integer-valued, divided by c_{n-1} once per answer or table.
Float mode uses the log-gamma rows w(n, m) and carries a first-order
absolute error bound alongside every value.

The levels below a query are kept in tables over magnitudes 0..top, one per
key (mode, observable, level); the observable, possibly rebound, hashes
and compares by its AST and is never printed. Results do not depend on
call order. A fill assigns a longer table under
its key and never mutates one; every entry is a pure function of the key
and its magnitude, which keeps concurrent use safe under the usual dict
atomicity. Magnitudes below 2 are read off their window, (n, 0, ...) at
order 1 and all zeros above; every other entry is one kernel step. No row of
magnitude >= 2 weights magnitude 0, so a table's magnitude-0 slot is a zero
and f is evaluated only at windows some tree has, as the oracle evaluates
it. Float results are deterministic from run to run.
"""

from __future__ import annotations

import math
import operator
import sys
import warnings
from collections import Counter
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from . import combinatorics as comb
from . import trees as trees_mod
from .observables import Observable, parse as _parse
from .trees import join

DEFAULT_EXACT_LIMIT = 300
# The oracle's ceiling; it tallies distinct profiles (195 at n = 40), not shapes.
ORACLE_LIMIT = 40
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

    name: str  # "exact" or "float"
    dtype: type
    row: Callable  # n -> K(n, .) over m = 0..n//2
    scale: Callable  # m -> level-1 factor: c_{m-1} for counts, 1 for probabilities
    leaf: Callable  # scaled observable value -> table entry
    settle: Callable  # (n, K(n, .) @ level below) -> table entry
    divide: Callable  # (count, normaliser) -> answer


class ExpectationEngine:
    """Exact and floating expectation queries over shared level tables.

    ``exact_limit`` caps exact recursion, beyond which auto mode falls back
    to floats with one warning, attributed to the caller of the public query.
    Oracle queries are capped at ``ORACLE_LIMIT``.
    """

    def __init__(self, exact_limit: int = DEFAULT_EXACT_LIMIT):
        self.exact_limit = exact_limit
        self._profiles: dict[int, Counter] = {}
        self._tables: dict = {}
        self._laws: dict = {}

    # -- the oracle, by root split --------------------------------------------

    def profile_counts(self, n: int) -> Counter:
        """Multiset of branch profiles over all magnitude-n shapes.

        P(1) = {(1,): 1}, and P(n) joins every a in P(k) with every b in
        P(n - k), k = 1..n-1, with multiplicity P(k)[a] P(n - k)[b]: the
        shapes with a magnitude-k left subtree. Magnitudes are filled in
        ascending order, each assigned once.
        """
        if n > ORACLE_LIMIT:
            raise LimitExceededError(f"magnitude {n} exceeds the oracle limit {ORACLE_LIMIT}")
        profiles = self._profiles
        for size in range(len(profiles) + 1, n + 1):
            tally = Counter({(1,): 1} if size == 1 else ())
            for k in range(1, size):
                for a, x in profiles[k].items():
                    for b, y in profiles[size - k].items():
                        tally[join(a, b)] += x * y
            profiles[size] = tally
        return profiles[n]

    def expectation_bruteforce(self, n: int, r: int, f: Observable) -> Fraction:
        """Average of f over every magnitude-n shape, equal weight each."""
        _validate_query(n, r)
        p = f.arity
        total = 0
        for counts, mult in self.profile_counts(n).items():
            window = trees_mod.BranchProfile(counts).window(r, p)
            total += mult * f.evaluate(window)
        return Fraction(total, comb.catalan(n - 1))

    # -- the kernel, backward -------------------------------------------------

    def expectation_exact(self, n: int, r: int, f: Observable) -> Fraction:
        self._arithmetic(n, r, "exact")
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
        below = self._level(arith, f, r - 1, n // 2) if r > 1 else None
        return self._entry(arith, f, r, n, below)

    def _level(self, arith: _Arithmetic, f: Observable, j: int, top: int):
        """The level-j table of f over magnitudes 0..top; its magnitude-0 slot
        is a zero that no entry of magnitude >= 2 weights."""
        key = (arith, f, j)
        table = self._tables.get(key, ())
        done = len(table)
        if done > top:
            return table
        below = self._level(arith, f, j - 1, top // 2) if j > 1 else None
        fresh = [arith.leaf(0)] if done == 0 else []
        fresh += [self._entry(arith, f, j, m, below) for m in range(max(done, 1), top + 1)]
        fresh = np.array(fresh, dtype=arith.dtype)
        table = fresh if done == 0 else np.concatenate((table, fresh))
        self._tables[key] = table
        return table

    def _entry(self, arith: _Arithmetic, f: Observable, j: int, n: int, below):
        """The entry V_j(n) of f, given the level below when j > 1. A magnitude
        below 2, or order 1 of a one-variable f, is f at its window; every
        other entry is one kernel step K(n, .) . (level below), and at order
        1 that is the step over f with its first variable bound to n."""
        if n < 2 or (j == 1 and f.arity == 1):
            window = (n if j == 1 else 0,) + (0,) * (f.arity - 1)
            return arith.leaf(arith.scale(n) * f.evaluate(window))
        if j == 1:
            below = self._level(arith, f.bind_first(n), 1, n // 2)
        row = arith.row(n)
        return arith.settle(n, row @ below[: len(row)])

    def expectation(self, n: int, r: int, f: Observable, mode: str = "auto"):
        """Dispatch by mode; auto switches to float past the exact ceiling."""
        if self._arithmetic(n, r, mode) is _EXACT:
            return self.expectation_exact(n, r, f)
        return self.expectation_float(n, r, f).value

    def mode_for(self, n: int, mode: str = "auto") -> str:
        """The arithmetic, "exact" or "float", that ``mode`` uses at magnitude
        n: auto is exact up to ``exact_limit`` and float past it."""
        if mode == "auto":
            return "exact" if n <= self.exact_limit else "float"
        if mode in ("exact", "float"):
            return mode
        raise ValueError(f"unknown mode {mode!r}")

    def _arithmetic(self, n: int, r: int, mode: str) -> _Arithmetic:
        """The arithmetic a public query in ``mode`` uses at magnitude n and
        base order r, resolved here and nowhere else. An unknown mode raises;
        an auto fallback to float warns once, at the caller of the public
        query; then the query is validated, and an explicit exact mode past
        the ceiling raises."""
        exact = self.mode_for(n, mode) == "exact"
        if not exact and mode == "auto":
            warnings.warn(
                f"magnitude {n} exceeds the exact ceiling {self.exact_limit}; "
                "falling back to float mode",
                stacklevel=3,
            )
        _validate_query(n, r)
        if exact and n > self.exact_limit:
            raise LimitExceededError(
                f"magnitude {n} exceeds the exact-mode limit {self.exact_limit}"
            )
        return _EXACT if exact else _FLOAT

    # -- the kernel, forward --------------------------------------------------

    def distribution(self, n: int, r: int, mode: str = "exact") -> dict:
        """P_n(S_r = s) over the nonzero support, exact, float or auto."""
        _validate_query(n, r)  # a bad n or r is reported ahead of a bad mode
        arith = self._arithmetic(n, r, mode)
        law = self._law(arith, n, min(r - 1, n.bit_length()))  # then it stays at δ_0
        total = arith.scale(n)
        return {
            s: arith.divide(x * arith.scale(s), total) for s, x in enumerate(law) if x
        }

    def _law(self, arith: _Arithmetic, n: int, steps: int) -> list:
        """The weights of magnitudes 0, 1, ... after ``steps`` forward kernel
        steps from δ_n. Each pushed law is kept under (mode, n, steps), and,
        like a level table, assigned once and never mutated."""
        key = (arith, n, steps)
        if key in self._laws:
            return self._laws[key]
        if steps == 0:
            return [0] * n + [1]
        below = self._law(arith, n, steps - 1)
        pushed = np.zeros((len(below) + 1) // 2, dtype=arith.dtype)
        for k, x in enumerate(below):
            if x:
                row = arith.row(k)
                pushed[: len(row)] += x * row
        law = self._laws[key] = pushed.tolist()
        return law

    # -- derived statistics -------------------------------------------------------

    def bifurcation_ratio(self, n: int, r: int, f: Observable, mode: str = "auto"):
        """E_n[f at base r] / E_n[f at base r+1]; exact when mode allows."""
        mode = self._arithmetic(n, r, mode).name
        num = self.expectation(n, r, f, mode)
        den = self.expectation(n, r + 1, f, mode)
        if den == 0:
            raise DegenerateRatioError(
                f"denominator expectation at base order {r + 1} is zero for n={n}"
            )
        return num / den

    def variance(self, n: int, r: int, mode: str = "auto"):
        """Var(S_r) over magnitude n: E[S_r^2] - E[S_r]^2."""
        mode = self._arithmetic(n, r, mode).name
        sq = self.expectation(n, r, _SQUARE, mode)
        mean = self.expectation(n, r, _LINEAR, mode)
        return sq - mean * mean


def _validate_query(n: int, r: int):
    if n < 1:
        raise ValueError(f"magnitude must be >= 1, got {n}")
    if r < 1:
        raise ValueError(f"base order must be >= 1, got {r}")


def _integral(value):
    """c_{m-1} f as an int when integral, so counting sums skip the gcd: f is
    an int unless it divides, and c_{m-1} f is often integral when f is not."""
    return value.numerator if value.denominator == 1 else value


def _float_leaf(value) -> tuple:
    v = float(value)
    return v, abs(v), 2 * _EPS * abs(v)


def _float_settle(n: int, dot: np.ndarray) -> tuple:
    """The entry from w(n, .) @ (level below): the weights' own error and the
    summation rounding add to the children's errors in proportion to the mass."""
    total, mass, error = dot.tolist()
    return total, abs(total), error + mass * (_weight_error(n) + (n // 2 + 1) * _EPS)


def _weight_error(n: int) -> float:
    """Relative error allowed each entry of the log-gamma row w(n, .)."""
    return 8 * _EPS * max(1.0, 2 * n * math.log1p(2 * n))


# (name, dtype, row, scale, leaf, settle, divide) of each mode
_EXACT = _Arithmetic(
    "exact", object, comb.multiplicity_row, lambda m: comb.catalan(max(m - 1, 0)),
    _integral, lambda n, dot: dot, Fraction,
)
_FLOAT = _Arithmetic(
    "float", float, comb.float_weight_row, lambda m: 1, _float_leaf, _float_settle,
    operator.truediv,
)

_LINEAR = _parse("S1")
_SQUARE = _parse("S1^2")
