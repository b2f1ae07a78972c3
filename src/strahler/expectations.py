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
  V_r(n) = K(n, .) . V_{r-1}; at r = 1 it is f(n) when f has one variable.
  An f of several variables whose divisors mention S1 alone splits as
  sum_a S1^a c_a P_a(S2, ...) / Q(S1) (``strahler.split``), and
  since the chain is Markov, E_n[f] = sum_a c_a n^a / Q(n) E_n[P_a at
  base 2]: one kernel step over each part's level-1 table, which every n
  shares. Where a divisor vanishes at S1 = n, and for an f that does not
  split (``S1/S2``, ``1/S2``), it is K(n, .) . V_1 of f with its first
  variable bound to n.
* A one-variable polynomial f of degree K (``Observable.degree``, exact
  after cancellation: ``S1^3``, ``(S1-1)*S1/2``, ``S1/(S1-S1+1)``)
  answers at base order 2 by the marked-cherry sum, in both modes.
  S_2 counts cherries, the internal nodes whose two children are leaves,
  so c_{n-1} E_n[C(S_2, k)] counts magnitude-n trees with k chosen
  cherries. Contracting each chosen cherry to a marked leaf maps these one
  to one onto magnitude-(n-k) trees with k marked leaves (chosen cherries
  are disjoint, and expanding the marked leaves undoes it), so that count
  is C(n-k, k) c_{n-k-1}. Newton's series f(s) = sum_k Δ^k f(0) C(s, k)
  then gives

      E_n[f at 2] = sum_{k <= min(K, n/2)} Δ^k f(0) C(n-k, k) c_{n-k-1} / c_{n-1},

  K + 1 terms at most, whose Catalan ratio is the product of
  (j+1) / (2(2j-1)) over j = n-k..n-1: a query forms no Catalan number
  (``_Newton``). The level-2 table entry at magnitude m >= 1 is the
  integer sum_k Δ^k f(0) C(m-k, k) c_{m-k-1}, so a fill or an entry steps
  over f's Newton form where it would step over a row (``_exact_step``),
  for the levels above and, at order 1, for the parts of a split f that
  are such polynomials (the part S1 of ``S2/S1`` and of ``S1*S2-S3``).
  Past K^2 = 8 n the form's K (K + 1) / 2 differences cost more than a
  row of n // 2 terms, and the kernel answers. A float entry is the same
  sum in floats, K numpy passes over the magnitudes of a fill, within
  (3K + 2) eps of its terms' mass ((5K + 2) eps past m^2 = 2^53;
  ``_Newton.float_rows``), so a float query at r = 2 builds no weight row
  and no level-1 table. A float entry
  whose sum is not finite, or whose bound is worse than a kernel step's
  could be (terms that cancel), takes the kernel step instead, as does
  one of magnitude m < K^2 / 8: the route of a float entry depends on its
  magnitude alone.
* In exact mode, at base order r >= 3 such an f reads the coefficient of
  z^n in its generating function instead, where the operation counts of
  ``_series_pays`` say that is cheaper than the kernel: never at r = 3,
  where the kernel over the sum's level-2 table is linear in n, and from
  about n = 10 K 2^(r-1) at r >= 4 (n = 88 for ``S1`` at r = 4). Where
  K = 1 does not pay, no K does, and f's degree is not read; elsewhere a
  constant, ``0*S1`` included, is its own expectation. The series
  (``gf``) follows from f's values alone and is exact, so the answer is
  the same value either way. A float query at r >= 3 steps over the sum's
  level-2 table. Observables that divide by a variable (``S1/S1``,
  ``1/S1``) or pass the term limit, several variables and distributions
  stay on the kernel.
* ``distribution`` pushes δ_n forward through r - 1 kernel steps. Every
  pushed law is memoised per (mode, n, step), so a higher order of the same
  magnitude continues from the last law an earlier query left. An exact
  step is plain int arithmetic on a list: each weighted magnitude k adds
  its weight x times multiplicity(k, .), walked scaled by x
  (``comb.scaled_multiplicities``, the walk behind ``multiplicity_row``).

Every public query resolves its mode once, in ``_arithmetic``: auto is exact
up to ``exact_limit`` and float past it, where it warns once, at the caller
of the query; an explicit exact query past the ceiling raises.

The modes differ only in data (``_Arithmetic``). Exact mode counts: its rows
hold multiplicity(n, m) and its values are T(n) = c_{n-1} V(n), integers
whenever f is integer-valued, divided by c_{n-1} once per answer or table.
Float mode uses the log-gamma rows w(n, m) and carries a first-order
absolute error bound alongside every value. Every table fill is one
``steps`` sweep over its range, which at order 1 of a split f serves every
part: a row and a dot per entry and table when exact, and in float mode, as
for a pushed law, one matrix product per table and block of a fixed
partition of the magnitudes (``comb.float_weight_blocks``) at the block's
full shape, each row or block built once, and only if some table the sweep
steps over is not a Newton form. A query's own entry is one row's dot
(``step``), or its Newton form's sum.

The levels below a query are kept in tables over magnitudes 0..top, one per
key (mode, observable, level); the observable, a part of one or one
rebound, hashes and compares by its AST and is never printed. Results do
not depend on call order. A fill assigns a longer table under its key and
never mutates one, and so does a series store, keyed by (observable,
order); every entry is a pure function of the key and its magnitude, which
keeps concurrent use safe under the usual dict atomicity. In float mode that
holds to the bit, since a product's summation order depends on its shape
alone and a block's shape not on the range a fill covers. Each
observable's split is made once per engine and kept. Magnitudes below 2
are read off their window, (n, 0, ...) at order 1 and all zeros above;
every other entry is one kernel step. No row of
magnitude >= 2 weights magnitude 0, so a table's magnitude-0 slot is a zero
and f is evaluated only at windows some tree has, as the oracle evaluates
it. Float results are deterministic from run to run.
"""

from __future__ import annotations

import functools
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


class _Series(NamedTuple):
    """The stored series of a polynomial f at one base order: E_n[f] is
    offset + coeffs[n] / (scale c_{n-1}), coeffs integer."""

    offset: object  # f(0), an int or Fraction
    scale: int
    num: list
    den: list
    coeffs: list


class _Newton(NamedTuple):
    """A one-variable polynomial f of degree K in Newton's form,
    f(s) = sum_k diffs[k] C(s, k) / scale with diffs[k] = scale Δ^k f(0),
    k = 0..K, integers: its base-2 answers are the marked-cherry sum. As
    what a level-2 entry steps over (``ExpectationEngine._below``), it
    carries ``kernel``, top -> f's level-1 table over 0..top, for the float
    entries the sum leaves to a kernel step (``float_rows``)."""

    scale: int
    diffs: tuple
    kernel: Callable = None

    @classmethod
    def of(cls, f: Observable, degree: int) -> "_Newton":
        """f's form from its values at 0..degree, differenced degree times."""
        values = [f.evaluate((s,)) for s in range(degree + 1)]
        diffs = []
        while values:
            diffs.append(values[0])
            values = list(map(operator.sub, values[1:], values))
        scale = math.lcm(*(Fraction(d).denominator for d in diffs))
        return cls(scale, tuple(int(d * scale) for d in diffs))

    def count(self, n: int):
        """c_{n-1} E_n[f at base 2] for n >= 1: sum_k diffs[k]
        C(n-k, k) c_{n-k-1} / scale, an int unless f's values are not."""
        total = sum(
            d * math.comb(n - k, k) * comb.catalan(n - k - 1)
            for k, d in enumerate(self.diffs[: n // 2 + 1])
        )
        return total if self.scale == 1 else _integral(Fraction(total, self.scale))

    def expectation(self, n: int) -> Fraction:
        """E_n[f at base 2] for n >= 1: the count over c_{n-1}, whose k-th
        term's ratio C(n-k, k) c_{n-k-1} / c_{n-1} is the (k-1)-th times
        (n-2k+2)(n-2k+1) / (2k (2n-2k-1)), so no Catalan number is formed.
        The sum is carried over the product of those divisors."""
        total, den, ratio = 0, 1, 1
        for k, d in enumerate(self.diffs[: n // 2 + 1]):
            if k:
                ratio *= (n - 2 * k + 2) * (n - 2 * k + 1)
                divisor = 2 * k * (2 * n - 2 * k - 1)
                total *= divisor
                den *= divisor
            total += d * ratio
        return Fraction(total, den * self.scale)

    def float_rows(self, ns: np.ndarray) -> np.ndarray:
        """Float table rows (value, |value|, error) of E_m[f at base 2] for
        the magnitudes m >= 2 in ns, each entry an elementwise function of m:
        the sum of the terms t_k = (diffs[k] / scale) ρ_k(m), with ρ_0 = 1
        and ρ_k = ρ_{k-1} (m-2k+2)(m-2k+1) / (2k (2m-2k-1)), K numpy passes.
        Past k = m // 2 a factor is an exact zero, and so is every later ρ.

        The error bound counts roundings of u = eps / 2 (Higham, *Accuracy
        and Stability of Numerical Algorithms*, 2002, §3-4). The linear
        factors m-2k+2, ..., 2m-2k-1 are exact integers below 2^53. Their two
        products are below m^2 (as k <= m / 2 where ρ_k is nonzero), so exact
        while m^2 <= 2^53, and one rounding each past it. Each ρ_j then adds
        the division's rounding and the product's: ρ_k carries at most 2k
        roundings, or 4k past m^2 = 2^53. The term adds diffs[k] / scale
        (Python's int / int, correctly rounded) and its product, 2k + 2 (or
        4k + 2) in all, and the summation of the K + 1 terms in order adds
        at most K more to each (Higham, §4.2). Every term's relative error is
        therefore within γ_j = j u / (1 - j u) <= j eps, j = 3K + 2 (or
        5K + 2), and the sum's absolute error within j eps times the mass
        sum_k |t_k|.

        A row is NaN, and the entry is left to the kernel, where the sum
        does not answer as well as a kernel step could: where a term or the
        sum is not a finite float (every row, when some diffs[k] / scale
        does not fit one), where its bound exceeds the least bound of a
        kernel step, ``_step_error(m)`` |value| (a centred f whose terms
        cancel), below the form's own bound K^2 <= 8 m
        (``ExpectationEngine._newton``), and past m = 2^52, where the linear
        factors stop being exact. These depend on m alone, so an entry's
        route and bits do too, whatever range a fill covers."""
        try:
            coeffs = [d / self.scale for d in self.diffs]
        except OverflowError:
            return np.full((len(ns), 3), math.nan)
        m = np.asarray(ns, dtype=float)
        rows = np.empty((len(m), 3))
        total, size, error = rows.T  # the error column holds the mass first
        total[:], error[:] = coeffs[0], abs(coeffs[0])
        ratio = np.ones(len(m))
        with np.errstate(over="ignore", invalid="ignore"):
            for k, c in enumerate(coeffs[1:], 1):
                ratio *= (m - 2 * k + 2) * (m - 2 * k + 1) / (2 * k * (2 * m - 2 * k - 1))
                term = c * ratio
                total += term
                error += np.abs(term)
            degree = len(coeffs) - 1
            error *= np.where(m * m > 2.0**53, 5 * degree + 2, 3 * degree + 2) * _EPS
            kept = np.isfinite(total) & (error <= _step_error(m) * np.abs(total, out=size))
        kept &= (degree * degree <= 8 * m) & (m <= 2.0**52)
        rows[~kept] = math.nan
        return rows


class _Arithmetic(NamedTuple):
    """What tells the modes apart; the recursion and the push are shared.

    An exact table entry is an int count, or a Fraction for a rational f;
    a float entry is (value, |value|, absolute error bound), so one kernel
    product yields the sum, its absolute mass and the propagated error.
    Every table fill is ``steps``; a query's own entry is one row's dot.
    """

    name: str  # "exact" or "float"
    scale: Callable  # m -> level-1 factor: c_{m-1} for counts, 1 for probabilities
    leaves: Callable  # scaled observable values -> table rows
    pack: Callable  # table entries -> table rows
    step: Callable  # (n, level below) -> table entry K(n, .) . (level below)
    steps: Callable  # (lo, hi, tables below) -> per table, its rows of n = lo..hi >= 2
    push: Callable  # law -> the law one forward kernel step later
    combine: Callable  # (weights, scale, entries) -> sum of weights * entries / scale
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
        self._series: dict = {}
        self._splits: dict = {}
        self._degrees: dict = {}
        self._newtons: dict = {}

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
        if r == 2 and (newton := self._newton(f, n)):
            return newton.expectation(n)
        if r > 2 and f.arity == 1 and _series_pays(n, r, 1):
            degree = self._degree(f)
            if degree == 0:  # a constant
                return Fraction(f.evaluate((0,)))
            if degree and _series_pays(n, r, degree):
                return self._expect_series(n, r, f, degree)
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
        return self._entry(arith, f, r, n, self._below(arith, f, r, n))

    def _level(self, arith: _Arithmetic, f: Observable, j: int, top: int):
        """The level-j table of f over magnitudes 0..top; its magnitude-0 slot
        is a zero that no entry of magnitude >= 2 weights."""
        key = (arith, f, j)
        table = self._tables.get(key, ())
        done = len(table)
        if done > top:
            return table
        below = self._below(arith, f, j, top)
        # Magnitude 1, and every magnitude at order 1 of a one-variable f, is
        # f at its window; every other entry is one kernel step.
        last_leaf = top if j == 1 and f.arity == 1 else min(top, 1)
        values = [0] if done == 0 else []
        values += [_window_value(arith, f, j, m) for m in range(max(done, 1), last_leaf + 1)]
        fresh = [arith.leaves(values)]
        start = max(done, last_leaf + 1)
        if start <= top and j > 1:
            fresh.append(arith.steps(start, top, [below])[0])
        elif start <= top:
            # Order 1 of a several-variable f: one sweep over the range steps
            # every part, combined magnitude by magnitude. A part's rows turn
            # into Python values one magnitude at a time, so a fill never
            # holds all of them as lists.
            parts = arith.steps(start, top, below) if below else []
            fresh.append(arith.pack([
                self._first(arith, f, n, [part[i : i + 1].tolist()[0] for part in parts])
                for i, n in enumerate(range(start, top + 1))
            ]))
        table = np.concatenate(([] if done == 0 else [table]) + fresh)
        self._tables[key] = table
        return table

    def _below(self, arith: _Arithmetic, f: Observable, j: int, top: int):
        """What the level-j entries of f to magnitude top step over: the level
        j-1 table of f or, at level 1, what each of f's parts steps over at
        level 2 when f splits by powers of S1 (None when it does not). At
        level 2 a one-variable polynomial steps over its Newton form
        (``_newton``) instead, which no kernel row reads, with its level-1
        table at hand for the float entries the sum leaves to the kernel."""
        if j == 2 and (newton := self._newton(f, top)):
            return newton._replace(kernel=functools.partial(self._level, arith, f, 1))
        if j > 1:
            return self._level(arith, f, j - 1, top // 2)
        if f.arity == 1:
            return None
        split = self._split(f)
        return split and [self._below(arith, part, 2, top) for part in split.parts]

    def _split(self, f: Observable):
        """f split by powers of S1 (``split.split_first``), made once."""
        if f not in self._splits:
            from .split import split_first  # on first use, so that set-up does not load it

            self._splits[f] = split_first(f)
        return self._splits[f]

    def _degree(self, f: Observable):
        """The degree of a one-variable polynomial f (``Observable.degree``),
        else None; read once."""
        if f not in self._degrees:
            self._degrees[f] = f.degree()
        return self._degrees[f]

    def _newton(self, f: Observable, n: int):
        """f in Newton's form (``_Newton``), made once, when f is a
        one-variable polynomial of degree K with K^2 <= 8 n; else None. The
        form takes f at 0..K and K (K + 1) / 2 differences of those values;
        past that bound a row of n // 2 terms costs less or about the same
        (cold queries of S1^K meet near K = 60 at n = 300 and past K = 150
        at n = 1000). A fill to n takes the form for all its entries when
        exact, and in float mode for those of magnitude m with K^2 <= 8 m
        (``_Newton.float_rows``)."""
        degree = self._degree(f)
        if degree is None or degree * degree > 8 * n:
            return None
        if f not in self._newtons:
            self._newtons[f] = _Newton.of(f, degree)
        return self._newtons[f]

    def _entry(self, arith: _Arithmetic, f: Observable, j: int, n: int, below):
        """The entry V_j(n) of f, given ``_below``: f at its window below
        magnitude 2 and at order 1 of a one-variable f, ``_first`` of a step
        over each part at order 1 of several variables, else one step."""
        if n < 2 or (j == 1 and f.arity == 1):
            return arith.leaves([_window_value(arith, f, j, n)]).tolist()[0]
        if j == 1:
            return self._first(arith, f, n, (arith.step(n, part) for part in below or ()))
        return arith.step(n, below)

    def _first(self, arith: _Arithmetic, f: Observable, n: int, parts):
        """The order-1 entry at n >= 2 of f = sum_a S1^a c_a P_a(S2, ...) /
        Q(S1), given its parts' order-2 entries at n: sum_a c_a n^a / Q(n)
        times P_a's. Where a divisor is zero at n, or f does not split, it is
        one step over f with S1 bound to n, and ``parts`` is not read."""
        split = self._split(f)
        weights = split and split.weights(n)
        if weights:
            return arith.combine(*weights, list(parts))
        return arith.step(n, self._level(arith, f.bind_first(n), 1, n // 2))

    def _expect_series(self, n: int, r: int, f: Observable, degree: int) -> Fraction:
        """E_n[f at base r >= 2] for a polynomial f of the given degree >= 1,
        read off the series of ``gf``: c_{m-1} (f(m) - f(0)), m = 0..degree,
        scaled to integers, give N_1, lifted to N_r. A store grows to at
        least 5/4 of its length and, like a level table, is assigned longer
        and never mutated."""
        from . import gf  # on first use, so that set-up does not load it

        key = (f, r)
        series = self._series.get(key)
        if series is None:
            offset = f.evaluate((0,))
            head = [0] + [
                (f.evaluate((m,)) - offset) * comb.catalan(m - 1)
                for m in range(1, degree + 1)
            ]
            scale = math.lcm(*(Fraction(x).denominator for x in head))
            head = [int(x * scale) for x in head]
            num = gf.lift(gf.numerator(head, gf.denominator(degree, 1)), degree, r)
            series = _Series(offset, scale, num, gf.denominator(degree, r), [])
        size = len(series.coeffs)
        if size <= n:
            coeffs = gf.extend(series.num, series.den, series.coeffs, max(n, size + size // 4))
            series = series._replace(coeffs=coeffs)
        self._series[key] = series
        return Fraction(series.coeffs[n], series.scale * comb.catalan(n - 1)) + series.offset

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
        law = self._laws[key] = arith.push(self._law(arith, n, steps - 1))
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


def _series_pays(n: int, r: int, degree: int) -> bool:
    """Whether a cold query at base order r >= 3 costs less by the series
    than by the kernel, by operation counts. The series takes 2 d_r - K + 1
    products per coefficient (d_r = K 2^(r-1)), n coefficients in all. The
    kernel takes n//2 steps at n, the K + 1 terms of the marked-cherry sum
    per entry of its level-2 table to t = n >> (r - 2), each counted as a
    step, and floor(t^2/4) steps over each table of levels j = 3..r-1 to
    t = n >> (r - j); a step (a row entry and a dot term, both of
    magnitude-sized integers) costs about 2.5 series products. So the
    kernel is linear in n at r = 3 and always cheaper there, and the series
    pays from n = 88, 180 and 272 at r = 4 (K = 1, 2, 3), from 156, 312 and
    470 at r = 5 and from 306, 612 and 920 at r = 6. Cold queries measured
    at n = 50..1000 in steps of 25 put these crossovers at none for r = 3;
    75-100, 175-200 and 275-300 for r = 4; 125-150, 275-300 and 475-500 for
    r = 5; 250-275, 625-650 and past 1000 for r = 6. Where K = 1 does not
    pay, no K does: a unit of K adds 2 n (2^r - 1) products to the series
    and (n >> (r - 2)) steps to the kernel. Past order n.bit_length() + 1
    every window is all zeros, and the kernel is cheaper there."""
    r = min(r, n.bit_length() + 1)
    if r < 3:
        return False
    per_coefficient = 2 * (degree << (r - 1)) - degree + 1
    kernel_steps = (n // 2 + (degree + 1) * (n >> (r - 2))
                    + sum((n >> i) ** 2 // 4 for i in range(1, r - 2)))
    return 2 * n * per_coefficient <= 5 * kernel_steps


def _window_value(arith: _Arithmetic, f: Observable, j: int, n: int):
    """The scaled value of f at the window of magnitude n at level j, where
    no kernel step applies: (n, 0, ...) at order 1 and all zeros above."""
    window = (n if j == 1 else 0,) + (0,) * (f.arity - 1)
    return arith.scale(n) * f.evaluate(window)


def _integral(value):
    """c_{m-1} f as an int when integral, so counting sums skip the gcd: f is
    an int unless it divides, and c_{m-1} f is often integral when f is not."""
    return value.numerator if value.denominator == 1 else value


def _exact_combine(weights: list, scale: int, entries: list):
    return _integral(Fraction(sum(map(operator.mul, weights, entries)), scale))


def _float_combine(weights: list, scale: int, entries: list) -> tuple:
    """sum w e / scale over (value, |value|, error) entries: each factor
    w / scale is rounded once, and its rounding, the product's and the
    summation's add to the entries' errors in proportion to the mass."""
    total = mass = error = 0.0
    for w, (value, _mass, value_error) in zip(weights, entries):
        factor = w / scale
        term = factor * value
        total += term
        mass += abs(term)
        error += abs(factor) * value_error
    return total, abs(total), error + mass * (len(entries) + 2) * _EPS


def _exact_step(n: int, below):
    """multiplicity_row(n) @ below, or the count of a Newton form."""
    if isinstance(below, _Newton):
        return below.count(n)
    return comb.multiplicity_row(n) @ below[: n // 2 + 1]


def _exact_steps(lo: int, hi: int, tables: list) -> list:
    """Per table, the rows multiplicity_row(n) @ table of n = lo..hi >= 2,
    each multiplicity row built once for every table, and built only if
    some table is not a Newton form, which counts without one."""
    steps = [[] for _ in tables]
    rows_needed = not all(isinstance(below, _Newton) for below in tables)
    for n in range(lo, hi + 1):
        row = comb.multiplicity_row(n) if rows_needed else None
        for below, rows in zip(tables, steps):
            rows.append(below.count(n) if isinstance(below, _Newton)
                        else row @ below[: n // 2 + 1])
    return [np.array(rows, dtype=object) for rows in steps]


def _exact_push(law: list) -> list:
    """One forward step of an exact law, in ints: each weighted magnitude k
    adds its weight x times multiplicity(k, .), walked scaled by x."""
    pushed = [0] * ((len(law) + 1) // 2)
    for k, x in enumerate(law):
        if x:
            row = comb.scaled_multiplicities(k, x)
            pushed[: len(row)] = map(operator.add, pushed, row)
    return pushed


def _float_leaves(values: list) -> np.ndarray:
    """Float table rows (v, |v|, 2 eps |v|) of the values v, one array."""
    v = np.array(values, dtype=float)
    return np.column_stack((v, np.abs(v), 2 * _EPS * np.abs(v)))


def _float_settle(ns: np.ndarray, dots: np.ndarray) -> np.ndarray:
    """The table rows from w(n, .) @ (level below), one row of ``dots`` per
    magnitude n in ns."""
    total, mass, error = dots.T
    return np.column_stack((total, np.abs(total), error + mass * _step_error(ns)))


def _float_step(n: int, below) -> tuple:
    """The entry w(n, .) @ below of one magnitude, by one row's dot, settled
    as a block's rows are; over a Newton form, its sum, or where that is NaN
    (``_Newton.float_rows``), the row's dot over the form's level-1 table."""
    if isinstance(below, _Newton):
        row = below.float_rows(np.array([n]))[0]
        if not math.isnan(row[0]):
            return tuple(row.tolist())
        below = below.kernel(n // 2)
    total, mass, error = (comb.float_weight_row(n) @ below[: n // 2 + 1]).tolist()
    return total, abs(total), error + mass * float(_step_error(n))


def _step_error(n):
    """Relative error one kernel step at magnitude n adds per unit of mass,
    for a magnitude or an array of them: the weights' own error and the
    summation rounding, which bounds any summation order (Higham, *Accuracy
    and Stability of Numerical Algorithms*, 2002, §4.2). It adds to the
    children's errors in proportion to the mass."""
    return _weight_error(n) + (n // 2 + 1) * _EPS


def _weight_error(n):
    """Relative error allowed each entry of the log-gamma row w(n, .), for a
    magnitude or an array of them: 8 eps L, L = 2n log1p(2n).

    The rounding count of ``comb._weight_block``'s order (D(q) + R(n)) -
    C(m), with u = eps / 2, bounds each rounded value by its exact
    magnitude; the difference is of second order. The seven log-gamma inputs have k log k summing to at most
    3.5 L: lgamma(2n-1) at most L, the other three of R(n) 1.5 L, the one of
    D(q) and the two of C(m) L/2 each. math.lgamma(k) is within
    2.3 u k log k (measured against 120-bit values to k = 2 10^5), so they
    add 8.05 u L. q log 2 adds 2u q log 2 <= 0.5 u L. The seven additions
    round results of at most L (the first two partial sums of R(n)), L/2
    (R(n), D(q) and C(m) each), L (D(q) + R(n)) and n log 4 <= L/2 (the
    log, since w(n, m) >= 1 / c_{n-1}): 5 u L. The exp adds at most 2u. In
    all 13.55 u L + 2u < 16 u L = 8 eps L, as L >= 4 log 5 > 6. Below
    2^-1022 the exp rounds to within 2^-1075 absolute, not 2u relative, and
    a weight whose exp underflows is an exact zero.
    """
    return 8 * _EPS * np.maximum(1.0, 2 * n * np.log1p(2 * n))


def _float_steps(lo: int, hi: int, tables: list) -> list:
    """Per table, the rows w(n, .) @ table of n = lo..hi >= 2: one matrix
    product per weight block (``comb.float_weight_blocks``), each block built
    once for every table, taken at the block's full shape over the table
    zero-padded to the block's width, and built only if some table is not
    a Newton form, whose rows are its sum (``_float_sum``). The product's
    summation order depends on its shape alone, so an entry has the same
    bits whatever range, and whichever other tables, a sweep fills."""
    steps = [[_float_sum(lo, hi, below)] if isinstance(below, _Newton) else []
             for below in tables]
    kernel = [(below, fresh) for below, fresh in zip(tables, steps)
              if not isinstance(below, _Newton)]
    for a, block in comb.float_weight_blocks(lo, hi) if kernel else ():
        rows, width = block.shape
        first, last = max(lo, a), min(hi, a + rows - 1)
        ns = np.arange(first, last + 1)
        for below, fresh in kernel:
            padded = np.zeros((width, 3))
            padded[: last // 2 + 1] = below[: last // 2 + 1]
            fresh.append(_float_settle(ns, (block @ padded)[first - a : last - a + 1]))
    return [np.concatenate(fresh) for fresh in steps]


def _float_sum(lo: int, hi: int, newton: _Newton) -> np.ndarray:
    """The rows of n = lo..hi >= 2 over a Newton form: its float sums
    (``_Newton.float_rows``), and where a sum is NaN, the block product over
    the form's level-1 table (``_float_steps``), which has the bits it has
    in any sweep."""
    rows = newton.float_rows(np.arange(lo, hi + 1))
    left = np.flatnonzero(np.isnan(rows[:, 0]))
    if len(left):
        first, last = lo + int(left[0]), lo + int(left[-1])
        kernel = _float_steps(first, last, [newton.kernel(last // 2)])[0]
        rows[left] = kernel[left - left[0]]
    return rows


def _float_push(law: list) -> list:
    """One forward step of a float law: magnitudes 0 and 1 go to 0, and the
    rest by one vector-matrix product per weight block, at its full shape."""
    pushed = np.zeros((len(law) + 1) // 2)
    pushed[0] = sum(law[:2])
    support = np.flatnonzero(law[2:]) + 2
    if len(support):
        for a, block in comb.float_weight_blocks(int(support[0]), int(support[-1])):
            rows, width = block.shape
            weights = np.zeros(rows)
            part = law[a : a + rows]
            weights[: len(part)] = part
            width = min(width, len(pushed))  # every column past it is zero
            pushed[:width] += (weights @ block)[:width]
    return pushed.tolist()


# (name, scale, leaves, pack, step, steps, push, combine, divide) of each mode
_EXACT = _Arithmetic(
    "exact", lambda m: comb.catalan(max(m - 1, 0)),
    lambda values: np.array([_integral(v) for v in values], dtype=object),
    lambda entries: np.array(entries, dtype=object),
    _exact_step, _exact_steps, _exact_push, _exact_combine, Fraction,
)
_FLOAT = _Arithmetic(
    "float", lambda m: 1, _float_leaves,
    lambda entries: np.array(entries, dtype=float).reshape(-1, 3),
    _float_step, _float_steps, _float_push, _float_combine, operator.truediv,
)

_LINEAR = _parse("S1")
_SQUARE = _parse("S1^2")
