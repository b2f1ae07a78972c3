import math
import sys
import tracemalloc
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from strahler import combinatorics as comb
from strahler import expectations, observables, split
from strahler import trees
from strahler.expectations import (
    _EXACT,
    _FLOAT,
    _Newton,
    ORACLE_LIMIT,
    DegenerateRatioError,
    ExpectationEngine,
    LimitExceededError,
    _EPS,
    _float_combine,
    _float_leaves,
    _float_settle,
    _float_step,
    _float_steps,
)
from strahler.observables import NonzeroOverZeroError, Observable, parse
from strahler.verification import HORTON_FLOAT_GRID, MOMENT_RATIO_GRID


@pytest.fixture(scope="module")
def engine():
    return ExpectationEngine()


S1 = parse("S1")
S1SQ = parse("S1^2")
RATIO = parse("S2/S1")


def _fraction_expectation(n, r, f, memo):
    """Reference: the probability-domain recursion in Fractions, one exact
    weight row w(n, m) = multiplicity(n, m) c_{m-1} / c_{n-1} per step."""
    key = (n, r, f.text)
    if key not in memo:
        if n == 1:
            value = f.evaluate(trees.BranchProfile((1,)).window(r, f.arity))
        elif r == 1 and f.arity == 1:
            value = f.evaluate((n,))
        else:
            g = f.bind_first(n) if r == 1 else f
            sub_order = 1 if r == 1 else r - 1
            value = sum(
                w * _fraction_expectation(m, sub_order, g, memo)
                for m, w in comb.order2_weights(n, "exact").items()
            )
        memo[key] = value
    return memo[key]


def _fraction_distribution(n, r, memo):
    """Reference: P_n(S_r = s) as a Fraction mixture over exact weight rows."""
    key = (n, r)
    if key not in memo:
        if r == 1:
            table = {n: Fraction(1)}
        elif n == 1:
            table = {0: Fraction(1)}
        else:
            table = {}
            for m, w in comb.order2_weights(n, "exact").items():
                for s, p in _fraction_distribution(m, r - 1, memo).items():
                    table[s] = table.get(s, 0) + w * p
        memo[key] = table
    return memo[key]


def test_exact_matches_fraction_recursion():
    engine = ExpectationEngine()
    memo = {}
    for text in ("S1", "S1^2", "S2/S1", "S1*S2-S3"):
        f = parse(text)
        for r in range(1, 5):
            for n in range(1, 61):
                assert engine.expectation_exact(n, r, f) == _fraction_expectation(
                    n, r, f, memo
                ), (n, r, text)


def test_exact_distribution_matches_fraction_recursion():
    engine = ExpectationEngine()
    memo = {}
    for r in range(1, 5):
        for n in range(1, 61):
            assert engine.distribution(n, r) == _fraction_distribution(n, r, memo), (
                n,
                r,
            )


def test_exact_distribution_sums_to_one_at_400():
    engine = ExpectationEngine(exact_limit=400)
    dist = engine.distribution(400, 3)
    assert sum(dist.values()) == 1
    assert sum(s * p for s, p in dist.items()) == engine.expectation_exact(400, 3, S1)


def test_exact_distribution_sums_to_one_at_1000():
    # Three integer pushes through rows of up to 501 scaled terms each.
    engine = ExpectationEngine(exact_limit=1000)
    dist = engine.distribution(1000, 4, "exact")
    assert sum(dist.values()) == 1
    assert sum(s * p for s, p in dist.items()) == engine.expectation_exact(1000, 4, S1)


def test_answers_do_not_depend_on_query_order():
    queries = [
        (n, r, text)
        for text in ("S1", "S2/S1", "S1*S2-S3")
        for r in (1, 2, 3)
        for n in (1, 7, 30, 64)
    ]

    def answers(order):
        engine = ExpectationEngine()
        out = {}
        for n, r, text in order:
            out[n, r, text] = engine.expectation_exact(n, r, parse(text))
            out[n, r, text, "float"] = engine.expectation_float(n, r, parse(text))
            out[n, r, "dist"] = engine.distribution(n, r)
        return out

    assert answers(queries) == answers(queries[::-1])


def test_float_answers_do_not_depend_on_query_order():
    # Past one block of weight rows: tables grow across block boundaries.
    queries = [(n, r, text) for text in ("S1", "S2/S1") for r in (1, 2, 3) for n in (100, 700, 1500)]

    def answers(order):
        engine = ExpectationEngine()
        out = {}
        for n, r, text in order:
            out[n, r, text] = engine.expectation_float(n, r, parse(text))
            out[n, r, "dist"] = engine.distribution(n, r, "float")
        return out

    assert answers(queries) == answers(queries[::-1])


def _float_levels(f, levels, top, by_block=True):
    """Float level tables 2..levels of a one-variable polynomial f over
    0..top: f at the window below magnitude 2, the marked-cherry sum of its
    Newton form at level 2 (``_Newton.float_rows``), and w(n, .) @ (level
    below) for every other entry, by one product per weight block at the
    block's full shape over every row 2..top, or by one dot per row."""
    newton = _Newton.of(f, f.degree())
    sums = newton.float_rows(np.arange(2, top + 1))
    assert not np.isnan(sums).any(), f.text
    window = _float_leaves([0, f.evaluate((0,))])
    tables = [np.concatenate([window, sums])]
    for _ in range(3, levels + 1):
        below, body = tables[-1], []
        if by_block:
            for a, block in comb.float_weight_blocks(2, top):
                padded = np.zeros((block.shape[1], 3))
                size = min(len(padded), len(below))
                padded[:size] = below[:size]
                ns = np.arange(a, min(top, a + len(block) - 1) + 1)
                body.append(_float_settle(ns, (block @ padded)[: len(ns)]))
        else:
            rows = [_float_step(n, below) for n in range(2, top + 1)]
            body.append(np.array(rows))
        tables.append(np.concatenate([window] + body))
    return tables


def _float_laws(n, steps, by_block=True):
    """The float law of magnitudes after each of ``steps`` forward steps from
    δ_n, by one product per weight block at the block's full shape over
    every row 2..n, or by adding x w(k, .) row by row."""
    law, laws = np.zeros(n + 1), []
    law[n] = 1.0
    for _ in range(steps):
        pushed = np.zeros((len(law) + 1) // 2)
        if by_block:
            pushed[0] = law[0] + law[1]
            for a, block in comb.float_weight_blocks(2, len(law) - 1):
                weights = np.zeros(len(block))
                part = law[a : a + len(block)]
                weights[: len(part)] = part
                width = min(block.shape[1], len(pushed))
                pushed[:width] += (weights @ block)[:width]
        else:
            for k, x in enumerate(law.tolist()):
                if x:
                    row = comb.float_weight_row(k)
                    pushed[: len(row)] += x * row
        law = pushed
        laws.append(law)
    return laws


def _bits(table):
    return np.ascontiguousarray(table).tobytes()


def test_float_tables_and_laws_equal_the_block_product():
    # Level 2 of a one-variable polynomial is its marked-cherry sum, which
    # builds no level-1 table; every level above is the block product.
    by_block = {f: _float_levels(f, 3, 500) for f in (S1, S1SQ)}
    by_row = {f: _float_levels(f, 3, 500, by_block=False) for f in (S1, S1SQ)}
    cold, extended = ExpectationEngine(), ExpectationEngine()
    for f in (S1, S1SQ):
        cold.expectation_float(1000, 4, f)
        extended.expectation_float(300, 4, f)
        extended.expectation_float(1000, 4, f)
    for engine in (cold, extended):
        tables = {key: table for key, table in engine._tables.items() if key[0] is _FLOAT}
        assert {(f, j) for _, f, j in tables} == {(f, j) for f in (S1, S1SQ) for j in (2, 3)}
        for (_, f, j), table in tables.items():
            assert len(table) == 1000 // 2 ** (4 - j) + 1
            assert _bits(table) == _bits(by_block[f][j - 2][: len(table)]), (f.text, j)
            # The row-by-row sums lie within the carried bound of the table.
            rows = by_row[f][j - 2][: len(table)]
            assert (abs(table[:, 0] - rows[:, 0]) <= table[:, 2]).all(), (f.text, j)
    # The sums lie within their bound of the exact marked-cherry sum.
    for f in (S1, S1SQ):
        newton = _Newton.of(f, f.degree())
        for n, (value, _mass, error) in enumerate(by_block[f][0].tolist()[2:], 2):
            assert abs(Fraction(value) - newton.expectation(n)) <= Fraction(error), (f.text, n)

    # An entry of S1^40 takes the sum from 40^2 / 8 = 200 on, and below that
    # the block product over its level-1 table, whatever range a fill covers.
    f = parse("S1^40")
    table = ExpectationEngine()._level(_FLOAT, f, 2, 500)
    level_1 = _float_leaves([0] + [f.evaluate((n,)) for n in range(1, 100)])
    kernel = _float_steps(2, 199, [level_1])[0]
    sums = _Newton.of(f, 40).float_rows(np.arange(200, 501))
    assert _bits(table[2:]) == _bits(np.concatenate([kernel, sums]))

    laws = _float_laws(4000, 2)
    expected = {s: x for s, x in enumerate(laws[-1].tolist()) if x}
    assert ExpectationEngine().distribution(4000, 3, "float") == expected
    warm = ExpectationEngine()
    warm.distribution(4000, 2, "float")
    assert warm.distribution(4000, 3, "float") == expected
    # Row by row: the same laws up to the summation order. Each pushed
    # probability sums at most len(law) nonnegative terms, so two orders
    # differ by at most 2 len(law) eps of it per step.
    for law, loop in zip(laws, _float_laws(4000, 2, by_block=False)):
        bound = 2 * 2 * 4001 * _EPS * loop + 2 * sys.float_info.min
        assert (abs(law - loop) <= bound).all()


def test_float_tables_do_not_depend_on_fill_history():
    # Extensions that cross weight-block boundaries give the bits of one
    # cold fill, at every level, for one-variable and split observables,
    # and for S1^40, whose level-2 entries take the marked-cherry sum from
    # magnitude 200 on: its first fill, to 150, steps every entry over its
    # level-1 table, and the next, to 350, only those below 200.
    fs = [S1, S1SQ, RATIO, parse("S1^40")]
    cold, extended = ExpectationEngine(), ExpectationEngine()
    for n in (300, 700, 1300, 2600, 4000):
        for f in fs:
            for r in (3, 4, 5):  # levels 2, 3 and 4 to n // 2
                extended.expectation_float(n, r, f)
                if n == 4000:
                    cold.expectation_float(n, r, f)
    keys = [key for key in cold._tables if key[0] is _FLOAT]
    levels = {(f, j) for f in fs for j in (2, 3, 4)} | {(RATIO, 1), (fs[3], 1)}
    assert {(f, j) for _, f, j in keys} == levels
    assert set(keys) == {key for key in extended._tables if key[0] is _FLOAT}
    for key in keys:
        table = cold._tables[key]
        assert len(table) == (2001 if key[2] > 1 else 1001 if key[1] == RATIO else 100), key[1:]
        assert _bits(table) == _bits(extended._tables[key]), (key[1].text, key[2])

    warm = ExpectationEngine()
    warm.distribution(4000, 2, "float")
    assert warm.distribution(4000, 3, "float") == ExpectationEngine().distribution(4000, 3, "float")
    for steps in (1, 2):
        law = warm._laws[_FLOAT, 4000, steps]
        assert law == ExpectationEngine()._law(_FLOAT, 4000, steps), steps


def _zeroed_blocks(lo, hi, blocks=comb.float_weight_blocks):
    """The blocks of ``blocks`` rebuilt one by one in a fresh zeroed array
    each, as before one buffer served a sweep."""
    for a, block in blocks(lo, hi):
        rows, width = block.shape
        first, last = max(lo, a), min(hi, a + rows - 1)
        flat = np.zeros(1 + rows * width)
        comb._weight_block(first, last, width, flat[(first - a) * width : (last - a + 1) * width + 1])
        yield a, flat[:-1].reshape(rows, width)


def _float_sweep(engine):
    """A float-sweep-style fill: Horton ratios on the float grid at r <= 3,
    moments of S1^k at r <= 2, a split f, and two float laws."""
    grid = (100, 158, 251, 398, 631, 1000, 1585, 2512)
    for n in grid:
        for r in (1, 2, 3, 4):
            engine.expectation_float(n, r, S1)
    for f in (S1SQ, parse("S1^3"), parse("S1*S2-S3")):
        for n in (500, 1000, 2000):
            for r in (1, 2, 3):
                engine.expectation_float(n, r, f)
    return [engine.distribution(4000, 3, "float"), engine.distribution(3000, 5, "float")]


def test_one_weight_buffer_per_sweep_keeps_the_bits(monkeypatch):
    # One buffer serves every block of a sweep; its rows outside the sweep's
    # range are zeroed again, even over stale or uninitialised memory, so
    # every table and law has the bits of a zeroed array per block.
    fresh = ExpectationEngine()
    with monkeypatch.context() as patch:
        patch.setattr(comb, "float_weight_blocks", _zeroed_blocks)
        fresh_laws = _float_sweep(fresh)
    shared = ExpectationEngine()
    shared_laws = _float_sweep(shared)
    assert shared_laws == fresh_laws
    assert set(shared._tables) == set(fresh._tables)
    for key, table in fresh._tables.items():
        assert _bits(shared._tables[key]) == _bits(table), (key[1].text, key[2])

    empty = np.empty
    with monkeypatch.context() as patch:
        patch.setattr(comb.np, "empty", lambda size: np.full(size, np.nan))
        for lo, hi in ((1001, 1300), (2, 600), (3990, 4100), (9990, 10010)):
            reference = _zeroed_blocks(lo, hi)
            for (a, block), (b, want) in zip(comb.float_weight_blocks(lo, hi), reference):
                assert a == b and _bits(block) == _bits(want), (lo, hi, a)
    assert np.empty is empty


def test_split_order_1_fills_take_the_block_step(monkeypatch):
    # The float order-1 table of a split f is, magnitude by magnitude, the
    # combination of its parts' order-2 entries, which block products or,
    # for a polynomial part, marked-cherry sums fill: the bits do not depend
    # on which table a part's step fills.
    engine = ExpectationEngine()
    for f in (RATIO, parse("S1*S2-S3")):
        engine.expectation_float(3000, 2, f)
        table = engine._tables[_FLOAT, f, 1]
        assert len(table) == 1501
        split_f = engine._split(f)
        parts = [engine._level(_FLOAT, part, 2, 1500) for part in split_f.parts]
        combined = [
            _float_combine(*split_f.weights(n), [part[n].tolist() for part in parts])
            for n in range(2, 1501)
        ]
        assert _bits(table[2:]) == _bits(np.array(combined)), f.text
    # The part S1 of both is a one-variable polynomial: its level-2 rows are
    # the marked-cherry sum, and no level-1 table of S1 is built.
    sums = _Newton.of(S1, 1).float_rows(np.arange(2, 1501))
    assert _bits(engine._tables[_FLOAT, S1, 2][2:]) == _bits(sums)
    assert (_FLOAT, S1, 1) not in engine._tables

    # A fill makes no per-entry step; a cold query steps once, for its own entry.
    calls = []
    step = _FLOAT.step

    def counting(n, *args):
        calls.append(n)
        return step(n, *args)

    monkeypatch.setattr(expectations, "_FLOAT", _FLOAT._replace(step=counting))
    ExpectationEngine().expectation_float(3000, 2, RATIO)
    assert calls == [3000]


def test_split_order_1_fills_build_each_block_once(monkeypatch):
    # One sweep steps every part of a split f over a fill range, so a cold
    # query builds each weight block, or each exact row, of a fill once. The
    # part S1 is a one-variable polynomial, whose order-2 entries are the
    # marked-cherry sum in both modes: the part S2's order-1 table to n // 4
    # (its one part S1) builds no block or row, and the order-1 table of f
    # to n // 2 builds its blocks or rows for the part S2 alone, and so
    # does the query's own entry. The float tables have the bits of one
    # sweep per part.
    f = parse("S1*S2-S3")
    built, rows = [], []
    weight_block, multiplicity_row = comb._weight_block, comb.multiplicity_row

    def counting_block(a, b, *args):
        built.append((a, b))
        return weight_block(a, b, *args)

    def counting_row(n):
        rows.append(n)
        return multiplicity_row(n)

    expected = [
        (max(2, a), min(2000, a + len(block) - 1))
        for a, block in comb.float_weight_blocks(2, 2000)
    ]
    engine = ExpectationEngine()
    with monkeypatch.context() as patch:
        patch.setattr(comb, "_weight_block", counting_block)
        patch.setattr(comb, "multiplicity_row", counting_row)
        engine.expectation_float(4000, 2, f)
        ExpectationEngine().expectation_exact(300, 2, f)
    assert built == expected + [(4000, 4000)]
    assert rows == [*range(2, 151), 300]

    split_f = engine._split(f)
    per_part = [
        _float_steps(2, 2000, [engine._below(_FLOAT, part, 2, 2000)])[0]
        for part in split_f.parts
    ]
    combined = [
        _float_combine(*split_f.weights(n), [part[n - 2].tolist() for part in per_part])
        for n in range(2, 2001)
    ]
    assert _bits(engine._tables[_FLOAT, f, 1][2:]) == _bits(np.array(combined))


def test_float_fills_and_pushes_peak_within_a_few_blocks():
    # The transient memory of a fill or a push is a few weight blocks, not
    # a product over a whole level. A first query grows the module's
    # log-gamma tables, which stay, so it runs before the measurement.
    block_bytes = 8 * comb.BLOCK_ENTRIES
    ExpectationEngine().expectation_float(10000, 3, S1)
    queries = [
        lambda: ExpectationEngine().expectation_float(10000, 3, S1),
        lambda: ExpectationEngine().distribution(4000, 3, "float"),
        lambda: ExpectationEngine().expectation_float(10000, 2, RATIO),
    ]
    for query in queries:
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            query()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - start <= 6 * block_bytes, peak - start


def test_bruteforce_examples(engine):
    assert engine.expectation_bruteforce(5, 2, S1) == Fraction(10, 7)
    assert engine.expectation_bruteforce(5, 2, S1SQ) == Fraction(16, 7)
    for n in (1, 3, 6, 9):
        assert engine.expectation_bruteforce(n, 1, S1) == n


def test_profile_tally_matches_per_shape_tally():
    # Two independent statements of the Horton-Strahler rule: the root-split
    # join of profiles and the order labelling of each enumerated tree.
    engine = ExpectationEngine()
    for n in range(1, 12):
        assert engine.profile_counts(n) == Counter(
            trees.branch_counts(t).counts for t in trees.enumerate_trees(n)
        ), n
    assert engine.profile_counts(4) == {(4, 1): 4, (4, 2, 1): 1}


def test_bruteforce_respects_enumeration_limit(engine):
    # The oracle walks no shapes, so its ceiling is its own, not enumeration's.
    assert ORACLE_LIMIT == 40 > trees.DEFAULT_ENUMERATION_LIMIT
    with pytest.raises(LimitExceededError, match="oracle limit 40$"):
        engine.expectation_bruteforce(41, 1, S1)


def test_exact_examples(engine):
    assert engine.expectation_exact(12, 2, S1) == Fraction(22, 7)
    assert engine.expectation_exact(5, 2, S1) == Fraction(10, 7)
    assert engine.expectation_exact(5, 1, RATIO) == Fraction(2, 7)


def test_exact_matches_bruteforce_battery(engine):
    battery = [parse(t) for t in ("S1", "S1^2", "S2/S1", "S1*S2", "(S1-1)*S1")]
    for n in range(1, ORACLE_LIMIT + 1):
        for r in (1, 2, 3, 4):
            for f in battery:
                assert engine.expectation_exact(n, r, f) == (
                    engine.expectation_bruteforce(n, r, f)
                ), (n, r, f.text)


def test_dividing_observables_match_bruteforce(engine):
    # The all-zeros window is evaluated only where a tree has it: S1/S2 and
    # 1/S2 at r = 1 and 1/S1 at r = 2 are defined on every tree of
    # magnitude >= 2, and raise, like the oracle, where some tree divides by 0.
    for text in ("S1/S2", "1/S2", "1/S1", "S1/S2+1/S3", "1/(S1-3)"):
        f = parse(text)
        for r in (1, 2, 3, 4):
            for n in range(1, ORACLE_LIMIT + 1):
                try:
                    expected = engine.expectation_bruteforce(n, r, f)
                except NonzeroOverZeroError:
                    for query in (engine.expectation_exact, engine.expectation_float):
                        with pytest.raises(NonzeroOverZeroError):
                            query(n, r, f)
                    continue
                assert engine.expectation_exact(n, r, f) == expected, (text, r, n)
                est = engine.expectation_float(n, r, f)
                error = abs(Fraction(est.value) - expected)
                assert error <= Fraction(est.rel_error_bound) * abs(expected), (text, r, n)


def test_tables_never_print_an_observable(monkeypatch):
    # The level tables are keyed by the observable itself, not its text.
    fs = [parse("S2/S1"), parse("S1*S2-S3")]
    queries = [(n, r, f) for f in fs for r in (1, 2, 3) for n in range(1, 61)]
    reference = ExpectationEngine()
    expected = [reference.expectation_exact(n, r, f) for n, r, f in queries]

    def unprinted(node):
        raise AssertionError("an observable was printed")

    monkeypatch.setattr(observables, "_print", unprinted)
    engine = ExpectationEngine()
    assert [engine.expectation_exact(n, r, f) for n, r, f in queries] == expected


def test_no_evaluation_error_is_swallowed(monkeypatch):
    # f is evaluated only at windows some tree of the query has, so a query
    # that answers met no ArithmeticError on the way.
    raised = []
    evaluate = Observable.evaluate

    def recording(self, window):
        try:
            return evaluate(self, window)
        except ArithmeticError as exc:
            raised.append((self.text, window, exc))
            raise

    monkeypatch.setattr(Observable, "evaluate", recording)
    answered = 0
    for text in ("S1/S2", "1/S2", "1/S1", "1/S3", "1/(S1-3)", "S2/S3", "1/(S1-S2)"):
        f = parse(text)
        for name in ("expectation_exact", "expectation_float"):
            for r in range(1, 5):
                for n in range(1, 41):
                    # A fresh engine, so no table filled by an earlier query
                    # hides an evaluation.
                    query = getattr(ExpectationEngine(), name)
                    raised.clear()
                    try:
                        query(n, r, f)
                    except ArithmeticError:
                        continue
                    answered += 1
                    assert raised == [], (name, text, r, n, raised[0])
    assert answered == 702


def test_exact_limit_guard():
    small = ExpectationEngine(exact_limit=50)
    with pytest.raises(LimitExceededError):
        small.expectation_exact(51, 2, S1)


def test_auto_mode_switches_with_warning():
    small = ExpectationEngine(exact_limit=50)
    assert small.expectation(20, 2, S1, mode="auto") == Fraction(
        20 * 19, 2 * 37
    )
    with pytest.warns(UserWarning):
        value = small.expectation(600, 2, S1, mode="auto")
    assert isinstance(value, float)


def test_auto_fallback_warns_once_at_the_caller():
    small = ExpectationEngine(exact_limit=10)
    for query in (
        lambda: small.expectation(20, 1, S1),
        lambda: small.distribution(20, 2, mode="auto"),
        lambda: small.bifurcation_ratio(20, 1, S1),
        lambda: small.variance(20, 2),
    ):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            query()
        assert len(caught) == 1, [str(w.message) for w in caught]
        assert caught[0].category is UserWarning
        assert "falling back to float mode" in str(caught[0].message)
        assert caught[0].filename == __file__


def test_distribution_modes_match_expectation():
    small = ExpectationEngine(exact_limit=50)
    assert small.distribution(5, 2, mode="auto") == {1: Fraction(4, 7), 2: Fraction(3, 7)}
    with pytest.warns(UserWarning, match="falling back to float mode"):
        law = small.distribution(60, 2, mode="auto")
    assert law == small.distribution(60, 2, mode="float")
    assert all(isinstance(p, float) for p in law.values())
    with pytest.raises(ValueError, match="unknown mode 'bogus'"):
        small.distribution(5, 2, mode="bogus")
    with pytest.raises(ValueError, match="unknown mode 'bogus'"):
        small.expectation(5, 2, S1, mode="bogus")


def test_float_examples(engine):
    est = engine.expectation_float(1000, 2, S1)
    assert math.isclose(est.value, 999000 / 3994, rel_tol=1e-9)
    assert engine.expectation_float(10**4, 1, S1).value == 10**4
    exact = engine.expectation_exact(300, 2, S1)
    est300 = engine.expectation_float(300, 2, S1)
    assert abs(est300.value - float(exact)) / float(exact) <= 1e-10
    assert abs(est300.value - float(exact)) / float(exact) <= est300.rel_error_bound


def test_float_exact_agreement_sample(engine):
    for n in (7, 40, 120, 300):
        for r in (1, 2, 3):
            exact = float(engine.expectation_exact(n, r, S1SQ))
            approx = engine.expectation_float(n, r, S1SQ).value
            assert abs(approx - exact) <= 1e-10 * abs(exact)


def test_float_error_bound_holds_against_exact(engine):
    # Children valued exactly 0 (E_m[S_j] = 0 for m < 2^(j-1)) must not
    # turn their parent's bound into 0 * inf = nan.
    for text in ("S1", "S1^2", "S2/S1", "S1*S2-S3"):
        f = parse(text)
        for r in range(1, 5):
            for n in (2, 5, 9, 17, 40, 100, 200, 300):
                exact = engine.expectation_exact(n, r, f)
                est = engine.expectation_float(n, r, f)
                assert math.isfinite(est.rel_error_bound), (text, r, n)
                error = abs(Fraction(est.value) - exact)
                assert error <= Fraction(est.rel_error_bound) * abs(exact), (text, r, n)


def test_float_error_bound_holds_on_the_float_grids():
    # The whole horton grid at r <= 3, to n = 10^4 (exact values at r = 3
    # come from the series), and the moment-ratio grid, also for two
    # observables of several variables: |float - exact| <= rel_error_bound * |exact|.
    engine = ExpectationEngine(exact_limit=max(HORTON_FLOAT_GRID))
    cases = [(S1, r, n) for r in (1, 2, 3) for n in HORTON_FLOAT_GRID]
    cases += [(parse(f"S1^{k}"), r, n) for k in (1, 2, 3) for r in (1, 2, 3)
              for n in MOMENT_RATIO_GRID]
    cases += [(parse(text), r, n) for text in ("S2/S1", "S1*S2-S3") for r in (1, 2, 3)
              for n in MOMENT_RATIO_GRID]
    for f, r, n in cases:
        exact = engine.expectation_exact(n, r, f)
        est = engine.expectation_float(n, r, f)
        error = abs(Fraction(est.value) - exact)
        assert error <= Fraction(est.rel_error_bound) * abs(exact), (f.text, r, n)


POLYNOMIALS = (S1, S1SQ, parse("S1^3-2*S1+7"), parse("(S1-1)*S1/2"))


def test_float_order_two_builds_no_weights(monkeypatch):
    # A float query at base order 2 of a one-variable polynomial, and at
    # order 1 of S2/S1, whose one part is S1, is the marked-cherry sum: it
    # builds no weight row or block, and no level-1 table.
    def refuse(*args):
        raise AssertionError("a weight row or block was built")

    monkeypatch.setattr(comb, "float_weight_blocks", refuse)
    monkeypatch.setattr(comb, "float_weight_row", refuse)
    engine = ExpectationEngine()
    for f in POLYNOMIALS:
        for n in (2, 10, 3000, 10**6):
            engine.expectation_float(n, 2, f)
    engine.expectation_float(3000, 1, RATIO)
    engine.bifurcation_ratio(10**4, 1, S1, "float")
    assert engine._tables == {}


def test_float_sums_hold_their_bound_at_a_billion():
    # No kernel row reaches n = 10^9 (it would hold 5 10^8 weights); the
    # float sum lies within its bound of the exact one.
    engine = ExpectationEngine()
    for f in POLYNOMIALS:
        newton = _Newton.of(f, f.degree())
        for n in (10**6, 10**9):
            exact = newton.expectation(n)
            est = engine.expectation_float(n, 2, f)
            assert est.rel_error_bound < 1e-14, (f.text, n)
            error = abs(Fraction(est.value) - exact)
            assert error <= Fraction(est.rel_error_bound) * abs(exact), (f.text, n)


def test_float_bound_holds_for_polynomials_with_negative_terms():
    engine = ExpectationEngine(exact_limit=10**4)
    for f in POLYNOMIALS[2:]:
        for r in (2, 3, 4):
            for n in [*range(1, 41), 300, 10**4]:
                exact = engine.expectation_exact(n, r, f)
                est = engine.expectation_float(n, r, f)
                error = abs(Fraction(est.value) - exact)
                assert error <= Fraction(est.rel_error_bound) * abs(exact), (f.text, r, n)


def test_float_sums_leave_to_the_kernel_where_it_answers_better(monkeypatch):
    # A centred f, whose terms cancel, takes the kernel's row and its bound;
    # S1^120 at n = 2000 does not fit a float either way; 171! does not fit
    # a float, so no entry of S1^171 takes the sum.
    f = parse("(S1-500)^10")
    engine = ExpectationEngine()
    assert np.isnan(_Newton.of(f, 10).float_rows(np.array([2000]))).all()
    level_1 = engine._level(_FLOAT, f, 1, 1000)
    assert engine.expectation_float(2000, 2, f) == ExpectationEngine().expectation_float(
        2000, 2, f
    )
    value, _mass, error = _float_step(2000, level_1)
    assert engine.expectation_float(2000, 2, f) == (value, error / abs(value))
    with pytest.raises(OverflowError):
        ExpectationEngine().expectation_float(2000, 2, parse("S1^120"))
    assert np.isnan(_Newton.of(parse("S1^171"), 171).float_rows(np.arange(2, 10))).all()
    with pytest.raises(OverflowError):
        ExpectationEngine().expectation_float(4000, 2, parse("S1^171"))
    # Past 2^52 the linear factors are not exact floats: the sum stops.
    assert not np.isnan(_Newton.of(S1, 1).float_rows(np.array([2**52]))).any()
    assert np.isnan(_Newton.of(S1, 1).float_rows(np.array([2**52 + 2]))).all()


def test_kernel_only_observables_keep_the_kernel(engine):
    # Observables that divide by a variable are not polynomials: they answer
    # as the oracle does (0/0 = 0, and a raise where some tree divides a
    # nonzero value by zero) and never build a series.
    fresh = ExpectationEngine()
    for text in ("S1/S1", "1/S1", "S1^2/S1", "1/(1/S1)"):
        f = parse(text)
        assert f.degree() is None
        for r in (2, 3, 4):
            for n in range(1, ORACLE_LIMIT + 1):
                try:
                    expected = engine.expectation_bruteforce(n, r, f)
                except NonzeroOverZeroError:
                    with pytest.raises(NonzeroOverZeroError):
                        fresh.expectation_exact(n, r, f)
                    continue
                assert fresh.expectation_exact(n, r, f) == expected, (text, r, n)
    # Past the oracle, where the series pays for S1: S1^2/S1 is S1, and S1/S1
    # the indicator of S_r >= 1.
    mean = engine.expectation_exact(300, 3, S1)
    assert fresh.expectation_exact(300, 3, parse("S1^2/S1")) == mean
    assert fresh.expectation_exact(300, 3, parse("S1/S1")) == 1 - engine.distribution(300, 3)[0]
    assert fresh._series == {}


def test_the_series_reads_no_kernel_table():
    # The series of a polynomial follows from its values at order 1.
    engine = ExpectationEngine()
    kernel = ExpectationEngine()._expect(_EXACT, 300, 4, S1)
    assert engine.expectation_exact(300, 4, S1) == Fraction(kernel, comb.catalan(299))
    assert list(engine._series) == [(S1, 4)] and engine._tables == {}


def test_cancelled_forms_route_by_their_split():
    # S1/(S1-S1+1) is the polynomial S1 and takes the series; 0*S1 is the
    # zero polynomial and answers as a constant, with no table and no series.
    engine = ExpectationEngine()
    mean = ExpectationEngine().expectation_exact(300, 4, S1)
    assert engine.expectation_exact(300, 4, parse("S1/(S1-S1+1)")) == mean
    assert list(engine._series) == [(parse("S1/(S1-S1+1)"), 4)]
    for text in ("0*S1", "S1-S1"):
        assert engine.expectation_exact(300, 4, parse(text)) == 0
    assert len(engine._series) == 1 and engine._tables == {}


SPLIT = ("S2/S1", "S1*S2-S3", "S1+2*S2", "(S1-1)*S2^2/(2*S1)", "S1*S2*S3",
         "S3/S1^2+S2", "S2*(S1-2)/(S1-2)")


def _bound_answers(monkeypatch, f, queries):
    """Exact answers with every observable's first variable bound at order
    1, the route of observables that do not split."""
    engine = ExpectationEngine()
    with monkeypatch.context() as patch:
        patch.setattr(split, "split_first", lambda f: None)
        return [engine.expectation_exact(n, r, f) for n, r in queries]


def test_split_route_equals_the_bound_route(monkeypatch):
    for text in SPLIT:
        f = parse(text)
        # Bound at order 1, three variables take O(n^2) table entries per
        # magnitude; past 100 they are sampled.
        thin = [*range(1, 101), 150, 200, 257, 299, 300]
        queries = [(n, r) for r in (1, 2, 3, 4)
                   for n in (thin if r == 1 and f.arity > 2 else range(1, 301))]
        assert split.split_first(f) is not None
        engine = ExpectationEngine()
        answers = [engine.expectation_exact(n, r, f) for n, r in queries]
        assert answers == _bound_answers(monkeypatch, f, queries), text


def test_split_route_equals_the_oracle(engine):
    fresh = ExpectationEngine()
    for text in SPLIT + ("S2/(S1-3)",):
        f = parse(text)
        for r in (1, 2, 3, 4):
            for n in range(1, ORACLE_LIMIT + 1):
                try:
                    expected = engine.expectation_bruteforce(n, r, f)
                except NonzeroOverZeroError:
                    for query in (fresh.expectation_exact, fresh.expectation_float):
                        with pytest.raises(NonzeroOverZeroError):
                            query(n, r, f)
                    continue
                assert fresh.expectation_exact(n, r, f) == expected, (text, r, n)
                est = fresh.expectation_float(n, r, f)
                assert abs(Fraction(est.value) - expected) <= (
                    Fraction(est.rel_error_bound) * abs(expected)), (text, r, n)
    # S2/(S1-3) splits but binds S1 := 3 where its divisor vanishes, and
    # raises there as the oracle does: a magnitude-3 tree has S2 = 1.
    f = parse("S2/(S1-3)")
    assert split.split_first(f).weights(3) is None
    with pytest.raises(NonzeroOverZeroError):
        engine.expectation_bruteforce(3, 1, f)


def test_observables_dividing_by_s2_keep_the_bound_route(monkeypatch):
    binds = []
    bind_first = Observable.bind_first
    monkeypatch.setattr(Observable, "bind_first",
                        lambda self, value: binds.append(value) or bind_first(self, value))
    for text in ("S1/S2", "1/S2", "S2/(S1+S2)"):
        f = parse(text)
        assert split.split_first(f) is None
        engine = ExpectationEngine()
        binds.clear()
        engine.expectation_exact(20, 1, f)
        assert binds == [20] and engine._splits == {f: None}, text


def test_order_one_reads_shared_part_tables():
    # E_n[S3/S1] at order 1 is E_n[S3] / n: one level-1 table of the part
    # S2 serves every magnitude, and no observable with S1 bound to a number
    # is kept.
    f, part = parse("S3/S1"), parse("S2")
    engine = ExpectationEngine(exact_limit=1000)
    for n in (1000, 10, 999):
        engine.expectation_exact(n, 1, f)
        assert list(engine._tables) == [(_EXACT, part, 1)]
    assert engine._splits[f].parts == (part,)
    engine.expectation_exact(500, 2, f)
    engine.expectation_exact(30, 2, f)
    assert set(engine._tables) == {(_EXACT, part, 1), (_EXACT, f, 1)}
    assert engine.expectation_exact(1000, 1, f) == (
        engine.expectation_exact(1000, 2, part) / 1000)


def test_order_one_polynomial_parts_take_the_marked_cherry_sum(monkeypatch):
    # E_n[S2/S1] at order 1 is E_n[S2] / n, and the part S1 is a one-variable
    # polynomial: its order-2 entry is the marked-cherry sum, so an exact
    # query keeps no table and builds no multiplicity row. The order-1 table
    # of f steps over the part's Newton form and holds the kernel's values.
    f = RATIO
    engine = ExpectationEngine(exact_limit=1000)
    with monkeypatch.context() as patch:
        patch.setattr(comb, "multiplicity_row", None)
        for n in (1000, 10, 999):
            engine.expectation_exact(n, 1, f)
    assert engine._tables == {} and list(engine._newtons) == [S1]
    assert engine.expectation_exact(1000, 1, f) == (
        engine.expectation_exact(1000, 2, S1) / 1000)
    memo = {}
    assert engine._level(_EXACT, f, 1, 150).tolist() == [0] + [
        _fraction_expectation(m, 1, f, memo) * comb.catalan(m - 1) for m in range(1, 151)
    ]


def test_float_distribution_lists_only_nonzero_probabilities(engine):
    dist = engine.distribution(4000, 3, mode="float")
    assert all(p > 0 for p in dist.values())
    assert math.isclose(math.fsum(dist.values()), 1.0, rel_tol=1e-10)


def test_distribution_examples(engine):
    assert engine.distribution(5, 2) == {1: Fraction(4, 7), 2: Fraction(3, 7)}
    assert engine.distribution(4, 3) == {0: Fraction(4, 5), 1: Fraction(1, 5)}
    assert engine.distribution(7, 1) == {7: Fraction(1)}


def test_distribution_normalization_and_mean(engine):
    for n in range(1, 30):
        for r in range(1, 5):
            dist = engine.distribution(n, r)
            assert sum(dist.values()) == 1
            mean = sum(s * p for s, p in dist.items())
            assert mean == engine.expectation_exact(n, r, S1)


def test_distribution_vanishes_above_max_order(engine):
    for n in (3, 5, 12, 33):
        max_order = math.floor(math.log2(n)) + 1
        dist = engine.distribution(n, max_order + 1)
        assert dist == {0: Fraction(1)}


def test_distribution_float_mode(engine):
    exact = engine.distribution(40, 3, mode="exact")
    approx = engine.distribution(40, 3, mode="float")
    assert set(approx) == set(exact)
    for s, p in exact.items():
        assert math.isclose(approx[s], float(p), rel_tol=1e-10)


def test_distribution_matches_bruteforce(engine):
    for n in range(1, 9):
        for r in (1, 2, 3):
            tally = Counter(
                trees.branch_counts(t).s(r) for t in trees.enumerate_trees(n)
            )
            total = sum(tally.values())
            expected = {s: Fraction(c, total) for s, c in tally.items()}
            assert engine.distribution(n, r) == expected


def test_bifurcation_ratio_examples(engine):
    assert engine.bifurcation_ratio(12, 1, S1) == Fraction(42, 11)
    for n in (2, 10, 100, 300):
        assert engine.bifurcation_ratio(n, 1, S1, mode="exact") == 4 - Fraction(
            2, n - 1
        )


def test_bifurcation_ratio_constant_observable(engine):
    one = parse("1")
    for n in (3, 8, 20):
        assert engine.bifurcation_ratio(n, 1, one) == 1


def test_bifurcation_ratio_zero_denominator(engine):
    with pytest.raises(DegenerateRatioError):
        engine.bifurcation_ratio(4, 3, S1)  # S_4 is identically zero at n=4


def test_variance_examples(engine):
    for n in (1, 5, 17, 60):
        assert engine.variance(n, 1, mode="exact") == 0
    assert engine.variance(5, 2, mode="exact") == Fraction(12, 49)
    for n in range(4, 60):
        expected = Fraction(
            n * (n - 1) * (n - 2) * (n - 3), 2 * (2 * n - 3) ** 2 * (2 * n - 5)
        )
        assert engine.variance(n, 2, mode="exact") == expected


def test_moon_two_term_residual_is_order_one_over_n(engine):
    # |E[S_r] - (4^(1-r) n + (1 - 4^(1-r))/6)| should decay like 1/n.
    for r in (1, 2, 3):
        worst = 0.0
        for n in (50, 100, 200, 300):
            moon = Fraction(n, 4 ** (r - 1)) + Fraction(1 - Fraction(1, 4 ** (r - 1)), 6)
            residual = engine.expectation_exact(n, r, S1) - moon
            worst = max(worst, abs(float(residual)) * n)
        assert worst < 5.0, f"r={r}: fitted residual constant {worst}"


def test_multivariable_window_uses_zeros_above_root(engine):
    # At n=1 only (S_1,) = (1,) exists; ratios above the root order fall back
    # to the 0/0 = 0 convention in both evaluation routes.
    assert engine.expectation_exact(1, 2, RATIO) == 0
    assert engine.expectation_bruteforce(1, 2, RATIO) == 0


def test_query_validation(engine):
    with pytest.raises(ValueError):
        engine.expectation_exact(0, 1, S1)
    with pytest.raises(ValueError):
        engine.expectation_exact(5, 0, S1)
