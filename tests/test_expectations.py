import math
import warnings
from collections import Counter
from fractions import Fraction

import pytest

from strahler import combinatorics as comb
from strahler import observables
from strahler import trees
from strahler.expectations import (
    ORACLE_LIMIT,
    DegenerateRatioError,
    ExpectationEngine,
    LimitExceededError,
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
    # The horton grid at r <= 3 and the moment-ratio grid, as far as exact
    # values are affordable: |float - exact| <= rel_error_bound * |exact|.
    engine = ExpectationEngine(exact_limit=2512)
    horton = [n for n in HORTON_FLOAT_GRID if n <= 2512]
    cases = [(S1, r, n) for r in (1, 2, 3) for n in horton]
    cases += [(parse(f"S1^{k}"), r, n) for k in (1, 2, 3) for r in (1, 2, 3)
              for n in MOMENT_RATIO_GRID]
    for f, r, n in cases:
        exact = engine.expectation_exact(n, r, f)
        est = engine.expectation_float(n, r, f)
        error = abs(Fraction(est.value) - exact)
        assert error <= Fraction(est.rel_error_bound) * abs(exact), (f.text, r, n)


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
