"""The t-sum and the marked-cherry sum for one-variable polynomial
observables, both read off the generating functions, against an explicit
multiplicity-row loop and the oracle."""

import ast
import functools
import pathlib
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from strahler import combinatorics as comb
from strahler.expectations import _EXACT, ExpectationEngine, _Newton
from strahler.observables import parse

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "strahler"

POLYNOMIALS = ("S1", "S1^2", "S1^3", "S1-1", "2", "(S1-1)*S1/2", "2*S1^2+S1/3-5")


@functools.cache
def _row(n):
    return [comb.multiplicity(n, m) for m in range(n // 2 + 1)]


@functools.cache
def _loop_tables(f, levels, top):
    """The counting tables of levels 1..levels of a one-variable f over
    magnitudes 0..top, by the explicit multiplicity-row loop: level 1 holds
    c_{m-1} f(m), and level j at n >= 2 the sum over m of multiplicity(n, m)
    times level j-1 at m; magnitude 1 holds f(0) above level 1, magnitude 0
    holds 0. It shares no code with the engine's tables."""
    tables = [[0] + [comb.catalan(m - 1) * f.evaluate((m,)) for m in range(1, top + 1)]]
    for _ in range(2, levels + 1):
        below = tables[-1]
        tables.append([0, f.evaluate((0,))]
                      + [sum(map(mul, _row(n), below)) for n in range(2, top + 1)])
    return tables


def _kernel(n, r, f):
    """E_n[f at base r] by the loop: one row's sum over level r-1 to n // 2."""
    if r == 1 or n == 1:
        return Fraction(f.evaluate((n if r == 1 else 0,)))
    below = _loop_tables(f, r - 1, n // 2)[-1]
    return Fraction(sum(map(mul, _row(n), below)), comb.catalan(n - 1))


def _degree(f):
    return f.degree()


def _t_sum(n, r, f):
    """E_n[f at base r] by the t-sum over f's Newton form, at any degree."""
    return _Newton.of(f, _degree(f)).t_sum(n, r)


def test_t_sum_equals_kernel_to_300():
    for text in POLYNOMIALS:
        f = parse(text)
        tables = _loop_tables(f, 10, 300)
        for n in range(1, 301):
            for r in range(2, n.bit_length() + 2):
                kernel = Fraction(tables[r - 1][n], comb.catalan(n - 1))
                assert _t_sum(n, r, f) == kernel, (text, r, n)


def test_t_sum_equals_oracle_to_40():
    engine = ExpectationEngine()
    for text in POLYNOMIALS:
        f = parse(text)
        for n in range(1, 41):
            for r in range(2, n.bit_length() + 2):
                assert _t_sum(n, r, f) == engine.expectation_bruteforce(n, r, f), (
                    text, r, n,
                )


def test_t_sum_at_order_one_is_the_observable():
    # At M = 1 the t-sum is f(n): this pins a(k) and the ballot term
    # without the kernel.
    for text in POLYNOMIALS:
        f = parse(text)
        for n in range(1, 301):
            assert _t_sum(n, 1, f) == f.evaluate((n,)), (text, n)


_COEFF = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@settings(max_examples=30, deadline=None)
@given(
    coeffs=st.lists(_COEFF, min_size=1, max_size=5),
    n=st.integers(1, 200),
    r=st.integers(2, 5),
)
def test_t_sum_equals_kernel_on_random_polynomials(coeffs, n, r):
    text = "0" + "".join(
        f"{'-' if c < 0 else '+'}{abs(c.numerator)}/{c.denominator}*S1^{i}"
        for i, c in enumerate(coeffs)
    )
    f = parse(text)
    assert _degree(f) == max((i for i, c in enumerate(coeffs) if c), default=0)
    expected = _kernel(n, r, f)
    assert expected == sum(c * _kernel(n, r, parse(f"S1^{i}")) for i, c in enumerate(coeffs))
    assert _t_sum(n, r, f) == expected
    assert ExpectationEngine(exact_limit=200).expectation_exact(n, r, f) == expected


def test_order_two_takes_the_marked_cherry_sum(monkeypatch):
    # An exact query at r = 2 of a one-variable polynomial is the sum of its
    # Newton form: it builds no multiplicity row and no table.
    engine = ExpectationEngine(exact_limit=1000)
    with monkeypatch.context() as patch:
        for name in ("scaled_multiplicities", "multiplicity"):
            patch.setattr(comb, name, None)
        queries = [(text, n) for text in POLYNOMIALS + ("S1/(S1-S1+1)",)
                   for n in (2, 3, 12, 299, 1000)]
        queries += [("S1^7", n) for n in (7, 12, 1000)]
        answers = {(text, n): engine.expectation_exact(n, 2, parse(text))
                   for text, n in queries}
    assert engine._tables == {}
    for (text, n), answer in answers.items():
        assert answer == _kernel(n, 2, parse(text)), (text, n)


def test_higher_orders_take_the_t_sum(monkeypatch):
    # An exact query at r = 3..8 of a one-variable polynomial is the t-sum
    # over its Newton form, with r clamped where every window is all zeros:
    # it builds no multiplicity row and no table. The kernel checks every
    # answer to n = 299, and those of S1 and S1^3 at n = 1000.
    engine = ExpectationEngine(exact_limit=1000)
    queries = [(text, n, r) for text in POLYNOMIALS + ("S1^7",)
               for n in (1, 2, 3, 12, 299, 1000) for r in range(3, 9)
               if _degree(parse(text)) ** 2 <= 8 * n]
    with monkeypatch.context() as patch:
        for name in ("scaled_multiplicities", "multiplicity"):
            patch.setattr(comb, name, None)
        answers = {query: engine.expectation_exact(query[1], query[2], parse(query[0]))
                   for query in queries}
    assert engine._tables == {}
    kernel = ExpectationEngine(exact_limit=1000)
    for (text, n, r), answer in answers.items():
        f = parse(text)
        if n < 1000:
            top = min(r, n.bit_length() + 1)
            expected = Fraction(_loop_tables(f, 10, 300)[top - 1][n], comb.catalan(n - 1))
        elif text in ("S1", "S1^3"):
            expected = Fraction(kernel._expect(_EXACT, n, r, f), comb.catalan(n - 1))
        else:
            continue
        assert answer == expected, (text, n, r)


def test_order_two_keeps_the_kernel_past_the_degree_bound():
    # The Newton form of degree K takes K (K + 1) / 2 differences; where
    # K^2 > 8 n a row costs less, and the kernel answers with the same value,
    # at r = 2 and, by the same gate, at the t-sum's orders above.
    for text, n, summed in (("S1^7", 6, False), ("S1^7", 7, True), ("S1^60", 300, False),
                            ("S1^48", 300, True)):
        f = parse(text)
        for r in (2, 3, 4):
            engine = ExpectationEngine()
            assert engine.expectation_exact(n, r, f) == _kernel(n, r, f), (text, n, r)
            assert (f in engine._newtons) is summed, (text, n, r)
            assert ((_EXACT, f, 1) in engine._tables) is not summed, (text, n, r)


def _newton(text):
    f = parse(text)
    return _Newton.of(f, _degree(f))


def test_cherry_sum_equals_the_loop_to_300():
    for text in POLYNOMIALS + ("S1^7", "S1^3-2*S1+7"):
        f, newton = parse(text), _newton(text)
        table = _loop_tables(f, 2, 300)[1]
        for n in range(1, 301):
            assert newton.count(n) == table[n], (text, n)
            assert newton.expectation(n) == Fraction(table[n], comb.catalan(n - 1)), (text, n)


def test_cherry_sum_equals_the_oracle_to_40():
    engine = ExpectationEngine()
    for text in POLYNOMIALS + ("S1^7",):
        f, newton = parse(text), _newton(text)
        for n in range(1, 41):
            expected = engine.expectation_bruteforce(n, 2, f)
            assert newton.expectation(n) == expected, (text, n)
            assert engine.expectation_exact(n, 2, f) == expected, (text, n)


@settings(max_examples=40, deadline=None)
@given(coeffs=st.lists(_COEFF, min_size=1, max_size=6), n=st.integers(1, 300))
def test_cherry_sum_equals_the_loop_on_random_polynomials(coeffs, n):
    text = "0" + "".join(
        f"{'-' if c < 0 else '+'}{abs(c.numerator)}/{c.denominator}*S1^{i}"
        for i, c in enumerate(coeffs)
    )
    f = parse(text)
    expected = _kernel(n, 2, f)
    assert _newton(text).expectation(n) == expected
    assert ExpectationEngine().expectation_exact(n, 2, f) == expected


def test_level_two_tables_equal_the_loops():
    # The engine fills a polynomial's exact level-2 table from the sum, and
    # the levels above step over it.
    for text in POLYNOMIALS + ("S1^7",):
        f = parse(text)
        engine = ExpectationEngine()
        tables = _loop_tables(f, 4, 300)
        assert engine._level(_EXACT, f, 2, 300).tolist() == tables[1], text
        assert (_EXACT, f, 1) not in engine._tables, text
        for r in (3, 4):
            for n in (1, 2, 57, 150, 299, 300):
                entry = engine._expect(_EXACT, n, r, f)
                assert entry == tables[r - 1][n], (text, r, n)


def test_cherry_sum_answers_at_a_billion():
    # E_n[S2] = n (n - 1) / (2 (2n - 3)); the engine keeps its ceiling.
    n = 10**9
    assert _newton("S1").expectation(n) == Fraction(499999999500000000, 1999999997)
    assert _newton("S1").expectation(n) == Fraction(n * (n - 1), 2 * (2 * n - 3))
    # E_n[C(S2, 2)] = C(n-2, 2) c_{n-3} / c_{n-1}, the identity at k = 2.
    assert _newton("(S1-1)*S1/2").expectation(n) == Fraction(
        (n - 2) * (n - 3) * n * (n - 1), 2 * 4 * (2 * n - 5) * (2 * n - 3))


def test_the_package_imports_no_reference():
    # The benchmark's references must stay independent of the program, and
    # the package must not depend on sympy.
    banned = {"perfbench", "reference", "sympy"}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            else:
                continue
            for name in names:
                assert name.split(".")[0] not in banned, (path.name, name)
