"""The generating-function route and the marked-cherry sum for one-variable
polynomial observables, against an explicit multiplicity-row loop, the
oracle and the closed forms of ``strahler.gf``."""

import ast
import functools
import pathlib
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from strahler import combinatorics as comb
from strahler import gf
from strahler.expectations import _EXACT, ExpectationEngine, _Newton, _series_pays
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


def _series(engine, n, r, f):
    degree = _degree(f)
    if degree == 0:
        return Fraction(f.evaluate((0,)))
    return engine._expect_series(n, r, f, degree)


def _at(poly, z):
    return sum(c * z**i for i, c in enumerate(poly))


def test_series_equals_kernel_to_300():
    for text in POLYNOMIALS:
        f = parse(text)
        tables, series = _loop_tables(f, 10, 300), ExpectationEngine()
        for n in range(1, 301):
            for r in range(2, n.bit_length() + 2):
                kernel = Fraction(tables[r - 1][n], comb.catalan(n - 1))
                assert _series(series, n, r, f) == kernel, (text, r, n)


def test_series_equals_oracle_to_40():
    engine = ExpectationEngine()
    for text in POLYNOMIALS:
        f = parse(text)
        for n in range(1, 41):
            for r in range(2, n.bit_length() + 2):
                assert _series(engine, n, r, f) == engine.expectation_bruteforce(n, r, f), (
                    text, r, n,
                )


_COEFF = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@settings(max_examples=30, deadline=None)
@given(
    coeffs=st.lists(_COEFF, min_size=1, max_size=5),
    n=st.integers(1, 200),
    r=st.integers(2, 5),
)
def test_series_equals_kernel_on_random_polynomials(coeffs, n, r):
    text = "0" + "".join(
        f"{'-' if c < 0 else '+'}{abs(c.numerator)}/{c.denominator}*S1^{i}"
        for i, c in enumerate(coeffs)
    )
    f = parse(text)
    assert _degree(f) == max((i for i, c in enumerate(coeffs) if c), default=0)
    expected = _kernel(n, r, f)
    assert expected == sum(c * _kernel(n, r, parse(f"S1^{i}")) for i, c in enumerate(coeffs))
    assert _series(ExpectationEngine(), n, r, f) == expected
    assert ExpectationEngine(exact_limit=200).expectation_exact(n, r, f) == expected


def test_queries_either_side_of_the_dispatch_boundary_agree():
    # At r = 3 the kernel's level-2 table is the marked-cherry sum, linear in
    # its top, so the kernel is linear in n there and the series never pays.
    assert not any(_series_pays(n, 3, k) for k in range(1, 9) for n in range(1, 10**4, 37))
    for text in ("S1", "S1^2", "S1^3", "2*S1^2+S1/3-5"):
        f = parse(text)
        degree = _degree(f)
        for r in (4, 5):
            n = next(n for n in range(2, 2000) if _series_pays(n, r, degree))
            assert not _series_pays(n - 1, r, degree)
            engine = ExpectationEngine(exact_limit=2000)
            for m in (n - 1, n):
                routed = engine.expectation_exact(m, r, f)
                assert routed == _kernel(m, r, f), (text, r, m)
                assert routed == _series(ExpectationEngine(), m, r, f), (text, r, m)
            assert list(engine._series) == [(f, r)]


def test_series_pays_at_some_degree_only_where_degree_one_does():
    # expectation_exact asks the cost model at K = 1 first and skips the
    # split where it says no.
    for r in range(3, 12):
        for n in range(1, 3000, 13):
            for k in range(2, 9):
                assert not _series_pays(n, r, k) or _series_pays(n, r, 1), (n, r, k)


def test_order_two_takes_the_marked_cherry_sum(monkeypatch):
    # An exact query at r = 2 of a one-variable polynomial is the sum of its
    # Newton form: it builds no multiplicity row, no table and no series,
    # and never asks the series' cost model.
    engine = ExpectationEngine(exact_limit=1000)
    with monkeypatch.context() as patch:
        for name in ("multiplicity_row", "scaled_multiplicities", "multiplicity"):
            patch.setattr(comb, name, None)
        patch.setattr("strahler.expectations._series_pays", None)
        queries = [(text, n) for text in POLYNOMIALS + ("S1/(S1-S1+1)",)
                   for n in (2, 3, 12, 299, 1000)]
        queries += [("S1^7", n) for n in (7, 12, 1000)]
        answers = {(text, n): engine.expectation_exact(n, 2, parse(text))
                   for text, n in queries}
    assert engine._tables == {} and engine._series == {}
    for (text, n), answer in answers.items():
        assert answer == _kernel(n, 2, parse(text)), (text, n)


def test_order_two_keeps_the_kernel_past_the_degree_bound():
    # The Newton form of degree K takes K (K + 1) / 2 differences; where
    # K^2 > 8 n a row costs less, and the kernel answers with the same value.
    for text, n, summed in (("S1^7", 6, False), ("S1^7", 7, True), ("S1^60", 300, False),
                            ("S1^48", 300, True)):
        f, engine = parse(text), ExpectationEngine()
        assert engine.expectation_exact(n, 2, f) == _kernel(n, 2, f), (text, n)
        assert (f in engine._newtons) is summed, (text, n)
        assert ((_EXACT, f, 1) in engine._tables) is not summed, (text, n)


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


def test_q_chain():
    assert gf.q(1) == [1, -2]
    assert gf.q(2) == [1, -4, 2]
    assert gf.q(3) == [1, -8, 20, -16, 2]
    for j in range(1, 6):
        poly = gf.q(j)
        assert len(poly) == 2 ** (j - 1) + 1
        assert _at(poly, Fraction(1, 4)) == Fraction(2, 2 ** (2**j))  # 2^(1 - 2^j)
        for z in (Fraction(1, 3), Fraction(-2, 7), Fraction(5, 11)):
            u = z**2 / (1 - 2 * z) ** 2
            assert _at(gf.q(j + 1), z) == (1 - 2 * z) ** (2**j) * _at(poly, u), (j, z)


def test_denominator_closed_form():
    for k in range(1, 5):
        for r in range(2, 8):
            den = gf.denominator(k, r)
            assert len(den) - 1 == (k << (r - 1)) - k - 1
            for z in (Fraction(1, 3), Fraction(-3, 5)):
                closed = (1 - 4 * z) ** (k - 1)
                for j in range(1, r - 1):
                    closed *= _at(gf.q(j), z) ** (2 * k)
                assert _at(den, z) == closed, (k, r, z)


def test_numerator_degree_bound_is_attained():
    # D_r sqrt(1-4z) F_r, from the kernel's coefficients of S1^k well past
    # d_r = K 2^(r-1), is a polynomial of degree exactly deg D_r + k + 1,
    # and it is N_1, from the values of S1^k, lifted by the substitution.
    for k in range(1, 5):
        f = parse(f"S1^{k}")
        values = [0] + [m**k * comb.catalan(m - 1) for m in range(1, k + 1)]
        first = gf.numerator(values, gf.denominator(k, 1))
        for r in range(2, 8):
            d = k << (r - 1)
            coeffs = _loop_tables(f, r, d + 16)[-1]
            den = gf.denominator(k, r)
            num = gf.numerator(coeffs, den)
            assert max(i for i, x in enumerate(num) if x) == d == len(den) - 1 + k + 1, (k, r)
            assert gf.lift(first, k, r) == num[: d + 1], (k, r)


def test_extend_continues_without_mutating():
    f = parse("S1")
    table = _loop_tables(f, 4, 100)[-1]
    head = table[:9]
    den = gf.denominator(1, 4)
    num = gf.numerator(head, den)
    longer = gf.extend(num, den, head, 100)
    assert len(head) == 9 and longer[:9] == head
    assert gf.extend(num, den, longer[:50], 100) == longer
    assert gf.extend(num, den, [], 100) == longer  # from coefficient 0
    assert longer == table


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
