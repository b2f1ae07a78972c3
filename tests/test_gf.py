"""The generating-function route for one-variable polynomial observables,
against the kernel, the oracle and the closed forms of ``strahler.gf``."""

import ast
import pathlib
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from strahler import combinatorics as comb
from strahler import gf
from strahler.expectations import _EXACT, ExpectationEngine, _series_pays
from strahler.observables import parse
from strahler.split import split_first

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "strahler"

POLYNOMIALS = ("S1", "S1^2", "S1^3", "S1-1", "2", "(S1-1)*S1/2", "2*S1^2+S1/3-5")


def _kernel(engine, n, r, f):
    return Fraction(engine._expect(_EXACT, n, r, f), comb.catalan(n - 1))


def _degree(f):
    return split_first(f).degree()


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
        kernel, series = ExpectationEngine(), ExpectationEngine()
        for n in range(1, 301):
            for r in range(2, n.bit_length() + 2):
                assert _series(series, n, r, f) == _kernel(kernel, n, r, f), (text, r, n)


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
    expected = _kernel(ExpectationEngine(), n, r, f)
    assert expected == sum(c * _kernel(ExpectationEngine(), n, r, parse(f"S1^{i}"))
                           for i, c in enumerate(coeffs))
    assert _series(ExpectationEngine(), n, r, f) == expected
    assert ExpectationEngine(exact_limit=200).expectation_exact(n, r, f) == expected


def test_queries_either_side_of_the_dispatch_boundary_agree():
    for text in ("S1", "S1^2", "S1^3", "2*S1^2+S1/3-5"):
        f = parse(text)
        degree = _degree(f)
        for r in (3, 4, 5):
            n = next(n for n in range(2, 2000) if _series_pays(n, r, degree))
            assert not _series_pays(n - 1, r, degree)
            engine = ExpectationEngine(exact_limit=2000)
            for m in (n - 1, n):
                routed = engine.expectation_exact(m, r, f)
                assert routed == _kernel(ExpectationEngine(), m, r, f), (text, r, m)
                assert routed == _series(ExpectationEngine(), m, r, f), (text, r, m)
            assert list(engine._series) == [(f, r)]


def test_order_two_stays_on_the_kernel():
    # At r = 2 the kernel takes one row; the series takes 3K + 1 products a coefficient.
    assert not any(_series_pays(n, 2, k) for k in (1, 2, 3) for n in range(2, 10**4, 97))


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
        engine = ExpectationEngine()
        values = [0] + [m**k * comb.catalan(m - 1) for m in range(1, k + 1)]
        first = gf.numerator(values, gf.denominator(k, 1))
        for r in range(2, 8):
            d = k << (r - 1)
            coeffs = [0] + [engine._expect(_EXACT, m, r, f) for m in range(1, d + 17)]
            den = gf.denominator(k, r)
            num = gf.numerator(coeffs, den)
            assert max(i for i, x in enumerate(num) if x) == d == len(den) - 1 + k + 1, (k, r)
            assert gf.lift(first, k, r) == num[: d + 1], (k, r)


def test_extend_continues_without_mutating():
    f = parse("S1")
    engine = ExpectationEngine()
    head = [0] + [engine._expect(_EXACT, m, 4, f) for m in range(1, 9)]
    den = gf.denominator(1, 4)
    num = gf.numerator(head, den)
    longer = gf.extend(num, den, head, 100)
    assert len(head) == 9 and longer[:9] == head
    assert gf.extend(num, den, longer[:50], 100) == longer
    assert gf.extend(num, den, [], 100) == longer  # from coefficient 0
    assert longer[100] == engine._expect(_EXACT, 100, 4, f)


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
