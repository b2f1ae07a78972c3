import re
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from strahler import observables as obs
from strahler.split import SPLIT_TERMS, _nodes, split_first


def test_parse_examples():
    f = obs.parse("S1^2")
    assert f.arity == 1
    assert f.evaluate((3,)) == 9

    g = obs.parse("S2/S1")
    assert g.arity == 2
    assert g.evaluate((4, 2)) == Fraction(1, 2)


def test_zero_over_zero_convention():
    g = obs.parse("S2/S1")
    assert g.evaluate((0, 0)) == 0
    with pytest.raises(obs.NonzeroOverZeroError):
        g.evaluate((0, 3))


def test_whitespace_and_precedence():
    f = obs.parse(" ( S1 - 3 ) ^ 2 + 1 ")
    assert f.evaluate((5,)) == 5
    assert obs.parse("2+3*4").evaluate((1,)) == 14
    assert obs.parse("2*3^2").evaluate((1,)) == 18
    assert obs.parse("S1-S2-S3").evaluate((10, 3, 2)) == 5  # left associative
    assert obs.parse("8/4/2").evaluate((1,)) == 1


def test_values_stay_ints_until_a_division():
    # The number format: an int, or a Fraction once a division is involved.
    value = obs.parse("S1*S2-S3").evaluate((5, 2, 1))
    assert type(value) is int and value == 9
    assert type(obs.parse("(S1-1)^2").evaluate((3,))) is int
    assert type(obs.parse("S2/S1").evaluate((0, 0))) is int  # 0/0 = 0
    value = obs.parse("S2/S1").evaluate((4, 2))
    assert type(value) is Fraction and value == Fraction(1, 2)
    assert type(obs.parse("8/4").evaluate((1,))) is Fraction
    num, den = obs.parse("(S1-1)/(2*(2*S1-3))").rational_coeffs()
    assert all(type(c) is int for c in num + den)
    num, den = obs.parse("S1-S1").rational_coeffs()
    assert (num, den) == ([0], [1]) and type(num[0]) is int


def test_rational_constants_stay_exact():
    assert obs.parse("1/3").evaluate((0,)) == Fraction(1, 3)
    assert obs.parse("(1/3)*3").evaluate((0,)) == 1


@pytest.mark.parametrize(
    "text,position",
    [
        ("", 0),
        ("S1 +", 4),
        ("S1^S2", 3),
        ("S1^(2)", 3),
        ("S0", 1),
        ("S1 @ 2", 3),
        ("(S1", 3),
        ("S1)", 2),
        # A zero divisor at its first byte, after every syntax error.
        ("S1/(S2-S2)", 3),
        ("S1 /  0", 6),
        ("1/(S1/(S1-S1))", 6),
        ("S1/0 +", 6),
    ],
)
def test_parse_errors_carry_offsets(text, position):
    with pytest.raises(obs.ObservableSyntaxError) as excinfo:
        obs.parse(text)
    assert excinfo.value.position == position


def test_overlong_integer_rejected_at_its_offset():
    # Past the interpreter's int conversion limit a digit run is a parse
    # error at its first digit, as an exponent or as a literal.
    for text, position in (("S1^" + "1" * 5000, 3), ("2 + " + "9" * 5000, 4)):
        with pytest.raises(obs.ObservableSyntaxError) as excinfo:
            obs.parse(text)
        assert excinfo.value.position == position
        assert "5000 digits" in str(excinfo.value)
    assert obs.parse("S1^10000").text == "S1^10000"


def test_non_ascii_rejected_at_offset():
    with pytest.raises(obs.ObservableSyntaxError) as excinfo:
        obs.parse("(S1 - 3)^2 + 1/2·S2")
    assert excinfo.value.position == 16


def test_zero_polynomial_divisor_rejected():
    with pytest.raises(obs.ObservableSyntaxError):
        obs.parse("S1/(S2-S2)")
    with pytest.raises(obs.ObservableSyntaxError):
        obs.parse("S1/0")
    with pytest.raises(obs.ObservableSyntaxError):
        obs.parse("S1/(S1*S2 - S2*S1)")
    # A divisor that merely can vanish pointwise is fine.
    obs.parse("S1/(S1-1)")


def _outcome(text):
    try:
        f = obs.parse(text)
    except obs.ObservableSyntaxError as exc:
        return str(exc), exc.position
    return f.ast, f.arity


def _zero_by_expansion(node, arity):
    return not obs._rational(node, arity)[0]


_zeros = st.sampled_from(["0", "(S1-S1)", "(S2-S2)", "(S1*S2-S2*S1)", "(0*S3)"])
_with_zeros = st.recursive(
    st.one_of(_zeros, st.sampled_from(["S1", "S2", "S3", "1", "2"])),
    lambda children: st.one_of(
        st.tuples(children, st.sampled_from("+-*/"), children).map("({0[0]}{0[1]}{0[2]})".format),
        st.tuples(children, st.integers(0, 3)).map("({0[0]})^{0[1]}".format),
    ),
    max_leaves=8,
)


@settings(max_examples=300, deadline=None)
@given(_with_zeros)
def test_zero_divisor_check_equals_the_full_expansion(text):
    # Powers and products are judged by their bases and factors; the parse
    # accepts and rejects as expanding every divisor does, at the same offset.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(obs, "_is_zero", _zero_by_expansion)
        expected = _outcome(text)
    assert _outcome(text) == expected
    scanner = obs._Scanner(text)
    ast, _height = obs._parse_expr(scanner)
    for node in _nodes(ast):
        assert obs._is_zero(node, scanner.arity) == _zero_by_expansion(node, scanner.arity)


def test_zero_divisor_check_expands_no_power(monkeypatch):
    calls = []
    poly_mul = obs._poly_mul
    monkeypatch.setattr(obs, "_poly_mul", lambda p, q: calls.append(1) or poly_mul(p, q))
    # Only the base is expanded: three products for each sum node in it.
    for text, sums in (("S1/(S1+1)^3000", 1), ("S1/(S1+S2+S3+S4)^40", 3)):
        calls.clear()
        obs.parse(text)
        assert len(calls) == 3 * sums, text
    calls.clear()
    with pytest.raises(obs.ObservableSyntaxError) as excinfo:
        obs.parse("S1/((S1-S1)^5000*S2)")
    assert excinfo.value.position == 3 and len(calls) == 3


def test_arity_is_the_largest_index_in_the_text():
    texts = [
        "1/2",
        "7",
        "S1",
        "S3",
        "S2/S1",
        "S1*S2-S3",
        "S10+S2",
        "(S4-1)^2/(S2+1)",
        "S1*S2*S3*S4*S5",
        "S5 - S5 + 1",
        "(S1+1)^10000",
    ]
    battery = []
    for text in texts:
        f = obs.parse(text)
        battery.append(f)
        while f.arity >= 2:
            f = f.bind_first(3)
            battery.append(f)
    for f in battery:
        indices = [int(j) for j in re.findall(r"S(\d+)", f.text)]
        assert f.arity == max(indices, default=1), f.text


def test_bind_first_examples():
    f = obs.parse("S2/S1").bind_first(10)
    assert f.arity == 1
    assert f.evaluate((5,)) == Fraction(1, 2)

    g = obs.parse("S1+S2").bind_first(3)
    assert g.evaluate((7,)) == 10

    h = obs.parse("S1*S2*S3").bind_first(2)
    assert h.arity == 2
    assert h.evaluate((3, 4)) == 24


def test_bind_first_requires_arity_two():
    with pytest.raises(ValueError):
        obs.parse("S1^2").bind_first(4)


def test_print_parse_fixpoint():
    texts = [
        "S1^2",
        "S2/S1",
        "(S1-1)*S1",
        "S1+2*S2",
        "1/2",
        "(S1+1)^3",
        "((S1^2)^2)",
        "S1-S2-S3",
        "S1/S2/S3",
        "S3*(S1-2*S2)^2",
    ]
    for text in texts:
        f = obs.parse(text)
        assert obs.parse(f.text).ast == f.ast


def test_bind_first_consistent_with_prepending():
    for text in ("S2/S1", "S1+S2", "S1*S2*S3", "(S1-S2)^2"):
        f = obs.parse(text)
        for a in (1, 2, 7):
            g = f.bind_first(a)
            for v in product((0, 1, 2, 3), repeat=f.arity - 1):
                full = (a,) + v
                assert g.evaluate(v) == f.evaluate(full)


def test_evaluate_requires_enough_values():
    with pytest.raises(ValueError):
        obs.parse("S2/S1").evaluate((4,))


def test_rational_coeffs_single_variable_only():
    with pytest.raises(ValueError):
        obs.parse("S2/S1").rational_coeffs()
    num, den = obs.parse("(S1-1)/(2*(2*S1-3))").rational_coeffs()
    assert num == [Fraction(-1), Fraction(1)]
    assert den == [Fraction(-6), Fraction(4)]


@pytest.mark.parametrize(
    "text,position",
    [
        ("(" * 3000 + "S1" + ")" * 3000, obs.MAX_DEPTH),  # the first group too many
        ("+".join(["S1"] * 20000), 3 * obs.MAX_DEPTH - 1),  # the operator too many
    ],
)
def test_too_deep_expressions_rejected_with_offset(text, position):
    with pytest.raises(obs.ObservableSyntaxError) as excinfo:
        obs.parse(text)
    assert excinfo.value.position == position
    assert "deeper than" in str(excinfo.value)


def test_fifty_deep_expressions_parse():
    nested = obs.parse("(" * 50 + "S1" + ")" * 50)
    assert nested.evaluate((3,)) == 3
    flat = obs.parse("+".join(["S1"] * 50))
    assert flat.evaluate((2,)) == 100
    mixed = "S1"
    for i in range(50):
        mixed = f"({mixed}+1)*S1" if i % 2 else f"({mixed})^1"
    for f in (flat, obs.parse(mixed)):
        assert obs.parse(f.text) == f  # canonical text stays within the bound


def test_split_degree_is_read_without_expanding(monkeypatch):
    # The degree is exact after cancellation: S1-S1+1 is the constant 1, so
    # S1/(S1-S1+1) is a polynomial, and 0*S1 is the zero polynomial.
    cases = {"S1^400000": 400000, "S1/3": 1, "2": 0, "(S1-1)*S1/2": 2,
             "2*S1^2+S1/3-5": 2, "S1^0/(2-1)": 0, "S1^2-S1^2+S1": 1,
             "S1/(S1-S1+1)": 1, "0*S1": 0, "S1-S1": 0,
             "1/(1/S1)": None, "S1^2/S1": None}
    calls = []
    poly_mul = obs._poly_mul
    monkeypatch.setattr(obs, "_poly_mul", lambda p, q: calls.append(1) or poly_mul(p, q))
    for text, degree in cases.items():
        calls.clear()
        assert obs.parse(text).degree() == degree, text
        if text == "S1^400000":
            assert calls == [], "a power of one term is raised at once"
    # S1*S2^3 is S1 times a part of degree 3; a one-variable form past the
    # term limit does not split.
    split = split_first(obs.parse("S1*S2^3"))
    assert split.powers == (1,) and split.parts == (obs.parse("S1^3"),)
    assert split_first(obs.parse("(S1+1)^3000")) is None


def _exprs(leaves, divisors):
    def extend(children):
        return st.one_of(
            st.tuples(children, st.sampled_from("+-*"), children).map("({0[0]}{0[1]}{0[2]})".format),
            st.tuples(children, st.integers(0, 3)).map("({0[0]})^{0[1]}".format),
            st.tuples(children, children if divisors is None else divisors).map("({0[0]})/({0[1]})".format),
        )
    return st.recursive(leaves, extend, max_leaves=6)


_numbers = st.integers(0, 4).map(str)
_of_s1 = _exprs(st.one_of(st.just("S1"), _numbers), None)
_of_many = _exprs(st.sampled_from(["S1", "S2", "S3", "S2", "S3", "0", "1", "2", "3"]), _of_s1)


def _parsed(text):
    try:
        return obs.parse(text)
    except obs.ObservableSyntaxError:  # a divisor that is the zero polynomial
        assume(False)


def _sprawls(f):
    try:
        obs._rational(f.ast, f.arity, SPLIT_TERMS)
    except obs._Sprawl:
        return True
    return False


@settings(max_examples=150, deadline=None)
@given(st.one_of(_of_many, _of_s1))
def test_split_by_powers_of_s1_equals_evaluate(text):
    # A one-variable f splits too, into constant parts.
    f = _parsed(text)
    split = split_first(f)
    if _sprawls(f):
        assert split is None
        return
    divisors = [node[2] for node in _nodes(f.ast) if node[0] == "/"]
    for parts in split.parts:
        assert obs.parse(parts.text) == parts  # an ordinary, canonical observable
    for n in range(7):
        try:
            vanishes = any(obs.Observable(d, 1).evaluate((n,)) == 0 for d in divisors)
        except obs.NonzeroOverZeroError:
            vanishes = True
        if vanishes:
            assert split.weights(n) is None, n
            continue
        weights, scale = split.weights(n)
        for rest in product(range(4), repeat=max(f.arity - 1, 1)):
            expected = f.evaluate((n, *rest))
            value = sum(w * p.evaluate(rest) for w, p in zip(weights, split.parts))
            assert Fraction(value, scale) == expected, (n, rest)


_of_s2 = st.one_of(st.sampled_from(["S2", "S3", "S1+S2", "S2-S2+1", "S3^0"]),
                   st.tuples(_of_s1, st.sampled_from(["S2", "S3"])).map("{0[0]}*{0[1]}".format))


@settings(max_examples=60, deadline=None)
@given(_of_many, _of_s2, st.sampled_from(["({0})/({1})", "S1*(1+({0})/({1}))",
                                          "({0})/(S1+1/({1}))"]))
def test_a_divisor_that_mentions_s2_leaves_no_split(text, divisor, shape):
    f = _parsed(shape.format(text, divisor))
    assert split_first(f) is None


def test_an_observable_that_expands_past_the_term_limit_does_not_split():
    # Every term of the expansion would be a part with tables of its own,
    # where binding S1 := n evaluates the expression once per window.
    assert len(split_first(obs.parse("(S1+S2)^63")).parts) == 64 == SPLIT_TERMS
    for text in ("(S1+S2)^64", "(S1+S2)^1500", "S2/(S1+1)^64"):
        assert split_first(obs.parse(text)) is None, text
