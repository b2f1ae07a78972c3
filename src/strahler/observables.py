"""Observables: rational expressions over order-relative branch counts.

An observable is parsed from text like ``"S2/S1"`` or ``"(S1-1)*S1"``.
Variables are order-relative: when an expectation is taken at base order r,
``Sj`` denotes the branch count at order r+j-1, so one expression serves
every base order. Evaluation is exact: an int, or a Fraction once a
division is involved, with the convention 0/0 = 0 (a window above the root
order contributes nothing); a nonzero numerator over zero is an error.

Grammar (ASCII, whitespace insignificant)::

    expr   := term  (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := base  ("^" uint)?
    base   := "S" uint | uint | "(" expr ")"

Exponents must be literal non-negative integers; rational constants are
written as quotients (e.g. ``1/2``). A divisor that is identically the
zero polynomial is rejected at parse time, at the offset of its first byte
(``S1/(S2-S2)`` at 3); the parse also records the observable's arity, its
largest variable index.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence, Tuple

# AST nodes are tuples: ("var", j), ("lit", int), ("+"|"-"|"*"|"/", a, b),
# ("^", base, uint). Immutable, hashable, cheap to compare.
Node = tuple

# Bound on both the height of an expression's tree and the nesting of its
# parentheses. The parser recurses 4 frames per open group (``_parse_expr``
# at the sum and the product level, ``_parse_factor``, ``_parse_base``) and
# every pass over the tree 1 frame per level, so this keeps all of them far
# inside the interpreter's recursion limit. Nesting and height share one
# bound because canonical text parenthesises every binary node and so nests
# as deep as its tree is high: a tree higher than the nesting bound would
# print text that does not reparse. A flat sum of more than MAX_DEPTH terms
# is therefore rejected too.
MAX_DEPTH = 100


class ObservableSyntaxError(ValueError):
    """Unparseable observable text; ``position`` is the first bad byte offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class NonzeroOverZeroError(ZeroDivisionError):
    """A nonzero quantity was divided by zero during evaluation."""


class _Scanner:
    """Reads one observable and records its facts on the way: the largest
    variable index (at least 1) and each divisor with its first byte's offset."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.open_groups = 0
        self.arity = 1
        self.divisors: list = []

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take_uint(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ObservableSyntaxError("expected an unsigned integer", start)
        try:
            return int(self.text[start : self.pos])
        except ValueError:  # more digits than the interpreter converts
            raise ObservableSyntaxError(
                f"integer of {self.pos - start} digits is too long", start
            ) from None


def _too_deep(position: int) -> ObservableSyntaxError:
    return ObservableSyntaxError(
        f"expression nested deeper than {MAX_DEPTH} levels", position
    )


# Each parser returns (node, height), the height of its tree (a variable
# or literal has height 1). ``_parse_expr`` reads the binary operators of
# one precedence level, loosest first: sums at level 0, products at level 1.
_OPERATORS = (("+", "-"), ("*", "/"))


def _parse_expr(s: _Scanner, level: int = 0) -> Tuple[Node, int]:
    last = level == len(_OPERATORS) - 1
    node, height = _parse_factor(s) if last else _parse_expr(s, level + 1)
    while s.peek() in _OPERATORS[level]:
        op_pos = s.pos
        s.pos += 1
        s.skip_ws()
        start = s.pos
        right, right_height = _parse_factor(s) if last else _parse_expr(s, level + 1)
        op = s.text[op_pos]
        if op == "/":
            s.divisors.append((start, right))
        node = (op, node, right)
        height = max(height, right_height) + 1
        if height > MAX_DEPTH:
            raise _too_deep(op_pos)
    return node, height


def _parse_factor(s: _Scanner) -> Tuple[Node, int]:
    node, height = _parse_base(s)
    if s.peek() == "^":
        if height >= MAX_DEPTH:
            raise _too_deep(s.pos)
        s.pos += 1
        return ("^", node, s.take_uint()), height + 1
    return node, height


def _parse_base(s: _Scanner) -> Tuple[Node, int]:
    c = s.peek()
    if c == "S":
        s.pos += 1
        j = s.take_uint()
        if j < 1:
            raise ObservableSyntaxError("variable index must be >= 1", s.pos - 1)
        s.arity = max(s.arity, j)
        return ("var", j), 1
    if c.isdigit():
        return ("lit", s.take_uint()), 1
    if c == "(":
        # The parser recurses once per open group, so this is checked on
        # the way down; a group adds no tree node, hence no height.
        s.open_groups += 1
        if s.open_groups > MAX_DEPTH:
            raise _too_deep(s.pos)
        s.pos += 1
        node, height = _parse_expr(s)
        if s.peek() != ")":
            raise ObservableSyntaxError("expected ')'", s.pos)
        s.pos += 1
        s.open_groups -= 1
        return node, height
    if c == "":
        raise ObservableSyntaxError("unexpected end of expression", s.pos)
    raise ObservableSyntaxError(f"unexpected character {c!r}", s.pos)


def _print(node: Node) -> str:
    op = node[0]
    if op == "var":
        return f"S{node[1]}"
    if op == "lit":
        return str(node[1])
    if op == "^":
        base = _print(node[1])
        if node[1][0] not in ("var", "lit"):
            base = f"({base})"
        return f"{base}^{node[2]}"
    return f"({_print(node[1])}{op}{_print(node[2])})"


def _eval(node: Node, values: Sequence[int]):
    op = node[0]
    if op == "var":
        return values[node[1] - 1]
    if op == "lit":
        return node[1]
    if op == "^":
        return _eval(node[1], values) ** node[2]
    a = _eval(node[1], values)
    b = _eval(node[2], values)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if b == 0:
        if a == 0:
            return 0
        raise NonzeroOverZeroError(f"{a} / 0 in observable evaluation")
    return Fraction(a, b)


def _shift(node: Node, first_value: int) -> Node:
    """Substitute S1 := first_value and renumber S(j) -> S(j-1)."""
    op = node[0]
    if op == "var":
        return ("lit", first_value) if node[1] == 1 else ("var", node[1] - 1)
    if op == "lit":
        return node
    if op == "^":
        return ("^", _shift(node[1], first_value), node[2])
    return (op, _shift(node[1], first_value), _shift(node[2], first_value))


# --- rational normal form ----------------------------------------------------
#
# A multivariate polynomial is a dict {exponent tuple: int}; a rational
# form is a (num, den) pair of those. Used to reject zero divisors at parse
# time, to read a one-variable polynomial's degree, to split observables by
# powers of S1 (``strahler.split``), and to feed the asymptotic pipeline for
# single-variable observables.

# The most terms a rational form may grow to in ``Observable.degree`` and
# ``split.split_first``. Every term of a split makes a part with tables of
# its own. An observable that expands past this, like ``(S1+S2)^3000`` or
# ``(S1+1)^3000``, neither splits nor has a degree, and the kernel answers
# it, which never expands it.
SPLIT_TERMS = 64


class _Sprawl(Exception):
    """A rational form outgrew the term limit its caller set."""


def _poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            c = out.get(e, 0) + ca * cb
            if c:
                out[e] = c
            elif e in out:
                del out[e]
    return out


def _poly_add(p: dict, q: dict, sign: int = 1) -> dict:
    out = dict(p)
    for e, c in q.items():
        c2 = out.get(e, 0) + sign * c
        if c2:
            out[e] = c2
        elif e in out:
            del out[e]
    return out


def _poly_pow(p: dict, k: int, one: dict, limit) -> dict:
    """p^k, raising _Sprawl past ``limit`` terms. A single term is raised
    at once; otherwise p multiplies in one factor at a time, which for a
    sparse base of several variables costs less than squaring."""
    if len(p) == 1:
        ((e, c),) = p.items()
        return {tuple(x * k for x in e): c**k}
    out = one
    for _ in range(k):
        out = _poly_mul(out, p)
        if len(out) > limit:
            raise _Sprawl
    return out


def _rational(node: Node, arity: int, limit=math.inf) -> Tuple[dict, dict]:
    """(num, den) of node, unreduced; raises _Sprawl when the form of node
    or of any node below it has more than ``limit`` terms."""
    zero_exp = (0,) * arity
    one = {zero_exp: 1}
    op = node[0]
    if op == "var":
        e = tuple(1 if i == node[1] - 1 else 0 for i in range(arity))
        return {e: 1}, one
    if op == "lit":
        return ({zero_exp: node[1]} if node[1] else {}), one
    if op == "^":
        bn, bd = _rational(node[1], arity, limit)
        return _poly_pow(bn, node[2], one, limit), _poly_pow(bd, node[2], one, limit)
    an, ad = _rational(node[1], arity, limit)
    bn, bd = _rational(node[2], arity, limit)
    if op == "/":
        num, den = _poly_mul(an, bd), _poly_mul(ad, bn)
    else:
        den = _poly_mul(ad, bd)
        if op == "*":
            num = _poly_mul(an, bn)
        else:
            num = _poly_add(_poly_mul(an, bd), _poly_mul(bn, ad), 1 if op == "+" else -1)
    if len(num) > limit or len(den) > limit:
        raise _Sprawl
    return num, den


def _is_zero(node: Node, arity: int) -> bool:
    """Whether node's rational form has numerator zero. A power (exponent
    >= 1) is zero exactly when its base is, a product when a factor is, so
    neither is expanded."""
    op = node[0]
    if op == "^":
        return node[2] >= 1 and _is_zero(node[1], arity)
    if op == "*":
        return _is_zero(node[1], arity) or _is_zero(node[2], arity)
    return not _rational(node, arity)[0]


def _nodes(node: Node):
    """node and every node below it, parents first."""
    yield node
    if node[0] not in ("var", "lit"):
        for child in node[1:2] if node[0] == "^" else node[1:]:
            yield from _nodes(child)


def _ascending(p: dict) -> list:
    """The coefficients of a polynomial in S1 alone, ascending powers."""
    out = [0] * (max((e[0] for e in p), default=0) + 1)
    for e, c in p.items():
        out[e[0]] = c
    return out


class Observable:
    """A parsed observable: evaluable exactly, rebindable, printable."""

    __slots__ = ("ast", "arity")

    def __init__(self, ast: Node, arity: int):
        self.ast = ast
        self.arity = arity

    @property
    def text(self) -> str:
        """Canonical form; reparsing it yields an equal AST."""
        return _print(self.ast)

    def __str__(self) -> str:
        return self.text

    def __repr__(self) -> str:
        return f"Observable({self.text!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Observable) and self.ast == other.ast

    def __hash__(self) -> int:
        return hash(self.ast)

    def evaluate(self, values: Sequence[int]):
        """Exact value at the given branch-count window (0/0 = 0): an int,
        or a Fraction once a division is involved."""
        if len(values) < self.arity:
            raise ValueError(
                f"observable needs {self.arity} values, got {len(values)}"
            )
        return _eval(self.ast, values)

    def bind_first(self, value: int) -> "Observable":
        """Fix the first variable to ``value`` and renumber the rest down."""
        if self.arity < 2:
            raise ValueError("bind_first requires arity >= 2")
        return Observable(_shift(self.ast, value), self.arity - 1)

    def degree(self):
        """The degree of a one-variable f (0 for the zero polynomial) when
        every divisor of f is a nonzero constant, so that f is a polynomial:
        exact after cancellation (``S1^2-S1^2+S1`` and ``S1/(S1-S1+1)`` have
        degree 1). None for several variables, a divisor that mentions S1
        (``S1^2/S1``), or a form past ``SPLIT_TERMS`` terms."""
        if self.arity != 1:
            return None
        try:
            num = _rational(self.ast, 1, SPLIT_TERMS)[0]
            divisors = [_rational(node[2], 1, SPLIT_TERMS)[0]
                        for node in _nodes(self.ast) if node[0] == "/"]
        except _Sprawl:
            return None
        if any(len(_ascending(d)) > 1 for d in divisors):
            return None
        return len(_ascending(num)) - 1

    def rational_coeffs(self) -> Tuple[list, list]:
        """Integer numerator/denominator coefficient lists (ascending powers of S1).

        Only defined for single-variable observables; used for the Laurent
        expansion around infinity.
        """
        if self.arity != 1:
            raise ValueError("rational form requires a single-variable observable")
        num, den = _rational(self.ast, 1)
        return _ascending(num), _ascending(den)


def parse(text: str) -> Observable:
    """Parse observable text, rejecting malformed input with a byte offset."""
    for i, ch in enumerate(text):
        if ord(ch) > 127:
            raise ObservableSyntaxError(f"non-ASCII character {ch!r}", i)
    s = _Scanner(text)
    ast, _height = _parse_expr(s)
    s.skip_ws()
    if s.pos != len(text):
        raise ObservableSyntaxError("trailing characters after expression", s.pos)
    # A divisor is recorded once read, after any divisor inside it; the
    # first zero one in the text is reported.
    for position, divisor in sorted(s.divisors):
        if _is_zero(divisor, s.arity):
            raise ObservableSyntaxError("division by the zero polynomial", position)
    return Observable(ast, s.arity)
