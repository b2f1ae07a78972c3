"""Observables split by powers of their first variable.

When every divisor of f mentions S1 alone, its rational form is

    f = sum_a S1^a c_a P_a(S2, S3, ...) / Q(S1)

with each part P_a an integer polynomial, its content and sign divided out
into c_a and its variables renumbered down (S2 is the part's S1), and Q a
polynomial in S1 alone. At every n where no divisor of f is zero, f(n, w)
is that form's value at every window w, so f can be read off its parts;
the expectation engine takes E_n[f] at order 1 as sum_a c_a n^a / Q(n)
E_n[P_a at base 2]. Equal parts of different observables are equal
observables, hashed by their AST like any other. An f of one variable
splits into constant parts (``Observable.degree`` reads its degree without
this module).

The engine loads this module on first use, so that set-up does not.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .observables import SPLIT_TERMS, Observable, _ascending, _nodes, _rational, _Sprawl


class FirstSplit(NamedTuple):
    """f = sum over parts of S1^power * coeff * part / Q(S1); Q and every
    divisor's numerator as ascending coefficients in S1."""

    powers: tuple
    coeffs: tuple
    parts: tuple
    den: tuple
    divisors: tuple

    def weights(self, n: int):
        """(the factors coeff * n^power of the parts, Q(n)) when no divisor of
        f is zero at S1 = n, so that f(n, w) is the split's value at every
        window w; otherwise None."""
        if any(_at(d, n) == 0 for d in self.divisors):
            return None
        return [c * n**a for a, c in zip(self.powers, self.coeffs)], _at(self.den, n)


def split_first(f: Observable):
    """f split by powers of its first variable, or None when a divisor
    mentions S2 or a higher variable, or a form of f outgrows
    ``SPLIT_TERMS`` terms."""
    divisors = [node[2] for node in _nodes(f.ast) if node[0] == "/"]
    if any(v[0] == "var" and v[1] > 1 for d in divisors for v in _nodes(d)):
        return None
    try:
        num, den = _rational(f.ast, f.arity, SPLIT_TERMS)
        guards = [_ascending(_rational(d, 1, SPLIT_TERMS)[0]) for d in divisors]
    except _Sprawl:
        return None
    groups: dict = {}
    for e, c in num.items():
        groups.setdefault(e[0], {})[e[1:]] = c
    powers, coeffs, parts = [], [], []
    for a in sorted(groups):
        poly = groups[a]
        c = math.gcd(*poly.values())
        if poly[max(poly)] < 0:
            c = -c
        powers.append(a)
        coeffs.append(c)
        parts.append(_polynomial({e: v // c for e, v in poly.items()}))
    return FirstSplit(tuple(powers), tuple(coeffs), tuple(parts),
                      tuple(_ascending(den)), tuple(guards))


def _at(coeffs: Sequence[int], x: int) -> int:
    value = 0
    for c in reversed(coeffs):
        value = value * x + c
    return value


def _balanced(op: str, nodes: list):
    """nodes joined by op in a tree of height about log2 len(nodes); up to
    three nodes it is the left-associative tree the parser builds."""
    if len(nodes) == 1:
        return nodes[0]
    half = (len(nodes) + 1) // 2
    return (op, _balanced(op, nodes[:half]), _balanced(op, nodes[half:]))


def _polynomial(poly: dict) -> Observable:
    """The observable of a nonzero integer polynomial whose leading term (the
    largest exponent tuple) is positive: the positive terms less the negative
    ones, each side in descending order, so that ``S1``, ``S1^2``, ``S1-1``
    and ``2*S1*S2`` come out as the parser reads them."""
    sides: dict = {True: [], False: []}
    for e in sorted(poly, reverse=True):
        c = poly[e]
        factors = [("var", j) if k == 1 else ("^", ("var", j), k)
                   for j, k in enumerate(e, 1) if k]
        if abs(c) != 1 or not factors:
            factors.insert(0, ("lit", abs(c)))
        sides[c > 0].append(_balanced("*", factors))
    node = _balanced("+", sides[True])
    if sides[False]:
        node = ("-", node, _balanced("+", sides[False]))
    arity = max((j for e in poly for j, k in enumerate(e, 1) if k), default=1)
    return Observable(node, arity)
