"""Exact counting for the uniform binary-tree model.

Catalan numbers, the multiplicity of the leaf-removal transform, sizes of
the ``second-order branch count = m`` classes, and the resulting magnitude
weights, either as exact rationals or as log-gamma floats for large inputs.

All exact results are arbitrary-precision; nothing in exact mode rounds.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Tuple

import numpy as np
from scipy.special import gammaln

_LOG2 = math.log(2.0)

# Incrementally grown Catalan cache; list index i holds c_i.
_catalan_cache: list[int] = [1]


def catalan(i: int) -> int:
    """Return the i-th Catalan number c_i = (2i)! / (i! (i+1)!).

    c_{n-1} counts the distinct binary-tree shapes of magnitude n.
    """
    if i < 0:
        raise ValueError(f"catalan index must be >= 0, got {i}")
    while len(_catalan_cache) <= i:
        j = len(_catalan_cache)
        # c_j = c_{j-1} * 2(2j-1)/(j+1); exact since division is always even
        _catalan_cache.append(_catalan_cache[j - 1] * 2 * (2 * j - 1) // (j + 1))
    return _catalan_cache[i]


def catalans(n: int) -> tuple:
    """The first n Catalan numbers (c_0, ..., c_{n-1}), for indexing in hot loops."""
    if n > 0:
        catalan(n - 1)
    return tuple(_catalan_cache[:n])


def multiplicity(n: int, m: int) -> int:
    """Number of magnitude-n trees that collapse onto one fixed magnitude-m tree.

    Equals C(n-2, n-2m) * 2^(n-2m); independent of which magnitude-m tree is
    fixed. Returns 0 whenever the pair (n, m) is unreachable (m < 1, m > n/2).
    """
    if n < 2:
        raise ValueError(f"multiplicity requires n >= 2, got n={n}")
    if m < 1 or n - 2 * m < 0:
        return 0
    q = n - 2 * m
    return math.comb(n - 2, q) << q


def multiplicities(n: int) -> Iterator[Tuple[int, int]]:
    """(m, multiplicity(n, m)) over 1 <= m <= n//2, in ascending m.

    Each entry follows from the one before it, q = n - 2m going down by
    two, by the ratio of consecutive terms: one small multiply and one
    exact divide per entry instead of a fresh binomial.
    """
    q = n - 2
    mu = 1 << q
    for m in range(1, n // 2 + 1):
        yield m, mu
        mu = mu * q * (q - 1) // (4 * (n - q) * (n - q - 1))
        q -= 2


def class_size(n: int, m: int) -> int:
    """Number of magnitude-n trees whose second-order branch count is m."""
    mu = multiplicity(n, m)
    return mu * catalan(m - 1) if mu else 0


def float_weight_row(n: int) -> list:
    """(m, w(n, m)) pairs over 1 <= m <= n//2 in ascending m, via log-gamma.

    w(n, m) = class_size(n, m) / catalan(n-1), the probability that a uniform
    magnitude-n tree has m second-order branches. The whole row is one
    vectorised log-gamma expression, so deep float sweeps are not dominated
    by weight set-up. Relative error is a small multiple of the largest
    lgamma magnitude times machine epsilon (within 1e-12 for n up to a few
    hundred).
    """
    ms = np.arange(1, n // 2 + 1)
    qs = n - 2 * ms
    logs = (
        math.lgamma(n - 1)
        + qs * _LOG2
        - gammaln(qs + 1)
        - gammaln(ms + 1)
        - gammaln(ms)
        + math.lgamma(n + 1)
        + math.lgamma(n)
        - math.lgamma(2 * n - 1)
    )
    return list(zip(ms.tolist(), np.exp(logs).tolist()))


def order2_weights(n: int, mode: str = "exact") -> dict[int, Fraction] | dict[int, float]:
    """Weight table m -> w(n, m) over 1 <= m <= n//2.

    mode="exact" returns Fractions that sum to exactly 1; mode="float"
    returns floats computed in the log domain.
    """
    if n < 2:
        raise ValueError(f"order2_weights requires n >= 2, got n={n}")
    if mode == "exact":
        total = catalan(n - 1)
        return {m: Fraction(class_size(n, m), total) for m in range(1, n // 2 + 1)}
    if mode == "float":
        return dict(float_weight_row(n))
    raise ValueError(f"unknown weight mode {mode!r}")
