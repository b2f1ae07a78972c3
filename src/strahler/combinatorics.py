"""Exact counting for the uniform binary-tree model.

Catalan numbers, the multiplicity of the leaf-removal transform, and the
magnitude weights it induces (the shares of the ``second-order branch count
= m`` classes), either as exact rationals or as log-gamma floats for large
inputs.

All exact results are arbitrary-precision; nothing in exact mode rounds.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

_LOG2 = math.log(2.0)

# Entries per block of float weight rows: 2^15 float64 entries are 256 KiB.
BLOCK_ENTRIES = 1 << 15

# Incrementally grown Catalan cache; list index i holds c_i.
_catalan_cache: list[int] = [1]

# lgamma(k) at index k >= 1 (index 0 is unused), and k * log 2 at index k,
# grown together on demand. Growth assigns longer arrays and never writes
# into one, so a row being built from the old tables stays valid.
_lgamma_table = np.array([math.inf, 0.0])
_q_log2_table = np.arange(2) * _LOG2


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


def multiplicity_row(n: int) -> np.ndarray:
    """multiplicity(n, m) over 0 <= m <= n//2 as an object array of ints.

    The counting twin of ``float_weight_row``, laid out the same way: m = 0
    holds 0 for n >= 2, and below magnitude 2 the row is δ_0. Each entry
    follows from the one before it, q = n - 2m going down by two, by the
    ratio of consecutive terms: one small multiply and one exact divide per
    entry instead of a fresh binomial.
    """
    if n < 2:
        return np.ones(1, dtype=object)
    mu = 1 << (n - 2)
    row = [0]
    for q in range(n - 2, -1, -2):
        row.append(mu)
        mu = mu * q * (q - 1) // (4 * (n - q) * (n - q - 1))
    return np.array(row, dtype=object)


def _log_tables(k: int) -> tuple:
    """(lgamma(i), i * log 2) tables holding index i for at least i <= k."""
    global _lgamma_table, _q_log2_table
    table = _lgamma_table
    if len(table) <= k:
        new = range(len(table), max(k + 1, 2 * len(table)))
        table = np.concatenate((table, [math.lgamma(i) for i in new]))
        _lgamma_table = table
        _q_log2_table = np.arange(len(table)) * _LOG2
    return table, _q_log2_table


def float_weight_row(n: int) -> np.ndarray:
    """w(n, m) over 0 <= m <= n//2 as a float array, via log-gamma.

    w(n, m) = multiplicity(n, m) * catalan(m-1) / catalan(n-1), the probability
    that a uniform magnitude-n tree has m second-order branches: each of the
    c_{m-1} magnitude-m trees has multiplicity(n, m) preimages (w(n, 0) = 0
    for n >= 2).
    Below magnitude 2 the row is δ_0: a single leaf has no second-order
    branch, and magnitude 0, above the root order, stays put. The row is the
    one-row case of ``_weight_block``, with the bits of row n of its block in
    ``float_weight_blocks``. Relative error is a small multiple of the largest
    lgamma magnitude times machine epsilon (within 1e-12 for n up to a few
    hundred).
    """
    if n < 2:
        return np.ones(1)
    width = _block_width(n)
    flat = np.empty(1 + width)
    _weight_block(n, n, width, flat)
    return flat[: n // 2 + 1]


def float_weight_blocks(lo: int, hi: int):
    """Yield (a, block) for each block a..b of the fixed partition of the
    magnitudes >= 2 that meets lo..hi, in ascending order.

    ``block`` is the (b - a + 1, width) matrix whose row n - a holds
    w(n, m), m = 0 .. width - 1, for n in lo..hi, and zeros for the block's
    other rows; width > b//2, so the entries past m = n//2 are exact zeros.
    The partition is chained from magnitude 2: a block a..b holds the most
    rows k for which k rows of width up to (a + k + 1) / 2 stay within
    ``BLOCK_ENTRIES`` entries. Which block holds a magnitude, and the
    block's shape, therefore never depend on lo and hi, and neither does the
    summation order of a product taken at the block's full shape. Each
    block is one vectorised log-gamma expression (``_weight_block``) over
    the rows lo..hi only.
    """
    a = 2
    while a <= hi:
        k = max((math.isqrt((a + 1) ** 2 + 8 * BLOCK_ENTRIES) - (a + 1)) // 2, 1)
        if a + k <= lo:
            # The blocks keep k rows while they start at or below
            # 2 BLOCK_ENTRIES // k - k - 1 (for k = 1, forever), so those
            # wholly below lo are skipped at once.
            same = (2 * BLOCK_ENTRIES // k - k - 1 - a) // k + 1 if k > 1 else lo
            a += min(same, (lo - a) // k) * k
            continue
        b = a + k - 1
        first, last = max(lo, a), min(hi, b)
        width = _block_width(b)
        flat = np.zeros(1 + (b - a + 1) * width)
        _weight_block(first, last, width, flat[(first - a) * width : (last - a + 1) * width + 1])
        yield a, flat[:-1].reshape(b - a + 1, width)
        a = b + 1


def _block_width(b: int) -> int:
    """The row width of a block whose last magnitude is b: even and > b//2."""
    return b // 2 + 2 - b // 2 % 2


def _weight_block(a: int, b: int, width: int, flat: np.ndarray):
    """Write rows w(n, .) of 2 <= a <= n <= b end to end into flat, of length
    1 + (b - a + 1) * width for an even width > b//2: row n starts at
    flat[(n - a) * width] with its m = 0 entry.

    Entry m = 1 .. n//2 of row n, q = n - 2m, is the exp of
    lgamma(n-1) + q log 2 - lgamma(q+1) - lgamma(m+1) - lgamma(m)
    + lgamma(n+1) + lgamma(n) - lgamma(2n-1), the log of
    multiplicity(n, m) c_{m-1} / c_{n-1}, added left to right, so an entry
    has the same bits whichever block builds it. The logs fill a contiguous
    (rows, width) array over m = 1 .. width, behind one leading slot. Along
    the rows of one parity of n, the q terms are constant on diagonals, so
    each parity reads them through Toeplitz views of q log 2 and
    lgamma(q + 1) gathered once per block; past m = n//2, where q < 0, those
    read 0 and +inf, so the entries there are exact zeros. Since width >
    b//2, the last entry of each row is such a zero and doubles as the m = 0
    entry of the next row. The width is even, so a row starts 16-byte
    aligned where flat does.
    """
    lgammas, q_log2 = _log_tables(max(2 * b, width + 1))
    ns = np.arange(a, b + 1)
    flat[0] = -math.inf  # w(a, 0) = 0
    logs = flat[1:].reshape(len(ns), width)
    for first in range(a, min(a + 1, b) + 1):
        rows = logs[first - a :: 2]
        count = len(rows)
        last = first + 2 * (count - 1)
        # Diagonal u holds q = last - 2 - 2u; row i, column c reads
        # diagonal count - 1 - i + c.
        valid, pad = last // 2, count + width - 1 - last // 2
        q_terms = np.concatenate((q_log2[last - 2 :: -2][:valid], np.zeros(pad)))
        q_facts = np.concatenate((lgammas[last - 1 :: -2][:valid], np.full(pad, math.inf)))
        np.add(lgammas[ns[first - a :: 2] - 1, None], _toeplitz(q_terms, count), out=rows)
        np.subtract(rows, _toeplitz(q_facts, count), out=rows)
    np.subtract(logs, lgammas[2 : width + 2], out=logs)
    np.subtract(logs, lgammas[1 : width + 1], out=logs)
    np.add(logs, lgammas[ns + 1, None], out=logs)
    np.add(logs, lgammas[ns, None], out=logs)
    np.subtract(logs, lgammas[2 * ns - 1, None], out=logs)
    np.exp(flat, out=flat)


def _toeplitz(diagonals: np.ndarray, count: int) -> np.ndarray:
    """The (count, len(diagonals) - count + 1) view whose entry (i, c) is
    diagonals[count - 1 - i + c]."""
    return np.ndarray(
        (count, len(diagonals) - count + 1),
        diagonals.dtype,
        diagonals,
        (count - 1) * diagonals.itemsize,
        (-diagonals.itemsize, diagonals.itemsize),
    )


def order2_weights(n: int, mode: str = "exact") -> dict[int, Fraction] | dict[int, float]:
    """Weight table m -> w(n, m) over 1 <= m <= n//2.

    mode="exact" returns Fractions that sum to exactly 1; mode="float"
    returns floats computed in the log domain.
    """
    if n < 2:
        raise ValueError(f"order2_weights requires n >= 2, got n={n}")
    if mode == "exact":
        total = catalan(n - 1)
        return {
            m: Fraction(multiplicity(n, m) * catalan(m - 1), total)
            for m in range(1, n // 2 + 1)
        }
    if mode == "float":
        return dict(enumerate(float_weight_row(n)[1:].tolist(), start=1))
    raise ValueError(f"unknown weight mode {mode!r}")
