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

# The log-gamma terms of the weights, grown together on demand: lgamma(i)
# at index i >= 1 (index 0 is unused) and, to half its length, the row term
# R(n) at index n >= 2, the column term C(m) at index m >= 1 and the
# diagonal term D(q) at index _DIAG_PAD + q for q >= 0, behind _DIAG_PAD
# slots of -inf for q < 0 (see ``_weight_block``). A block of k rows a..b
# reads q down to a - 2 width >= -(k + 3), and k <= sqrt(2 BLOCK_ENTRIES).
# Growth assigns longer arrays and never writes into one, so a row being
# built from the old tables stays valid.
_DIAG_PAD = math.isqrt(2 * BLOCK_ENTRIES) + 4
_lgamma_table = np.array([math.inf, 0.0])
_row_table = _column_table = _diagonal_table = np.empty(0)

# Just below ln 2^-1075 = -745.13..., under which exp rounds to 0.0 in float64.
_LOG_UNDERFLOW = -745.2


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


def scaled_multiplicities(n: int, x: int) -> list:
    """x * multiplicity(n, m) over 0 <= m <= n//2 as a list of ints, laid
    out as ``float_weight_row``: m = 0 holds 0 for n >= 2, and below
    magnitude 2 the row is [x], x times δ_0.

    Each entry follows from the one before it, q = n - 2m going down by
    two, by the ratio q(q-1) / (4(n-q)(n-q-1)) of consecutive terms: one
    small multiply and one exact divide per entry instead of a fresh
    binomial. The walk carries the factor x from its first term, x 2^(n-2),
    and every divide is exact: the term times q(q-1) is the next term times
    the divisor.
    """
    if n < 2:
        return [x]
    term = x << (n - 2)
    row = [0]
    for q in range(n - 2, -1, -2):
        row.append(term)
        term = term * (q * (q - 1)) // (4 * (n - q) * (n - q - 1))
    return row


def _log_tables(k: int) -> tuple:
    """The (row, column, diagonal) tables, each holding n, m and q for at
    least n, m, q <= k."""
    global _lgamma_table, _row_table, _column_table, _diagonal_table
    if len(_row_table) <= k:
        table = _lgamma_table
        new = range(len(table), max(2 * k + 2, 2 * len(table)))
        table = np.concatenate((table, np.fromiter(map(math.lgamma, new), float, len(new))))
        half = len(table) // 2
        ns = np.arange(2, half)
        rows = ((table[ns + 1] - table[2 * ns - 1]) + table[ns]) + table[ns - 1]
        _column_table = table[1 : half + 1] + table[:half]
        diagonals = np.full(_DIAG_PAD + half, -math.inf)
        np.multiply(np.arange(half), _LOG2, out=diagonals[_DIAG_PAD:])
        np.subtract(diagonals[_DIAG_PAD:], table[1 : half + 1], out=diagonals[_DIAG_PAD:])
        _diagonal_table = diagonals
        _lgamma_table = table
        _row_table = np.concatenate(([math.nan] * 2, rows))
    return _row_table, _column_table, _diagonal_table


def float_weight_row(n: int) -> np.ndarray:
    """w(n, m) over 0 <= m <= n//2 as a float array, via log-gamma.

    w(n, m) = multiplicity(n, m) * catalan(m-1) / catalan(n-1), the probability
    that a uniform magnitude-n tree has m second-order branches: each of the
    c_{m-1} magnitude-m trees has multiplicity(n, m) preimages (w(n, 0) = 0
    for n >= 2).
    Below magnitude 2 the row is δ_0: a single leaf has no second-order
    branch, and magnitude 0, above the root order, stays put. The row is the
    one-row case of ``_weight_block``, with the bits of row n of its block in
    ``float_weight_blocks``: (D(q) + R(n)) - C(m) from one log-gamma term per
    diagonal q = n - 2m, row and column, and its exp where that does not
    underflow. Relative error is within ``expectations._weight_error(n)``, a
    small multiple of the largest lgamma magnitude times machine epsilon
    (within 1e-12 for n up to a few hundred), wherever the weight is a
    normal float; a weight whose exp rounds to zero is an exact zero.
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

    Every block is a view of one buffer that the sweep reuses, so a caller
    finishes with a block before it asks for the next. Only the first and
    the last block of a sweep have rows outside lo..hi, and only those rows
    are zeroed again. The buffer holds any block of two rows or more
    (k (a + k + 1) / 2 <= ``BLOCK_ENTRIES`` and width <= (a + k + 3) / 2);
    from about magnitude ``BLOCK_ENTRIES`` on, where a block is one row, it
    grows by a quarter at a time.
    """
    a, buffer = 2, np.empty(0)
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
        size = 1 + (b - a + 1) * width
        if len(buffer) < size:
            buffer = np.empty(max(size + size // 4, 1 + BLOCK_ENTRIES + _DIAG_PAD))
        flat = buffer[:size]
        flat[: (first - a) * width] = 0.0
        flat[(last - a + 1) * width + 1 :] = 0.0
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

    Entry m = 1 .. n//2 of row n, q = n - 2m, is the exp of the log of
    multiplicity(n, m) c_{m-1} / c_{n-1}, (D(q) + R(n)) - C(m), from one
    log-gamma term per diagonal, row and column, each summed once where it
    varies, in the shared tables of ``_log_tables``:
    D(q) = q log 2 - lgamma(q+1), R(n) = ((lgamma(n+1) - lgamma(2n-1)) +
    lgamma(n)) + lgamma(n-1), in this order so that partial sums stay
    small, and C(m) = lgamma(m+1) + lgamma(m). An entry is an elementwise
    function of (n, m), so it has the same bits whichever block builds it.
    The logs fill a contiguous (rows, width) array over m = 1 .. width,
    behind one leading slot, in two full-size passes; the diagonal terms
    are one strided view of the diagonal table, whose -inf padding stands
    for q < 0, past m = n//2. The exp is taken only where the log is at
    least ``_LOG_UNDERFLOW``, and every other entry is written as 0.0,
    which is what the exp would round it to at many times the cost. Since
    width > b//2, the last entry of each row is a zero and doubles as the
    m = 0 entry of the next row. The width is even, so a row starts 16-byte
    aligned where flat does.
    """
    rows, columns, diagonals = _log_tables(max(b, width))
    flat[0] = 0.0  # w(a, 0) = 0
    logs = flat[1:].reshape(b - a + 1, width)
    # Row n, column m = c + 1 reads q = n - 2 - 2c: the next row starts one
    # diagonal later, the next column two diagonals earlier.
    item = diagonals.itemsize
    diagonal_view = np.ndarray(
        logs.shape, float, diagonals, (_DIAG_PAD + a - 2) * item, (item, -2 * item)
    )
    np.add(diagonal_view, rows[a : b + 1, None], out=logs)
    np.subtract(logs, columns[1 : width + 1], out=logs)
    kept = logs >= _LOG_UNDERFLOW
    np.exp(logs, out=logs, where=kept)
    np.copyto(logs, 0.0, where=np.logical_not(kept, out=kept))


def order2_weights(n: int) -> dict[int, Fraction]:
    """Weight table m -> w(n, m) over 1 <= m <= n//2, as Fractions that sum
    to exactly 1; ``float_weight_row`` is the float row."""
    if n < 2:
        raise ValueError(f"order2_weights requires n >= 2, got n={n}")
    total = catalan(n - 1)
    return {
        m: Fraction(multiplicity(n, m) * catalan(m - 1), total)
        for m in range(1, n // 2 + 1)
    }
