"""Reference values computed apart from the strahler engine.

Nothing here imports ``strahler``. The references are:

* Generating-function coefficients. With F_r(z) = sum_n c_{n-1} E_n[f at r] z^n
  and f = S1^k, the magnitude recursion is the substitution
  F_r(z) = (1-2z) F_{r-1}(z^2/(1-2z)^2) (Flajolet, Raoult & Vuillemin, 1979).
  F_1 = theta^(k-1) z/sqrt(1-4z) with theta = z d/dz, so every F_r has the
  form N(z) / (D(z) sqrt(1-4z)) with integer polynomials N, D and D(0) = 1,
  and its coefficients follow from an O(n deg D) integer recurrence.
* Closed forms at base order 1 (E[S1^k] = n^k, E[S2/S1] = (n-1)/(2(2n-3)),
  bifurcation ratio 4 - 2/(n-1)) and Werner's order-2 mean and variance.
* The two-term expansions for f = S1^k quoted in the paper.
* A brute-force enumerator of all shapes up to magnitude ``ENUM_MAX``, used
  for multi-variable observables at base order r >= 2.
* A chi-square survival function for odd degrees of freedom, so the
  uniformity test needs no scipy.
"""

from __future__ import annotations

import math
from fractions import Fraction

ENUM_MAX = 9


# -- integer polynomials (coefficient lists, ascending powers) -------------------


def _pmul(p: list, q: list) -> list:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def _padd(p: list, q: list) -> list:
    out = [0] * max(len(p), len(q))
    for i, a in enumerate(p):
        out[i] += a
    for i, b in enumerate(q):
        out[i] += b
    return out


def _ppow(p: list, e: int) -> list:
    out = [1]
    for _ in range(e):
        out = _pmul(out, p)
    return out


_ONE_MINUS_2Z = [1, -2]
_ONE_MINUS_4Z = [1, -4]


def _first_order_form(k: int) -> tuple:
    """(N, D) with sum_n n^k c_{n-1} z^n = N / (D sqrt(1-4z))."""
    num = [0, 1]  # z / (1-4z)^(j+1/2) with j = 0
    j = 0
    for _ in range(k - 1):
        # theta(N / (1-4z)^(j+1/2)) = (z N' (1-4z) + (4j+2) z N) / (1-4z)^(j+3/2)
        deriv = [i * c for i, c in enumerate(num)][1:] or [0]
        term = _pmul([0, 1], _pmul(deriv, _ONE_MINUS_4Z))
        num = _padd(term, [0] + [(4 * j + 2) * c for c in num])
        j += 1
    return num, _ppow(_ONE_MINUS_4Z, j)


def _substitute(num: list, den: list) -> tuple:
    """One order step: F(z) -> (1-2z) F(z^2/(1-2z)^2)."""
    top = max(len(num), len(den)) - 1

    def lift(p: list) -> list:
        out = [0]
        for i, c in enumerate(p):
            if c:
                term = _pmul([0] * (2 * i) + [c], _ppow(_ONE_MINUS_2Z, 2 * (top - i)))
                out = _padd(out, term)
        return out

    # sqrt(1-4u) = sqrt(1-4z)/(1-2z) supplies one factor of (1-2z).
    return _pmul(_ppow(_ONE_MINUS_2Z, 2), lift(num)), lift(den)


def _series(num: list, den: list, top: int) -> list:
    """Coefficients 0..top of N / (D sqrt(1-4z)), exact integers."""
    if den[0] != 1:
        raise ValueError("denominator must have constant term 1")
    central = [1] * (top + 1)
    for i in range(1, top + 1):
        central[i] = central[i - 1] * 2 * (2 * i - 1) // i
    b = [0] * (top + 1)
    for i, c in enumerate(num):
        if c and i <= top:
            for n in range(i, top + 1):
                b[n] += c * central[n - i]
    a = [0] * (top + 1)
    tail = [(i, d) for i, d in enumerate(den) if i and d]
    for n in range(top + 1):
        acc = b[n]
        for i, d in tail:
            if i > n:
                break
            acc -= d * a[n - i]
        a[n] = acc
    return a


class MomentTable:
    """Exact E_n[S_r^k] (f = S1^k at base order r) from the GF series."""

    def __init__(self):
        self._coeffs: dict = {}
        self._catalan = [1]

    def _series_for(self, k: int, r: int, top: int) -> list:
        hit = self._coeffs.get((k, r))
        if hit is None or len(hit) <= top:
            # Grow geometrically so ascending queries rebuild O(log n) times.
            top = max(top, 2 * len(hit) if hit else 0)
            num, den = _first_order_form(k)
            for _ in range(r - 1):
                num, den = _substitute(num, den)
            hit = _series(num, den, top)
            self._coeffs[(k, r)] = hit
        return hit

    def _cat(self, i: int) -> int:
        cat = self._catalan
        while len(cat) <= i:
            j = len(cat)
            cat.append(cat[j - 1] * 2 * (2 * j - 1) // (j + 1))
        return cat[i]

    def moment(self, n: int, r: int, k: int = 1) -> Fraction:
        if r == 1:
            return Fraction(n) ** k
        return Fraction(self._series_for(k, r, n)[n], self._cat(n - 1))


# -- closed forms --------------------------------------------------------------


def werner_mean(n: int) -> Fraction:
    """E_n[S_2] = n(n-1) / (2(2n-3)), n >= 2."""
    return Fraction(n * (n - 1), 2 * (2 * n - 3))


def werner_variance(n: int) -> Fraction:
    """Var_n(S_2), n >= 4."""
    return Fraction(n * (n - 1) * (n - 2) * (n - 3), 2 * (2 * n - 3) ** 2 * (2 * n - 5))


def ratio_s2_over_s1_order1(n: int) -> Fraction:
    """E_n[S2/S1] at base order 1."""
    return Fraction(n - 1, 2 * (2 * n - 3))


def horton_ratio_order1(n: int) -> Fraction:
    """E_n[S_1] / E_n[S_2] = 4 - 2/(n-1)."""
    return 4 - Fraction(2, n - 1)


def expansion_moment(k: int, r: int, n: int) -> Fraction:
    """Two-term expansion of E_n[S_r^k]: (n/4^(r-1))^k (1 + (4^(r-1)-1) k^2 / (6n))."""
    d = r - 1
    return Fraction(n, 4**d) ** k * (1 + Fraction((4**d - 1) * k * k, 6 * n))


def expansion_ratio(k: int, r: int, n: int) -> Fraction:
    """Truncated ratio for S1^k: 4^k - 4^(k+r-1) k^2 / (2n)."""
    return Fraction(4**k) - Fraction(4 ** (k + r - 1) * k * k, 2 * n)


# -- brute-force enumeration ---------------------------------------------------

# Observables the benchmark uses, as plain functions of the window
# (S_r, S_{r+1}, ...), with 0/0 = 0. Multi-variable ones go to the enumerator.
WINDOW_FUNCTIONS = {
    "S1": (1, lambda w: Fraction(w[0])),
    "S1^2": (1, lambda w: Fraction(w[0]) ** 2),
    "S2/S1": (2, lambda w: Fraction(w[1], w[0]) if w[0] else Fraction(0)),
    "S1*S2-S3": (3, lambda w: Fraction(w[0] * w[1] - w[2])),
}


def _shapes(top: int) -> list:
    """shapes[n] = list of (tree, order, counts) over all magnitude-n trees.

    Trees are nested 2-tuples with ``None`` leaves; counts[i] is the number
    of order-(i+1) branches.
    """
    shapes = [[], [(None, 1, (1,))]]
    for n in range(2, top + 1):
        level = []
        for j in range(1, n):
            for lt, lo, lc in shapes[j]:
                for rt, ro, rc in shapes[n - j]:
                    o = lo + 1 if lo == ro else max(lo, ro)
                    counts = [0] * o
                    for c in (lc, rc):
                        for i, v in enumerate(c):
                            counts[i] += v
                    # A child stops heading a branch when it shares the root's order.
                    if lo == o:
                        counts[o - 1] -= 1
                    if ro == o:
                        counts[o - 1] -= 1
                    counts[o - 1] += 1
                    level.append(((lt, rt), o, tuple(counts)))
        shapes.append(level)
    return shapes


class Enumerator:
    """Exact averages over every shape of magnitude n <= ENUM_MAX."""

    def __init__(self):
        self.shapes = _shapes(ENUM_MAX)

    def expectation(self, n: int, r: int, text: str) -> Fraction:
        arity, fn = WINDOW_FUNCTIONS[text]
        level = self.shapes[n]
        total = Fraction(0)
        for _tree, _order, counts in level:
            window = tuple(
                counts[r - 1 + j] if r - 1 + j < len(counts) else 0 for j in range(arity)
            )
            total += fn(window)
        return total / len(level)

    def trees(self, n: int) -> list:
        return [tree for tree, _o, _c in self.shapes[n]]


# -- chi-square tail -------------------------------------------------------------


def chi2_sf(x: float, dof: int) -> float:
    """P(X >= x) for a chi-square variable with an odd number of degrees of freedom."""
    if dof % 2 != 1:
        raise ValueError("only odd degrees of freedom are supported")
    if x <= 0:
        return 1.0
    half = x / 2.0
    total = math.erfc(math.sqrt(half))
    # Q(j + 1/2, x/2) = erfc(sqrt(x/2)) + e^(-x/2) sum_{i=1..j} (x/2)^(i-1/2) / Gamma(i+1/2)
    for i in range(1, (dof - 1) // 2 + 1):
        total += math.exp((i - 0.5) * math.log(half) - half - math.lgamma(i + 0.5))
    return total
