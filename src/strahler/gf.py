"""Generating functions of one-variable polynomial observables.

For a one-variable observable g with g(0) = 0, let F_r(z) be the sum over
n >= 1 of c_{n-1} E_n[g at base order r] z^n. A magnitude-n tree collapses
onto a magnitude-m tree in multiplicity(n, m) = C(n-2, n-2m) 2^(n-2m) ways,
and the sum over n of those multiplicities times z^n is (1-2z) u^m with
u = z^2/(1-2z)^2, so for r >= 2 the magnitude recursion is the substitution

    F_r(z) = (1-2z) F_{r-1}(u)

(Flajolet, Raoult & Vuillemin, TCS 9, 1979). At order 1, S1^k contributes
theta^k B with B = (1 - sqrt(1-4z))/2 and theta = z d/dz, and theta^k B is
P_k(z)/(1-4z)^(k-1/2) with P_1 = z and deg P_k = k. So for
g = a_1 S1 + ... + a_K S1^K, F_1 = N_1/(D_1 sqrt(1-4z)) with
D_1 = (1-4z)^(K-1) and N_1 the sum of a_k P_k (1-4z)^(K-k), of degree <= K.

The denominators. Let q_1 = 1-2z and q_{j+1}(z) = (1-2z)^(2^j) q_j(u), a
polynomial of degree 2^(j-1) with q_j(0) = 1, and for r >= 2 let

    D_r = (1-4z)^(K-1) q_1^(2K) ... q_{r-2}^(2K),  d_r = K 2^(r-1),

so deg D_r = d_r - K - 1. Claim: for r >= 2, F_r = N_r/(D_r sqrt(1-4z))
with N_r a polynomial of degree <= d_r, hence deg N_r <= deg D_r + K + 1.
Proof by induction from F_1 (deg N_1 <= K = d_1). Substitute u into F_{r-1}:
1-4u = (1-4z)/(1-2z)^2, so sqrt(1-4u) = sqrt(1-4z)/(1-2z) and
(1-4u)^(K-1) = (1-4z)^(K-1) (1-2z)^(2-2K); by definition
q_j(u) = q_{j+1}(z) (1-2z)^(-2^j); and N_{r-1}(u) = M(z) (1-2z)^(-2 d_{r-1})
where M = sum_i [z^i]N_{r-1} z^(2i) (1-2z)^(2 d_{r-1} - 2i) has degree
<= 2 d_{r-1} = d_r. Collecting the powers of 1-2z in (1-2z) F_{r-1}(u):
1 from the factor, 1 from sqrt(1-4u), 2K-2 from (1-4u)^(K-1),
2K (2 + 4 + ... + 2^(r-3)) = 2K (2^(r-2) - 2) from q_1(u)..q_{r-3}(u), and
-2 d_{r-1} = -2K 2^(r-2) from N_{r-1}(u): in all -2K. So
F_r = M/((1-2z)^(2K) (1-4z)^(K-1) q_2^(2K) ... q_{r-2}^(2K) sqrt(1-4z))
= M/(D_r sqrt(1-4z)), and N_r = M. At r = 2 the q_1(u).. terms are absent
and the count is 2 + 2K - 2 - 2K = 0, which is D_2 = (1-4z)^(K-1).

Coefficients. D_r has constant term 1, so with E = (1-4z) D_r and
sqrt(1-4z) = 1 - 2 sum_{m >= 1} c_{m-1} z^m, the identity
E F_r = N_r sqrt(1-4z) gives, for every n >= 0,

    [z^n] F_r = [z^n]N_r - 2 sum_i [z^i]N_r c_{n-1-i} - sum_{i >= 1} [z^i]E [z^(n-i)]F_r,

an integer recurrence of 2 deg D_r + K + 3 products per coefficient
(Flajolet & Sedgewick, Analytic Combinatorics, ch. VI), terms of negative
index being zero. N_1, the first K + 1 coefficients of D_1 sqrt(1-4z) F_1,
follows from g's values at 1..K, and N_r from N_1 by the step N_j = M of
the proof. D_r need not be in lowest terms (it is not when K
over-estimates the degree of g): the recurrence needs only that
D_r sqrt(1-4z) F_r is a polynomial of degree <= d_r.

q_j(1/4) = 2^(1 - 2^j), since u(1/4) = 1/4: the roots of the q_j lie off
the dominant singularity z = 1/4.
"""

from __future__ import annotations

from operator import mul

from . import combinatorics as comb


def _mul(a: list, b: list, size: int | None = None) -> list:
    """The first ``size`` coefficients (by default all) of the product of two
    integer coefficient lists (ascending powers), in time size * min(len)."""
    if len(a) < len(b):
        a, b = b, a
    full = len(a) + len(b) - 1
    size = full if size is None else min(size, full)
    last, rb = len(b) - 1, b[::-1]
    return [sum(map(mul, a[max(i - last, 0) : i + 1], rb[max(last - i, 0) :]))
            for i in range(size)]


def _power(p: list, e: int) -> list:
    out = [1]
    for _ in range(e):
        out = _mul(out, p)
    return out


def _substitute(p: list, d: int) -> list:
    """(1-2z)^(2d) p(z^2/(1-2z)^2) for deg p <= d: the sum of
    p_i z^(2i) (1-2z)^(2d-2i), by Horner's rule in z^2 over (1-2z)^2."""
    square = [1, -4, 4]
    out = [0] * (2 * d + 1)
    power = [1]  # (1-2z)^(2(d-i)) as i runs down from d
    for i in range(d, -1, -1):
        coeff = p[i] if i < len(p) else 0
        if coeff:
            for t, x in enumerate(power):
                out[2 * i + t] += coeff * x
        power = _mul(power, square)
    return out


def q(j: int) -> list:
    """q_j: q_1 = 1 - 2z and q_{j+1}(z) = (1-2z)^(2^j) q_j(z^2/(1-2z)^2)."""
    return lift([1, -2], 1, j)


def denominator(degree: int, r: int) -> list:
    """D_r = (1-4z)^(K-1) q_1^(2K) ... q_{r-2}^(2K) for an observable of
    degree K >= 1 at base order r >= 1; D_1 = (1-4z)^(K-1)."""
    chain = [1]
    for j in range(1, r - 1):
        chain = _mul(chain, q(j))
    return _mul(_power([1, -4], degree - 1), _power(chain, 2 * degree))


def numerator(head: list, den: list) -> list:
    """The first len(head) coefficients of den sqrt(1-4z) F, where head
    holds the first coefficients of F."""
    size = len(head)
    cats = comb.catalans(size)
    root = [1] + [-2 * c for c in cats[: size - 1]]  # sqrt(1-4z)
    return _mul(_mul(den, head, size), root, size)


def lift(num: list, degree: int, r: int) -> list:
    """N_r from N_1 for an observable of degree K >= 1: the substitution
    step N_{j+1} = (1-2z)^(2 d_j) N_j(z^2/(1-2z)^2), d_j = K 2^(j-1)."""
    for j in range(1, r):
        num = _substitute(num, degree << (j - 1))
    return num


def extend(num: list, den: list, coeffs: list, top: int) -> list:
    """F's coefficients 0..top, continued from ``coeffs`` (0..len - 1, none
    at all to start from 0) by the recurrence of E F = num sqrt(1-4z),
    E = (1-4z) den. Returns a new list."""
    e = _mul(den, [1, -4])
    num_desc = num[::-1]
    e_desc = [-x for x in e[:0:-1]]  # -E_{deg E}, ..., -E_1
    a, b = len(num_desc), len(e_desc)
    cats = (0,) * a + comb.catalans(top)  # zeros for the negative indices
    out = [0] * b + coeffs
    for n in range(len(coeffs), top + 1):
        out.append(
            (num[n] if n < a else 0)
            + sum(map(mul, e_desc, out[n : n + b]))
            - 2 * sum(map(mul, num_desc, cats[n : n + a]))
        )
    return out[b:]
