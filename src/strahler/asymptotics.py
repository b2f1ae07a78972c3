"""Asymptotic expansions of expectations and bifurcation ratios.

Starting data is the Laurent expansion of an observable around infinity,
f(n) = a1*n^k + b1*n^(k-1) + O(n^(k-2)); k is the dominant order. Pushing
that through the magnitude recursion gives per-order coefficients

    a_r = (1/4^k)^(r-r0) * a1
    b_r = (1/4^(k-1))^(r-r0) * b1 + (k^2*a1/6) * (4^(r-r0) - 1) * (1/4^k)^(r-r0)

(base order r0 is where the initial data holds; shifted starts feed the
variance pipeline). The two-term expansion of the expectation at order r is

    a_r*n^k + b_r*n^(k-1)

and the matching bifurcation-ratio truncation, the quotient of orders r and
r + 1 to O(1/n), is

    (a_r/a_{r+1}) * (1 + (b_r/a_r - b_{r+1}/a_{r+1}) / n)
      = 4^k - 4^(k+r-r0) * (6*b1 + a1*k^2) / (2*a1*n),

whose limit 4^k depends only on the dominant order: the generalized
topological self-similarity statement. All evaluation is exact-rational so
residuals against exact expectations are pure measurements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence

from .expectations import ExpectationEngine
from .observables import Observable


class ExpansionError(ValueError):
    """The observable has no expansion of the assumed form (zero leading term)."""


@dataclass(frozen=True)
class AsymptoticCoeffs:
    """Initial expansion data (k, a1, b1) held at base order r0."""

    k: int
    a1: Fraction
    b1: Fraction
    r0: int = 1

    def __post_init__(self):
        if self.a1 == 0:
            raise ExpansionError("leading coefficient a1 must be nonzero")


@dataclass(frozen=True)
class OrderCoeffs:
    r: int
    a_r: Fraction
    b_r: Fraction


def laurent_at_infinity(f: Observable) -> AsymptoticCoeffs:
    """Leading two Laurent coefficients of a single-variable rational f.

    k is numerator degree minus denominator degree; a1 and b1 come from one
    step of exact series division in 1/n.
    """
    num, den = f.rational_coeffs()
    if num == [0]:
        raise ExpansionError("zero numerator polynomial has no Laurent expansion")
    k = len(num) - len(den)
    a_next, a_hi = ([0] + num)[-2:]
    b_next, b_hi = ([0] + den)[-2:]
    a1 = Fraction(a_hi, b_hi)
    b1 = (a_next - a1 * b_next) / b_hi
    return AsymptoticCoeffs(k=k, a1=a1, b1=b1)


def coeff_recursion(init: AsymptoticCoeffs, r: int) -> OrderCoeffs:
    """Coefficients (a_r, b_r) after r - r0 steps of the order recursion.

    The inhomogeneous term carries the factor (1/4^k)^(r-r0); that is the
    closed form consistent with the general solution of
    x_{r+1} = s*x_r + t*u^r and with the two-term expansion below.
    """
    if r < init.r0:
        raise ValueError(f"order {r} precedes the initial order {init.r0}")
    d = r - init.r0
    k = init.k
    u = Fraction(1, 4) ** k
    s = Fraction(4) * u  # 1/4^(k-1)
    a_r = u**d * init.a1
    b_r = s**d * init.b1 + Fraction(k * k, 6) * init.a1 * (4**d - 1) * u**d
    return OrderCoeffs(r=r, a_r=a_r, b_r=b_r)


def general_recurrence_closed_form(
    x1: Fraction, s: Fraction, t: Fraction, u: Fraction, r: int
) -> Fraction:
    """x_r for x_{r+1} = s*x_r + t*u^r (requires s != u).

    With s = 1/4^(k-1), t = k^2*a1/2, u = 1/4^k this reproduces b_r; the
    s == u degeneracy would need 4^(k-1) == 4^k, which never holds.
    """
    if s == u:
        raise ValueError("closed form requires s != u")
    return s ** (r - 1) * x1 + t * u * (u ** (r - 1) - s ** (r - 1)) / (u - s)


def expectation_asymptotic(init: AsymptoticCoeffs, r: int, n: int) -> Fraction:
    """Two-term expansion a_r n^k + b_r n^(k-1) of the expectation at order r
    and magnitude n."""
    if n < 1:
        raise ValueError(f"magnitude must be >= 1, got {n}")
    coeffs = coeff_recursion(init, r)
    return coeffs.a_r * Fraction(n) ** init.k + coeffs.b_r * Fraction(n) ** (init.k - 1)


class RatioExpansion(NamedTuple):
    """Truncated ratio value plus its exact n -> infinity component."""

    value: Fraction
    limit: Fraction


def ratio_asymptotic(init: AsymptoticCoeffs, r: int, n: int) -> RatioExpansion:
    """Truncated bifurcation ratio at order r, the quotient of the order-r and
    order-(r+1) expansions to O(1/n):
    (a_r/a_{r+1}) (1 + (b_r/a_r - b_{r+1}/a_{r+1})/n). Its limit component
    a_r/a_{r+1} is 4^k."""
    if n < 1:
        raise ValueError(f"magnitude must be >= 1, got {n}")
    this, above = coeff_recursion(init, r), coeff_recursion(init, r + 1)
    limit = this.a_r / above.a_r
    return RatioExpansion(
        limit * (1 + (this.b_r / this.a_r - above.b_r / above.a_r) / n), limit
    )


# -- empirical extraction and convergence measurement --------------------------


_TWO_MAGNITUDES = "need at least two distinct magnitudes to fit"


def fit_initial_coeffs(
    engine: ExpectationEngine, f: Observable, ns: Sequence[int] = (120, 200, 300)
) -> AsymptoticCoeffs:
    """Estimate order-1 data (k, a1, b1) from exact expectations at the two
    largest distinct magnitudes of ``ns``; no other magnitude is evaluated.

    Fallback for multivariable observables, where no symbolic Laurent form
    is available: k is matched from growth between the two points, then
    (a1, b1) solve the two-term model there exactly. The estimates carry
    O(1/n) contamination; they are for reporting, not identities.
    """
    distinct = sorted(set(ns))
    if len(distinct) < 2:
        raise ValueError(_TWO_MAGNITUDES)
    n1, n2 = distinct[-2:]
    e1, e2 = engine.expectation_exact(n1, 1, f), engine.expectation_exact(n2, 1, f)
    v1, v2 = float(e1), float(e2)
    if v1 == 0 or v2 == 0:
        raise ExpansionError("zero expectation; cannot fit a power law")
    k = round(math.log(abs(v2 / v1)) / math.log(n2 / n1))
    # Solve a1*n^k + b1*n^(k-1) = value at the two points.
    det = Fraction(n1) ** k * Fraction(n2) ** (k - 1) - Fraction(n2) ** k * Fraction(
        n1
    ) ** (k - 1)
    a1 = (e1 * Fraction(n2) ** (k - 1) - e2 * Fraction(n1) ** (k - 1)) / det
    b1 = (e2 * Fraction(n1) ** k - e1 * Fraction(n2) ** k) / det
    return AsymptoticCoeffs(k=k, a1=a1, b1=b1)


def _line(xs: Sequence[float], ys: Sequence[float]) -> Optional[tuple]:
    """Least-squares line y = slope*x + intercept as (slope, intercept), or
    None when the xs have no spread."""
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    sxx = sum((x - mean_x) ** 2 for x in xs)
    if sxx == 0:
        return None
    slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / sxx
    return slope, mean_y - slope * mean_x


def log_slope(points: Iterable[tuple]) -> Optional[float]:
    """Least-squares slope of log|y| against log x over the points whose y
    is nonzero.

    An exact y whose float underflows to 0 or overflows still has a
    logarithm in float range: log|numerator| - log(denominator).
    """
    xs = []
    ys = []
    for x, y in points:
        if y == 0:
            continue
        try:
            log_y = math.log(abs(float(y)))
        except (OverflowError, ValueError):  # float(y) overflowed, or is 0.0
            log_y = math.log(abs(y.numerator)) - math.log(y.denominator)
        xs.append(math.log(float(x)))
        ys.append(log_y)
    line = _line(xs, ys) if len(xs) >= 2 else None
    return None if line is None else line[0]


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    exact: Fraction
    asymptotic: Fraction
    residual: Fraction


@dataclass(frozen=True)
class ConvergenceReport:
    rows: tuple
    fitted_slope: Optional[float]  # None when every residual vanished


def convergence_report(
    engine: ExpectationEngine,
    f: Observable,
    r: int,
    n_grid: Sequence[int],
    init: Optional[AsymptoticCoeffs] = None,
) -> ConvergenceReport:
    """Exact expectations at order r against the two-term expansion over a
    magnitude grid, with the fitted log-log slope of the residuals.

    ``init`` defaults to the Laurent data of a single-variable f. Every
    magnitude is evaluated exactly, so one past the engine's exact
    ceiling raises ``LimitExceededError``.
    """
    if init is None:
        init = laurent_at_infinity(f)
    rows = []
    for n in sorted(n_grid):
        exact = engine.expectation_exact(n, r, f)
        approx = expectation_asymptotic(init, r, n)
        rows.append(ConvergenceRow(n, exact, approx, exact - approx))
    slope = log_slope((row.n, row.residual) for row in rows)
    return ConvergenceReport(tuple(rows), slope)


# -- variance pipeline (flagged verification) -----------------------------------


@dataclass(frozen=True)
class VariancePipelineReport:
    """Exact order-3 variances against two candidate leading coefficients.

    ``pipeline_a`` treats the order-2 variance expansion as initial data and
    pushes it through the coefficient recursion; ``total_variance_a`` adds
    the mixture-variance term that the pipeline drops. The fitted slope of
    the exact values decides which the data supports; ``supported_a`` is
    that candidate's coefficient.
    """

    rows: tuple  # (n, exact variance) pairs
    fitted_a: float
    fitted_b: float
    pipeline_a: Fraction
    total_variance_a: Fraction
    supported: str  # "pipeline" | "total_variance"
    supported_a: Fraction
    max_rel_residual: float


def variance_pipeline_report(
    engine: ExpectationEngine, n_grid: Sequence[int]
) -> VariancePipelineReport:
    """Compare exact Var(S_3) growth against the two candidate predictions;
    the line fit needs at least two distinct magnitudes in ``n_grid``."""
    if len(set(n_grid)) < 2:
        raise ValueError(_TWO_MAGNITUDES)
    rows = tuple((n, engine.variance(n, 3, mode="exact")) for n in sorted(n_grid))

    # Least-squares line v = a*n + b through the exact points.
    fitted_a, fitted_b = _line([n for n, _ in rows], [float(v) for _, v in rows])

    # Order-2 variance expansion: n/16 - 1/32 + O(1/n), held at order 2.
    var2_init = AsymptoticCoeffs(k=1, a1=Fraction(1, 16), b1=Fraction(-1, 32), r0=2)
    pipeline_a = coeff_recursion(var2_init, 3).a_r

    # Law of total variance: Var(S_3) = E[Var(S_3 | S_2)] + Var(E[S_3 | S_2]).
    # The first term is the pipeline value; the second term's leading
    # coefficient is (dE[S_2]/dm)^2 = 1/16 times the order-2 variance slope.
    total_variance_a = pipeline_a + Fraction(1, 16) * var2_init.a1

    supported = (
        "pipeline"
        if abs(fitted_a - float(pipeline_a)) < abs(fitted_a - float(total_variance_a))
        else "total_variance"
    )
    supported_a = pipeline_a if supported == "pipeline" else total_variance_a
    max_rel = max(
        abs(float(v) - (float(supported_a) * n + fitted_b)) / float(v) for n, v in rows
    )
    return VariancePipelineReport(
        rows=rows,
        fitted_a=fitted_a,
        fitted_b=fitted_b,
        pipeline_a=pipeline_a,
        total_variance_a=total_variance_a,
        supported=supported,
        supported_a=supported_a,
        max_rel_residual=max_rel,
    )
