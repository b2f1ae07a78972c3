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
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    while len(den) > 1 and den[-1] == 0:
        den.pop()
    if num == [0]:
        raise ExpansionError("zero numerator polynomial has no Laurent expansion")
    k = (len(num) - 1) - (len(den) - 1)
    a_hi = num[-1]
    a_next = num[-2] if len(num) >= 2 else Fraction(0)
    b_hi = den[-1]
    b_next = den[-2] if len(den) >= 2 else Fraction(0)
    a1 = a_hi / b_hi
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
    u = Fraction(1, 4**k) if k >= 0 else Fraction(4 ** (-k))
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


def expectation_asymptotic(
    init: AsymptoticCoeffs, r: int, n: int, leading_only: bool = False
) -> Fraction:
    """Two-term expansion a_r n^k + b_r n^(k-1) of the expectation at order r
    and magnitude n.

    With ``leading_only`` the O(n^k) truncation a_r * n^k is returned.
    """
    if n < 1:
        raise ValueError(f"magnitude must be >= 1, got {n}")
    coeffs = coeff_recursion(init, r)
    leading = coeffs.a_r * Fraction(n) ** init.k
    if leading_only:
        return leading
    return leading + coeffs.b_r * Fraction(n) ** (init.k - 1)


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


def fit_initial_coeffs(
    engine: ExpectationEngine,
    f: Observable,
    ns: Sequence[int] = (120, 200, 300),
    r0: int = 1,
) -> AsymptoticCoeffs:
    """Estimate (k, a1, b1) from exact expectations at three magnitudes.

    Fallback for multivariable observables, where no symbolic Laurent form
    is available: k is matched from growth between the two largest points,
    then (a1, b1) solve the two-term model there exactly. The estimates
    carry O(1/n) contamination; they are for reporting, not identities.
    """
    if len(ns) < 2:
        raise ValueError("need at least two magnitudes to fit")
    ns = sorted(ns)
    values = [engine.expectation_exact(n, r0, f) for n in ns]
    v1, v2 = float(values[-2]), float(values[-1])
    n1, n2 = ns[-2], ns[-1]
    if v1 == 0 or v2 == 0:
        raise ExpansionError("zero expectation; cannot fit a power law")
    k = round(math.log(abs(v2 / v1)) / math.log(n2 / n1))
    # Solve a1*n^k + b1*n^(k-1) = value at the two largest points.
    e1, e2 = values[-2], values[-1]
    det = Fraction(n1) ** k * Fraction(n2) ** (k - 1) - Fraction(n2) ** k * Fraction(
        n1
    ) ** (k - 1)
    a1 = (e1 * Fraction(n2) ** (k - 1) - e2 * Fraction(n1) ** (k - 1)) / det
    b1 = (e2 * Fraction(n1) ** k - e1 * Fraction(n2) ** k) / det
    return AsymptoticCoeffs(k=k, a1=a1, b1=b1, r0=r0)


def log_slope(points: Iterable[tuple]) -> Optional[float]:
    """Least-squares slope of log|y| against log x, ignoring zero y."""
    xs = []
    ys = []
    for x, y in points:
        y = abs(float(y))
        if y > 0:
            xs.append(math.log(float(x)))
            ys.append(math.log(y))
    if len(xs) < 2:
        return None
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    sxx = sum((x - mean_x) ** 2 for x in xs)
    if sxx == 0:
        return None
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    return sxy / sxx


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
    threshold: float
    converged: bool

    @property
    def slope_ok(self) -> bool:
        return self.converged or (
            self.fitted_slope is not None and self.fitted_slope <= self.threshold
        )


def convergence_report(
    engine: ExpectationEngine,
    f: Observable,
    r: int,
    n_grid: Sequence[int],
    init: Optional[AsymptoticCoeffs] = None,
    kind: str = "expectation",
) -> ConvergenceReport:
    """Exact-vs-expansion residuals over a magnitude grid, with a fitted slope.

    ``kind`` selects the expectation expansion (residuals O(n^(k-2))) or the
    ratio truncation (residuals O(n^-2)); the threshold adds 0.3 of slack.
    """
    if init is None:
        init = laurent_at_infinity(f)
    rows = []
    for n in sorted(n_grid):
        if kind == "expectation":
            exact = engine.expectation_exact(n, r, f)
            approx = expectation_asymptotic(init, r, n)
        elif kind == "ratio":
            exact = engine.bifurcation_ratio(n, r, f, mode="exact")
            approx = ratio_asymptotic(init, r, n).value
        else:
            raise ValueError(f"unknown report kind {kind!r}")
        rows.append(ConvergenceRow(n, exact, approx, exact - approx))
    slope = log_slope((row.n, row.residual) for row in rows)
    threshold = (init.k if kind == "expectation" else 0) - 2 + 0.3
    converged = all(row.residual == 0 for row in rows)
    return ConvergenceReport(tuple(rows), slope, threshold, converged)


# -- variance pipeline (flagged verification) -----------------------------------


@dataclass(frozen=True)
class VariancePipelineReport:
    """Exact order-3 variances against two candidate leading coefficients.

    ``pipeline_a`` treats the order-2 variance expansion as initial data and
    pushes it through the coefficient recursion; ``total_variance_a`` adds
    the mixture-variance term that the pipeline drops. The fitted slope of
    the exact values decides which the data supports.
    """

    rows: tuple  # (n, exact variance) pairs
    fitted_a: float
    fitted_b: float
    pipeline_a: Fraction
    total_variance_a: Fraction
    supported: str  # "pipeline" | "total_variance"
    max_rel_residual: float


def variance_pipeline_report(
    engine: ExpectationEngine, n_grid: Sequence[int]
) -> VariancePipelineReport:
    """Compare exact Var(S_3) growth against the two candidate predictions."""
    rows = tuple((n, engine.variance(n, 3, mode="exact")) for n in sorted(n_grid))

    # Least-squares line v = a*n + b through the exact points.
    xs = [n for n, _ in rows]
    ys = [float(v) for _, v in rows]
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    sxx = sum((x - mean_x) ** 2 for x in xs)
    fitted_a = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / sxx
    fitted_b = mean_y - fitted_a * mean_x

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
    chosen = pipeline_a if supported == "pipeline" else total_variance_a
    max_rel = max(
        abs(float(v) - (float(chosen) * n + fitted_b)) / float(v) for n, v in rows
    )
    return VariancePipelineReport(
        rows=rows,
        fitted_a=fitted_a,
        fitted_b=fitted_b,
        pipeline_a=pipeline_a,
        total_variance_a=total_variance_a,
        supported=supported,
        max_rel_residual=max_rel,
    )
