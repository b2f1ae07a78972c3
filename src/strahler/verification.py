"""One-shot verification suite: every acceptance check, pass/fail.

Every check takes (engine, max_n=None, trials=SAMPLER_TRIALS) and returns
its failure texts and the detail a pass reports; ``run_all`` runs them in
order, names and times each, and reports a failing one by its first four
failures. ``max_n`` clamps every magnitude grid (for a reduced, faster run)
and ``trials`` caps the sampler checks; a check ignores the arguments it
has no use for. The checks assert the documented tolerances exactly as
stated; nothing is loosened to force a pass, so a check can legitimately
come back red if its stated tolerance is tighter than the mathematics
allows (see the horton-law and moment-ratio notes in the project README).
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from . import asymptotics as asym
from . import combinatorics as comb
from . import sampling
from . import transform
from . import trees as trees_mod
from .expectations import ExpectationEngine
from .observables import parse

ORACLE_BATTERY = ("S1", "S1^2", "S1^3", "S1*(S1-1)", "S2/S1", "S1+2*S2")
HORTON_FLOAT_GRID = (100, 158, 251, 398, 631, 1000, 1585, 2512, 3981, 6310, 10000)
MOMENT_RATIO_GRID = (500, 1000, 2000)
RATIO_IDENTITY_GRID = (200, 500, 1000)
VARIANCE_GRID = (50, 100, 150, 200, 250, 300)
EXPANSION_SAMPLE_NS = tuple(range(2, 97, 5)) + (100,)
SAMPLER_SEED = 42
SAMPLER_TRIALS = 100_000


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def chi2_sf(x: float, df: int) -> float:
    """P(X >= x) for X chi-square with a positive integer number df of
    degrees of freedom: the upper regularised gamma Q(df/2, x/2) in closed
    form. With y = x/2 it is e^-y sum_{i < df/2} y^i / i! for even df, and
    erfc(sqrt(y)) + e^-y sum_{i < (df-1)/2} y^(i+1/2) / Gamma(i+3/2) for odd
    df. Each term is exponentiated from its logarithm, so none overflows or
    underflows before it is negligible."""
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    if x <= 0:
        return 1.0
    y = x / 2
    total, a = (math.erfc(math.sqrt(y)), 0.5) if df % 2 else (0.0, 0.0)
    for i in range(df // 2):
        total += math.exp((i + a) * math.log(y) - y - math.lgamma(i + a + 1))
    return total


def chi_square_p_value(observed: Sequence[int]) -> float:
    """p-value of Pearson's chi-square test of counts against equal expected
    counts (the uniform law over len(observed) categories)."""
    k, total = len(observed), sum(observed)
    if k < 2 or total <= 0:
        raise ValueError("need at least two categories and a positive total count")
    statistic = (k * sum(o * o for o in observed) - total * total) / total
    return chi2_sf(statistic, k - 1)


def check_oracle_equivalence(
    engine: ExpectationEngine, max_n: Optional[int] = None, trials: int = SAMPLER_TRIALS
) -> tuple:
    """1: the exact kernel recursion equals the oracle over the battery. The
    oracle averages over the profile multiset of all c_{n-1} shapes, tallied
    by root split with the Horton-Strahler join rule, not through the
    kernel."""
    top = min(12, max_n or 12)
    battery = [parse(text) for text in ORACLE_BATTERY]
    failures = []
    cases = 0
    for n in range(1, top + 1):
        for r in (1, 2, 3, 4):
            for f in battery:
                cases += 1
                lhs = engine.expectation_exact(n, r, f)
                rhs = engine.expectation_bruteforce(n, r, f)
                if lhs != rhs:
                    failures.append(f"n={n} r={r} f={f}: {lhs} != {rhs}")
    return failures, f"{cases} queries agree exactly (n <= {top}, r <= 4)"


def check_multiplicity(
    engine: ExpectationEngine, max_n: Optional[int] = None, trials: int = SAMPLER_TRIALS
) -> tuple:
    """2: preimage generator yields exactly mu(n, m) trees, all mapping back."""
    top = min(10, max_n or 10)
    failures = []
    cases = 0
    for m in range(1, 5):
        for tau in trees_mod.enumerate_trees(m):
            for n in range(2 * m, top + 1):
                cases += 1
                expected = comb.multiplicity(n, m)
                seen = 0
                for t in transform.preimages(tau, n):
                    seen += 1
                    if transform.phi(t) != tau:
                        failures.append(
                            f"preimage of {trees_mod.encode(tau)} at n={n} "
                            f"does not map back"
                        )
                if seen != expected:
                    failures.append(
                        f"tau={trees_mod.encode(tau)} n={n}: {seen} preimages, "
                        f"expected {expected}"
                    )
    if comb.multiplicity(5, 2) != 6:
        failures.append("mu(5,2) != 6")
    return failures, f"{cases} (tau, n) classes match exactly"


def check_werner_closed_forms(
    engine: ExpectationEngine, max_n: Optional[int] = None, trials: int = SAMPLER_TRIALS
) -> tuple:
    """3: Werner's mean and variance closed forms hold exactly for 4 <= n <= 200."""
    top = min(200, max_n or 200)
    s1 = parse("S1")
    failures = []
    for n in range(4, top + 1):
        mean = engine.expectation_exact(n, 2, s1)
        if mean != Fraction(n * (n - 1), 2 * (2 * n - 3)):
            failures.append(f"mean mismatch at n={n}")
        var = engine.variance(n, 2, mode="exact")
        expected = Fraction(
            n * (n - 1) * (n - 2) * (n - 3), 2 * (2 * n - 3) ** 2 * (2 * n - 5)
        )
        if var != expected:
            failures.append(f"variance mismatch at n={n}")
    return failures, f"exact identities hold for 4 <= n <= {top}"


def check_horton_law(
    engine: ExpectationEngine, max_n: Optional[int] = None, trials: int = SAMPLER_TRIALS
) -> tuple:
    """4: exact first-order ratio identity, float residual bounds, slope."""
    s1 = parse("S1")
    failures = []
    exact_top = min(300, max_n or 300)
    for n in range(2, exact_top + 1):
        if engine.bifurcation_ratio(n, 1, s1, mode="exact") != 4 - Fraction(2, n - 1):
            failures.append(f"exact R_1 mismatch at n={n}")
    grid = [n for n in HORTON_FLOAT_GRID if max_n is None or n <= max(max_n, 100)]
    slopes = {}
    for r in (1, 2, 3):
        residuals = []
        for n in grid:
            ratio = engine.bifurcation_ratio(n, r, s1, mode="float")
            residual = ratio - (4 - 4**r / (2 * n))
            residuals.append((n, residual))
            if abs(residual) > 50 / n**2:
                failures.append(
                    f"r={r} n={n}: |residual| = {abs(residual):.3g} > 50/n^2 = {50 / n**2:.3g}"
                )
        slopes[r] = asym.log_slope(residuals)
        if slopes[r] is not None and slopes[r] > -1.7:
            failures.append(f"r={r}: residual slope {slopes[r]:.2f} > -1.7")
    slope_text = ", ".join(
        f"r={r}: {s:.2f}" if s is not None else f"r={r}: n/a" for r, s in slopes.items()
    )
    return failures, f"exact identity to n={exact_top}; residual slopes {slope_text}"


def check_moment_ratio_law(
    engine: ExpectationEngine, max_n: Optional[int] = None, trials: int = SAMPLER_TRIALS
) -> tuple:
    """5: moment-ratio truncation bound and exact 4^k limit column."""
    failures = []
    grid = [n for n in MOMENT_RATIO_GRID if max_n is None or n <= max(max_n, 500)]
    for k in (1, 2, 3):
        f = parse(f"S1^{k}")
        init = asym.laurent_at_infinity(f)
        for r in (1, 2):
            for n in grid:
                ratio = engine.bifurcation_ratio(n, r, f, mode="float")
                expansion = asym.ratio_asymptotic(init, r, n)
                if expansion.limit != Fraction(4) ** k:
                    failures.append(f"limit component != 4^{k}")
                predicted = 4**k - 4 ** (k + r - 1) * k * k / (2 * n)
                bound = 100 / n**2 * 4**k
                if abs(ratio - predicted) > bound:
                    failures.append(
                        f"k={k} r={r} n={n}: |residual| = {abs(ratio - predicted):.3g} "
                        f"> {bound:.3g}"
                    )
    return failures, f"bounds hold on n in {tuple(grid)}"


def check_expansion_reproduction(
    engine: ExpectationEngine, max_n: Optional[int] = None, trials: int = SAMPLER_TRIALS
) -> tuple:
    """6: the two-term expansion reproduces the known moment forms (at k = 1,
    the mean form n/4^(r-1) + (1 - 4^-(r-1))/6)."""
    failures = []
    ns = [n for n in EXPANSION_SAMPLE_NS if max_n is None or n <= max(max_n, 10)]
    for k in (1, 2, 3, 4):
        init = asym.AsymptoticCoeffs(k=k, a1=Fraction(1), b1=Fraction(0))
        for r in range(1, 7):
            for n in ns:
                lhs = asym.expectation_asymptotic(init, r, n)
                rhs = Fraction(n, 4 ** (r - 1)) ** k * (
                    1 + Fraction((4 ** (r - 1) - 1) * k * k, 6 * n)
                )
                if lhs != rhs:
                    failures.append(f"moment expansion mismatch k={k} r={r} n={n}")
    return failures, f"exact rational identities at {len(ns)} sampled magnitudes"


def check_ratio_identity(
    engine: ExpectationEngine, max_n: Optional[int] = None, trials: int = SAMPLER_TRIALS
) -> tuple:
    """7: E[S2/S1] equals E[S2]/E[S1] exactly; one order up it decays as n^-2."""
    failures = []
    ratio = parse("S2/S1")
    s1 = parse("S1")
    grid = [n for n in RATIO_IDENTITY_GRID if max_n is None or n <= max(max_n, 200)]
    for n in grid:
        lhs = engine.expectation_exact(n, 1, ratio)
        rhs = engine.expectation_exact(n, 2, s1) / engine.expectation_exact(n, 1, s1)
        closed = Fraction(n - 1, 2 * (2 * n - 3))
        if not (lhs == rhs == closed):
            failures.append(f"r=1 identity fails at n={n}: {lhs} vs {rhs} vs {closed}")
    diffs = []
    for n in grid:
        lhs = engine.expectation_exact(n, 2, ratio)
        rhs = engine.expectation_exact(n, 3, s1) / engine.expectation_exact(n, 2, s1)
        diffs.append((n, lhs - rhs))
    slope = asym.log_slope(diffs)
    if slope is not None:
        if slope > -1.7:
            failures.append(f"r=2 difference slope {slope:.2f} > -1.7")
    elif len(grid) >= 2 and any(d != 0 for _, d in diffs):
        failures.append("r=2 difference slope could not be fitted")
    # A clamped single-point grid or exactly vanishing differences fit no
    # slope; neither contradicts the decay claim.
    slope_text = f"{slope:.2f}" if slope is not None else "n/a"
    return failures, (
        f"exact identity at n in {tuple(grid)}; r=2 difference slope {slope_text}"
    )


def check_variance_pipeline(
    engine: ExpectationEngine, max_n: Optional[int] = None, trials: int = SAMPLER_TRIALS
) -> tuple:
    """8: the order-3 variance report with residual diagnostics is produced."""
    grid = [n for n in VARIANCE_GRID if max_n is None or n <= max(max_n, 100)]
    report = asym.variance_pipeline_report(engine, grid)
    failures = []
    if len(report.rows) != len(grid):
        failures.append("missing rows")
    if abs(report.fitted_a - float(report.supported_a)) > 0.2 * abs(report.fitted_a):
        failures.append(
            f"fitted coefficient {report.fitted_a:.5f} is not within 20% of the "
            f"supported prediction {float(report.supported_a):.5f}"
        )
    if report.max_rel_residual > 0.05:
        failures.append(f"max relative residual {report.max_rel_residual:.3f} > 5%")
    detail = (
        f"fitted {report.fitted_a:.5f}; pipeline {float(report.pipeline_a):.5f}, "
        f"total-variance {float(report.total_variance_a):.5f}; data supports "
        f"{report.supported} (max rel residual {report.max_rel_residual:.4f})"
    )
    return failures, detail


def check_sampler(
    engine: ExpectationEngine, max_n: Optional[int] = None, trials: int = SAMPLER_TRIALS
) -> tuple:
    """9: chi-square shape uniformity at n=6; Monte Carlo mean against exact."""
    failures = []
    shapes = list(trees_mod.enumerate_trees(6))
    tally = Counter(
        sampling.sample_uniform(6, sampling._child_seed(SAMPLER_SEED, i))
        for i in range(trials)
    )
    observed = [tally.get(t, 0) for t in shapes]
    p_value = chi_square_p_value(observed)
    if not 0.001 <= p_value <= 0.999:
        failures.append(f"chi-square p-value {p_value:.5f} outside [0.001, 0.999]")

    mc_n = min(1000, max_n) if max_n else 1000
    cfg = sampling.SampleConfig(
        n=mc_n, trials=trials, seed=SAMPLER_SEED, f=parse("S1"), r=2
    )
    result = sampling.monte_carlo(cfg)
    reference = float(Fraction(mc_n * (mc_n - 1), 2 * (2 * mc_n - 3)))
    if result.stderr is None:
        failures.append(f"the MC mean check needs at least 2 trials, got {trials}")
    elif abs(result.mean - reference) > 4 * result.stderr:
        failures.append(
            f"MC mean {result.mean:.5f} not within 4 stderr "
            f"({result.stderr}) of {reference:.5f}"
        )
    se_text = f"{result.stderr:.4f}" if result.stderr is not None else "n/a"
    return failures, (
        f"p = {p_value:.4f}; MC mean {result.mean:.4f} vs {reference:.4f} "
        f"(stderr {se_text}, {trials} trials)"
    )


def check_distribution_normalization(
    engine: ExpectationEngine, max_n: Optional[int] = None, trials: int = SAMPLER_TRIALS
) -> tuple:
    """10: exact distributions sum to one and their means match the engine."""
    top = min(100, max_n or 100)
    s1 = parse("S1")
    failures = []
    for n in range(1, top + 1):
        for r in range(1, 6):
            dist = engine.distribution(n, r, mode="exact")
            if sum(dist.values()) != 1:
                failures.append(f"n={n} r={r}: probabilities sum to {sum(dist.values())}")
            mean = sum(s * prob for s, prob in dist.items())
            if mean != engine.expectation_exact(n, r, s1):
                failures.append(f"n={n} r={r}: distribution mean mismatch")
    return failures, f"exact normalization and mean identity for n <= {top}, r <= 5"


CHECKS: dict[str, Callable] = {
    "oracle-equivalence": check_oracle_equivalence,
    "multiplicity": check_multiplicity,
    "werner-closed-forms": check_werner_closed_forms,
    "horton-law": check_horton_law,
    "moment-ratio-law": check_moment_ratio_law,
    "expansion-reproduction": check_expansion_reproduction,
    "ratio-identity": check_ratio_identity,
    "variance-pipeline": check_variance_pipeline,
    "sampler": check_sampler,
    "distribution-normalization": check_distribution_normalization,
}


def run_all(
    engine: Optional[ExpectationEngine] = None,
    max_n: Optional[int] = None,
    trials: int = SAMPLER_TRIALS,
    names: Optional[Sequence[str]] = None,
) -> list:
    """Run the named checks (default: all ten) and return their results."""
    if engine is None:
        engine = ExpectationEngine(exact_limit=1000)
    results = []
    for name in names or CHECKS:
        if name not in CHECKS:
            raise KeyError(f"unknown check {name!r}")
        t0 = time.time()
        failures, detail = CHECKS[name](engine, max_n, trials)
        if failures:
            detail = "; ".join(failures[:4])
            if len(failures) > 4:
                detail += f"; ... ({len(failures)} failures total)"
        results.append(CheckResult(name, not failures, detail, time.time() - t0))
    return results
