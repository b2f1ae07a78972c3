import math
from fractions import Fraction

import pytest

from strahler import asymptotics as asym
from strahler.expectations import ExpectationEngine
from strahler.observables import parse


@pytest.fixture(scope="module")
def engine():
    return ExpectationEngine()


def test_laurent_examples():
    assert asym.laurent_at_infinity(parse("S1^2")) == asym.AsymptoticCoeffs(
        2, Fraction(1), Fraction(0)
    )
    assert asym.laurent_at_infinity(parse("S1*(S1-1)")) == asym.AsymptoticCoeffs(
        2, Fraction(1), Fraction(-1)
    )
    assert asym.laurent_at_infinity(
        parse("(S1-1)/(2*(2*S1-3))")
    ) == asym.AsymptoticCoeffs(0, Fraction(1, 4), Fraction(1, 8))


def test_laurent_negative_dominant_order():
    coeffs = asym.laurent_at_infinity(parse("1/S1"))
    assert (coeffs.k, coeffs.a1, coeffs.b1) == (-1, 1, 0)


def test_laurent_rejects_zero_numerator():
    with pytest.raises(ValueError):
        asym.laurent_at_infinity(parse("0"))


def test_zero_leading_coefficient_rejected():
    with pytest.raises(ValueError):
        asym.AsymptoticCoeffs(1, Fraction(0), Fraction(1))


MOON = asym.AsymptoticCoeffs(k=1, a1=Fraction(1), b1=Fraction(0))


def test_coeff_recursion_examples():
    assert asym.coeff_recursion(MOON, 2) == asym.OrderCoeffs(
        2, Fraction(1, 4), Fraction(1, 8)
    )
    assert asym.coeff_recursion(MOON, 1) == asym.OrderCoeffs(1, Fraction(1), Fraction(0))


def test_coeff_recursion_shifted_initial_order():
    init = asym.AsymptoticCoeffs(k=1, a1=Fraction(1, 16), b1=Fraction(-1, 32), r0=2)
    coeffs = asym.coeff_recursion(init, 3)
    assert coeffs.a_r == Fraction(1, 64)
    assert coeffs.b_r == Fraction(-1, 32) + Fraction(1, 16) * Fraction(3, 24)
    with pytest.raises(ValueError):
        asym.coeff_recursion(init, 1)


def test_leading_coefficient_invariant():
    for k in (0, 1, 2, 3):
        init = asym.AsymptoticCoeffs(k=k, a1=Fraction(5, 3), b1=Fraction(2, 7))
        for r in range(1, 13):
            coeffs = asym.coeff_recursion(init, r)
            assert coeffs.a_r * Fraction(4) ** (k * (r - 1)) == init.a1


def test_general_recurrence_note_reproduces_b():
    for k in (1, 2, 3):
        init = asym.AsymptoticCoeffs(k=k, a1=Fraction(3, 7), b1=Fraction(-2, 5))
        s = Fraction(1, 4 ** (k - 1))
        t = Fraction(k * k) * init.a1 / 2
        u = Fraction(1, 4**k)
        for r in range(1, 13):
            closed = asym.general_recurrence_closed_form(init.b1, s, t, u, r)
            assert closed == asym.coeff_recursion(init, r).b_r


def test_general_recurrence_guards_degenerate_ratio():
    with pytest.raises(ValueError):
        asym.general_recurrence_closed_form(
            Fraction(1), Fraction(1, 4), Fraction(1), Fraction(1, 4), 3
        )


def test_expectation_asymptotic_examples():
    assert asym.expectation_asymptotic(MOON, 2, 100) == Fraction(201, 8)
    # Zero iterations: plain two-term polynomial.
    init = asym.AsymptoticCoeffs(k=2, a1=Fraction(3), b1=Fraction(-1, 2))
    for n in (5, 40):
        assert asym.expectation_asymptotic(init, 1, n) == 3 * n**2 - Fraction(n, 2)
    ex3 = asym.AsymptoticCoeffs(k=0, a1=Fraction(1, 4), b1=Fraction(1, 8))
    assert asym.expectation_asymptotic(ex3, 2, 100) == Fraction(1, 4) + Fraction(1, 200)


def test_expectation_asymptotic_matches_order_coeffs():
    for k in (0, 1, 2):
        init = asym.AsymptoticCoeffs(k=k, a1=Fraction(2, 9), b1=Fraction(1, 3))
        for r in (1, 2, 3, 5):
            coeffs = asym.coeff_recursion(init, r)
            for n in (4, 25, 250):
                expansion = asym.expectation_asymptotic(init, r, n)
                direct = coeffs.a_r * Fraction(n) ** k + coeffs.b_r * Fraction(n) ** (
                    k - 1
                )
                assert expansion == direct


def test_ratio_asymptotic_examples():
    value = asym.ratio_asymptotic(MOON, 1, 1000)
    assert value.value == Fraction(3998, 1000)
    assert value.limit == 4
    sq = asym.AsymptoticCoeffs(k=2, a1=Fraction(1), b1=Fraction(0))
    value = asym.ratio_asymptotic(sq, 1, 1000)
    assert value.value == 16 - Fraction(16 * 4, 2000)
    assert value.limit == 16
    inv = asym.AsymptoticCoeffs(k=-1, a1=Fraction(2), b1=Fraction(1))
    assert asym.ratio_asymptotic(inv, 1, 50).limit == Fraction(1, 4)


def test_ratio_matches_moon_horton_form():
    for r in (1, 2, 3):
        for n in (100, 1000):
            value = asym.ratio_asymptotic(MOON, r, n)
            assert value.value == 4 - Fraction(4**r, 2 * n)


def test_multivariable_ratio_expansion_matches_engine(engine):
    # Two-variable initial data (k=0, 1/4, 1/8) pushed one order up must track
    # the exact values of E[S3/S2] with an O(n^-2) remainder; this is the
    # empirical check of the multivariable expansion claim.
    init = asym.AsymptoticCoeffs(k=0, a1=Fraction(1, 4), b1=Fraction(1, 8))
    ratio = parse("S2/S1")
    for r in (2, 3):
        assert asym.expectation_asymptotic(init, r, 300) == Fraction(1, 4) + Fraction(
            4 ** (r - 2), 600
        )
        residuals = []
        for n in (150, 300):
            predicted = asym.expectation_asymptotic(init, r, n)
            exact = engine.expectation_exact(n, r, ratio)
            residuals.append(abs(float(exact - predicted)))
        # Doubling n should shrink the remainder about 4x.
        assert 2.5 <= residuals[0] / residuals[1] <= 6.0


def test_fit_initial_coeffs_recovers_ratio_data(engine):
    fitted = asym.fit_initial_coeffs(engine, parse("S2/S1"), ns=(120, 200, 300))
    assert fitted.k == 0
    assert abs(float(fitted.a1) - 0.25) < 1e-3
    assert abs(float(fitted.b1) - 0.125) < 0.05


def test_fit_initial_coeffs_evaluates_only_the_two_largest_magnitudes():
    seen = []

    class Recording(ExpectationEngine):
        def expectation_exact(self, n, r, f):
            seen.append((n, r))
            return super().expectation_exact(n, r, f)

    ratio = parse("S2/S1")
    fitted = asym.fit_initial_coeffs(Recording(), ratio, ns=(60, 20, 40))
    assert sorted(seen) == [(40, 1), (60, 1)]
    assert fitted == asym.fit_initial_coeffs(ExpectationEngine(), ratio, ns=(40, 60))


def test_fits_need_two_distinct_magnitudes():
    engine = ExpectationEngine()
    ratio = parse("S2/S1")
    for ns in ((), (200,), (200, 200)):
        with pytest.raises(ValueError, match="two distinct magnitudes"):
            asym.fit_initial_coeffs(engine, ratio, ns)
    for grid in ([], [100], [100, 100]):
        with pytest.raises(ValueError, match="two distinct magnitudes"):
            asym.variance_pipeline_report(engine, grid)
    # A repeated magnitude is one point: the fit takes the two largest distinct.
    assert asym.fit_initial_coeffs(engine, ratio, (40, 60, 60)) == (
        asym.fit_initial_coeffs(engine, ratio, (40, 60))
    )


def test_log_slope_fits_exact_logs_beyond_the_float_range():
    # A nonzero y whose float underflows or overflows is fitted at its exact
    # log, taken from its numerator and denominator.
    log10 = math.log(10)
    tiny = [(1, Fraction(1, 10**400)), (2, Fraction(1)), (4, Fraction(2))]
    xs = [0.0, math.log(2), math.log(4)]
    ys = [-400 * log10, 0.0, math.log(2)]
    mx, my = sum(xs) / 3, sum(ys) / 3
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum(
        (x - mx) ** 2 for x in xs
    )
    assert asym.log_slope(tiny) == pytest.approx(slope)
    huge = [(2, Fraction(-(10**400), 3)), (4, 10**401)]
    assert asym.log_slope(huge) == pytest.approx(
        (401 * log10 - (400 * log10 - math.log(3))) / math.log(2)
    )
    # Only an exact zero is skipped; a single x has no spread.
    assert asym.log_slope([(3, 1), (3, 2)]) is None
    assert asym.log_slope([(3, 1), (5, 0)]) is None
    assert asym.log_slope([(3, 1), (5, 0), (6, 2)]) == pytest.approx(1.0)


def test_convergence_report_expectation_slope(engine):
    report = asym.convergence_report(engine, parse("S1"), 2, [50, 100, 200, 300])
    assert report.fitted_slope is not None
    assert report.fitted_slope <= 1 - 2 + 0.3
    assert [row.n for row in report.rows] == [50, 100, 200, 300]
    assert all(row.residual != 0 for row in report.rows)


def test_convergence_report_constant_observable(engine):
    report = asym.convergence_report(engine, parse("1"), 2, [10, 20, 40])
    assert report.fitted_slope is None
    assert all(row.residual == 0 for row in report.rows)


def test_variance_pipeline_report(engine):
    report = asym.variance_pipeline_report(engine, [50, 100, 150])
    assert report.pipeline_a == Fraction(1, 64)
    assert report.total_variance_a == Fraction(5, 256)
    assert report.supported == "total_variance"
    assert report.supported_a == report.total_variance_a
    assert report.max_rel_residual < 0.05


def test_second_order_ratio_coefficients():
    # The n^-2 coefficients behind the two red acceptance checks (README,
    # "Acceptance status"). n^2 (R - two-term expansion) tends to -c_r for
    # the Horton ratio, c_r = (5*16^(r-1) + 4^(r-1))/3, and to 321*4^k for the
    # k = 3 moment ratio at r = 2. So n |n^2 (R - two-term) - limit| stays
    # bounded; an error d in a limit would make it grow like d*n.
    engine = ExpectationEngine(exact_limit=1000)
    s1, cube = parse("S1"), parse("S1^3")
    cases = [
        (s1, r, -Fraction(5 * 16 ** (r - 1) + 4 ** (r - 1), 3), bound)
        for r, bound in zip((1, 2, 3, 4), (2.5, 160, 1.2e4, 1.5e6))
    ]
    cases.append((cube, 2, 321 * 4**3, 6500 * 4**3))
    assert [case[2] for case in cases[:4]] == [-2, -28, -432, -6848]
    for f, r, limit, bound in cases:
        init = asym.laurent_at_infinity(f)
        for n in (250, 500, 1000):
            ratio = engine.bifurcation_ratio(n, r, f, mode="exact")
            two_term = asym.ratio_asymptotic(init, r, n).value
            assert n * abs(n * n * (ratio - two_term) - limit) <= bound, (f.text, r, n)
