"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL
line per criterion. The criteria are ``strahler.verification.CHECKS``,
numbered by position, so the CLI ``verify`` subcommand runs the identical
suite and a check added or renamed there is gated here too.

Two checks are expected to come out red on correctness grounds: the stated
O(n^-2) tolerance constants in the horton-law check (order 3) and the
moment-ratio check (k=3 with base order 2) are tighter than the true
second-order coefficients, which this package derives exactly and checks
against exact rational ratios: 432 and 321, against allowances of 50 and
100. The checks assert the stated bounds anyway; see README for the
analysis.
"""

import pytest

from strahler import verification
from strahler.expectations import ExpectationEngine

CRITERIA = list(enumerate(verification.CHECKS, start=1))


@pytest.fixture(scope="module")
def engine():
    # Criterion 7 needs exact arithmetic at magnitude 1000.
    return ExpectationEngine(exact_limit=verification.VERIFY_EXACT_LIMIT)


@pytest.mark.parametrize("number,name", CRITERIA, ids=[name for _, name in CRITERIA])
def test_acceptance_criterion(engine, number, name):
    (result,) = verification.run_all(engine, None, verification.SAMPLER_TRIALS, [name])
    status = "PASS" if result.passed else "FAIL"
    print(f"criterion {number} ({name}): {status} [{result.seconds:.1f}s] {result.detail}")
    assert result.passed, f"criterion {number} ({name}): {result.detail}"
