import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from strahler import combinatorics as comb
from strahler.expectations import ExpectationEngine, _weight_error
from strahler.trees import branch_counts, enumerate_trees


@pytest.mark.parametrize("i,value", [(0, 1), (1, 1), (4, 14), (5, 42), (13, 742900)])
def test_catalan_values(i, value):
    assert comb.catalan(i) == value
    assert comb.catalans(i + 1)[i] == value
    assert comb.catalans(i) == tuple(comb.catalan(k) for k in range(i))


def test_catalan_rejects_negative():
    with pytest.raises(ValueError):
        comb.catalan(-1)


def test_multiplicity_examples():
    assert comb.multiplicity(5, 2) == 6
    assert comb.multiplicity(4, 2) == 1
    for m in (1, 2, 3, 7):
        assert comb.multiplicity(2 * m, m) == 1


def test_multiplicities_row_matches_multiplicity():
    for n in range(2, 120):
        assert comb.scaled_multiplicities(n, 1) == [0] + [
            comb.multiplicity(n, m) for m in range(1, n // 2 + 1)
        ]
    assert comb.scaled_multiplicities(1, 1) == [1]  # δ_0, like float_weight_row


def test_scaled_multiplicities_are_the_row_scaled():
    # The one term walk, carried scaled by x, as the exact kernel step
    # (x = 1) and the exact forward push read it.
    for n in range(0, 301):
        for x in (1, 2, 7, 3**40, 2**200 + 1):
            row = [x] if n < 2 else [0] + [
                x * comb.multiplicity(n, m) for m in range(1, n // 2 + 1)
            ]
            assert comb.scaled_multiplicities(n, x) == row, (n, x)


def test_multiplicity_out_of_range_is_zero():
    assert comb.multiplicity(5, 3) == 0
    assert comb.multiplicity(7, 0) == 0
    assert comb.multiplicity(4, 9) == 0


def _class_size(n, m):
    """Magnitude-n trees with m second-order branches: each of the c_{m-1}
    magnitude-m trees has multiplicity(n, m) preimages."""
    return comb.multiplicity(n, m) * comb.catalan(m - 1)


def test_class_size_examples():
    assert _class_size(5, 2) == 6
    assert _class_size(5, 1) == 8
    assert sum(_class_size(5, m) for m in range(1, 3)) == 14
    for n in range(2, 10):
        tally = Counter(branch_counts(t).s(2) for t in enumerate_trees(n))
        assert tally == {m: _class_size(n, m) for m in range(1, n // 2 + 1)}


def test_class_sizes_partition_all_shapes():
    for n in range(2, 65):
        total = sum(_class_size(n, m) for m in range(1, n // 2 + 1))
        assert total == comb.catalan(n - 1)


def test_exact_weights_examples():
    assert comb.order2_weights(5) == {1: Fraction(8, 14), 2: Fraction(6, 14)}
    assert comb.order2_weights(4) == {1: Fraction(4, 5), 2: Fraction(1, 5)}


def test_exact_weights_sum_to_one():
    for n in range(2, 80):
        assert sum(comb.order2_weights(n).values()) == 1


def test_float_weights_match_exact():
    for n in (2, 3, 10, 50, 150, 300):
        approx = comb.float_weight_row(n)[1:].tolist()
        for m, w in comb.order2_weights(n).items():
            assert math.isclose(approx[m - 1], float(w), rel_tol=1e-10)


def test_float_weight_row_within_the_engines_weight_error():
    # The float engine charges each log-gamma row entry this relative error;
    # the check reaches magnitudes far past the exact ceiling, and rows whose
    # tails underflow (n = 1100 and 4000). An entry is nonzero wherever the
    # exact weight is at least 2^-1070, and zero wherever it is below 2^-1080.
    for n in (2, 3, 17, 100, 1000, 1100, 3000, 4000):
        row = comb.float_weight_row(n)
        counts = comb.scaled_multiplicities(n, 1)
        total = comb.catalan(n - 1)
        bound = Fraction(_weight_error(n))
        assert len(row) == n // 2 + 1 and row[0] == 0
        for m in range(1, n // 2 + 1):
            count = counts[m] * comb.catalan(m - 1)
            exact = Fraction(count, total)
            if exact > Fraction(10) ** -250:
                assert abs(Fraction(row[m]) - exact) <= bound * exact, (n, m)
            if count << 1070 >= total:
                assert row[m] > 0, (n, m)
            if count << 1080 < total:
                assert row[m] == 0, (n, m)
    # Every weight that rounds to a nonzero float keeps its support row.
    assert len(ExpectationEngine().distribution(10**4, 2, "float")) == 1901


def test_float_weight_row_equals_the_gather_formula():
    # The row reads strided views of shared tables; the same terms, in the
    # same operation order, over gathered indices give the same bits: one
    # diagonal term D(q), one row term R(n) and one column term C(m), added
    # as (D + R) - C. The row skips the exp where the log is below
    # ln 2^-1075; a full exp gives the same zeros there.
    for n in [*range(2, 400), 999, 1000, 3001, 4000, 10**4]:
        lgammas = np.array([math.inf] + [math.lgamma(i) for i in range(1, n + 1)])
        ms = np.arange(1, n // 2 + 1)
        qs = n - 2 * ms
        diagonal = qs * math.log(2.0) - lgammas[qs + 1]
        row = ((math.lgamma(n + 1) - math.lgamma(2 * n - 1)) + math.lgamma(n)) + math.lgamma(n - 1)
        column = lgammas[ms + 1] + lgammas[ms]
        gathered = np.concatenate(([0.0], np.exp((diagonal + row) - column)))
        assert np.array_equal(comb.float_weight_row(n), gathered), n


def test_float_weight_rows_equal_single_rows():
    # A block row has the bits of the single row whichever range fills the
    # block and wherever in the block it sits; the block's other rows are
    # zero, and the blocks are one fixed partition of the magnitudes from 2,
    # in ascending order, whatever the range.
    rows_at, a = {}, 2  # the partition's rule, chained block by block
    while a <= 10**5:
        rows_at[a] = max((math.isqrt((a + 1) ** 2 + 8 * comb.BLOCK_ENTRIES) - (a + 1)) // 2, 1)
        a += rows_at[a]
    ranges = [(lo, 600) for lo in range(4)]
    ranges += [(1000, 1300), (1001, 1300), (3990, 4100), (9990, 10010), (5, 4), (0, 1)]
    ranges += [(65530, 65540)]  # where blocks shrink to one row
    ranges += [(n, n) for n in (0, 1, 2, 3, 17, 1000, 4001, 9999, 10**4, 10**5)]
    for lo, hi in ranges:
        filled, starts = [], []
        for a, block in comb.float_weight_blocks(lo, hi):
            rows, width = block.shape
            assert width % 2 == 0 and width > (a + rows - 1) // 2, (lo, hi, a)
            assert rows_at.get(a) == rows, (lo, hi, a)
            assert not starts or starts[-1] < a, (lo, hi, a)
            starts.append(a)
            for n, row in enumerate(block, start=a):
                if lo <= n <= hi:
                    single = comb.float_weight_row(n)
                    assert np.array_equal(row[: len(single)], single), (lo, hi, n)
                    assert not row[len(single) :].any(), (lo, hi, n)
                    filled.append(n)
                else:
                    assert not row.any(), (lo, hi, n)
        assert filled == list(range(max(lo, 2), hi + 1)), (lo, hi)
    for n in (0, 1):  # δ_0 below magnitude 2, outside every block
        assert comb.float_weight_row(n).tolist() == [1.0]


def test_cold_log_tables_cover_the_blocks_width(monkeypatch):
    # A range that ends early in its block still builds rows of the block's
    # full width, so tables grown from cold must reach that width, not
    # only the range's last magnitude.
    for lo, hi in ((2, 2), (2, 100), (300, 301), (1000, 1001), (4000, 4000)):
        monkeypatch.setattr(comb, "_lgamma_table", np.array([math.inf, 0.0]))
        for name in ("_row_table", "_column_table", "_diagonal_table"):
            monkeypatch.setattr(comb, name, np.empty(0))
        blocks = list(comb.float_weight_blocks(lo, hi))
        row = comb.float_weight_row(hi)
        monkeypatch.undo()
        assert np.array_equal(row, comb.float_weight_row(hi)), (lo, hi)
        for a, block in blocks:
            for n in range(max(lo, a), min(hi, a + len(block) - 1) + 1):
                single = comb.float_weight_row(n)
                assert np.array_equal(block[n - a, : len(single)], single), (lo, hi, n)


def test_weight_mode_validation():
    with pytest.raises(ValueError):
        comb.order2_weights(1)
