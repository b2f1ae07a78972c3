import math
from fractions import Fraction

import pytest

from strahler import combinatorics as comb


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
        assert comb.multiplicity_row(n).tolist() == [0] + [
            comb.multiplicity(n, m) for m in range(1, n // 2 + 1)
        ]
    assert comb.multiplicity_row(1).tolist() == [1]  # δ_0, like float_weight_row


def test_multiplicity_out_of_range_is_zero():
    assert comb.multiplicity(5, 3) == 0
    assert comb.multiplicity(7, 0) == 0
    assert comb.multiplicity(4, 9) == 0


def test_class_size_examples():
    assert comb.class_size(5, 2) == 6
    assert comb.class_size(5, 1) == 8
    assert sum(comb.class_size(5, m) for m in range(1, 3)) == 14


def test_class_sizes_partition_all_shapes():
    for n in range(2, 65):
        total = sum(comb.class_size(n, m) for m in range(1, n // 2 + 1))
        assert total == comb.catalan(n - 1)


def test_multiplicity_class_size_relation():
    for n in range(2, 40):
        for m in range(1, n // 2 + 1):
            assert comb.multiplicity(n, m) == comb.class_size(n, m) // comb.catalan(
                m - 1
            )


def test_exact_weights_examples():
    assert comb.order2_weights(5) == {1: Fraction(8, 14), 2: Fraction(6, 14)}
    assert comb.order2_weights(4) == {1: Fraction(4, 5), 2: Fraction(1, 5)}


def test_exact_weights_sum_to_one():
    for n in range(2, 80):
        assert sum(comb.order2_weights(n).values()) == 1


def test_float_weights_match_exact():
    for n in (2, 3, 10, 50, 150, 300):
        exact = comb.order2_weights(n, "exact")
        approx = comb.order2_weights(n, "float")
        for m, w in exact.items():
            assert math.isclose(approx[m], float(w), rel_tol=1e-10)


def test_weight_mode_validation():
    with pytest.raises(ValueError):
        comb.order2_weights(10, "bogus")
    with pytest.raises(ValueError):
        comb.order2_weights(1)
