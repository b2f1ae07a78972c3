from collections import Counter
from itertools import product

import pytest

from strahler import combinatorics as comb
from strahler import transform, trees

L = trees.LEAF
BAL4 = ((L, L), (L, L))


def test_phi_examples():
    assert transform.phi(BAL4) == (L, L)
    assert transform.phi(((L, L), L)) == L


def test_phi_rejects_single_leaf():
    with pytest.raises(ValueError):
        transform.phi(L)


def test_phi_magnitude_equals_second_order_count():
    # Holds for every shape by the order-shift identity; spot the magnitude-12
    # case with four second-order branches explicitly.
    seen_s2_4 = False
    for t in trees.enumerate_trees(12):
        profile = trees.branch_counts(t)
        if profile.s(2) == 4:
            assert trees.magnitude(transform.phi(t)) == 4
            seen_s2_4 = True
            break
    assert seen_s2_4
    for n in range(2, 9):
        for t in trees.enumerate_trees(n):
            assert trees.magnitude(transform.phi(t)) == trees.branch_counts(t).s(2)
            assert trees.magnitude(transform.phi(t)) <= n // 2


def _ref_phi(t):
    """Recursive reference for ``phi``: a cherry becomes a leaf, a node with
    one leaf child becomes the image of the other child."""
    left, right = t
    if left is None:
        return L if right is None else _ref_phi(right)
    return _ref_phi(left) if right is None else (_ref_phi(left), _ref_phi(right))


def test_phi_matches_recursive_reference_on_every_shape():
    for n in range(2, 11):
        for t in trees.enumerate_trees(n):
            assert transform.phi(t) == _ref_phi(t)


@pytest.mark.parametrize("side", [0, 1])
def test_phi_of_deep_caterpillar(side):
    # Every node of a caterpillar has a leaf child, so its image is one leaf.
    t = L
    for _ in range(10**5 - 1):
        t = (t, L) if side == 0 else (L, t)
    assert transform.phi(t) == L


def test_shift_check_exhaustive_magnitude_8():
    shapes = list(trees.enumerate_trees(8))
    assert len(shapes) == 429
    assert all(transform.shift_check(t) for t in shapes)


def test_shift_check_balanced():
    assert transform.shift_check(BAL4)
    assert trees.branch_counts(BAL4).counts == (4, 2, 1)
    assert trees.branch_counts(transform.phi(BAL4)).counts == (2, 1)


def _reference_build(tau, chain_lengths, sides):
    """One preimage, by a walk over ``tau`` per preimage: the builder
    ``preimages`` replaced, kept as the reference for its yield order.

    Slot i is the edge above the i-th node of ``tau`` in pre-order (slot 0
    sits above the root). The side word is consumed in post-order of slots,
    top chain link first within each slot; side 0 hangs the chain node's
    leaf on the left.
    """
    side_iter = iter(sides)
    next_slot = 0
    built = []  # finished subtrees, right sibling on top
    stack = [(tau, -1)]  # (node, its slot, or -1 before it has one)
    while stack:
        node, slot = stack.pop()
        if slot < 0:
            slot = next_slot
            next_slot += 1
            if node is not None:
                # Revisit after both children; the left one is numbered first.
                stack.append((node, slot))
                stack.append((node[1], -1))
                stack.append((node[0], -1))
                continue
            core = (L, L)
        else:
            right = built.pop()
            core = (built.pop(), right)
        links = [next(side_iter) for _ in range(chain_lengths[slot])]
        for side in reversed(links):
            core = (L, core) if side == 0 else (core, L)
        built.append(core)
    return built[0]


def test_preimages_yield_in_the_reference_order():
    for m in range(1, 5):
        for tau in trees.enumerate_trees(m):
            for n in range(2 * m, 11):
                chain_total = n - 2 * m
                expected = [
                    _reference_build(tau, chain_lengths, sides)
                    for chain_lengths in transform._compositions(chain_total, 2 * m - 1)
                    for sides in product((0, 1), repeat=chain_total)
                ]
                assert list(transform.preimages(tau, n)) == expected, (tau, n)


def test_preimages_fig3_multiplicity():
    result = list(transform.preimages((L, L), 5))
    assert len(result) == 6 == comb.multiplicity(5, 2)
    assert len(set(result)) == 6
    assert all(transform.phi(t) == (L, L) for t in result)


def test_preimages_unique_at_double_magnitude():
    assert list(transform.preimages((L, L), 4)) == [BAL4]


def test_preimages_rejects_small_target():
    with pytest.raises(ValueError):
        list(transform.preimages((L, L), 3))


def test_preimage_count_depends_only_on_magnitudes():
    for m in (2, 3, 4):
        for n in range(2 * m, 10):
            counts = {
                sum(1 for _ in transform.preimages(tau, n))
                for tau in trees.enumerate_trees(m)
            }
            assert counts == {comb.multiplicity(n, m)}


def test_preimages_partition_every_shape():
    # Brute-force validation of the slot model: over all base trees the
    # preimage lists tile the full enumeration exactly once.
    for n in range(2, 9):
        tally = Counter()
        for m in range(1, n // 2 + 1):
            for tau in trees.enumerate_trees(m):
                for t in transform.preimages(tau, n):
                    assert transform.phi(t) == tau
                    tally[t] += 1
        assert tally == Counter(trees.enumerate_trees(n))


def test_round_trip_membership():
    # Full sweep to magnitude 8 (the partition test already covers those);
    # sampled shapes at 9 and 10 keep the quadratic preimage scan affordable.
    for n in range(2, 9):
        for t in trees.enumerate_trees(n):
            tau = transform.phi(t)
            assert sum(1 for u in transform.preimages(tau, n) if u == t) == 1
    for n in (9, 10):
        for t in list(trees.enumerate_trees(n))[::37]:
            tau = transform.phi(t)
            assert sum(1 for u in transform.preimages(tau, n) if u == t) == 1


def test_phi_surjective_from_double_magnitude():
    for m in range(1, 6):
        targets = set(trees.enumerate_trees(m))
        images = {transform.phi(t) for t in trees.enumerate_trees(2 * m)}
        assert targets <= images


def test_preimages_of_deep_caterpillar():
    # A 3000-leaf caterpillar is far higher than the recursion limit; the
    # first preimage at double magnitude hangs a cherry under every leaf.
    base = L
    for _ in range(2999):
        base = (L, base)
    first = next(transform.preimages(base, 6000))
    assert trees.magnitude(first) == 6000
    assert trees.encode(transform.phi(first)) == trees.encode(base)
