import math
import random

import pytest

from strahler import combinatorics as comb
from strahler import trees

L = trees.LEAF
BAL4 = ((L, L), (L, L))
CAT5 = ((((L, L), L), L), L)  # left caterpillar, magnitude 5


def test_magnitude():
    assert trees.magnitude(L) == 1
    assert trees.magnitude((L, L)) == 2
    assert trees.magnitude(BAL4) == 4
    assert trees.magnitude(CAT5) == 5


def test_node_count_is_2n_minus_1():
    for n in range(1, 8):
        for t in trees.enumerate_trees(n):
            text = trees.encode(t)
            nodes = text.count("*") + text.count("(")
            assert nodes == 2 * n - 1


def test_strahler_orders_leaf():
    assert trees.strahler_orders(L) == trees.OrderedTree(1, None, None)


def test_strahler_orders_balanced():
    annotated = trees.strahler_orders(BAL4)
    assert annotated.order == 3
    assert annotated.left.order == 2
    assert annotated.right.order == 2
    assert annotated.left.left.order == 1


def test_strahler_orders_caterpillar():
    # Every internal node of the magnitude-5 caterpillar has order 2.
    annotated = trees.strahler_orders(CAT5)
    node = annotated
    while node.left is not None:
        assert node.order == 2
        node = node.left
    assert node.order == 1
    assert trees.root_order(CAT5) == 2


def test_branch_counts_examples():
    assert trees.branch_counts(BAL4).counts == (4, 2, 1)
    assert trees.branch_counts(CAT5).counts == (5, 1)
    assert trees.branch_counts(L).counts == (1,)


def test_branch_profile_accessors():
    profile = trees.branch_counts(BAL4)
    assert profile.magnitude == 4
    assert profile.order == 3
    assert profile.s(2) == 2
    assert profile.s(9) == 0
    assert profile.window(2, 3) == (2, 1, 0)


def _ref_annotate(t):
    """Recursive reference for ``strahler_orders``."""
    if t is None:
        return trees.OrderedTree(1, None, None)
    a, b = _ref_annotate(t[0]), _ref_annotate(t[1])
    order = a.order + 1 if a.order == b.order else max(a.order, b.order)
    return trees.OrderedTree(order, a, b)


def _ref_counts(annotated):
    """Recursive reference for ``branch_counts``: the root, and every node
    whose parent has another order, heads one branch of its own order."""
    counts = [0] * annotated.order

    def walk(node, parent_order):
        if node.order != parent_order:
            counts[node.order - 1] += 1
        if node.left is not None:
            walk(node.left, node.order)
            walk(node.right, node.order)

    walk(annotated, None)
    return tuple(counts)


def _ref_magnitude(t):
    return 1 if t is None else _ref_magnitude(t[0]) + _ref_magnitude(t[1])


def test_folds_match_recursive_references_on_every_shape():
    for n in range(1, 11):
        for t in trees.enumerate_trees(n):
            annotated = _ref_annotate(t)
            assert trees.magnitude(t) == _ref_magnitude(t) == n
            assert trees.strahler_orders(t) == annotated
            assert trees.root_order(t) == annotated.order
            assert trees.branch_counts(t).counts == _ref_counts(annotated)


def _caterpillar(n, side):
    """The n-leaf caterpillar whose spine runs down child ``side``."""
    t = L
    for _ in range(n - 1):
        t = (t, L) if side == 0 else (L, t)
    return t


@pytest.mark.parametrize("side", [0, 1])
def test_folds_of_deep_caterpillars(side):
    # 10^5 levels is far past the recursion limit. OrderedTree == recurses,
    # so the annotation is checked by walking its spine.
    n = 10**5
    t = _caterpillar(n, side)
    assert trees.magnitude(t) == n
    assert trees.root_order(t) == 2
    assert trees.branch_counts(t).counts == (n, 1)
    spine, other = ("left", "right") if side == 0 else ("right", "left")
    node, depth = trees.strahler_orders(t), 0
    while node.left is not None:
        assert node.order == 2 and getattr(node, other).order == 1
        node = getattr(node, spine)
        depth += 1
    assert node.order == 1 and depth == n - 1


@pytest.mark.parametrize("n,count", [(1, 1), (2, 1), (3, 2), (5, 14), (6, 42)])
def test_enumeration_counts(n, count):
    assert sum(1 for _ in trees.enumerate_trees(n)) == count


def test_enumeration_matches_catalan_and_has_no_duplicates():
    for n in range(1, 10):
        shapes = list(trees.enumerate_trees(n))
        assert len(shapes) == comb.catalan(n - 1)
        assert len(set(shapes)) == len(shapes)


def test_enumeration_limit_guard():
    with pytest.raises(trees.EnumerationLimitError):
        list(trees.enumerate_trees(15))
    assert sum(1 for _ in trees.enumerate_trees(15, limit=15)) == comb.catalan(14)


def test_unrank_matches_enumeration_order():
    # Magnitudes 9 and up split by the block scan instead of the shape table;
    # 9 and 10 run every rank, so every block from either end.
    for n in range(1, 11):
        for i, t in enumerate(trees.enumerate_trees(n)):
            assert trees.unrank_tree(n, i) == t
    for n in (11, 12):
        for i, t in enumerate(trees.enumerate_trees(n)):
            if i % 97 == 0:
                assert trees.unrank_tree(n, i) == t


def _steps(word: bytes) -> list:
    """The +1/-1 steps of a word of int8 bytes."""
    return memoryview(word).cast("b").tolist()


def _tree_steps(t) -> list:
    """The pre-order word of ``t``: +1 a split, -1 a leaf."""
    return [-1 if v is None else 1 for v in trees._preorder(t)]


def test_unrank_word_is_the_preorder_word_of_unranked_trees():
    # Every rank up to magnitude 10, then seeded ranks at every magnitude
    # the sampler unranks.
    for n in range(1, 11):
        for k in range(comb.catalan(n - 1)):
            assert _steps(trees.unrank_word(n, k)) == _tree_steps(trees.unrank_tree(n, k))
    rng = random.Random(12)
    for n in range(11, 65):
        for _ in range(10):
            k = rng.randrange(comb.catalan(n - 1))
            assert _steps(trees.unrank_word(n, k)) == _tree_steps(trees.unrank_tree(n, k))
    n = 1500  # the deep caterpillar at rank 0: a leaf, then the rest, at every split
    assert _steps(trees.unrank_word(n, 0)) == [1, -1] * (n - 1) + [-1]


def _spine(t, side):
    """Length of the path that always steps to child ``side``."""
    length = 0
    while t is not None:
        other = t[1 - side]
        assert other is None, "off-spine subtree is not a leaf"
        t = t[side]
        length += 1
    return length


def test_unrank_extreme_ranks_give_deep_caterpillars():
    n = 1500
    first = trees.unrank_tree(n, 0)
    last = trees.unrank_tree(n, comb.catalan(n - 1) - 1)
    # Rank 0 keeps a leaf on the left at every level, the last rank on the right.
    assert _spine(first, 1) == n - 1
    assert _spine(last, 0) == n - 1
    assert trees.magnitude(first) == trees.magnitude(last) == n


def test_unrank_rejects_out_of_range():
    with pytest.raises(ValueError):
        trees.unrank_tree(4, 5)
    with pytest.raises(ValueError):
        trees.unrank_tree(4, -1)


def test_join_rule_by_hand():
    # Unequal root orders: the larger order runs on, the counts add.
    assert trees.join((1,), (2, 1)) == (3, 1)
    assert trees.join((4, 2, 1), (2, 1)) == (6, 3, 1)
    # Equal root orders r: both root branches end and one order-(r+1) branch starts.
    assert trees.join((1,), (1,)) == (2, 1)
    assert trees.join((2, 1), (3, 1)) == (5, 2, 1)
    assert trees.join((4, 2, 1), (5, 2, 1)) == (9, 4, 2, 1)


def test_word_table_holds_preorder_words_of_table_shapes():
    shapes = trees._all_trees(8)
    words = trees._all_words(8)
    for k in range(1, 9):
        assert [_steps(w) for w in words[k]] == [_tree_steps(t) for t in shapes[k]], k


def test_profile_invariants_exhaustive():
    for n in range(1, 9):
        for t in trees.enumerate_trees(n):
            profile = trees.branch_counts(t)
            assert profile.counts[0] == trees.magnitude(t) == n
            assert profile.counts[-1] == 1
            for r in range(len(profile.counts) - 1):
                assert profile.counts[r + 1] <= profile.counts[r] // 2
            assert profile.order <= math.floor(math.log2(n)) + 1


def test_encode_examples():
    assert trees.encode(L) == "*"
    assert trees.encode((L, L)) == "(* *)"
    assert trees.encode(((L, L), L)) == "((* *) *)"


def test_decode_encode_roundtrip():
    for n in range(1, 9):
        for t in trees.enumerate_trees(n):
            assert trees.decode(trees.encode(t)) == t


def test_decode_deep_chain():
    # Codec and traversals are iterative; deep chains must not hit the
    # recursion limit. (Tuple == itself recurses, so compare re-encoded text.)
    deep = L
    for _ in range(5000):
        deep = (deep, L)
    text = trees.encode(deep)
    assert trees.encode(trees.decode(text)) == text
    assert trees.magnitude(deep) == 5001
    assert trees.branch_counts(deep).counts == (5001, 1)


@pytest.mark.parametrize(
    "text,position",
    [
        ("", 0),
        ("x", 0),
        ("(*", 2),
        ("(* *", 4),
        ("(*  *)", 3),
        ("(* *) ", 5),
        ("**", 1),
        ("(,* *)", 1),
    ],
)
def test_decode_rejects_malformed(text, position):
    with pytest.raises(trees.TreeFormatError) as excinfo:
        trees.decode(text)
    assert excinfo.value.position == position
