"""Binary trees, Horton-Strahler ordering, branch counting, and enumeration.

A tree is an immutable value: ``None`` is a leaf and a 2-tuple
``(left, right)`` is an internal node. Magnitude is the leaf count, so a
tree of magnitude n has exactly 2n-1 nodes.

Horton-Strahler orders follow the usual rules: a leaf has order 1; a node
whose children share order r has order r+1; otherwise the node takes the
larger child order. An order-r branch is a maximal path of order-r nodes,
and ``branch_counts`` tallies branches per order.

A branch profile is its counts tuple, whose length is the root order.
``join`` composes the profiles of two subtrees into that of the node
above them: the counts add, and equal root orders o start one branch of
order o + 1 (Flajolet, Raoult & Vuillemin, 1979).

One pre-order walk (``_preorder``) and one bottom-up fold over it
(``_fold``) read every tree value, and one assembler (``_assemble``)
builds every tree from a pre-order list of split markers and subtrees.
``branch_counts`` folds a tree's pre-order nodes into orders over plain
ints; the sampler reads its windows off a pre-order word by leaf removal
instead (``sampling._sampled_window``). All are iterative, so deep
(caterpillar-like) trees of any magnitude are safe regardless of the
interpreter recursion limit.
"""

from __future__ import annotations

from itertools import chain, product, zip_longest
from typing import Iterator, NamedTuple, Optional, Tuple

from .combinatorics import catalans

Tree = Optional[tuple]
LEAF: Tree = None

DEFAULT_ENUMERATION_LIMIT = 14


class EnumerationLimitError(Exception):
    """Raised when an exhaustive operation is asked to exceed its ceiling."""


class TreeFormatError(ValueError):
    """Malformed tree text; ``position`` is the byte offset of the first error."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class OrderedTree(NamedTuple):
    """A tree node annotated with its Horton-Strahler order."""

    order: int
    left: Optional["OrderedTree"]
    right: Optional["OrderedTree"]


class BranchProfile(NamedTuple):
    """Branch counts per order: ``counts[i]`` is the number of order-(i+1) branches."""

    counts: Tuple[int, ...]

    @property
    def magnitude(self) -> int:
        return self.counts[0]

    @property
    def order(self) -> int:
        """Root order; counts at higher orders are implicitly zero."""
        return len(self.counts)

    def s(self, r: int) -> int:
        """Branch count at order r (zero above the root order)."""
        if r < 1:
            raise ValueError(f"order must be >= 1, got {r}")
        return self.counts[r - 1] if r <= len(self.counts) else 0

    def window(self, r: int, p: int) -> Tuple[int, ...]:
        """Counts at orders r, r+1, ..., r+p-1."""
        return tuple(self.s(r + j) for j in range(p))


def magnitude(t: Tree) -> int:
    """Leaf count of ``t``: a tree of n leaves has 2n - 1 nodes."""
    return (len(_preorder(t)) + 1) // 2


def _preorder(t: Tree) -> list:
    """The nodes of ``t`` in pre-order: node, left subtree, right subtree."""
    nodes = []
    pending = []  # right subtrees not yet visited, the nearest on top
    while True:
        nodes.append(t)
        if t is not None:
            pending.append(t[1])
            t = t[0]
        elif pending:
            t = pending.pop()
        else:
            return nodes


def _fold(t: Tree, leaf, node):
    """The bottom-up value of ``t``: a leaf is ``leaf``, an internal node is
    ``node(left value, right value)``. The reversed pre-order visits right
    subtree, left subtree, node, so the left value is on top of the stack."""
    values = []
    for v in reversed(_preorder(t)):
        if v is None:
            values.append(leaf)
        else:
            left = values.pop()
            values.append(node(left, values.pop()))
    return values[0]


def _order(a: int, b: int) -> int:
    """The order of a node whose children have orders a and b."""
    return a + 1 if a == b else (a if a > b else b)


def strahler_orders(t: Tree) -> OrderedTree:
    """Annotate every node of ``t`` with its Horton-Strahler order."""
    def node(a: OrderedTree, b: OrderedTree) -> OrderedTree:
        return OrderedTree(_order(a.order, b.order), a, b)

    return _fold(t, OrderedTree(1, None, None), node)


def root_order(t: Tree) -> int:
    return _fold(t, 1, _order)


def branch_counts(t: Tree) -> BranchProfile:
    """Branch profile of ``t``: an order fold over its pre-order nodes.

    The fold runs from the end, where each node follows its two subtrees: a
    leaf pushes order 1, and an internal node pops its children's orders a
    and b and pushes their node order. A branch starts at each leaf and at
    each node whose children share an order a, which heads an order-(a+1)
    branch; so joins[o] counts those nodes, and the profile is (n, joins at
    order 2, joins at order 3, ...) up to the root order, at most
    n.bit_length().
    """
    nodes = _preorder(t)
    n = (len(nodes) + 1) // 2
    joins = [0] * n.bit_length()
    orders = []
    for v in reversed(nodes):
        if v is None:
            orders.append(1)
        else:
            a = orders.pop()
            b = orders[-1]
            if a == b:
                joins[a] += 1
                orders[-1] = a + 1
            elif a > b:
                orders[-1] = a
    return BranchProfile((n, *joins[1 : orders[0]]))


def join(a: tuple, b: tuple) -> tuple:
    """Branch counts of a node whose subtrees have counts a and b. Every
    branch of either subtree stays a branch; the root branch of the higher
    order runs on through the node. Equal root orders r end both root
    branches at the node, which starts one branch of order r + 1."""
    joined = tuple(x + y for x, y in zip_longest(a, b, fillvalue=0))
    return joined + (1,) if len(a) == len(b) else joined


# --- canonical enumeration -------------------------------------------------
#
# Trees of magnitude n are ordered by left-subtree magnitude ascending, then
# recursively by left rank, then right rank. ``_splits`` is that order, the
# one place it is written: the shape table, the profile table and
# enumerate_trees all read it, and unranking follows it, so
# enumerate_trees(n)[i] == unrank_tree(n, i), and unrank_profile(n, i) is
# that tree's branch profile.


def _splits(table: dict, k: int) -> Iterator[tuple]:
    """The (left, right) pairs of magnitude k in canonical order, where
    ``table[m]`` lists the items of magnitude m for every m < k."""
    return chain.from_iterable(product(table[j], table[k - j]) for j in range(1, k))


_tree_lists: dict[int, list] = {1: [LEAF]}


def _all_trees(n: int) -> dict:
    """The canonical shape lists by magnitude, filled up to magnitude n; in
    this table a split pair is the shape."""
    for k in range(len(_tree_lists) + 1, n + 1):
        _tree_lists[k] = list(_splits(_tree_lists, k))
    return _tree_lists


def enumerate_trees(n: int, limit: int = DEFAULT_ENUMERATION_LIMIT) -> Iterator[Tree]:
    """Yield every magnitude-n tree exactly once, in canonical order."""
    if n < 1:
        raise ValueError(f"magnitude must be >= 1, got {n}")
    if n > limit:
        raise EnumerationLimitError(
            f"enumeration of magnitude {n} exceeds the limit {limit}"
        )
    if n == 1:
        yield LEAF
        return
    # Cache levels below n; stream the top level to keep memory flat.
    yield from _splits(_all_trees(n - 1), n)


# Subtrees up to this magnitude are looked up in the enumeration table
# (626 shapes); larger ones split by scanning the blocks.
_UNRANK_TABLE_LIMIT = 8

_SPLIT = object()  # pre-order marker: an internal node awaiting its two subtrees


def _scan_blocks(c: tuple, m: int, rank: int) -> Tuple[int, int]:
    """(left magnitude j, rank within block j) by a scan from the nearer end.

    ``c`` holds the Catalan numbers c_0 .. c_{m-1}. Block j holds
    c_{j-1} c_{m-j-1} trees: symmetric in j <-> m-j and shrinking about 4x
    per step away from either end, so a uniform rank is found in O(1)
    steps on average and each caterpillar level in one.
    """
    total = c[m - 1]
    if 2 * rank < total:
        j, step = 1, 1
    else:
        j, step, rank = m - 1, -1, total - 1 - rank
    while True:
        block = c[j - 1] * c[m - j - 1]
        if rank < block:
            return j, (rank if step == 1 else block - 1 - rank)
        rank -= block
        j += step


def _descend(n: int, rank: int, levels) -> list:
    """Pre-order items of the tree at position ``rank`` of magnitude n.

    Each item is a ``_SPLIT`` marker (an internal node whose left and then
    right subtree follow) or ``table[m][r]``, the shape or the branch counts
    of the subtree of magnitude m <= ``_UNRANK_TABLE_LIMIT`` at rank r;
    ``levels(k)`` returns that table filled up to magnitude k. The two folds,
    ``unrank_tree`` and ``unrank_profile``, describe the same tree:
    enumerate_trees(n)[rank] == unrank_tree(n, rank), and
    unrank_profile(n, rank) == branch_counts(unrank_tree(n, rank)).
    """
    if n < 1:
        raise ValueError(f"magnitude must be >= 1, got {n}")
    c = catalans(n)
    if not 0 <= rank < c[n - 1]:
        raise ValueError(f"rank {rank} out of range for magnitude {n}")
    table = levels(min(n, _UNRANK_TABLE_LIMIT))
    preorder = []
    stack = []
    m = n
    while True:
        if m <= _UNRANK_TABLE_LIMIT:
            preorder.append(table[m][rank])
            if not stack:
                return preorder
            m, rank = stack.pop()
            continue
        j, rank = _scan_blocks(c, m, rank)
        rank, right_rank = divmod(rank, c[m - j - 1])
        preorder.append(_SPLIT)
        stack.append((m - j, right_rank))
        m = j  # the left subtree comes next, at the quotient rank


def unrank_tree(n: int, rank: int) -> Tree:
    """Tree at position ``rank`` of the canonical enumeration of magnitude n."""
    return _assemble(_descend(n, rank, _all_trees))


def _assemble(preorder: list) -> Tree:
    """The tree of a pre-order list of ``_SPLIT`` markers and whole subtrees;
    as in ``_fold``, each marker joins the two subtrees built before it."""
    built: list = []
    for item in reversed(preorder):
        if item is _SPLIT:
            left = built.pop()
            built.append((left, built.pop()))
        else:
            built.append(item)
    return built[0]


def _fold_profile(preorder: list, size: int) -> Tuple[int, ...]:
    """Branch counts of a pre-order list of ``_SPLIT`` markers and the
    branch counts of whole subtrees, whose lengths are their root orders.

    Branch counts add over subtrees, and a split adds a branch only where its
    two subtree roots share an order o: it starts an order-(o+1) branch. So
    the fold sums the subtrees' counts and joins root orders, nothing more.
    ``size`` bounds the root order.
    """
    counts = [0] * size
    orders = []
    for item in reversed(preorder):
        if item is _SPLIT:
            a = orders.pop()
            b = orders.pop()
            if a == b:
                counts[a] += 1
                orders.append(a + 1)
            else:
                orders.append(a if a > b else b)
        else:
            for i, k in enumerate(item):
                counts[i] += k
            orders.append(len(item))
    return tuple(counts[: orders[0]])


# Branch counts of every shape in _tree_lists, in the same places: each
# joined from the counts of its two subtrees.
_profile_lists: dict[int, list] = {1: [(1,)]}


def _all_profiles(n: int) -> dict:
    """The table shapes' branch counts by magnitude, filled up to magnitude n."""
    for k in range(len(_profile_lists) + 1, n + 1):
        _profile_lists[k] = [join(a, b) for a, b in _splits(_profile_lists, k)]
    return _profile_lists


def unrank_profile(n: int, rank: int) -> BranchProfile:
    """Branch profile of ``unrank_tree(n, rank)``, folded from the same
    descent without building the tree."""
    # A root order never exceeds floor(log2 n) + 1, the bit length of n.
    preorder = _descend(n, rank, _all_profiles)
    return BranchProfile(_fold_profile(preorder, n.bit_length()))


# --- text codec -------------------------------------------------------------
#
# Leaf is "*"; an internal node is "(" + left + " " + right + ")". No other
# whitespace, ASCII only.


def encode(t: Tree) -> str:
    out = []
    stack = [t]
    while stack:
        v = stack.pop()
        if v is None:
            out.append("*")
        elif isinstance(v, str):
            out.append(v)
        else:
            stack.append(")")
            stack.append(v[1])
            stack.append(" ")
            stack.append(v[0])
            stack.append("(")
    return "".join(out)


_OPEN = object()  # '(' seen, parsing the left subtree
_MID = object()  # left subtree done, parsing the right


def decode(text: str) -> Tree:
    """Parse the canonical tree text; rejects malformed input with its offset.

    Iterative (explicit stack), so arbitrarily deep chains decode safely.
    """
    n = len(text)
    stack: list = []
    i = 0
    while True:
        if i >= n:
            raise TreeFormatError("unexpected end of input", i)
        c = text[i]
        if c == "(":
            stack.append(_OPEN)
            i += 1
            continue
        if c != "*":
            raise TreeFormatError(f"expected '*' or '(', found {c!r}", i)
        node: Tree = LEAF
        i += 1
        # A subtree just completed; fold it into the enclosing nodes.
        while True:
            if stack and stack[-1] is _MID:
                if i >= n or text[i] != ")":
                    raise TreeFormatError("expected ')'", i)
                i += 1
                stack.pop()
                node = (stack.pop(), node)
                continue
            if stack and stack[-1] is _OPEN:
                if i >= n or text[i] != " ":
                    raise TreeFormatError("expected single space between subtrees", i)
                i += 1
                stack.pop()
                stack.append(node)
                stack.append(_MID)
                break
            # Stack empty: the whole input should be consumed.
            if i != n:
                raise TreeFormatError("trailing characters after tree", i)
            return node
