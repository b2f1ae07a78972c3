"""Leaf-removal transform and its exhaustive preimage generator.

``phi`` strips every leaf and then contracts single-child nodes; it maps a
magnitude-n tree onto a tree whose magnitude equals the second-order branch
count, shifting every branch order down by one.

``preimages`` inverts that: given a base tree of magnitude m and a target
magnitude n, it yields each of the C(n-2, n-2m) * 2^(n-2m) trees that phi
collapses onto the base. The construction attaches a leaf pair under every
base leaf, distributes the n-2m chain nodes over the 2m-1 parent edges of
the surviving skeleton (weak compositions), and picks a side for each chain
node's leaf. The slot model is pinned by tests against the brute-force
filter of the full enumeration, not assumed.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Iterator

from .trees import LEAF, Tree, _fold, _preorder, branch_counts, magnitude


_GONE = object()  # the phi image of a leaf: the node is removed
_CHERRY: Tree = (LEAF, LEAF)


def _contract(left, right) -> Tree:
    """The phi image of a node from its children's images: a cherry becomes
    a leaf and a unary node contracts onto its child."""
    if left is _GONE:
        return LEAF if right is _GONE else right
    return left if right is _GONE else (left, right)


def phi(t: Tree) -> Tree:
    """Remove all leaves of ``t`` and contract the resulting unary chains."""
    if t is None:
        raise ValueError("phi is undefined on a single leaf (magnitude 1)")
    return _fold(t, _GONE, _contract)


def shift_check(t: Tree) -> bool:
    """True iff the branch profile of phi(t) equals the profile of t shifted down one order."""
    if magnitude(t) < 2:
        raise ValueError("shift_check requires magnitude >= 2")
    return branch_counts(phi(t)).counts == branch_counts(t).counts[1:]


def _compositions(total: int, parts: int) -> Iterator[tuple]:
    """Weak compositions of ``total`` into ``parts`` parts, deterministic order."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for cuts in combinations(range(total + parts - 1), parts - 1):
        bars = (-1, *cuts, total + parts - 1)  # parts - 1 bars among the stars
        yield tuple(b - a - 1 for a, b in zip(bars, bars[1:]))


def _post_order(tau: Tree) -> list:
    """(slot, whether a leaf) of every node of ``tau`` in post-order, where
    slot i is the edge above the i-th node in pre-order (slot 0 sits above
    the root). One pass over the pre-order: a leaf finishes at once, and an
    internal node when its right subtree does."""
    layout = []
    pending = []  # open internal nodes: [slot, whether its left subtree is finished]
    for slot, node in enumerate(_preorder(tau)):
        if node is not None:
            pending.append([slot, False])
            continue
        layout.append((slot, True))
        while pending and pending[-1][1]:
            layout.append((pending.pop()[0], False))
        if pending:
            pending[-1][1] = True
    return layout


def preimages(tau: Tree, n: int) -> Iterator[Tree]:
    """Yield every magnitude-n tree T with phi(T) == tau, each exactly once.

    A preimage is fixed by a chain-length slot vector, one weak composition
    of the n - 2m chain nodes over the slots of ``_post_order``, and a side
    word. Each is built by one pass over the post-order layout, computed
    once per call: a leaf of ``tau`` becomes a cherry and an internal node
    joins the two subtrees built last, and then the chain of its slot wraps
    it. The side word is consumed in post-order of slots, top chain link
    first within each slot; side 0 hangs the chain node's leaf on the left.
    Any fixed consumption order enumerates the same set. The order of the
    compositions, and of the side words within each, is the yield order.
    Iterative, so bases of any height are safe.
    """
    layout = _post_order(tau)
    m = (len(layout) + 1) // 2
    if n < 2 * m:
        raise ValueError(f"target magnitude {n} cannot reach a base of magnitude {m}")
    chain_total = n - 2 * m
    for chain_lengths in _compositions(chain_total, 2 * m - 1):
        # Each node's links are one slice of the side word, in post-order.
        spans = []
        stop = 0
        for slot, leaf in layout:
            start, stop = stop, stop + chain_lengths[slot]
            spans.append((leaf, start, stop))
        for sides in product((0, 1), repeat=chain_total):
            built: list = []  # finished subtrees, right sibling on top
            for leaf, start, stop in spans:
                if leaf:
                    core: Tree = _CHERRY
                else:
                    right = built.pop()
                    core = (built.pop(), right)
                for side in reversed(sides[start:stop]):
                    core = (LEAF, core) if side == 0 else (core, LEAF)
                built.append(core)
            yield built[0]
