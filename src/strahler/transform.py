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

from .trees import LEAF, Tree, _flatten, branch_counts, magnitude


_GONE = object()  # marks a removed node during the phi fold


def phi(t: Tree) -> Tree:
    """Remove all leaves of ``t`` and contract the resulting unary chains."""
    if t is None:
        raise ValueError("phi is undefined on a single leaf (magnitude 1)")
    # Fold over the pre-order node list in reverse; children resolve before parents.
    nodes, kids = _flatten(t)
    image: list = [None] * len(nodes)
    for i in range(len(nodes) - 1, -1, -1):
        a, b = kids[i]
        if a < 0:
            image[i] = _GONE  # leaves vanish
        else:
            la, lb = image[a], image[b]
            if la is _GONE and lb is _GONE:
                image[i] = LEAF  # cherry becomes a leaf
            elif la is _GONE:
                image[i] = lb  # unary node contracts onto its child
            elif lb is _GONE:
                image[i] = la
            else:
                image[i] = (la, lb)
    return image[0]


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


def _build(tau: Tree, chain_lengths: tuple, sides: tuple) -> Tree:
    """Assemble one preimage from a chain-length slot vector and a side word.

    Slot i is the edge above the i-th node of ``tau`` in pre-order (slot 0
    sits above the root). The side word is consumed in post-order of slots,
    top chain link first within each slot; side 0 hangs the chain node's
    leaf on the left. Any fixed consumption order enumerates the same set.
    Iterative (explicit stack), so bases of any height are safe.
    """
    side_iter = iter(sides)
    next_slot = 0
    built: list = []  # finished subtrees, right sibling on top
    stack: list = [(tau, -1)]  # (node, its slot, or -1 before it has one)
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
            core: Tree = (LEAF, LEAF)
        else:
            right = built.pop()
            core = (built.pop(), right)
        links = [next(side_iter) for _ in range(chain_lengths[slot])]
        for side in reversed(links):
            core = (LEAF, core) if side == 0 else (core, LEAF)
        built.append(core)
    return built[0]


def preimages(tau: Tree, n: int) -> Iterator[Tree]:
    """Yield every magnitude-n tree T with phi(T) == tau, each exactly once."""
    m = magnitude(tau)
    if n < 2 * m:
        raise ValueError(f"target magnitude {n} cannot reach a base of magnitude {m}")
    chain_total = n - 2 * m
    slots = 2 * m - 1
    for chain_lengths in _compositions(chain_total, slots):
        for sides in product((0, 1), repeat=chain_total):
            yield _build(tau, chain_lengths, sides)
