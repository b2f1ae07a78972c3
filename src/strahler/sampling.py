"""Exact-uniform tree sampling and Monte Carlo estimation.

Uniformity comes from two interchangeable exact schemes:

* magnitude <= 64: draw a uniform big-integer rank below the Catalan count
  and unrank it through the canonical enumeration order;
* larger magnitudes: leaf-insertion growth. Each step picks one of the
  2k - 1 existing nodes and a side uniformly, then grafts a new internal
  node with a fresh leaf there. The step count identity
  (k+1) * c_k = 2 * (2k-1) * c_{k-1} makes every shape equally likely, so
  the result is exactly uniform without big-integer arithmetic.

Randomness is fixed and documented. Trial i of a Monte Carlo run draws
from its own generator keyed by SHA-256(master seed, i): the rank path
seeds the stdlib Mersenne Twister, the growth path seeds a numpy PCG64
generator whose single bulk draw supplies all insertion choices. Streams
are therefore splittable per trial, and any parallel or chunked execution
reproduces the serial result bit for bit.

Neither path builds a tree for a profile. The unrank path folds the rank
descent straight into branch counts (``trees.unrank_profile``). The
growth path tracks Horton-Strahler orders in one kernel over flat
parent/sibling/order lists: grafting above a leaf bumps that spot to
order two, which cascades upward only while each parent's other child
matches the bumped order exactly. A node whose two children share order
o-1 starts an order-o branch, so the kernel keeps ``joins[o]``, the
number of such nodes, up to date at every node the cascade re-evaluates,
and the profile is (n, joins[2], joins[3], ...) with no final scan.
``sample_uniform`` alone needs the tree: it wires the same choices into
child lists without tracking orders and builds it with ``trees._assemble``.
Both loops are plain CPython over Python lists and ints: numpy supplies
only the bulk choice draw, since indexing numpy arrays one scalar at a
time is several times slower than list indexing.

``monte_carlo`` aggregates sampled windows as a multiset and forms the
mean and standard error exactly before the final float conversion, making
the report independent of trial ordering and chunking.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np

from . import trees as trees_mod
from .combinatorics import catalan
from .observables import NonzeroOverZeroError, Observable

UNRANK_LIMIT = 64

_MAX_ORDER = 64  # root order is at most log2(magnitude) + 1


@dataclass(frozen=True)
class SampleConfig:
    n: int
    trials: int
    seed: int
    f: Observable
    r: int = 1

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"magnitude must be >= 1, got {self.n}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.r < 1:
            raise ValueError(f"base order must be >= 1, got {self.r}")


class MonteCarloResult(NamedTuple):
    mean: float
    stderr: Optional[float]  # None for a single trial
    trials: int


class ProfileEvaluationError(ValueError):
    """An observable hit nonzero/0 on a sampled profile; carries the window."""

    def __init__(self, window: tuple, base_order: int):
        super().__init__(
            f"observable is undefined on sampled window {window} at base order {base_order}"
        )
        self.window = window
        self.base_order = base_order


def _child_seed(seed: int, trial: int) -> int:
    digest = hashlib.sha256(f"{seed}:{trial}".encode()).digest()
    return int.from_bytes(digest[:16], "big")


def _growth_choices(n: int, seed: int) -> list:
    """The n-1 insertion choices of one growth run; step k is uniform on [0, 4k-2)."""
    highs = 4 * np.arange(1, n) - 2
    return np.random.default_rng(seed).integers(0, highs).tolist()


def _rank(n: int, seed: int) -> int:
    """The uniform rank below c_{n-1} that the unrank path draws."""
    return random.Random(seed).randrange(catalan(n - 1))


def _grown_profile(n: int, seed: int) -> trees_mod.BranchProfile:
    """Branch profile of one grown tree, from its join counts.

    Node ids follow creation order: step k grafts internal node w = 2k-1
    above the chosen node v, with the fresh leaf 2k as v's new sibling.
    Which side the leaf takes does not change any order, so the kernel
    ignores it. Orders only grow, by at most one per node, so a node whose
    child went from o-1 to o, with the other child at order s, loses the
    order-o join if s = o-1 (and keeps its order), gains an order-(o+1)
    join if s = o (and rises to o+1), takes order o if s < o-1, and is
    unchanged if s > o.
    """
    size = 2 * n - 1
    parent = [-1] * size
    sibling = [-1] * size
    order = [1] * size
    joins = [0] * _MAX_ORDER
    w = -1
    leaf = 0
    for x in _growth_choices(n, seed):
        v = x >> 1
        w += 2
        leaf += 2
        p = parent[v]
        parent[w] = p
        parent[v] = w
        parent[leaf] = w
        s = sibling[v]
        sibling[w] = s
        if s >= 0:
            sibling[s] = w
        sibling[v] = leaf
        sibling[leaf] = v
        o = order[v]
        if o > 1:
            order[w] = o  # the parent sees an unchanged child order
            continue
        order[w] = 2
        joins[2] += 1
        new = 2  # the order the child below p has just risen to
        while p >= 0:
            o = order[s]  # p's other child
            if o > new:
                break
            if o == new - 1:
                joins[new] -= 1
                break
            if o == new:
                new += 1
                joins[new] += 1
            order[p] = new
            s = sibling[p]
            p = parent[p]
    profile = joins[2:]
    while profile[-1] == 0:
        profile.pop()
    return trees_mod.BranchProfile((n, *profile))


def _grown_tree(n: int, seed: int) -> trees_mod.Tree:
    """The grown tree: the choices of ``_grown_profile`` wired into child
    lists, the low bit of each choice putting the fresh leaf on the left,
    then assembled from the lists' pre-order walk."""
    size = 2 * n - 1
    parent = [-1] * size
    left = [-1] * size
    right = [-1] * size
    root = 0
    w = -1
    leaf = 0
    for x in _growth_choices(n, seed):
        v = x >> 1
        w += 2
        leaf += 2
        p = parent[v]
        parent[w] = p
        parent[v] = w
        parent[leaf] = w
        if p < 0:
            root = w
        elif left[p] == v:
            left[p] = w
        else:
            right[p] = w
        if x & 1:
            left[w] = leaf
            right[w] = v
        else:
            left[w] = v
            right[w] = leaf
    preorder = []
    pending = [root]
    while pending:
        v = pending.pop()
        if left[v] < 0:
            preorder.append(trees_mod.LEAF)
        else:
            preorder.append(trees_mod._SPLIT)
            pending.append(right[v])
            pending.append(left[v])
    return trees_mod._assemble(preorder)


def sample_uniform(n: int, seed: int) -> trees_mod.Tree:
    """One tree, exactly uniform over the magnitude-n shapes, fixed by seed."""
    if n < 1:
        raise ValueError(f"magnitude must be >= 1, got {n}")
    if n <= UNRANK_LIMIT:
        return trees_mod.unrank_tree(n, _rank(n, seed))
    return _grown_tree(n, seed)


def _sampled_profile(n: int, child_seed: int) -> trees_mod.BranchProfile:
    """Branch profile of ``sample_uniform(n, child_seed)``, from the same
    stream; neither path builds the tree."""
    if n <= UNRANK_LIMIT:
        return trees_mod.unrank_profile(n, _rank(n, child_seed))
    return _grown_profile(n, child_seed)


def monte_carlo(cfg: SampleConfig) -> MonteCarloResult:
    """Sample mean and standard error of the observable over sampled trees.

    Tree sampling matches ``sample_uniform`` run with the per-trial child
    seeds. Moments are computed as exact rationals over the window
    multiset, so the output is independent of trial ordering.
    """
    arity = cfg.f.arity
    tally: dict[tuple, int] = {}
    for trial in range(cfg.trials):
        window = _sampled_profile(cfg.n, _child_seed(cfg.seed, trial)).window(
            cfg.r, arity
        )
        tally[window] = tally.get(window, 0) + 1

    values: dict = {}
    for window in sorted(tally):
        try:
            values[window] = cfg.f.evaluate(window)
        except NonzeroOverZeroError:
            raise ProfileEvaluationError(window, cfg.r) from None

    mean = Fraction(sum(count * values[w] for w, count in tally.items()), cfg.trials)
    if cfg.trials == 1:
        return MonteCarloResult(float(mean), None, 1)
    ss = sum(count * (values[w] - mean) ** 2 for w, count in tally.items())
    stderr = math.sqrt(ss / (cfg.trials - 1) / cfg.trials)
    return MonteCarloResult(float(mean), stderr, cfg.trials)
