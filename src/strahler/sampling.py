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

The growth kernel works on flat parent/order/child lists and maintains
Horton-Strahler orders incrementally: grafting above a leaf bumps that
spot to order two, which cascades upward only while each parent's other
child matches the bumped order exactly. It is plain CPython over Python
lists and ints: numpy supplies only the bulk choice draw, since indexing
numpy arrays one scalar at a time is several times slower than list
indexing.

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


def _grow(choices: list, size: int):
    """Growth kernel: returns (parent, left, right, head counts) as lists.

    Node ids follow creation order: step k adds internal node 2k-1 and leaf
    2k; the root is whichever node ends with parent -1. ``counts[o]`` is
    the number of order-o branch heads (nodes whose parent is absent or of
    a different order).
    """
    parent = [-1] * size
    order = [1] * size
    left = [-1] * size
    right = [-1] * size
    w = -1
    leaf = 0
    for x in choices:
        v = x >> 1
        w += 2
        leaf += 2
        p = parent[v]
        parent[w] = p
        parent[v] = w
        parent[leaf] = w
        if p >= 0:
            if left[p] == v:
                left[p] = w
            else:
                right[p] = w
        if x & 1:
            left[w] = leaf
            right[w] = v
        else:
            left[w] = v
            right[w] = leaf
        ov = order[v]
        if ov > 1:
            order[w] = ov  # the parent sees an unchanged child order
            continue
        order[w] = 2
        cur = w
        while True:
            q = parent[cur]
            if q < 0:
                break
            oa = order[left[q]]
            ob = order[right[q]]
            if oa == ob:
                new = oa + 1
            elif oa > ob:
                new = oa
            else:
                new = ob
            if new == order[q]:
                break
            order[q] = new
            cur = q
    counts = [0] * _MAX_ORDER
    for o, p in zip(order, parent):
        if p < 0 or order[p] != o:
            counts[o] += 1
    return parent, left, right, counts


def _grown_profile(n: int, seed: int):
    """(profile, parent, left, right) of one grown tree."""
    parent, left, right, counts = _grow(_growth_choices(n, seed), 2 * n - 1)
    profile = counts[1:]
    while profile and profile[-1] == 0:
        profile.pop()
    return trees_mod.BranchProfile(tuple(profile)), parent, left, right


def _tree_from_arrays(left: list, right: list, root: int) -> trees_mod.Tree:
    # Iterative post-order assembly; children always resolve first.
    out = [root]
    i = 0
    while i < len(out):
        v = out[i]
        if left[v] >= 0:
            out.append(left[v])
            out.append(right[v])
        i += 1
    built: dict[int, trees_mod.Tree] = {}
    for v in reversed(out):
        if left[v] < 0:
            built[v] = trees_mod.LEAF
        else:
            built[v] = (built[left[v]], built[right[v]])
    return built[root]


def sample_uniform(n: int, seed: int) -> trees_mod.Tree:
    """One tree, exactly uniform over the magnitude-n shapes, fixed by seed."""
    if n < 1:
        raise ValueError(f"magnitude must be >= 1, got {n}")
    if n == 1:
        return trees_mod.LEAF
    if n <= UNRANK_LIMIT:
        rank = random.Random(seed).randrange(catalan(n - 1))
        return trees_mod.unrank_tree(n, rank)
    _profile, parent, left, right = _grown_profile(n, seed)
    return _tree_from_arrays(left, right, parent.index(-1))


def _sampled_profile(n: int, child_seed: int) -> trees_mod.BranchProfile:
    """Branch profile of one sampled tree, from the same stream as
    ``sample_uniform``; on the growth path no tree is assembled."""
    if n <= UNRANK_LIMIT:
        return trees_mod.branch_counts(sample_uniform(n, child_seed))
    return _grown_profile(n, child_seed)[0]


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
