"""Exact-uniform tree sampling and Monte Carlo estimation.

Uniformity comes from two interchangeable exact schemes:

* magnitude <= 64: draw a uniform big-integer rank below the Catalan count
  and unrank it through the canonical enumeration order;
* larger magnitudes: the cycle lemma (Dvoretzky & Motzkin, 1947;
  Dershowitz & Zaks, 1990). A tree of magnitude n is its pre-order word
  of n - 1 splits (+1) and n leaves (-1), valid when every proper prefix
  sums to >= 0 (the whole sums to -1). Of the 2n - 1 rotations of any
  arrangement of those steps exactly one is valid: the one starting just
  after the first minimum of the prefix sums. So a uniform shuffle of the
  steps, rotated there, is an exactly uniform tree, every shape coming
  from 2n - 1 shuffles.

Randomness is fixed and documented. Trial i of a Monte Carlo run draws
from its own generator keyed by SHA-256(master seed, i): the rank path
seeds the stdlib Mersenne Twister; the cycle path seeds a numpy PCG64
generator and takes its ``permutation`` of an int8 array of n - 1 +1s
followed by n -1s, rotated to start after the first ``argmin`` of the
inclusive ``cumsum``. Streams are therefore splittable per trial, and any
parallel or chunked execution reproduces the serial result bit for bit.

Neither path builds a tree for a profile. The unrank path folds the rank
descent straight into branch counts (``trees.unrank_profile``). The cycle
path folds the word over plain ints with ``trees._word_profile``, the fold
that ``trees.branch_counts`` runs over a tree's own word. ``sample_uniform``
alone needs the tree: it maps the same word to ``trees._SPLIT`` markers
and leaves and builds it with ``trees._assemble``.

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


def _rank(n: int, seed: int) -> int:
    """The uniform rank below c_{n-1} that the unrank path draws."""
    return random.Random(seed).randrange(catalan(n - 1))


def _cycle_word(n: int, seed: int) -> list:
    """Pre-order word of one uniform tree of magnitude n: +1 a split, -1 a
    leaf. A seeded shuffle of the steps, rotated to start just after the
    first minimum of its prefix sums (the cycle lemma)."""
    steps = np.ones(2 * n - 1, dtype=np.int8)
    steps[n - 1 :] = -1
    steps = np.random.default_rng(seed).permutation(steps)
    k = int(np.argmin(np.cumsum(steps))) + 1
    return steps[k:].tolist() + steps[:k].tolist()


def sample_uniform(n: int, seed: int) -> trees_mod.Tree:
    """One tree, exactly uniform over the magnitude-n shapes, fixed by seed."""
    if n < 1:
        raise ValueError(f"magnitude must be >= 1, got {n}")
    if n <= UNRANK_LIMIT:
        return trees_mod.unrank_tree(n, _rank(n, seed))
    return trees_mod._assemble(
        [trees_mod._SPLIT if x > 0 else trees_mod.LEAF for x in _cycle_word(n, seed)]
    )


def _sampled_profile(n: int, child_seed: int) -> trees_mod.BranchProfile:
    """Branch profile of ``sample_uniform(n, child_seed)``, from the same
    stream; neither path builds the tree."""
    if n <= UNRANK_LIMIT:
        return trees_mod.unrank_profile(n, _rank(n, child_seed))
    return trees_mod._word_profile(_cycle_word(n, child_seed))


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
