"""A short fixed task that tells how fast the machine runs just then.

``run.py`` times ``probe`` in its own process, which never imports strahler,
before each round starts, right after the round's set-up and after each of
its operations, while the round's process waits. So a change to the program
cannot reach the probe, and every operation is bracketed by two probes taken
on the same core. The task is a small fixed mix of the kinds of work the
four workloads do: exact weight rows summed as Fractions of big integers;
float log-gamma rows built as tuple lists with memo-style dict traffic;
every tree shape of magnitude 8 built as nested tuples and walked; and a
scalar loop over numpy int32 arrays like the growth kernel's.

    python3 perfbench/calibrate.py    # prints the seconds of ten probes
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

import numpy as np

_CATALAN = [1]
for _j in range(1, 400):
    _CATALAN.append(_CATALAN[-1] * 2 * (2 * _j - 1) // (_j + 1))


def probe() -> float:
    """Seconds for one pass of the task (about 40 ms on the development machine)."""
    t0 = time.perf_counter()
    total = Fraction(0)
    for n in (200, 300, 400):
        for m in range(1, n // 2 + 1):
            q = n - 2 * m
            weight = Fraction((math.comb(n - 2, q) << q) * _CATALAN[m - 1], _CATALAN[n - 1])
            total += weight * Fraction(m, 2 * m + 1)
    memo = {}
    for n in range(2, 250):
        row = [(m, math.exp(math.lgamma(n) - math.lgamma(m + 1) - math.lgamma(n - m)))
               for m in range(1, n // 2 + 1)]
        memo[(n, 3, "S1")] = math.fsum(w for _, w in row)
    levels = [[], [None]]
    for n in range(2, 9):
        levels.append([(a, b) for j in range(1, n) for a in levels[j] for b in levels[n - j]])
    for tree in levels[8]:
        stack = [tree]
        while stack:
            node = stack.pop()
            if node is not None:
                stack.append(node[0])
                stack.append(node[1])
    parent = np.full(1000, -1, np.int32)
    order = np.ones(1000, np.int32)
    choices = np.arange(12000, dtype=np.int64) * 7919 % 999
    for idx in range(choices.shape[0]):
        v = choices[idx]
        p = parent[v]
        parent[v] = idx % 1000
        if order[v] == order[p]:
            order[p] += 1
    return time.perf_counter() - t0


if __name__ == "__main__":
    print(" ".join(f"{probe():.4f}" for _ in range(10)))
