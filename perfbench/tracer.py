"""Span tracing from outside the program, for the per-layer metrics.

``install`` replaces public functions of the strahler modules with timing
wrappers, at the module or class attribute each caller looks up, so the
program itself is unchanged. Every call becomes a span (layer, parent,
start, end) kept in compact arrays in memory; ``layer_metrics`` turns the
spans into per-layer figures when the round ends.

A layer's self time is the sum over its spans of each span's duration
minus that of its direct child spans. A call counts once at its outermost
span, so a function that recurses through its own public name (for
example ``trees.unrank_tree``) counts one call per outside caller.

What cannot be seen this way: names another module imported by value
(``catalan`` in ``trees`` and ``sampling``), and private helpers
(``ExpectationEngine._float_weights``, the growth kernel ``sampling._grow``).
Their time lands in the self time of the public caller.
"""

from __future__ import annotations

import functools
import time
from array import array

# Layers whose functions are generators: the span covers each ``next``.
_ITEMS = {"trees.enumerate_trees": "shapes", "transform.preimages": "trees"}


class Tracer:
    def __init__(self):
        self.layers: list[str] = []
        self._ids: dict[str, int] = {}
        self.layer = array("i")
        self.parent = array("i")
        self.nested = array("b")  # 1 when an enclosing span has the same layer
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._depth: list[int] = []
        self.counts: dict[str, int] = {}
        self.weight_ns: set = set()

    def layer_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.layers)
            self.layers.append(name)
            self._depth.append(0)
        return self._ids[name]

    def open(self, lid: int) -> int:
        i = len(self.layer)
        self.layer.append(lid)
        self.parent.append(self._stack[-1])
        self.nested.append(1 if self._depth[lid] else 0)
        self._depth[lid] += 1
        self._stack.append(i)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int):
        self.end[i] = time.perf_counter()
        self._stack.pop()
        self._depth[self.layer[i]] -= 1

    def add(self, key: str, amount: int = 1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def span(self, name: str):
        return _Span(self, self.layer_id(name))

    # -- aggregation -------------------------------------------------------------

    def layer_totals(self) -> dict:
        """layer name -> (outermost calls, self seconds)."""
        n = len(self.layer)
        own = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):  # a span's self time excludes all its direct children
            p = self.parent[i]
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        calls = [0] * len(self.layers)
        self_s = [0.0] * len(self.layers)
        for i in range(n):
            lid = self.layer[i]
            calls[lid] += 0 if self.nested[i] else 1
            self_s[lid] += own[i]
        return {name: (calls[k], self_s[k]) for k, name in enumerate(self.layers)}


class _Span:
    __slots__ = ("tracer", "lid", "i")

    def __init__(self, tracer: Tracer, lid: int):
        self.tracer = tracer
        self.lid = lid

    def __enter__(self):
        self.i = self.tracer.open(self.lid)
        return self

    def __exit__(self, *exc):
        self.tracer.close(self.i)
        return False


def _wrap(tracer: Tracer, owner, attr: str, layer):
    """Replace ``owner.attr`` by a timing wrapper.

    ``layer`` is a layer name, or a function of the call arguments that
    returns one (used to split the sampler by path).
    """
    original = getattr(owner, attr)
    pick = layer if callable(layer) else None
    fixed = None if pick else tracer.layer_id(layer)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        lid = fixed if pick is None else tracer.layer_id(pick(tracer, *args, **kwargs))
        i = tracer.open(lid)
        try:
            return original(*args, **kwargs)
        finally:
            tracer.close(i)

    setattr(owner, attr, wrapper)


def _wrap_generator(tracer: Tracer, owner, attr: str, layer: str):
    original = getattr(owner, attr)
    lid = tracer.layer_id(layer)
    key = f"{layer}.{_ITEMS[layer]}"

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        it = original(*args, **kwargs)
        while True:
            i = tracer.open(lid)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                tracer.close(i)
            tracer.add(key)
            yield item

    setattr(owner, attr, wrapper)


def _weights_layer(tracer, n, *args, **kwargs):
    tracer.weight_ns.add(n)
    return "combinatorics.order2_weights"


def _sampler_layer(tracer, cfg, *args, **kwargs):
    from strahler import sampling

    path = "unrank" if cfg.n <= sampling.UNRANK_LIMIT else "growth"
    tracer.add("sampling.monte_carlo.trees", cfg.trials)
    tracer.add(f"sampling.{path}.trees", cfg.trials)
    return f"sampling.monte_carlo.{path}"


ASYMPTOTICS_PUBLIC = (
    "laurent_at_infinity",
    "coeff_recursion",
    "general_recurrence_closed_form",
    "expectation_asymptotic",
    "ratio_asymptotic",
    "fit_initial_coeffs",
    "log_slope",
    "convergence_report",
    "variance_pipeline_report",
)


def install(tracer: Tracer):
    """Wrap every traced public function; call once per process, before the ops."""
    from strahler import asymptotics, cli, combinatorics, sampling, transform
    from strahler import trees, verification
    from strahler.expectations import ExpectationEngine
    from strahler.observables import Observable

    # ``parse`` is imported by value into cli and verification.
    _wrap(tracer, cli, "parse_observable", "observables.parse")
    _wrap(tracer, verification, "parse", "observables.parse")
    _wrap(tracer, Observable, "evaluate", "observables.evaluate")
    _wrap(tracer, Observable, "bind_first", "observables.bind_first")
    _wrap(tracer, combinatorics, "order2_weights", _weights_layer)
    _wrap(tracer, ExpectationEngine, "expectation_exact", "expectations.exact")
    _wrap(tracer, ExpectationEngine, "expectation_float", "expectations.float")
    _wrap(tracer, ExpectationEngine, "distribution", "expectations.distribution")
    _wrap(tracer, ExpectationEngine, "profile_counts", "expectations.oracle")
    _wrap(tracer, ExpectationEngine, "expectation_bruteforce", "expectations.oracle")
    _wrap_generator(tracer, trees, "enumerate_trees", "trees.enumerate_trees")
    _wrap(tracer, trees, "unrank_tree", "trees.unrank_tree")
    _wrap(tracer, trees, "branch_counts", "trees.branch_counts")
    _wrap_generator(tracer, transform, "preimages", "transform.preimages")
    _wrap(tracer, transform, "phi", "transform.phi")
    _wrap(tracer, sampling, "monte_carlo", _sampler_layer)
    for name in ASYMPTOTICS_PUBLIC:
        _wrap(tracer, asymptotics, name, "asymptotics")


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metric values of one traced round (plain numbers)."""
    totals = tracer.layer_totals()

    def calls(name):
        return totals.get(name, (0, 0.0))[0]

    def secs(name):
        return totals.get(name, (0, 0.0))[1]

    out = {
        "cli.self_s": secs("cli"),
        "observables.parse.s": secs("observables.parse"),
    }
    for name in (
        "observables.evaluate",
        "observables.bind_first",
        "combinatorics.order2_weights",
        "trees.unrank_tree",
        "trees.branch_counts",
        "transform.phi",
    ):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.s"] = secs(name)
    ns = len(tracer.weight_ns)
    out["combinatorics.order2_weights.rows_per_n"] = (
        calls("combinatorics.order2_weights") / ns if ns else 0.0
    )
    for name in ("exact", "float", "distribution"):
        out[f"expectations.{name}.calls"] = calls(f"expectations.{name}")
        out[f"expectations.{name}.self_s"] = secs(f"expectations.{name}")
    out["expectations.oracle.s"] = secs("expectations.oracle")
    for layer, unit in _ITEMS.items():
        key = f"{layer}.{unit}"
        out[key] = tracer.counts.get(key, 0)
        out[f"{layer}.s"] = secs(layer)
    out["sampling.monte_carlo.trees"] = tracer.counts.get("sampling.monte_carlo.trees", 0)
    out["sampling.monte_carlo.self_s"] = secs("sampling.monte_carlo.growth") + secs(
        "sampling.monte_carlo.unrank"
    )
    for path in ("growth", "unrank"):
        trees = tracer.counts.get(f"sampling.{path}.trees", 0)
        spent = secs(f"sampling.monte_carlo.{path}")
        out[f"sampling.{path}.ms_per_tree"] = 1000.0 * spent / trees if trees else 0.0
    out["asymptotics.calls"] = calls("asymptotics")
    out["asymptotics.s"] = secs("asymptotics")
    return out
