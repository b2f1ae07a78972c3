"""One round of a workload in a fresh interpreter; prints one JSON document.

Run by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``:

    python3 perfbench/worker.py --workload exact-grid --seed 1 --trace 0 --spawned-at T

``--spawned-at`` is the parent's ``time.time()`` just before it started this
process; set-up time is measured from it to the first answer of the CLI.
Each round is its own process, so module-level caches start cold, as they
do for a user of the command line. Before its first operation and after
each one the worker writes ``probe`` on stdout and waits for a line on
stdin, while the parent times its speed probe (``calibrate.py``); the
round's JSON document is the last line.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time


def _setup(spawned_at: float):
    """Import the CLI and answer the smallest question a user would ask."""
    from strahler import cli

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        cli.main(["expect", "--n", "12", "--r", "2"])
    return time.time() - spawned_at, buffer.getvalue()


def _run_op(op: dict, tracer, engine):
    """(exit code, exception name or None, output, stdout bytes) of one operation."""
    from strahler import cli, sampling, verification

    import workloads

    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        if op["kind"] == "verify":
            (check,) = verification.run_all(
                engine=engine, max_n=op["max_n"], trials=op["trials"], names=[op["name"]]
            )
            out = {"name": check.name, "passed": check.passed, "detail": check.detail,
                   "seconds": check.seconds}
            return 0, None, out, 0
        if op["kind"] == "uniform":
            tally: dict = {}
            for seed in workloads.uniform_seeds(op["trials"]):
                key = repr(sampling.sample_uniform(op["n"], seed))
                tally[key] = tally.get(key, 0) + 1
            return 0, None, tally, 0
        span = tracer.span("cli") if tracer else contextlib.nullcontext()
        with span, contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                rc = cli.main(op["argv"])
            except SystemExit as err:  # argparse rejects usage this way
                rc = err.code if isinstance(err.code, int) else 1
    except Exception as err:  # the operation's outcome, RecursionError included
        return None, type(err).__name__, stdout.getvalue(), 0
    text = stdout.getvalue()
    return rc, None, text, len(text.encode())


def _spot(engine, parse, query: tuple):
    kind, n, r, *rest = query
    if kind == "exact":
        return engine.expectation_exact(n, r, parse(rest[0]))
    if kind == "variance":
        return engine.variance(n, r, mode="exact")
    dist = engine.distribution(n, r, mode="exact")  # kind "dist": (sum, mean)
    return f"{sum(dist.values())} {sum(s * p for s, p in dist.items())}"


def _probe() -> None:
    """Let the parent time its speed probe while this process waits."""
    sys.stdout.write("probe\n")
    sys.stdout.flush()
    sys.stdin.readline()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args(argv)

    import workloads

    setup_s, setup_out = _setup(args.spawned_at)
    from strahler.expectations import ExpectationEngine  # loaded by the CLI already

    ops = workloads.build(args.workload, args.seed)
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    # As ``strahler verify`` builds it: one engine shared by the round's checks.
    engine = ExpectationEngine(exact_limit=1000)
    results = []
    out_bytes = 0
    _probe()
    for op in ops:
        s0 = time.perf_counter()
        rc, error, out, nbytes = _run_op(op, tracer, engine)
        results.append({"id": op["id"], "rc": rc, "error": error, "out": out,
                        "s": time.perf_counter() - s0})
        out_bytes += nbytes
        _probe()

    doc = {
        "setup_s": setup_s,
        "setup_out": setup_out,
        "wall_s": sum(result["s"] for result in results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": results,
    }
    if tracer is not None:
        layers = tracing.layer_metrics(tracer)
        layers["cli.out_bytes"] = out_bytes
        layers.update({f"verification.{name}.s": 0.0 for name in workloads.VERIFY_CHECKS})
        for op, result in zip(ops, results):
            if op["kind"] == "verify" and result["error"] is None:
                layers[f"verification.{op['name']}.s"] = result["out"]["seconds"]
        doc["layers"] = layers
    if any(op["kind"] == "verify" for op in ops):
        # Outside the timed loop: spot values of the engine the checks used,
        # which the benchmark compares with its own references.
        from strahler.observables import parse

        doc["spots"] = [str(_spot(engine, parse, query)) for query in workloads.VERIFY_SPOTS]
    json.dump(doc, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
