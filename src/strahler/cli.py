"""Command-line front end emitting stable CSV/JSON tables.

Subcommands: expect, ratio, dist, sample, enumerate, asympt, verify.
Exact values are emitted both as p/q and as a 12-significant-digit decimal
so downstream plotting never re-derives anything. Identical invocations
produce byte-identical output: fixed column order, fixed formatting, LF
line endings, and rows ordered by ascending magnitude then order.

Exit codes: 0 ok, 1 verification or evaluation failure, 2 usage/parse
error, 3 resource limit exceeded.
"""

from __future__ import annotations

import argparse
import csv
import errno
import io
import json
import os
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

from . import asymptotics as asym
from . import sampling, verification
from . import trees as trees_mod
from .expectations import (
    DEFAULT_EXACT_LIMIT,
    DegenerateRatioError,
    ExpectationEngine,
    LimitExceededError,
)
from .observables import (
    NonzeroOverZeroError,
    ObservableSyntaxError,
    parse as parse_observable,
)
from .trees import DEFAULT_ENUMERATION_LIMIT, EnumerationLimitError

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3


def _decimal12(value) -> str:
    """12-significant-digit decimal rendering, exact Fractions included."""
    if isinstance(value, Fraction):
        with localcontext() as ctx:
            ctx.prec = 12
            return str(Decimal(value.numerator) / Decimal(value.denominator))
    return f"{float(value):.12g}"


def _exact_text(value) -> str:
    """p/q rendering of an exact int or Fraction, as ``str`` gives it but at
    any length: ``Decimal`` writes an int's digits without the interpreter's
    limit on int-to-str conversion."""
    text = str(Decimal(value.numerator))
    if value.denominator != 1:
        text += "/" + str(Decimal(value.denominator))
    return text


def _emit(rows: list, args):
    """Write a non-empty table as CSV or JSON; its columns are the first row's keys."""
    if args.format == "json":
        text = json.dumps(rows, indent=2) + "\n"
    else:
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        text = buffer.getvalue()
    _write(text, args.out)


def _write(text: str, out_path):
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as err:
        raise _UsageError(f"cannot write --out {out_path}: {err.strerror}") from None


def _check_out(out_path):
    """Raise the usage error ``_write`` would raise for a missing or
    unwritable directory, an unwritable file or a directory, before any work
    is done; the file is neither created nor truncated."""
    directory = os.path.dirname(out_path) or "."
    if os.path.isdir(out_path):
        code = errno.EISDIR
    elif not os.path.isdir(directory):
        code = errno.ENOTDIR if os.path.exists(directory) else errno.ENOENT
    elif not os.access(out_path if os.path.exists(out_path) else directory, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise _UsageError(f"cannot write --out {out_path}: {os.strerror(code)}")


class _UsageError(Exception):
    pass


def _grid(args) -> list:
    if args.n_grid is not None:
        if args.n is not None:
            raise _UsageError("--n and --n-grid cannot be given together")
        return args.n_grid
    if args.n is None:
        raise _UsageError("one of --n or --n-grid is required")
    return [args.n]


def _parse_grid(text: str) -> list:
    try:
        values = [int(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError("grid entries must be integers")
    if not values or any(v < 1 for v in values):
        raise argparse.ArgumentTypeError("grid entries must be positive")
    if any(a >= b for a, b in zip(values, values[1:])):
        raise argparse.ArgumentTypeError("grid must be strictly ascending")
    return values


def _int_at_least(low: int):
    """An argparse type: an integer of at least ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


_positive_int = _int_at_least(1)


def _engine(args) -> ExpectationEngine:
    return ExpectationEngine(exact_limit=args.max_n or DEFAULT_EXACT_LIMIT)


def _observable(args):
    try:
        return parse_observable(args.f)
    except ObservableSyntaxError as err:
        raise _UsageError(f"bad observable: {err}") from None


def cmd_expect(args) -> int:
    engine = _engine(args)
    f = _observable(args)
    rows = []
    for n in _grid(args):
        mode = engine.mode_for(n, args.mode)
        value = engine.expectation(n, args.r, f, mode)
        rows.append(
            {
                "n": n,
                "r": args.r,
                "f": f.text,
                "value": _exact_text(value) if mode == "exact" else "",
                "value_decimal": _decimal12(value),
                "mode": mode,
            }
        )
    _emit(rows, args)
    return EXIT_OK


def _ratio_init(engine, f):
    if f.arity == 1:
        return asym.laurent_at_infinity(f)
    fit_ns = sorted({min(n, engine.exact_limit) for n in (120, 200, 300)})
    if len(fit_ns) < 2:
        raise _UsageError(
            f"fitting {f.text} needs exact values at two magnitudes; "
            f"--max-n {engine.exact_limit} leaves one (use at least 121)"
        )
    return asym.fit_initial_coeffs(engine, f, fit_ns)


def cmd_ratio(args) -> int:
    engine = _engine(args)
    f = _observable(args)
    init = _ratio_init(engine, f)
    rows = []
    for n in _grid(args):
        mode = engine.mode_for(n, args.mode)
        ratio = engine.bifurcation_ratio(n, args.r, f, mode=mode)
        expansion = asym.ratio_asymptotic(init, args.r, n)
        rows.append(
            {
                "n": n,
                "r": args.r,
                "f": f.text,
                "ratio": _exact_text(ratio) if mode == "exact" else "",
                "ratio_decimal": _decimal12(ratio),
                "asymptotic": _exact_text(expansion.value),
                "asymptotic_decimal": _decimal12(expansion.value),
                "limit": _exact_text(expansion.limit),
                "residual_decimal": _decimal12(ratio - expansion.value),
                "mode": mode,
            }
        )
    _emit(rows, args)
    return EXIT_OK


def cmd_dist(args) -> int:
    engine = _engine(args)
    rows = []
    for n in _grid(args):
        mode = engine.mode_for(n, args.mode)
        table = engine.distribution(n, args.r, mode=mode)
        for s, prob in sorted(table.items()):
            rows.append(
                {
                    "n": n,
                    "r": args.r,
                    "s": s,
                    "probability": _exact_text(prob) if mode == "exact" else "",
                    "probability_decimal": _decimal12(prob),
                    "mode": mode,
                }
            )
    _emit(rows, args)
    return EXIT_OK


def cmd_sample(args) -> int:
    engine = _engine(args)
    f = _observable(args)
    modes = {n: engine.mode_for(n, args.mode) for n in _grid(args)}
    # Every reference before any sampling, so one that cannot be had fails fast.
    references = {n: engine.expectation(n, args.r, f, mode) for n, mode in modes.items()}
    rows = []
    for n, mode in modes.items():
        cfg = sampling.SampleConfig(
            n=n, trials=args.trials, seed=args.seed, f=f, r=args.r
        )
        result = sampling.monte_carlo(cfg)
        rows.append(
            {
                "n": n,
                "r": args.r,
                "f": f.text,
                "trials": result.trials,
                "seed": args.seed,
                "mean": f"{result.mean:.12g}",
                "stderr": "" if result.stderr is None else f"{result.stderr:.12g}",
                "reference": _decimal12(references[n]),
                "mode": mode,
            }
        )
    _emit(rows, args)
    return EXIT_OK


def cmd_enumerate(args) -> int:
    limit = args.max_n or DEFAULT_ENUMERATION_LIMIT
    rows = []
    for n in _grid(args):
        for index, tree in enumerate(trees_mod.enumerate_trees(n, limit)):
            profile = trees_mod.branch_counts(tree)
            rows.append(
                {
                    "n": n,
                    "index": index,
                    "tree": trees_mod.encode(tree),
                    "magnitude": profile.magnitude,
                    "order": profile.order,
                    "profile": " ".join(map(str, profile.counts)),
                }
            )
    _emit(rows, args)
    return EXIT_OK


def cmd_asympt(args) -> int:
    engine = _engine(args)
    f = _observable(args)
    init = _ratio_init(engine, f)
    coeffs = asym.coeff_recursion(init, args.r)
    grid = _grid(args)
    exact_ns = [n for n in grid if engine.mode_for(n, args.mode) == "exact"]
    report = asym.convergence_report(engine, f, args.r, exact_ns, init)
    measured = {row.n: row for row in report.rows}
    slope = "" if report.fitted_slope is None else f"{report.fitted_slope:.6g}"
    rows = []
    for n in grid:
        expansion = asym.expectation_asymptotic(init, args.r, n)
        point = measured.get(n)
        rows.append(
            {
                "n": n,
                "r": args.r,
                "f": f.text,
                "k": init.k,
                "a_r": _exact_text(coeffs.a_r),
                "b_r": _exact_text(coeffs.b_r),
                "asymptotic": _exact_text(expansion),
                "asymptotic_decimal": _decimal12(expansion),
                "exact": _exact_text(point.exact) if point else "",
                "exact_decimal": _decimal12(point.exact) if point else "",
                "residual_decimal": _decimal12(point.residual) if point else "",
                "fitted_slope": slope,
            }
        )
    _emit(rows, args)
    return EXIT_OK


def cmd_verify(args) -> int:
    results = verification.run_all(max_n=args.max_n, trials=args.trials)
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{status}  {result.name}: {result.detail}", file=sys.stderr)
    summary = {
        "passed": all(r.passed for r in results),
        "checks": [
            {
                "name": r.name,
                "passed": r.passed,
                "detail": r.detail,
                "seconds": round(r.seconds, 3),
            }
            for r in results
        ],
    }
    _write(json.dumps(summary, indent=2) + "\n", args.out)
    return EXIT_OK if summary["passed"] else EXIT_FAILURE


def _add_common(sub, with_query=True, with_f=True, with_sampling=False):
    sub.add_argument("--n", type=_positive_int, help="single magnitude")
    sub.add_argument(
        "--n-grid", type=_parse_grid, help="comma-separated ascending magnitudes"
    )
    if with_query:
        sub.add_argument(
            "--r", type=_positive_int, default=1, help="base branch order (default 1)"
        )
        if with_f:
            sub.add_argument("--f", default="S1", help='observable, e.g. "S2/S1"')
        sub.add_argument(
            "--mode",
            choices=("exact", "float", "auto"),
            default="auto",
            help="arithmetic mode (auto: exact up to the ceiling, then float)",
        )
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--out", help="output path (default stdout)")
    sub.add_argument(
        "--max-n",
        type=_positive_int,
        help="set the exact and enumeration ceilings",
    )
    if with_sampling:
        sub.add_argument("--seed", type=int, default=42)
        sub.add_argument("--trials", type=_positive_int, default=10000)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strahler",
        description="Branch-order statistics of the uniform random binary-tree model",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    expect = subparsers.add_parser("expect", help="expectation of an observable")
    _add_common(expect)
    expect.set_defaults(func=cmd_expect)

    ratio = subparsers.add_parser("ratio", help="bifurcation ratio vs its expansion")
    _add_common(ratio)
    ratio.set_defaults(func=cmd_ratio)

    dist = subparsers.add_parser("dist", help="distribution of a branch count")
    _add_common(dist, with_f=False)
    dist.set_defaults(func=cmd_dist)

    sample = subparsers.add_parser("sample", help="Monte Carlo estimate")
    _add_common(sample, with_sampling=True)
    sample.set_defaults(func=cmd_sample)

    enumerate_cmd = subparsers.add_parser(
        "enumerate", help="canonical enumeration of all shapes"
    )
    _add_common(enumerate_cmd, with_query=False)
    enumerate_cmd.set_defaults(func=cmd_enumerate)

    asympt = subparsers.add_parser("asympt", help="asymptotic expansion table")
    _add_common(asympt)
    asympt.set_defaults(func=cmd_asympt)

    verify = subparsers.add_parser("verify", help="run the acceptance checks")
    verify.add_argument(
        "--max-n", type=_positive_int, help="clamp all magnitude grids"
    )
    verify.add_argument(
        "--trials", type=_int_at_least(2), default=verification.SAMPLER_TRIALS,
        help="sampler trials, at least 2 (default 100000)",
    )
    verify.add_argument("--out", help="JSON summary path (default stdout)")
    verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.out:
            _check_out(args.out)
        return args.func(args)
    except _UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (LimitExceededError, EnumerationLimitError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_LIMIT
    except MemoryError:
        # A window as long as a huge variable index (S99999999999), say.
        print("error: out of memory; the query is too large to compute", file=sys.stderr)
        return EXIT_LIMIT
    except (
        DegenerateRatioError,
        NonzeroOverZeroError,
        asym.ExpansionError,
        sampling.ProfileEvaluationError,
    ) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_FAILURE
    except OverflowError:
        print(
            "error: a value is outside the float range; "
            "expect --mode exact with --max-n computes it exactly",
            file=sys.stderr,
        )
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
