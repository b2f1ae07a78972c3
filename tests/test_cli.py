import contextlib
import csv
import hashlib
import importlib.util
import io
import json
import math
import os
import pathlib
import platform
import shlex
import subprocess
import sys
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from strahler import cli, sampling, verification
from strahler.expectations import ExpectationEngine
from strahler.observables import Observable


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def test_expect_exact_row(capsys):
    code, out, _ = run_cli(capsys, "expect", "--n", "12", "--r", "2", "--f", "S1")
    assert code == 0
    rows = parse_csv(out)
    assert rows == [
        {
            "n": "12",
            "r": "2",
            "f": "S1",
            "value": "22/7",
            "value_decimal": "3.14285714286",
            "mode": "exact",
        }
    ]


def test_expect_trivial_and_square(capsys):
    code, out, _ = run_cli(capsys, "expect", "--n", "5", "--r", "1", "--f", "S1")
    assert parse_csv(out)[0]["value"] == "5"
    code, out, _ = run_cli(capsys, "expect", "--n", "5", "--r", "2", "--f", "S1^2")
    assert parse_csv(out)[0]["value"] == "16/7"


def test_expect_grid_ordering(capsys):
    code, out, _ = run_cli(capsys, "expect", "--n-grid", "4,8,12", "--r", "2")
    rows = parse_csv(out)
    assert [row["n"] for row in rows] == ["4", "8", "12"]


def test_output_is_byte_identical_across_runs(capsys, tmp_path):
    argv = ["sample", "--n", "30", "--r", "2", "--trials", "50", "--seed", "42"]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    path = tmp_path / "table.csv"
    code3, _, _ = run_cli(capsys, *argv, "--out", str(path))
    assert path.read_text() == out1
    assert out1.endswith("\n") and "\r" not in out1


def _run_alone(*argv):
    """Exit code, stdout and stderr of one ``main`` call in a fresh interpreter."""
    script = "import sys\nfrom strahler import cli\nsys.exit(cli.main(sys.argv[1:]))\n"
    done = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), "COLUMNS": "80"},
    )
    return done.returncode, done.stdout, done.stderr


def test_one_parser_serves_every_call(capsys, monkeypatch):
    # main reuses one parser per process: a call with non-default flags
    # leaves nothing behind that a later call with default flags would read.
    monkeypatch.setenv("COLUMNS", "80")  # usage text wraps as in _run_alone
    cli.build_parser.cache_clear()
    assert cli.build_parser() is cli.build_parser()
    for flagged, default in (
        (["expect", "--n", "12", "--r", "2", "--f", "S2/S1", "--format", "json"],
         ["expect", "--n", "12", "--r", "2"]),
        (["sample", "--n", "12", "--trials", "50", "--seed", "7"],
         ["sample", "--n", "12", "--trials", "50"]),
    ):
        assert run_cli(capsys, *flagged)[0] == 0
        assert run_cli(capsys, *default) == _run_alone(*default)
    for argv in (["expect", "--n", "0"], ["expect", "--n", "5", "--bogus"]):
        cli.build_parser.cache_clear()
        calls = []
        for _ in range(2):
            with pytest.raises(SystemExit) as excinfo:
                cli.main(argv)
            calls.append((excinfo.value.code, *capsys.readouterr()))
        assert calls[0] == calls[1] == _run_alone(*argv)


def _decimal12_by_division(value):
    """The rendering as ``Decimal`` division at precision 12 gives it."""
    with localcontext() as ctx:
        ctx.prec = 12
        return str(Decimal(value.numerator) / Decimal(value.denominator))


_digits = st.integers(-(10**40), 10**40)
_scales = st.integers(-40, 40).map(lambda e: Fraction(10) ** e)
_rationals = st.one_of(
    st.builds(Fraction, _digits, st.integers(1, 10**40)),
    # exact quotients: short decimals, binary and quinary fractions, powers of ten
    st.builds(lambda c, s: c * s, st.integers(-(10**14), 10**14), _scales),
    st.builds(Fraction, _digits, st.integers(0, 60).map(lambda k: 2**k)),
    st.builds(Fraction, _digits, st.integers(0, 60).map(lambda k: 5**k)),
    st.builds(lambda sign, s, d: sign * s + d, st.sampled_from((1, -1)), _scales,
              st.sampled_from((0, 1, -1))),
    # ties at the 13th significant digit, and 12 nines rounding up
    st.builds(lambda c, s: Fraction(10 * c + 5) * s, st.integers(-(10**12), 10**12), _scales),
    st.builds(lambda c, s: Fraction(2 * c + 1, 2) * s, st.integers(10**11, 10**12), _scales),
    st.builds(lambda k, s: (10**k - 1) * s / 10, st.integers(12, 14), _scales),
)


@given(_rationals)
def test_decimal12_equals_decimal_division(value):
    assert cli._decimal12(value) == _decimal12_by_division(value)


@settings(max_examples=4, deadline=None)
@given(
    st.builds(lambda m, k, t: m * 10**k + t, st.integers(-(10**6), 10**6).filter(bool),
              st.integers(99_990, 100_010), st.integers(0, 10**6)),
    st.builds(lambda m, k, t: m * 10**k + t, st.integers(1, 10**6),
              st.integers(99_990, 100_010), st.integers(0, 10**6)),
)
def test_decimal12_equals_decimal_division_on_long_operands(top, bottom):
    # 10^5-digit operands, over a small or a long denominator
    for value in (Fraction(top, bottom), Fraction(top)):
        assert cli._decimal12(value) == _decimal12_by_division(value)


def test_csv_and_json_carry_identical_values(capsys):
    _, out_csv, _ = run_cli(capsys, "dist", "--n", "5", "--r", "2")
    _, out_json, _ = run_cli(capsys, "dist", "--n", "5", "--r", "2", "--format", "json")
    csv_rows = parse_csv(out_csv)
    json_rows = json.loads(out_json)
    assert len(csv_rows) == len(json_rows) == 2
    for c_row, j_row in zip(csv_rows, json_rows):
        for key, value in c_row.items():
            assert str(j_row[key]) == value
    assert [row["probability"] for row in csv_rows] == ["4/7", "3/7"]


def test_dist_example_r3(capsys):
    _, out, _ = run_cli(capsys, "dist", "--n", "4", "--r", "3")
    rows = parse_csv(out)
    assert [(row["s"], row["probability"]) for row in rows] == [
        ("0", "4/5"),
        ("1", "1/5"),
    ]


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_examples(capsys):
    # README example -> (its comment, the column values that comment states).
    stated = {
        "expect": ("22/7", {"value": ["22/7"]}),
        "ratio": (
            "394/99 vs expansion 199/50",
            {"ratio": ["394/99"], "asymptotic": ["199/50"]},
        ),
        "dist": ("4/7, 3/7", {"probability": ["4/7", "3/7"]}),
        "enumerate": ("all 14 shapes", {"index": [str(i) for i in range(14)]}),
    }
    examples = {}
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("strahler "):
            command, _, comment = line.partition("#")
            argv = shlex.split(command)[1:]
            examples[argv[0]] = (argv, comment)
    for name, (said, columns) in stated.items():
        argv, comment = examples[name]
        assert said in comment, name
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, argv
        rows = parse_csv(out)
        for column, values in columns.items():
            assert [row[column] for row in rows] == values, argv


def test_ratio_table(capsys):
    code, out, _ = run_cli(capsys, "ratio", "--n", "100", "--r", "1", "--f", "S1")
    row = parse_csv(out)[0]
    assert row["ratio"] == "394/99"
    assert row["asymptotic"] == "199/50"
    assert row["limit"] == "4"


def test_ratio_exact_residual_is_the_exact_difference(capsys):
    # Exact rows print ratio - expansion as one Fraction, not as the
    # difference of two rounded floats.
    code, out, _ = run_cli(
        capsys, "ratio", "--n-grid", "100,300,1000", "--mode", "exact",
        "--max-n", "1000",
    )
    assert code == 0
    for row in parse_csv(out):
        residual = Fraction(row["ratio"]) - Fraction(row["asymptotic"])
        assert row["residual_decimal"] == cli._decimal12(residual), row["n"]


def test_ratio_moment_observable(capsys):
    code, out, _ = run_cli(capsys, "ratio", "--n", "1000", "--r", "1", "--f", "S1^2")
    row = parse_csv(out)[0]
    assert row["asymptotic_decimal"] == "15.968"
    assert row["limit"] == "16"


def test_ratio_constant_observable(capsys):
    code, out, _ = run_cli(capsys, "ratio", "--n-grid", "5,9", "--f", "1")
    rows = parse_csv(out)
    assert all(row["ratio"] == "1" for row in rows)


def test_enumerate_all_shapes(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "4")
    rows = parse_csv(out)
    assert len(rows) == 5
    assert rows[0]["tree"] == "(* (* (* *)))"  # canonical order: left magnitude first
    assert {row["profile"] for row in rows} == {"4 1", "4 2 1"}


def test_enumerate_max_n_sets_its_ceiling(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "6", "--max-n", "6")
    assert code == 0
    assert len(parse_csv(out)) == 42
    code, out, err = run_cli(capsys, "enumerate", "--n", "6", "--max-n", "3")
    assert code == 3
    assert out == ""
    assert err == "error: enumeration of magnitude 6 exceeds the limit 3\n"


def test_exact_values_past_the_int_str_limit_print_whole(capsys):
    # 5^10000 has 6990 digits, past the interpreter's 4300-digit limit on
    # int-to-str conversion.
    code, out, err = run_cli(capsys, "expect", "--n", "5", "--f", "S1^10000")
    assert code == 0, err
    value = parse_csv(out)[0]["value"]
    assert len(value) == 6990 and Decimal(value) == 5**10000
    code, out, err = run_cli(capsys, "ratio", "--n", "5", "--f", "S1^10000")
    assert code == 0, err
    assert Decimal(parse_csv(out)[0]["limit"]) == 4**10000
    code, out, err = run_cli(capsys, "asympt", "--n", "5", "--f", "S1^10000")
    assert code == 0, err
    row = parse_csv(out)[0]
    assert Decimal(row["asymptotic"]) == Decimal(row["exact"]) == 5**10000


@contextlib.contextmanager
def _int_str_digits(limit):
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def _ints_of_bits(bits):
    return st.integers(-(2**bits) + 1, 2**bits - 1)


# Sizes either side of the cut to ``str`` and of the halving steps above it.
_long_ints = st.one_of(
    st.integers(cli._STR_BITS - 70, cli._STR_BITS + 70).flatmap(_ints_of_bits),
    st.integers(2 * cli._STR_BITS - 3, 2 * cli._STR_BITS + 3).flatmap(_ints_of_bits),
    st.integers(1, 40_000).flatmap(_ints_of_bits),
    st.builds(lambda k, t: 10**k + t, st.integers(600, 5000), st.integers(-2, 2)),
)


@settings(max_examples=80, deadline=None)
@given(_long_ints, st.one_of(st.just(1), _long_ints.map(lambda d: abs(d) + 1)))
def test_exact_text_equals_str_without_the_digit_limit(top, bottom):
    value = Fraction(top, bottom)
    with _int_str_digits(0):
        expected = str(top), str(value)
    assert (cli._exact_text(top), cli._exact_text(value)) == expected


def test_exact_text_does_not_depend_on_the_digit_limit():
    values = (-(7**60_000) + 3, Fraction(1, 3**1500), Fraction(2**7000 + 1, 2**7000 - 1))
    with _int_str_digits(0):
        expected = [str(v) for v in values]
    with _int_str_digits(640):  # the least limit the interpreter accepts
        assert [cli._exact_text(v) for v in values] == expected


def test_enumerate_takes_only_the_flags_it_reads(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "3", "--max-n", "3")
    assert code == 0
    assert len(parse_csv(out)) == 2
    for flag in (["--r", "5"], ["--mode", "float"]):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(capsys, "enumerate", "--n", "3", *flag)
        assert excinfo.value.code == 2, flag
        assert "unrecognized arguments" in capsys.readouterr().err


def test_sample_reports_reference(capsys):
    code, out, _ = run_cli(
        capsys, "sample", "--n", "1", "--trials", "5", "--seed", "3", "--f", "S1"
    )
    row = parse_csv(out)[0]
    assert code == 0
    assert row["mean"] == "1"
    assert row["stderr"] == "0"
    assert row["reference"] == "1"


def test_sample_at_a_huge_base_order_answers_zero(capsys):
    # Every order past the root's has count 0, as expect answers there.
    huge = "99999999999999999"
    code, out, _ = run_cli(
        capsys, "sample", "--n", "65", "--r", huge, "--trials", "2", "--seed", "1"
    )
    assert code == 0
    row = parse_csv(out)[0]
    assert (row["mean"], row["stderr"]) == ("0", "0")
    code, expected, _ = run_cli(capsys, "expect", "--n", "65", "--r", huge)
    assert code == 0
    assert row["reference"] == parse_csv(expected)[0]["value_decimal"] == "0"


def test_asympt_table(capsys):
    code, out, _ = run_cli(
        capsys, "asympt", "--n-grid", "50,100,200", "--r", "2", "--f", "S1"
    )
    rows = parse_csv(out)
    assert code == 0
    assert rows[1]["asymptotic"] == "201/8"
    assert rows[0]["k"] == "1"
    slope = float(rows[0]["fitted_slope"])
    assert slope <= -0.7


def test_asympt_fits_residuals_beyond_the_float_range(capsys):
    # The residuals near 1e364 overflow a float; the slope is fitted from
    # their exact logarithms, so the table is printed whole.
    code, out, _ = run_cli(
        capsys, "asympt", "--n-grid", "100,200", "--r", "2", "--f", "S1^200"
    )
    assert code == 0
    rows = parse_csv(out)
    logs = []
    for row in rows:
        residual = Fraction(row["exact"]) - Fraction(row["asymptotic"])
        logs.append(math.log(residual.numerator) - math.log(residual.denominator))
    assert float(rows[0]["fitted_slope"]) == pytest.approx(
        (logs[1] - logs[0]) / math.log(2), abs=1e-3
    )


def test_asympt_honours_mode(capsys):
    exact_columns = ("exact", "exact_decimal", "residual_decimal", "fitted_slope")
    argv = ["asympt", "--n", "100", "--r", "2", "--mode"]
    code, out, _ = run_cli(capsys, *argv, "float")
    assert code == 0
    row = parse_csv(out)[0]
    assert row["asymptotic"] == "201/8"
    assert [row[column] for column in exact_columns] == [""] * 4
    code, out, _ = run_cli(capsys, *argv, "exact")
    assert code == 0
    assert parse_csv(out)[0]["exact"] == "4950/197"
    # Past the exact ceiling, exact mode is a resource limit, as for expect.
    code, out, err = run_cli(
        capsys, "asympt", "--n-grid", "100,400", "--r", "2", "--mode", "exact"
    )
    assert code == 3
    assert out == ""
    assert "exact-mode limit" in err


def test_exit_code_usage_errors(capsys):
    code, _, err = run_cli(capsys, "expect", "--n", "5", "--f", "S1++")
    assert code == 2
    assert "offset" in err
    code, _, err = run_cli(capsys, "expect", "--f", "S1")
    assert code == 2
    with pytest.raises(SystemExit) as excinfo:
        run_cli(capsys, "expect", "--n-grid", "5,4")
    assert excinfo.value.code == 2
    for argv in (
        ["expect", "--n", "0"],
        ["expect", "--n", "5", "--r", "0"],
        ["sample", "--n", "5", "--trials", "0"],
        ["sample", "--n", "0"],
        ["verify", "--trials", "0"],
        ["verify", "--trials", "1"],  # one trial has no standard error
        ["expect", "--n", "5", "--max-n", "-1"],
        ["expect", "--n", "5", "--max-n", "0"],
        ["verify", "--max-n", "-1", "--trials", "5"],
    ):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(capsys, *argv)
        assert excinfo.value.code == 2, argv
    code, _, err = run_cli(
        capsys, "ratio", "--n", "5", "--f", "S2/S1", "--max-n", "60"
    )
    assert code == 2
    assert "at least 121" in err
    deep = "(" * 3000 + "S1" + ")" * 3000
    code, _, err = run_cli(capsys, "expect", "--n", "5", "--f", deep)
    assert code == 2
    assert "offset 100" in err


@pytest.mark.parametrize("command", ["expect", "ratio", "dist", "sample", "enumerate", "asympt"])
def test_n_with_n_grid_is_a_usage_error(capsys, command):
    code, out, err = run_cli(capsys, command, "--n", "5", "--n-grid", "1,2")
    assert code == 2
    assert out == ""
    assert err == "error: --n and --n-grid cannot be given together\n"


def test_exit_code_evaluation_failures(capsys):
    # 1/S2 divides by zero on the single leaf; S1-S1 has no leading term.
    code, _, err = run_cli(capsys, "expect", "--n", "1", "--f", "1/S2")
    assert code == 1
    assert "/ 0" in err
    code, _, err = run_cli(capsys, "ratio", "--n", "5", "--f", "S1-S1")
    assert code == 1
    assert "Laurent" in err


@pytest.mark.parametrize(
    "argv",
    [
        "expect --n 400 --f S1^120",  # auto runs in float past 300
        "expect --n 5000 --f S1^90 --mode float",
        "ratio --n 400 --f S1^150",
        "sample --n 400 --f S1^120 --trials 2",  # the float reference
        "sample --n 100 --f S1^200 --trials 3",  # the float sample mean
    ],
)
def test_float_overflow_is_an_evaluation_failure(capsys, argv):
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "float range" in err and "--mode exact" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, code, value",
    [
        # Level 2 of S1^100 at n = 2000 is its marked-cherry sum, which
        # prints the exact value's 12 digits; at r = 3 the kernel steps
        # over a level-1 table (100^2 > 8 * 1000).
        ("--f S1^100 --n 2000 --r 2", 0, "8.56338036392e+270"),
        ("--f S1^100 --n 2000 --r 3", 0, "1.81450308002e+214"),
        # The sum overflows, and so does the kernel's level-1 table.
        ("--f S1^120 --n 2000 --r 2", 1, None),
        ("--f S1^120 --n 2000 --r 3", 1, None),
        # 171! does not fit a float, so no entry takes the sum.
        ("--f S1^171 --n 4000 --r 2", 1, None),
        # Terms of about 1000^110 cancel to about 4e203: the kernel answers.
        ("--f (S1-500)^110 --n 2000 --r 2", 0, "4.48610717081e+203"),
    ],
)
def test_float_sums_keep_the_exit_codes(capsys, argv, code, value):
    got, out, err = run_cli(capsys, "expect", "--mode", "float", *argv.split())
    assert got == code, err
    if value is None:
        assert out == "" and "float range" in err
    else:
        assert parse_csv(out)[0]["value_decimal"] == value


def test_float_ratio_residual_at_order_one(capsys):
    # E_n[S2] is the marked-cherry sum n (n-1) / (2 (2n-3)), so the float
    # ratio n / E_n[S2] = 4 - 2/n - 2/(n (n-1)) carries its residual against
    # 4 - 2/n to 1e-6, where a kernel row lost 0.45% of it.
    n = 10000
    code, out, _ = run_cli(capsys, "ratio", "--mode", "float", "--r", "1", "--f", "S1",
                           "--n-grid", str(n))
    assert code == 0
    residual = float(parse_csv(out)[0]["residual_decimal"])
    exact = -2 / (n * (n - 1))
    assert abs(residual - exact) <= 1e-6 * abs(exact)


def test_horton_ratio_observable_answers(capsys):
    # S2 >= 1 on every tree of magnitude >= 2, so S1/S2 has an expectation
    # and a sampled mean there.
    for mode in ("exact", "float"):
        code, out, _ = run_cli(capsys, "expect", "--n", "10", "--f", "S1/S2", "--mode", mode)
        assert code == 0
        assert parse_csv(out)[0]["value_decimal"] == "4.19882078706"
        code, out, _ = run_cli(
            capsys, "sample", "--n", "10", "--f", "S1/S2", "--mode", mode,
            "--trials", "5", "--seed", "1",
        )
        assert code == 0
        assert parse_csv(out)[0]["reference"] == "4.19882078706"


# Valid observables (constant, polynomial, rational, multi-variable, one
# that divides by zero at some windows, one identically zero) and malformed
# ones (syntax, variable index, zero divisor, empty).
FUZZ_OBSERVABLES = (
    "S1", "S1^2", "S2/S1", "S1*S2-S3", "1", "1/S2", "S1-S1",
    "S1++", "S0", "(S1", "2/0", "",
    # past the interpreter's 4300-digit int conversion limit: as a value,
    # and as an exponent the parser reads
    "S1^10000", "S1^" + "1" * 5000,
)


@settings(max_examples=150, deadline=None)
@given(
    command=st.sampled_from(("expect", "ratio", "dist", "asympt", "sample")),
    magnitudes=st.one_of(
        st.integers(-3, 40).map(lambda n: ["--n", str(n)]),
        st.lists(st.integers(-3, 40), min_size=1, max_size=4).map(
            lambda grid: ["--n-grid", ",".join(map(str, grid))]
        ),
    ),
    r=st.integers(-1, 5),
    max_n=st.integers(-3, 60),
    f=st.sampled_from(FUZZ_OBSERVABLES),
    mode=st.sampled_from(("exact", "float", "auto")),
    trials=st.integers(-1, 30),
    seed=st.integers(-(2**70), 2**70),
)
def test_cli_fuzz_exit_codes(command, magnitudes, r, max_n, f, mode, trials, seed):
    argv = [command, *magnitudes, "--r", str(r), "--max-n", str(max_n), "--mode", mode]
    if command != "dist":
        argv += ["--f", f]
    if command == "sample":
        argv += ["--trials", str(trials), "--seed", str(seed)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
        io.StringIO()
    ):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    assert code in (0, 1, 2, 3), argv


@settings(max_examples=60, deadline=None)
@given(
    magnitudes=st.one_of(
        st.integers(-3, 10).map(lambda n: ["--n", str(n)]),
        st.lists(st.integers(-3, 10), min_size=1, max_size=3).map(
            lambda grid: ["--n-grid", ",".join(map(str, grid))]
        ),
    ),
    max_n=st.integers(-3, 12),
    fmt=st.sampled_from(("csv", "json")),
)
def test_cli_fuzz_enumerate_exit_codes(magnitudes, max_n, fmt):
    # Bounded apart from the other fuzz test so that no example enumerates
    # a large magnitude (c_9 = 4862 shapes at n = 10).
    argv = ["enumerate", *magnitudes, "--max-n", str(max_n), "--format", fmt]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
        io.StringIO()
    ):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    assert code in (0, 1, 2, 3), argv


@settings(max_examples=20, deadline=None)
@given(max_n=st.integers(-3, 60), trials=st.integers(-1, 50))
def test_cli_fuzz_verify_exit_codes(max_n, trials):
    # Bounded so that each reduced run stays well under a second.
    argv = ["verify", "--max-n", str(max_n), "--trials", str(trials)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
        io.StringIO()
    ):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    assert code in (0, 1, 2), argv


def test_cli_imports_no_scipy():
    # scipy cost a second of start-up for two small routines; keep it out.
    script = (
        "import contextlib, io, sys\n"
        "import strahler, strahler.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = strahler.cli.main(['expect', '--n', '12', '--r', '2'])\n"
        "assert code == 0, code\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_cli_import_loads_neither_split_nor_gf():
    # Both load on an engine's first use; importing the CLI compiles
    # neither, which keeps start-up flat where no bytecode is written.
    script = (
        "import sys\n"
        "import strahler.cli\n"
        "print(sorted(m for m in ('strahler.split', 'strahler.gf') if m in sys.modules))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path),
             "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_setup_query_loads_no_series():
    # expect --n 12 --r 2 takes the marked-cherry sum, which reads the
    # degree of S1 off the observable itself and loads neither the split
    # nor the series module.
    script = (
        "import contextlib, io, sys\n"
        "import strahler.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = strahler.cli.main(['expect', '--n', '12', '--r', '2'])\n"
        "assert code == 0, code\n"
        "print('strahler.split' in sys.modules, 'strahler.gf' in sys.modules)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path),
             "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False False"


# SHA-256 of stdout, recorded before base-2 answers of one-variable
# polynomials became the marked-cherry sum: the same values print the same
# bytes, at r = 2 and wherever r = 2 is read (ratio at r = 1, asympt at
# r = 2, the sample reference, the float rows past the ceiling).
ORDER_TWO_PINS = {
    "expect --r 2 --f S1 --mode exact --n-grid 1,2,3,5,12,40,100,299,300":
        "a42dd896d6d712a1e3b93af3a432be70cbeacee4623b8d5e8bb1ccc9a353a4ca",
    "expect --r 2 --f S1 --mode auto --n-grid 1,2,3,5,12,40,100,299,300":
        "a42dd896d6d712a1e3b93af3a432be70cbeacee4623b8d5e8bb1ccc9a353a4ca",
    "expect --r 2 --f S1^2 --mode exact --n-grid 1,2,3,5,12,40,100,299,300":
        "282d8a7eaf8d73facdd5d2342adb66dadbda4f12e1d41ef4d5055454a552e3bb",
    "expect --r 2 --f S1^2 --mode auto --n-grid 1,2,3,5,12,40,100,299,300":
        "282d8a7eaf8d73facdd5d2342adb66dadbda4f12e1d41ef4d5055454a552e3bb",
    "expect --r 2 --f 2*S1^2+S1/3-5 --mode exact --n-grid 1,2,3,5,12,40,100,299,300":
        "ba2365c2535e198df14d52de6c21ec23dc1500ae32807438ca953c4b4c5fb395",
    "expect --r 2 --f 2*S1^2+S1/3-5 --mode auto --n-grid 1,2,3,5,12,40,100,299,300":
        "ba2365c2535e198df14d52de6c21ec23dc1500ae32807438ca953c4b4c5fb395",
    "expect --r 2 --f S1 --mode auto --n-grid 100,300,301,1000":
        "4b64f50ba067c27a5fe143afebe6b57b7ce29c24ecc46f78965a92512e3170d1",
    "expect --n 12 --r 2": "2de40d4a86d779ffdf156789e9c4b0f4316891b4158d7f1155920a4019d5df6a",
    "expect --r 2 --f S1 --mode exact --n-grid 100,500,1000 --max-n 1000 --format json":
        "ac95d1da97239966e55e211f20b5f12edddd10a517c655c82748bfccd8224b22",
    "ratio --r 1 --f S1 --mode exact --n-grid 10,100,200,300":
        "0fc9a286725381074e8112f04109a259da010342486f16178fffb48575280a12",
    "ratio --r 1 --f S1^2 --mode exact --n-grid 10,100,200,300":
        "2cc171ce72f50f2d599da742166e5de96d43347ba1c149f40c9745937531367c",
    "ratio --r 1 --f S2/S1 --mode exact --n-grid 10,100,200,300":
        "efd8112f9a731d1e3706d420a2f48fa3ad7c57b67553786d067f208c7409982c",
    "ratio --r 1 --f S1*S2-S3 --mode exact --n-grid 10,100,200,300":
        "88666bceb119573f96b2a17ecb2b04b1eb9c9d8fb8a12f36a398b0ca24f547ee",
    "ratio --r 2 --f S1 --mode exact --n-grid 10,100,300":
        "934f33c4aaaacc2984dab7e67a143d525cd2ca1eeb70800632bdd69b00930968",
    "asympt --r 2 --f S1 --n-grid 50,100,200,300":
        "dec48c121594f72427d48611a1b314db992e4ee8c7f43694319af9542c50c3f5",
    "asympt --r 2 --f S1^2 --n-grid 50,100,200,300":
        "dbd243a38484813d14138b2f0d6d641dde63482c222a14de916b8942a264b246",
    "asympt --r 2 --f S1 --max-n 1000 --n-grid 50,100,200,400,800":
        "8da14bb28a9abcc2f87fa601cb98a9b1532abfcdc9953306275ef615c2ff2d97",
    "sample --r 2 --f S1 --n 200 --trials 300 --seed 5":
        "45cf1622f90d5d670437d3ef7f4ebdbc1aa3d25b3a8cfae501de003e1b9014c1",
    "sample --r 2 --f S1^2 --n 48 --trials 300 --seed 5":
        "d949dbc02e5cdccf3020cf5b16ea4e6d7ad42178a8a96121edf174754cd588c7",
}


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("command", list(ORDER_TWO_PINS))
def test_order_two_outputs_are_pinned(capsys, command):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the auto fallback past 300
        code, out, _ = run_cli(capsys, *command.split())
    assert code == 0
    assert _sha256(out) == ORDER_TWO_PINS[command]


def test_verify_details_are_pinned(capsys):
    # Every verdict and detail of a reduced run, without its timings and
    # environment, as recorded with the order-two pins above.
    def strip(value):
        if isinstance(value, dict):
            return {k: strip(v) for k, v in value.items() if k not in ("seconds", "environment")}
        if isinstance(value, list):
            return [strip(v) for v in value]
        return value

    code, out, _ = run_cli(capsys, "verify", "--max-n", "500", "--trials", "200")
    assert code == 1  # the two known red checks
    assert _sha256(json.dumps(strip(json.loads(out)), sort_keys=True)) == (
        "7dc67da5f4cc5fb4ca3af8849c4725a188a0485b07fc243fb021a9b09073876d")


def test_exit_code_resource_limit(capsys):
    code, _, err = run_cli(capsys, "expect", "--n", "400", "--mode", "exact")
    assert code == 3
    code, _, err = run_cli(capsys, "enumerate", "--n", "20")
    assert code == 3
    code, _, _ = run_cli(
        capsys, "expect", "--n", "400", "--mode", "exact", "--max-n", "400"
    )
    assert code == 0


@pytest.mark.parametrize(
    "argv",
    (
        ["expect", "--n", "5"],
        ["ratio", "--n", "5"],
        ["sample", "--n", "5", "--trials", "10"],
        ["asympt", "--n-grid", "50,100"],
    ),
)
def test_out_of_memory_is_a_resource_limit(capsys, monkeypatch, argv):
    # A huge variable index (S99999999999) asks for a window that long; the
    # allocation is simulated, since an overcommitting machine may grant it.
    def exhausted(self, values):
        raise MemoryError

    monkeypatch.setattr(Observable, "evaluate", exhausted)
    code, out, err = run_cli(capsys, *argv, "--f", "S1")
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_sample_fails_fast_without_a_reference(capsys, monkeypatch):
    # No magnitude of the grid is sampled when one reference cannot be had.
    def never(cfg):
        raise AssertionError(f"sampled n={cfg.n} before every reference")

    monkeypatch.setattr(sampling, "monte_carlo", never)
    for magnitudes in (["--n", "400"], ["--n-grid", "10,400"]):
        code, out, err = run_cli(
            capsys, "sample", *magnitudes, "--mode", "exact", "--trials", "20000",
            "--r", "2",
        )
        assert code == 3, magnitudes
        assert out == ""
        assert "exact-mode limit" in err


@pytest.mark.parametrize(
    "argv",
    (
        ["expect", "--n", "5"],
        ["verify", "--max-n", "4", "--trials", "50"],
        ["sample", "--n", "400"],
    ),
)
def test_unwritable_out_is_a_usage_error(capsys, monkeypatch, tmp_path, argv):
    # --out is checked before any work: neither the checks nor the sampler run.
    def never(*args, **kwargs):
        raise AssertionError("work ran before --out was checked")

    monkeypatch.setattr(verification, "run_all", never)
    monkeypatch.setattr(sampling, "monte_carlo", never)
    target = tmp_path / "missing" / "table"
    code, out, err = run_cli(capsys, *argv, "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1] == (
        f"error: cannot write --out {target}: No such file or directory"
    )
    assert list(tmp_path.iterdir()) == []


def test_out_check_creates_and_truncates_nothing(capsys, tmp_path):
    kept, fresh = tmp_path / "kept", tmp_path / "fresh"
    kept.write_text("earlier table\n")
    for target in (kept, fresh):
        code, _, err = run_cli(
            capsys, "expect", "--n", "5", "--f", "1/(S1-5)", "--out", str(target)
        )
        assert code == 1, err
    assert kept.read_text() == "earlier table\n"
    assert not fresh.exists()
    code, _, err = run_cli(capsys, "expect", "--n", "5", "--out", str(tmp_path))
    assert code == 2
    assert err.splitlines()[-1] == f"error: cannot write --out {tmp_path}: Is a directory"


def test_verify_reduced_run_reports_known_failures(capsys):
    # The horton-law and moment-ratio bounds are tighter than the true
    # second-order constants, so a faithful verify run reports exactly those
    # two checks red (see README).
    code, out, err = run_cli(capsys, "verify", "--max-n", "8", "--trials", "2000")
    assert code == 1
    summary = json.loads(out)
    failing = {c["name"] for c in summary["checks"] if not c["passed"]}
    assert failing == {"horton-law", "moment-ratio-law"}
    assert summary["passed"] is False
    assert len(summary["checks"]) == 10
    assert "PASS  oracle-equivalence" in err


def test_verify_json_records_its_environment(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-n", "6", "--trials", "2")
    assert code == 1  # the two known red checks
    assert json.loads(out)["environment"] == {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "cpu_count": os.cpu_count(),
        "limits": {
            "DEFAULT_EXACT_LIMIT": 300,
            "VERIFY_EXACT_LIMIT": 1000,
            "ORACLE_LIMIT": 40,
            "UNRANK_LIMIT": 64,
            "BLOCK_ENTRIES": 1 << 15,
        },
    }


def test_verify_corruption_hook_names_failing_check(capsys, monkeypatch):
    def broken(engine, max_n, trials):
        return ["induced corruption"], "unreachable on failure"

    monkeypatch.setitem(verification.CHECKS, "multiplicity", broken)
    code, out, _ = run_cli(capsys, "verify", "--max-n", "6", "--trials", "500")
    assert code == 1
    summary = json.loads(out)
    named = {c["name"]: c for c in summary["checks"]}
    assert named["multiplicity"]["passed"] is False
    assert named["multiplicity"]["detail"] == "induced corruption"


def test_sampler_check_names_its_two_trial_minimum():
    failures, _ = verification.check_sampler(None, max_n=6, trials=1)
    assert "the MC mean check needs at least 2 trials, got 1" in failures


def test_verify_subset_passes_cleanly():
    results = verification.run_all(
        max_n=8, trials=500, names=["multiplicity", "expansion-reproduction"]
    )
    assert all(r.passed for r in results)


def test_distribution_check_pins_its_passing_detail():
    engine = ExpectationEngine(exact_limit=verification.VERIFY_EXACT_LIMIT)
    for max_n in (None, 500):
        failures, detail = verification.check_distribution_normalization(engine, max_n)
        assert failures == []
        assert detail == "exact normalization and mean identity for n <= 100, r <= 5"


def _distribution_check_with(monkeypatch, corrupt):
    """The distribution check's run_all detail at max_n = 12 when the law of
    n = 10, r = 2 is replaced by ``corrupt(law)``."""
    engine = ExpectationEngine(exact_limit=verification.VERIFY_EXACT_LIMIT)
    distribution = engine.distribution

    def patched(n, r, mode="exact"):
        law = distribution(n, r, mode)
        return corrupt(dict(law)) if (n, r) == (10, 2) else law

    monkeypatch.setattr(engine, "distribution", patched)
    (result,) = verification.run_all(engine, 12, 2, ["distribution-normalization"])
    assert not result.passed
    return result.detail


def test_distribution_check_reports_a_wrong_sum(monkeypatch):
    def perturb(law):
        law[3] += Fraction(1, 1000)
        return law

    detail = _distribution_check_with(monkeypatch, perturb)
    assert detail == (
        "n=10 r=2: probabilities sum to 1001/1000; n=10 r=2: distribution mean mismatch"
    )


def test_distribution_check_reports_a_shifted_mean(monkeypatch):
    def shift(law):
        # One unit of mass 1/1000 moves from S2 = 2 to S2 = 3: the sum stays 1.
        law[2] -= Fraction(1, 1000)
        law[3] += Fraction(1, 1000)
        return law

    assert _distribution_check_with(monkeypatch, shift) == (
        "n=10 r=2: distribution mean mismatch"
    )
