import contextlib
import csv
import io
import json
import math
import os
import pathlib
import shlex
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from strahler import cli, sampling, verification
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
