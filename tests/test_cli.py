import contextlib
import hashlib
import io
import json
import math
from collections import Counter
import os
import re
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from degderange.identities import IdentityId

CMD = [sys.executable, "-m", "degderange"]

# the options, beyond --lambda and --n-max, that each table selector reads
TABLE_READS = {"derangement": "x", "derangement-poly": "", "derangement-order": "xr",
               "stirling1": "m", "stirling2": "m", "fubini": "x", "bell": "x", "falling": "x"}


def run_cli(*args, env=None):
    return subprocess.run(
        CMD + list(args), capture_output=True, text=True, env=env, timeout=300
    )


def test_table_classical_derangements():
    out = run_cli("table", "derangement", "--lambda", "0", "--n-max", "4")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["schema_version"] == 1
    assert doc["command"] == "table"
    assert [r["value"] for r in doc["results"]] == ["1", "0", "1", "2", "9"]


def test_table_deformed_derangements():
    out = run_cli("table", "derangement", "--lambda", "1/2", "--n-max", "2")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert [r["value"] for r in doc["results"]] == ["1", "0", "3/2"]


def test_table_falling_at_zero():
    out = run_cli("table", "falling", "--x", "0", "--lambda", "1/3", "--n-max", "5")
    doc = json.loads(out.stdout)
    assert [r["value"] for r in doc["results"]] == ["1", "0", "0", "0", "0", "0"]


def test_table_csv_format_and_no_decimals():
    out = run_cli(
        "table", "derangement", "--lambda", "1/2", "--n-max", "6", "--format", "csv"
    )
    assert out.returncode == 0
    lines = out.stdout.strip().splitlines()
    assert lines[0] == "n,value"
    assert len(lines) == 8
    # exactness at the boundary: no decimal-point rationals anywhere
    assert "." not in out.stdout
    assert re.fullmatch(r"-?\d+(/\d+)?", lines[3].split(",")[1])


def test_table_poly_output():
    out = run_cli("table", "derangement-poly", "--lambda", "0", "--n-max", "2")
    doc = json.loads(out.stdout)
    assert doc["results"][2]["coeffs"] == ["1", "0", "1"]


def test_table_stirling_needs_m():
    out = run_cli("table", "stirling2", "--lambda", "1/2", "--n-max", "4")
    assert out.returncode == 2
    assert out.stderr
    out = run_cli("table", "stirling2", "--lambda", "1/2", "--n-max", "4", "--m", "1")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert [r["value"] for r in doc["results"]] == ["0", "1", "1/2", "0", "0"]


def test_table_order_selector():
    out = run_cli(
        "table", "derangement-order", "--lambda", "1/2", "--r", "2", "--n-max", "3"
    )
    assert out.returncode == 0
    out = run_cli("table", "derangement-order", "--lambda", "1/2", "--n-max", "3")
    assert out.returncode == 2


def test_bad_rational_is_config_error():
    out = run_cli("table", "derangement", "--lambda", "1/0", "--n-max", "3")
    assert out.returncode == 2
    out = run_cli("table", "derangement", "--lambda", "zap", "--n-max", "3")
    assert out.returncode == 2


def test_bad_selector_is_usage_error():
    out = run_cli("table", "nonsense", "--lambda", "0")
    assert out.returncode == 2


def test_verify_ok_and_mutate():
    out = run_cli("verify", "--identities", "THM5", "--n-max", "12")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["results"]["passed"] is True
    assert doc["results"]["cases_run"] > 0
    out = run_cli(
        "verify", "--identities", "THM5,THM2_REC", "--n-max", "6", "--mutate"
    )
    assert out.returncode == 1
    doc = json.loads(out.stdout)
    assert doc["results"]["failures"]


def test_verify_unknown_identity():
    out = run_cli("verify", "--identities", "THM99")
    assert out.returncode == 2


def test_verify_jobs_deterministic():
    base = run_cli("verify", "--identities", "THM3", "--n-max", "8")
    par = run_cli("verify", "--identities", "THM3", "--n-max", "8", "--jobs", "2")
    assert base.stdout == par.stdout


def test_certify_roundtrip():
    out = run_cli("certify", "--identities", "THM2_REC", "--n-max", "5")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert all(doc["results"][0]["certified"].values())
    out = run_cli("certify", "--identities", "THM2_REC", "--n-max", "5", "--mutate")
    assert out.returncode == 1


def test_gamma_check_thm11():
    out = run_cli("gamma-check", "thm11", "--lambda", "1/4", "--n-max", "4")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert all(r["passed"] for r in doc["results"])
    assert doc["results"][0]["exact_target"] == "3/4"


def test_gamma_check_gammafn():
    out = run_cli("gamma-check", "gammafn", "--k", "2", "--lambda", "1/4")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["results"][0]["exact_target"] == "8/3"


def test_gamma_check_domain_violation():
    out = run_cli("gamma-check", "gammafn", "--k", "2", "--lambda", "3/4")
    assert out.returncode == 2


def test_gamma_check_normalization():
    out = run_cli(
        "gamma-check", "normalization", "--lambda", "1/5", "--alpha", "2", "--beta", "1"
    )
    assert out.returncode == 0


@pytest.mark.parametrize("beta", ["nan", "inf"])
def test_gamma_check_non_finite_beta_is_a_domain_error(beta, capsys):
    # exit 2 with a domain error, as --beta 0 does, not a quadrature failure
    from degderange import cli

    argv = ["gamma-check", "normalization", "--lambda=1/4", "--alpha", "1.5", "--beta"]
    assert cli.main(argv + [beta]) == 2
    assert capsys.readouterr() == ("", f"error: beta must be finite, got {beta}\n")
    assert cli.main(argv + ["0"]) == 2
    assert capsys.readouterr() == ("", "error: beta must be positive, got 0.0\n")


def test_normalization_past_the_float_range_of_the_density_factors(capsys):
    # (bx)^(alpha-1) overflows at alpha = 99.5, and at beta = 1e300 an
    # infinite b (bx)^(alpha-1) meets a tail that underflowed to 0.0: each
    # check ends in one error: line or in a document, never a traceback or
    # a NaN partial estimate
    from degderange import cli

    argv = ["gamma-check", "normalization", "--lambda=1/100", "--alpha", "99.5"]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and "nan" not in err
    argv = ["gamma-check", "normalization", "--lambda=1/5", "--alpha", "1.5", "--beta", "1e300"]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert err == ""
    (result,) = json.loads(out)["results"]
    assert result["passed"] is False and math.isfinite(result["numeric_value"])


def test_sample_deterministic_bytes():
    a = run_cli("sample", "--lambda", "1/4", "--seed", "42", "--count", "50")
    b = run_cli("sample", "--lambda", "1/4", "--seed", "42", "--count", "50")
    assert a.returncode == 0
    assert a.stdout == b.stdout
    c = run_cli("sample", "--lambda", "1/4", "--seed", "43", "--count", "50")
    assert c.stdout != a.stdout


def test_sample_csv():
    out = run_cli(
        "sample", "--lambda", "1/4", "--seed", "1", "--count", "3", "--format", "csv"
    )
    lines = out.stdout.strip().splitlines()
    assert lines[0] == "sample"
    assert len(lines) == 4


# SHA-256 of sample --lambda 1/4 --seed 42 --format csv at counts on both
# sides of the write chunk (8192 samples) and at 100,000 samples: the header
# alone at count 0, and the bytes that csv.writer wrote one row at a time.
# The samples are the ppf of random.Random(42)'s uniforms, so these bytes
# depend only on CPython's Mersenne Twister and on libm's expm1 and log1p.
SAMPLE_CSV_DIGESTS = [
    (0, "aaf9ff488e0767da5ea1d56118e6f65a16c5633b0cefc1fa089bd3ab1810613d"),
    (1, "0f2b0833062d0b2905586bab2f0bf2e64bda29da1c6639fd7dfba8b07e2cfb34"),
    (8191, "0f6f88bea947bcf57431b22090efbdc9d53c4c5c0867c127d3677f990814871a"),
    (8192, "5a65f15a0f6361415292a8fb72958d582141aeff3436eeccff21156dbae78478"),
    (8193, "e3e6a357a681957501713746dd990e923e098856f25aa00c0ee44d334a4ae7e5"),
    (100_000, "26daf324c3b54f97b5577a082991e072b47a06fe1e89dc39a825313d5d7e3903"),
]
SAMPLE_ARGV = ["sample", "--lambda", "1/4", "--seed", "42", "--format", "csv"]


@pytest.mark.parametrize("count, digest", SAMPLE_CSV_DIGESTS, ids=[str(c) for c, _ in SAMPLE_CSV_DIGESTS])
def test_sample_csv_bytes_are_unchanged(count, digest, capsys):
    from degderange import cli

    assert cli.SAMPLE_CHUNK == 8192  # the counts above straddle it
    assert cli.main(SAMPLE_ARGV + ["--count", str(count)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_sample_csv_out_file_bytes_are_unchanged(tmp_path, capsys):
    from degderange import cli

    target = tmp_path / "s.csv"
    assert cli.main(SAMPLE_ARGV + ["--count", "8193", "--out", str(target)]) == 0
    assert capsys.readouterr() == ("", "")
    digest = dict(SAMPLE_CSV_DIGESTS)[8193]
    assert hashlib.sha256(target.read_bytes()).hexdigest() == digest


def test_sample_csv_draws_at_most_a_chunk_at_a_time(monkeypatch, capsys):
    """The csv path draws its uniforms SAMPLE_CHUNK at a time from one
    generator, so memory stays flat in --count; the json path keeps one
    draw of the whole list."""
    from degderange import cli, probability

    drawn = 0
    draws = []

    class Counting(probability.Random):
        def random(self):
            nonlocal drawn
            drawn += 1
            return super().random()

    real_blocks = probability.sample_deg_gamma11_blocks

    def recording(*args):
        # the uniforms drawn since the last block was handed over
        for block in real_blocks(*args):
            draws.append(drawn - sum(draws))
            assert len(block) == draws[-1]
            yield block

    monkeypatch.setattr(probability, "Random", Counting)
    monkeypatch.setattr(probability, "sample_deg_gamma11_blocks", recording)
    count = 3 * cli.SAMPLE_CHUNK + 5
    assert cli.main(SAMPLE_ARGV + ["--count", str(count)]) == 0
    assert draws == [cli.SAMPLE_CHUNK] * 3 + [5]
    csv_rows = capsys.readouterr().out.splitlines()[1:]
    draws.clear()
    drawn = 0
    assert cli.main(SAMPLE_ARGV[:-2] + ["--count", str(count)]) == 0
    assert draws == [count]
    assert [repr(v) for v in json.loads(capsys.readouterr().out)["results"]["samples"]] == csv_rows


def test_sample_domain():
    out = run_cli("sample", "--lambda", "3/2", "--seed", "1", "--count", "3")
    assert out.returncode == 2


def test_sample_negative_seed_is_config_error():
    # exit 2 with one error line, not the samples of the seed's absolute value
    out = run_cli("sample", "--lambda", "1/4", "--seed", "-1", "--count", "3")
    assert (out.returncode, out.stdout, out.stderr) == (2, "", "error: --seed must be >= 0\n")


def _main_output(argv):
    from degderange import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=2000)
@given(
    lam=st.one_of(
        st.sampled_from(["0", "1", "-1", "-1/4", "1/4", "0.25", "2/7", "1/0", "0/0", "-3/0",
                         "", " ", "abc", "1//2", "1/4/2", "nan", "inf", "--", "--1"]),
        st.builds("{}/{}".format, st.integers(-5, 5), st.integers(-2, 5)),
        st.floats(0, 1).map(repr),
        st.text(alphabet="0123456789/-. ae", max_size=6),
    ),
    seed=st.one_of(st.sampled_from([-1, 0, 2**200]), st.integers(0, 2**64)),
    count=st.integers(-1, 1000),
    fmt=st.sampled_from(["json", "csv"]),
)
@example(lam="1e-400", seed=0, count=3, fmt="csv")  # a float underflow to 0
@example(lam="0.99999999999999999999", seed=0, count=3, fmt="json")  # rounds to 1
@example(lam="999/1000", seed=0, count=3, fmt="csv")  # samples past the float range
@example(lam="999/1000", seed=0, count=3, fmt="json")
def test_sample_exits_0_or_2_with_repeatable_bytes(lam, seed, count, fmt):
    argv = ["sample", f"--lambda={lam}", f"--seed={seed}", f"--count={count}", f"--format={fmt}"]
    code, out, err = _main_output(argv)
    assert code in (0, 2), (code, err)
    assert "Traceback" not in out + err
    if code == 2:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    elif fmt == "csv":
        assert err == ""
        assert out.count("\n") == count + 1
    else:
        assert err == ""
        assert len(json.loads(out)["results"]["samples"]) == count
    assert _main_output(argv) == (code, out, err)


@pytest.mark.parametrize(
    "argv",
    [
        "table derangement --lambda=--",
        "table derangement --n-max=--",
        "verify --x-grid=--",
        "certify --identities=--",
        "gamma-check thm11 --lambda=--",
        "sample --lambda=1/4 --out=--",
    ],
)
def test_double_dash_option_value_is_config_error(argv, capsys):
    # argparse hands an option whose value is "--" an empty list: one error
    # line and exit 2, not a TypeError or AttributeError traceback
    from degderange import cli

    assert cli.main(argv.split()) == 2
    assert capsys.readouterr() == ("", "error: an option value cannot be '--'\n")


@pytest.mark.parametrize(
    "argv",
    [
        "verify --bogus 1",
        "verify --n-max abc",
        "table",
        "table nope",
        "gamma-check thm11",
        "",
        "certify --n-max",
    ],
)
def test_argparse_rejections_are_one_error_line(argv, capsys):
    # an unknown option, a bad int, a missing or invalid choice, no
    # subcommand and a missing value: argparse's own rejections end like
    # every other exit 2, with no usage block
    from degderange import cli

    assert cli.main(argv.split()) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


def test_argparse_rejection_exits_2_and_help_exits_0():
    out = run_cli("verify", "--bogus", "1")
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr == "error: unrecognized arguments: --bogus 1\n"
    out = run_cli("verify", "--help")
    assert out.returncode == 0 and out.stdout.startswith("usage: degderange verify")
    assert out.stderr == ""


@pytest.mark.parametrize("argv", [["certify", "--help"], ["--help"], ["table", "-h"]])
def test_help_in_process_returns_0_with_the_cli_text(argv, monkeypatch):
    """main returns help's status instead of raising SystemExit, and prints
    what the command line prints."""
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = _main_output(argv)
    assert (code, err) == (0, "")
    assert out.startswith("usage: degderange")
    cmd = run_cli(*argv, env={**os.environ, "COLUMNS": "80"})
    assert (cmd.returncode, cmd.stdout, cmd.stderr) == (0, out, "")


@pytest.mark.parametrize("sel", list(TABLE_READS))
def test_table_refuses_the_options_its_selector_ignores(sel):
    """Each of --x, --r and --m is taken by the selectors that read it and
    refused by the others with one error line and exit 2."""
    reads = TABLE_READS[sel]
    given = {"x": "--x=3/4", "r": "--r=2", "m": "--m=3"}
    base = ["table", sel, "--lambda=2/7", "--n-max=3", *(given[o] for o in reads)]
    code, out, err = _main_output(base)
    assert (code, err) == (0, ""), err
    for option in sorted(set(given) - set(reads)):
        code, out, err = _main_output(base + [given[option]])
        assert (code, out, err) == (2, "", f"error: {sel} takes no --{option}\n")


def test_out_file_and_env_dir(tmp_path):
    target = tmp_path / "t.json"
    out = run_cli(
        "table", "derangement", "--lambda", "0", "--n-max", "2", "--out", str(target)
    )
    assert out.returncode == 0
    assert json.loads(target.read_text())["command"] == "table"

    env = dict(os.environ, DEGDERANGE_OUT_DIR=str(tmp_path))
    out = run_cli(
        "table", "derangement", "--lambda", "0", "--n-max", "2",
        "--out", "rel.json", env=env,
    )
    assert out.returncode == 0
    assert (tmp_path / "rel.json").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "derangement", "--n-max", "2"],
        ["table", "derangement", "--n-max", "2", "--format", "csv"],
        ["verify", "--identities", "THM2_REC", "--n-max", "3"],
        ["certify", "--identities", "THM2_REC", "--n-max", "3"],
        ["gamma-check", "gammafn", "--k", "2", "--lambda=1/4"],
        ["sample", "--lambda=1/4", "--count", "3"],
        ["sample", "--lambda=1/4", "--count", "3", "--format", "csv"],
    ],
)
def test_out_file_holds_the_stdout_bytes(argv, tmp_path, capsys):
    # a JSON document ends in its newline in a file as on stdout
    from degderange import cli

    assert cli.main(argv) == 0
    stdout = capsys.readouterr().out
    target = tmp_path / "out"
    assert cli.main(argv + ["--out", str(target)]) == 0
    assert capsys.readouterr() == ("", "")
    assert target.read_bytes() == stdout.encode()


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "derangement", "--n-max", "2"],
        ["table", "derangement", "--n-max", "2", "--format", "csv"],
        ["sample", "--lambda=1/4", "--count", "3"],
        ["sample", "--lambda=1/4", "--count", "3", "--format", "csv"],
    ],
)
def test_unwritable_out_is_config_error(argv, tmp_path, capsys):
    # one error line and exit 2, not an OSError traceback and the exit 1 of
    # a failed check
    from degderange import cli

    missing = tmp_path / "missing" / "x.out"
    for path, reason in ((missing, "No such file or directory"), (tmp_path, "Is a directory")):
        assert cli.main(argv + ["--out", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: cannot write {path}: {reason}\n")


def test_negative_rational_as_separate_token():
    # the README example: "-1/3" must not be taken for an option
    glued = run_cli(
        "table", "stirling2", "--lambda=-1/3", "--m", "2", "--n-max", "10", "--format", "csv"
    )
    spaced = run_cli(
        "table", "stirling2", "--lambda", "-1/3", "--m", "2", "--n-max", "10", "--format", "csv"
    )
    assert glued.returncode == spaced.returncode == 0
    assert spaced.stdout == glued.stdout
    grid = run_cli(
        "verify", "--identities", "THM2_REC", "--n-max", "3",
        "--lambda-grid", "-1/2,1/3", "--x-grid", "-2,3/4",
    )
    assert grid.returncode == 0
    params = json.loads(grid.stdout)["params"]
    assert params["lambda_grid"] == ["-1/2", "1/3"]
    assert params["x_grid"] == ["-2", "3/4"]
    out = run_cli("table", "falling", "--x", "-3/2", "--lambda", "-1/2", "--n-max", "2")
    assert out.returncode == 0
    assert json.loads(out.stdout)["params"]["x"] == "-3/2"


def test_jobs_below_one_is_config_error():
    out = run_cli("verify", "--identities", "THM3", "--n-max", "2", "--jobs", "0")
    assert out.returncode == 2
    assert "--jobs" in out.stderr


@pytest.mark.parametrize("jobs", ["2", "-1"])
def test_gamma_check_has_no_jobs_option(jobs):
    """--jobs belongs to verify alone: gamma-check rejects it as an unknown
    argument, before any check runs."""
    out = run_cli("gamma-check", "thm11", "--lambda=1/4", "--n-max", "1", "--jobs", jobs)
    assert out.returncode == 2
    assert out.stdout == ""
    assert f"unrecognized arguments: --jobs {jobs}" in out.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--identities", "THM2_REC", "--n-max", "0"],
        ["verify", "--identities", "THM2_REC,LEMMA6", "--n-max", "0", "--jobs", "2"],
        ["certify", "--identities", "THM2_REC,LEMMA6", "--n-max", "0"],
    ],
)
def test_a_selection_with_no_case_to_run_is_config_error(argv, capsys):
    # each selected identity starts at n = 1: no document, one error line
    from degderange import cli

    assert cli.main(argv) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == (
        "", "error: no case to run: every identity starts past n_max = 0\n"
    )


@pytest.mark.parametrize("n_max", ["-1", "257"])
def test_n_max_out_of_range_is_config_error(n_max, capsys):
    from degderange import cli

    for argv in (
        ("table", "derangement", "--lambda", "1/2"),
        ("verify", "--identities", "THM3"),
        ("certify", "--identities", "THM3"),
        ("gamma-check", "thm11", "--lambda", "1/4"),
        ("gamma-check", "expansion", "--lambda", "1/4"),
    ):
        top = {"certify": 64, "gamma-check": 170}.get(argv[0], 256)
        assert cli.main([*argv, "--n-max", n_max]) == 2, argv
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", f"error: --n-max must lie in [0, {top}]\n"), argv


def test_certify_n_max_is_capped_at_64(capsys):
    """certify's cost grows steeply with n, so its --n-max stops at 64, below
    the bound of the other subcommands."""
    from degderange import cli

    argv = ["certify", "--identities", "THM2_REC_X0", "--n-max"]
    assert cli.main(argv + ["65"]) == 2
    assert capsys.readouterr() == ("", "error: --n-max must lie in [0, 64]\n")
    assert cli.main(argv + ["64"]) == 0
    assert json.loads(capsys.readouterr().out)["results"][0]["certified"]["64"] is True


@pytest.mark.parametrize("check", ["thm11", "expansion"])
def test_gamma_check_n_max_stops_at_the_float_range(check, monkeypatch, capsys):
    """(1-lam) n! is compared as a float, and 171! is past the largest one:
    --n-max 171 is refused before any quadrature runs."""
    from degderange import _quadpack, cli

    def no_quad(*args):
        raise AssertionError("quadrature ran")

    monkeypatch.setattr(_quadpack, "quad", no_quad)
    argv = ["gamma-check", check, "--lambda=1/80", "--m-cap", "171", "--n-max", "171"]
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", "error: --n-max must lie in [0, 170]\n")


@pytest.mark.parametrize("k, lam", [(172, "1/1000000000"), (171, "1/200")])
def test_gammafn_target_past_the_float_range_is_config_error(k, lam, monkeypatch, capsys):
    """(k-1)!/prod_{i<=k}(1 - i lam) is compared as a float; past the
    largest one the target is refused before any quadrature runs."""
    from degderange import _quadpack, cli

    def no_quad(*args):
        raise AssertionError("quadrature ran")

    monkeypatch.setattr(_quadpack, "quad", no_quad)
    assert cli.main(["gamma-check", "gammafn", "--k", str(k), f"--lambda={lam}"]) == 2
    assert capsys.readouterr() == ("", "error: the exact target is past the float range\n")


def test_verify_r_max_is_capped_at_max_n(capsys):
    """--r-max stops at identities.MAX_N = 256; below 1 keeps its message."""
    from degderange import cli

    argv = ["verify", "--identities", "THM9_VS_SERIES", "--n-max", "2", "--r-max"]
    for r_max, message in (("257", "--r-max must be <= 256"), ("0", "--r-max must be >= 1")):
        assert cli.main(argv + [r_max]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


def test_jobs_capped_at_cpu_count(monkeypatch, capsys):
    import multiprocessing.process

    from degderange import cli, identities

    sizes = []

    class RecordingPool:
        """Stands in for ProcessPoolExecutor: records the worker count and
        maps in this process, so no worker is ever started."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    def no_start(process):
        raise AssertionError("a worker process was started")

    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_start)
    assert cli.main(["verify", "--identities", "THM3", "--n-max", "4", "--jobs", "64"]) == 0
    assert cli.main(["verify", "--identities", "THM3", "--n-max", "4", "--jobs", "2"]) == 0
    assert sizes == [3, 2]
    capsys.readouterr()
    # the library caps its worker count as the CLI does
    assert identities.verify_grid([identities.IdentityId.THM3], n_max=4, jobs=64).ok
    assert sizes == [3, 2, 3]


def test_quadrature_failure_exits_1(monkeypatch, capsys, fresh_quadratures):
    """Each QUADPACK failure code ends the check with exit 1 and one
    ``error:`` line: scipy's texts, which hold newlines and indents, are
    printed with their whitespace folded.  The partial estimate is the
    moment's, (1 - lam) times the integral's 0.5."""
    from degderange import _quadpack, cli, probability

    limit = probability.QuadratureSpec().max_subdivisions
    for ier in range(1, 6):
        monkeypatch.setattr(_quadpack, "quad", lambda *args, ier=ier: (0.5, 1.0, 21, ier))
        assert cli.main(["gamma-check", "thm11", "--lambda", "1/4"]) == 1
        text = " ".join(_quadpack.message(ier, limit).split())
        assert capsys.readouterr() == ("", f"error: {text} (partial estimate 0.375)\n"), ier
    assert text == "The integral is probably divergent, or slowly convergent."


def test_roundoff_failure_of_a_real_input_is_one_error_line():
    """At alpha = 99.5, lam = 1/100 the density's mass stops on roundoff in
    the extrapolation table (ier 4), whose text spans four lines.  The
    gammafn check at lam = 10^-9, which stopped on roundoff (ier 2) while
    its integrand held a power of 1 + lam*x, passes."""
    out = run_cli("gamma-check", "normalization", "--lambda=1/100", "--alpha", "99.5")
    assert (out.returncode, out.stdout) == (1, "")
    assert out.stderr.startswith("error: The algorithm does not converge. Roundoff error is detected ")
    assert out.stderr.count("\n") == 1 and "  " not in out.stderr
    from degderange import _quadpack

    assert len(_quadpack.message(4, 200).splitlines()) == 4
    out = run_cli("gamma-check", "gammafn", "--k", "2", "--lambda=1/1000000000")
    assert (out.returncode, out.stderr) == (0, "")
    assert json.loads(out.stdout)["results"][0]["passed"] is True


def test_gammafn_at_lam_49_100_is_close():
    """Gamma_lam(2) at lam = 49/100, where the tail decays like e^(-u/50):
    the power (1 + lam*x)^(-1/lam) of the product form left rel_error
    3.5e-7; the log form is within a few ulps."""
    out = run_cli("gamma-check", "gammafn", "--k", "2", "--lambda=49/100")
    assert (out.returncode, out.stderr) == (0, "")
    (result,) = json.loads(out.stdout)["results"]
    assert result["passed"] is True and result["rel_error"] < 1e-14


@pytest.mark.parametrize(
    "argv", [["verify", "--n-max", "4"], ["table", "derangement", "--n-max", "64", "--format", "csv"]]
)
def test_closed_stdout_exits_141_without_traceback(argv):
    """A reader that closes the pipe before the output is written (as
    ``| head`` does) ends the command with 128 + SIGPIPE, not with the exit
    code of a failed check, and with nothing on stderr."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        out = subprocess.run(
            CMD + argv, stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=300
        )
    finally:
        os.close(write_end)
    assert (out.returncode, out.stderr) == (141, "")


def test_gamma_check_thm11_builds_each_memo_row_once(monkeypatch, capsys):
    """Top n first: each (memo, key) row the moment checks read is built
    once, to n_max, not again at every n."""
    from degderange import cli, sequences

    memos = {id(v): v for v in vars(sequences).values() if isinstance(v, sequences._Memo)}
    grows = Counter()
    for i, memo in enumerate(memos.values()):

        def counted(key, n, grow=memo.grow, i=i):
            grows[i, key] += 1
            return grow(key, n)

        monkeypatch.setattr(memo, "rows", {})
        monkeypatch.setattr(memo, "grow", counted)

    assert cli.main(["gamma-check", "thm11", "--lambda=1/5", "--n-max", "8"]) == 0
    capsys.readouterr()
    assert grows and set(grows.values()) == {1}


# SHA-256 of stdout for every table selector in both formats, with the --x,
# --r and --m values echoed in params.  The output bytes are a contract (see
# the README's output contract): a refactor of the table path must keep them.
TABLE_DIGESTS = [
    ("derangement --lambda 2/7 --x 3/4 --n-max 12 --format json",
     "02272d1c5be838549c2e4a03add99406ee8244bba39776f59d883bf83cb51818"),
    ("derangement --lambda -1/3 --n-max 12 --format json",
     "4ff12f2e989c8bc79690d650d64922ee6b91c8635bce34c97816b11243d4af40"),
    ("derangement-poly --lambda 2/7 --n-max 6 --format json",
     "1218afb0118a2e71530e39d14b6d32eb409004b5b1bda8a4128e26ddd9fd6c1d"),
    ("derangement-order --lambda 2/7 --r 2 --x -2 --n-max 12 --format json",
     "039abff1b7882619bfb180189fd5151e6b90847746d985bde4c588f0954ff388"),
    ("derangement-order --lambda -1/3 --r 3 --n-max 12 --format json",
     "3c46f4171a4354f9d8b1ca811cc7b8010cd5d584ec06d8399e98404588999dab"),
    ("stirling1 --lambda 2/7 --m 3 --n-max 12 --format json",
     "d1f4c043b0428c761f390fb8684cf9af337a2c846fc1c95641385b7340c0b0e1"),
    ("stirling2 --lambda -1/3 --m 2 --n-max 12 --format json",
     "429df415511c4f350e9c9be6d16e7dbaf51b991bd10dae840b640bfbf6b3a6c9"),
    ("fubini --lambda 2/7 --n-max 12 --format json",
     "2a14204fa41ff9e6508a9d5a707846d710da2f720f2fc375a6c938acced6e769"),
    ("fubini --lambda -1/3 --x -3/4 --n-max 12 --format json",
     "871b5f0867a677d16b32dfc94c87458e480ba57e6a3995e0ec9d9f4238b36de0"),
    ("bell --lambda 2/7 --x 5/2 --n-max 12 --format json",
     "7dab8a2a6dd69237b27b9dd2ad76bc1fd6f42fe9edf92c772282e3744100088a"),
    ("bell --lambda -1/3 --n-max 12 --format json",
     "062d0df40f09d58dd13723594b856e7fc6188f6eec7fe061f518945092c5bb09"),
    ("falling --lambda 2/7 --n-max 12 --format json",
     "34fccb2150bbd8a5a8f8931116a8a466e4e1d4aaa6d90eec383d4db045333b11"),
    ("falling --lambda -1/3 --x -2 --n-max 12 --format json",
     "3e96b0dcced42944e992203289d221c218cd684465ff3a8e102e36aa1d66e953"),
    ("derangement --lambda 2/7 --x 3/4 --n-max 12 --format csv",
     "3c8431e35f389b653777320f7329a65cd7a0b0f5c6a0dbef17ac8655c6d25bbe"),
    ("derangement --lambda -1/3 --n-max 12 --format csv",
     "f2e6e5c6d2b7e7208e401197b253a2465fe8404728b1d1d29aadd81a797a2dde"),
    ("derangement-poly --lambda 2/7 --n-max 6 --format csv",
     "65afa3e5c26b2fd5addc41bc9a7b0db9c8868dbfbd68c4f2dfafe5a860071052"),
    ("derangement-order --lambda 2/7 --r 2 --x -2 --n-max 12 --format csv",
     "9212965245aad78ab40ab4813c77c9a3194967af9e508aaddb971f9d24b48295"),
    ("derangement-order --lambda -1/3 --r 3 --n-max 12 --format csv",
     "dce4039d788cfd18db985f700f0135b100db6b30a33552167cdd8cd5c9a2b982"),
    ("stirling1 --lambda 2/7 --m 3 --n-max 12 --format csv",
     "df53471e967a02efade80fdac041d7d67da6c4e2beda791ff8314078cb98be24"),
    ("stirling2 --lambda -1/3 --m 2 --n-max 12 --format csv",
     "402f81377fb3d52a11d60318bcdaed77cbcc98727ef3b6b9b5971b4de609d873"),
    ("fubini --lambda 2/7 --n-max 12 --format csv",
     "4cd7f94f6e0116193504afed4646479d219447eaa579a7cb9b1dd585dc828209"),
    ("fubini --lambda -1/3 --x -3/4 --n-max 12 --format csv",
     "3db2c98c0f2ecc361991b89e14e037d26475696f3cedcc7ce1713c10a8551386"),
    ("bell --lambda 2/7 --x 5/2 --n-max 12 --format csv",
     "d5e873c0bcd43a68d5646a779d3b4c9a634ce82d36d84d37b2485aae30649a26"),
    ("bell --lambda -1/3 --n-max 12 --format csv",
     "cda2c5e79c68e65ff6bf93bf7489ad59883964b470f769f477de0f006a91abe7"),
    ("falling --lambda 2/7 --n-max 12 --format csv",
     "f467d9877b4fd35bf5e9955551b726c6955565143093e800cd4ecc21db939008"),
    ("falling --lambda -1/3 --x -2 --n-max 12 --format csv",
     "a1c73310e53e73ab42d628cb21aee692f2146b056529174cd0427a6fb39b6f48"),
    # one column of each Stirling triangle to n = 256, at --m 0, 3 and past
    # the last row (300), recorded when the table still read its column from
    # the full memoised triangle
    ("stirling1 --lambda 2/7 --m 0 --n-max 256 --format json",
     "f8c7459ec8a5aa36bb89026bec5ca7e8cca579a5ddea61673e51b89c638fbdcc"),
    ("stirling1 --lambda 2/7 --m 0 --n-max 256 --format csv",
     "954cf508d71055f3c5793f93ba7dddf40a1b009b7d25c40a32e7c6ca5f1fc39f"),
    ("stirling1 --lambda 2/7 --m 3 --n-max 256 --format json",
     "1cccb3a8cc088fc56aa997bfb7ee6d12afa79a6594a035ec27510bd63c534ae8"),
    ("stirling1 --lambda 2/7 --m 3 --n-max 256 --format csv",
     "0e0b74deb6b806b950654ae556601e481a670759115698ac48ff20e9ba10f4f6"),
    ("stirling1 --lambda 2/7 --m 300 --n-max 256 --format json",
     "dfa9259be6d4094db61d681462bd6c40af19b55b884b8689beb7d8b5bf07949b"),
    ("stirling1 --lambda 2/7 --m 300 --n-max 256 --format csv",
     "bd523c17712789f5e897295ec7087e26c9389fe68f22476b7325cbdccc84464a"),
    ("stirling1 --lambda -1/3 --m 0 --n-max 256 --format json",
     "6e4b2aaef39ab837b9d5956790b30c9476046bced0f8fadc7a6f5e4614ad9390"),
    ("stirling1 --lambda -1/3 --m 0 --n-max 256 --format csv",
     "954cf508d71055f3c5793f93ba7dddf40a1b009b7d25c40a32e7c6ca5f1fc39f"),
    ("stirling1 --lambda -1/3 --m 3 --n-max 256 --format json",
     "1b94144d7e656d7e2c0a1ec0f3a746171d018c509c03d5bac71089289ad4540a"),
    ("stirling1 --lambda -1/3 --m 3 --n-max 256 --format csv",
     "7ddd273b343d52699077a66a1dae450a374b1df15945dd5d191c0b086aebfc65"),
    ("stirling1 --lambda -1/3 --m 300 --n-max 256 --format json",
     "038c6f953c8068d58bad3204189241c6b8f6291d1ca7c1a7c214f0739a15ce6f"),
    ("stirling1 --lambda -1/3 --m 300 --n-max 256 --format csv",
     "bd523c17712789f5e897295ec7087e26c9389fe68f22476b7325cbdccc84464a"),
    ("stirling1 --lambda 0 --m 0 --n-max 256 --format json",
     "40408bf8c3f270509e89087df0867a38454a2a860c9b3ab06802386fc2ea1b34"),
    ("stirling1 --lambda 0 --m 0 --n-max 256 --format csv",
     "954cf508d71055f3c5793f93ba7dddf40a1b009b7d25c40a32e7c6ca5f1fc39f"),
    ("stirling1 --lambda 0 --m 3 --n-max 256 --format json",
     "617711d33646e4d97ef9a626df69236d86dac66f06f924709b7cd822b409bacd"),
    ("stirling1 --lambda 0 --m 3 --n-max 256 --format csv",
     "1fbe42b784b3f3c90b3cc290c79da1be68aba556ac55ea46c58c060d0254965d"),
    ("stirling1 --lambda 0 --m 300 --n-max 256 --format json",
     "98f57bcfa03dadfd237f139e8c602a4189b13fa7c69e0ccf48a718963d1cd2c7"),
    ("stirling1 --lambda 0 --m 300 --n-max 256 --format csv",
     "bd523c17712789f5e897295ec7087e26c9389fe68f22476b7325cbdccc84464a"),
    ("stirling2 --lambda 2/7 --m 0 --n-max 256 --format json",
     "dbf18bf6f31c8debfedd29d28e395c234fc117c8ef352ca442f15bcb072fac37"),
    ("stirling2 --lambda 2/7 --m 0 --n-max 256 --format csv",
     "954cf508d71055f3c5793f93ba7dddf40a1b009b7d25c40a32e7c6ca5f1fc39f"),
    ("stirling2 --lambda 2/7 --m 3 --n-max 256 --format json",
     "e3efc97bb12a24d9028f56aa6b0d03e904b03ec73e0457fa6f24a2f0261e685a"),
    ("stirling2 --lambda 2/7 --m 3 --n-max 256 --format csv",
     "f5cadb2b406308da0ab2983b15556310b12f61de383593cf50f98d7c7da7b391"),
    ("stirling2 --lambda 2/7 --m 300 --n-max 256 --format json",
     "1a52c2b5d50ec14abca81b7f172d5d0b173bced54116bbc84bc7ffdafe9920e2"),
    ("stirling2 --lambda 2/7 --m 300 --n-max 256 --format csv",
     "bd523c17712789f5e897295ec7087e26c9389fe68f22476b7325cbdccc84464a"),
    ("stirling2 --lambda -1/3 --m 0 --n-max 256 --format json",
     "b530021e36ee1a9dc6d61256489c0103a587787c3eafb182679a2268849da939"),
    ("stirling2 --lambda -1/3 --m 0 --n-max 256 --format csv",
     "954cf508d71055f3c5793f93ba7dddf40a1b009b7d25c40a32e7c6ca5f1fc39f"),
    ("stirling2 --lambda -1/3 --m 3 --n-max 256 --format json",
     "c69ebc824bbe281c398402e58634b4082144a0a64fdf8f0c203702e58a99be70"),
    ("stirling2 --lambda -1/3 --m 3 --n-max 256 --format csv",
     "90452f9293154a025968e43f96f6d882a01e21b8d07040828c976894b1eaf95b"),
    ("stirling2 --lambda -1/3 --m 300 --n-max 256 --format json",
     "d06c9f0c8d26701b9d3947e35b4bf81cb000d003a2bdcff8c52a8f1c488ae379"),
    ("stirling2 --lambda -1/3 --m 300 --n-max 256 --format csv",
     "bd523c17712789f5e897295ec7087e26c9389fe68f22476b7325cbdccc84464a"),
    ("stirling2 --lambda 0 --m 0 --n-max 256 --format json",
     "22eebd50fb0ab1f5827e93504d3c81892762f8623aa36720076a2badee8d47c3"),
    ("stirling2 --lambda 0 --m 0 --n-max 256 --format csv",
     "954cf508d71055f3c5793f93ba7dddf40a1b009b7d25c40a32e7c6ca5f1fc39f"),
    ("stirling2 --lambda 0 --m 3 --n-max 256 --format json",
     "c936bd6eff6947372f63f03c4f04cc0359deba7e06cc6ba415a5fd35db324f5c"),
    ("stirling2 --lambda 0 --m 3 --n-max 256 --format csv",
     "2e0c95096eb6fd6ec452d71adefb3523ee5d4bc83e5af2c73df8c68fd870e66f"),
    ("stirling2 --lambda 0 --m 300 --n-max 256 --format json",
     "b1b6503bda62c9c1f1a749e9b5180954424a60604324751753a220611ce4cf0b"),
    ("stirling2 --lambda 0 --m 300 --n-max 256 --format csv",
     "bd523c17712789f5e897295ec7087e26c9389fe68f22476b7325cbdccc84464a"),
    # n = 256 at a nonzero lambda: the same commands and digests as the
    # benchmark's high-order tables
    ("fubini --lambda=2/7 --n-max 256",
     "3e18b8c76219d86575f7cf1e12f9f6d4d433725e922371b35d64d2ec44a196aa"),
    ("bell --lambda=2/7 --n-max 256",
     "914c3187d81c2052a4d74fffd3c4b67cbc38ec3a2f821998ce2a7a0fecff3c36"),
    ("stirling1 --lambda=2/7 --n-max 256 --m 3",
     "1cccb3a8cc088fc56aa997bfb7ee6d12afa79a6594a035ec27510bd63c534ae8"),
    ("stirling2 --lambda=2/7 --n-max 256 --m 3",
     "e3efc97bb12a24d9028f56aa6b0d03e904b03ec73e0457fa6f24a2f0261e685a"),
    ("fubini --lambda=-1/3 --n-max 256",
     "ac5c4535a0ee4298a6d5bb945f140d88d55af354ee02b15967f7ea2e2eca97ca"),
    ("bell --lambda=-1/3 --n-max 256",
     "f387aef897c26d32272be6aa9aa686570cb38a363d6aea32fcc1bcf888f1d2c7"),
    ("stirling1 --lambda=-1/3 --n-max 256 --m 3",
     "1b94144d7e656d7e2c0a1ec0f3a746171d018c509c03d5bac71089289ad4540a"),
    ("stirling2 --lambda=-1/3 --n-max 256 --m 3",
     "c69ebc824bbe281c398402e58634b4082144a0a64fdf8f0c203702e58a99be70"),
    # the derangement polynomials to n = 128, recorded when they were still
    # built from the convolution with the derangement numbers
    ("derangement-poly --lambda 2/7 --n-max 128 --format json",
     "e77b2cf69ed38d1967ba544e9553a7ce9d99c03bc600b20e9220562ea7f82f78"),
    ("derangement-poly --lambda -1/3 --n-max 128 --format json",
     "6d05e48cf4cce511cbd077ebefaacf3abe07743487bdbad4e7f7012d385956f4"),
    # order-r tables to n = 256 on both sides of the row's choice (prefix
    # sums for r <= n, a dot product per value for r > n), and an order far
    # past n, recorded when every value was still its own dot product
    ("derangement-order --lambda=2/7 --r 1 --n-max 256",
     "486ee4d746a1eff34a7a01b8674f2d910abb99e6af4fbacbcf5987fbfc90c26d"),
    ("derangement-order --lambda=2/7 --r 3 --n-max 256",
     "17337e604f298a5d53c72c817ba2a592cae1ea2fc34eca5c1af0238c069d9ebd"),
    ("derangement-order --lambda=2/7 --r 256 --n-max 256",
     "80fed56da1df2605212f3ddb8854e26736b75b1cab7d0e7b4522d8a664f4ad2f"),
    ("derangement-order --lambda=2/7 --r 257 --n-max 256",
     "66128b08d35648791ed2ffc106f5cfb7b9f5d1c829772bb9c88f36cfcdbf7b8c"),
    ("derangement-order --lambda=-1/3 --r 1 --n-max 256",
     "ff933e6e198d074dcdb768667207f95b20a1ddec77ce1cd574ca363accd7d2cb"),
    ("derangement-order --lambda=-1/3 --r 3 --n-max 256",
     "72b5443231fb21c75de7741f4e62faecd067837bedee8d14e062a4d170e33e78"),
    ("derangement-order --lambda=-1/3 --r 256 --n-max 256",
     "0b63c6d0755f84e9626088e14138e2758c1da7f8144cbaf681ef487be3fdad84"),
    ("derangement-order --lambda=-1/3 --r 257 --n-max 256",
     "60768a6ba355ea452f105d77ade698dcf7965932a5b5a6add0f951ce29a430ab"),
    ("derangement-order --lambda=2/7 --r 1000 --n-max 12",
     "f2c5768e8dac737ed4145df91cbf8e0a53e40b3a6e4fd6de0be63d071058896f"),
    ("derangement-order --lambda=-1/3 --r 1000 --n-max 12",
     "ac30a926058530730f89396ca15781e583f1b7179959139d7b6f977453730087"),
]


@pytest.mark.parametrize("argv, digest", TABLE_DIGESTS, ids=[a for a, _ in TABLE_DIGESTS])
def test_table_bytes_are_unchanged(argv, digest, capsys):
    from degderange import cli

    assert cli.main(["table"] + argv.split()) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, message",
    [
        ("stirling1", "stirling1 needs --m (fixed second index)"),
        ("stirling2 --format csv", "stirling2 needs --m (fixed second index)"),
        ("stirling2 --m -1", "--m must be >= 0"),
        ("derangement-order", "derangement-order needs --r"),
        ("derangement-order --r 0 --format csv", "--r must be >= 1"),
        ("derangement-order --x zap", "derangement-order needs --r"),
        ("fubini --x zap", "bad rational 'zap': Invalid literal for Fraction: 'zap'"),
    ],
)
def test_table_errors_are_unchanged(argv, message, capsys):
    from degderange import cli

    assert cli.main(["table"] + argv.split() + ["--lambda", "1/2", "--n-max", "4"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@settings(max_examples=120, deadline=2000)
@given(
    sel=st.sampled_from(list(TABLE_READS)),
    lam=st.sampled_from(["0", "2/7", "-1/3", "1/2", "7/3", "-5/11"]),
    n_max=st.integers(0, 12),
    x=st.one_of(st.none(), st.sampled_from(["0", "1", "3/4", "-2", "-5/11"])),
    r=st.one_of(st.none(), st.integers(0, 4)),
    m=st.one_of(st.none(), st.integers(-1, 5)),
    stray=st.booleans(),
)
def test_table_json_is_json_dumps_output(sel, lam, n_max, x, r, m, stray):
    """The table writer formats its rows by hand; every document it writes
    must be the one json.dumps(..., indent=2) writes for the same data.
    Without ``stray`` only the options that the selector reads are passed,
    so that most examples reach the writer rather than the refusal of an
    option the selector ignores."""
    argv = ["table", sel, f"--lambda={lam}", f"--n-max={n_max}", "--format=json"]
    for option, value in (("x", x), ("r", r), ("m", m)):
        if value is not None and (stray or option in TABLE_READS[sel]):
            argv.append(f"--{option}={value}")
    code, out, err = _main_output(argv)
    assert code in (0, 2), (code, err)
    assert "Traceback" not in out + err
    if code == 2:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    else:
        assert err == ""
        # json.dumps of the parsed document, plus stdout's newline: an oracle
        # that shares nothing with the table writer
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
        assert [row["n"] for row in json.loads(out)["results"]] == list(range(n_max + 1))


ONE_ROW_TABLES = {
    "fubini --lambda=2/7": """{
  "schema_version": 1,
  "command": "table",
  "params": {
    "sequence": "fubini",
    "lambda": "2/7",
    "n_max": 0,
    "x": "1"
  },
  "results": [
    {
      "n": 0,
      "value": "1"
    }
  ]
}
""",
    "derangement-poly --lambda=-1/3": """{
  "schema_version": 1,
  "command": "table",
  "params": {
    "sequence": "derangement-poly",
    "lambda": "-1/3",
    "n_max": 0
  },
  "results": [
    {
      "n": 0,
      "coeffs": [
        "1"
      ]
    }
  ]
}
""",
}


@pytest.mark.parametrize("argv", list(ONE_ROW_TABLES))
def test_one_row_table_json(argv, capsys):
    # --n-max 0: a results list of one row, the smallest document
    from degderange import cli

    assert cli.main(["table"] + argv.split() + ["--n-max", "0"]) == 0
    assert capsys.readouterr() == (ONE_ROW_TABLES[argv], "")


def test_table_writer_keeps_json_dumps_bytes_for_empty_lists():
    # a Poly always has a coefficient, but the writer keeps json's "[]"
    from degderange import cli

    params = {"sequence": "derangement-poly", "lambda": "0", "n_max": 1}
    cells = [[], ["1", "-1/2"]]
    rows = [{"n": n, "coeffs": c} for n, c in enumerate(cells)]
    assert cli._table_json(params, "coeffs", cells) == cli._json_doc("table", params, rows)


@settings(max_examples=40, deadline=5000)
@given(
    check=st.sampled_from(["thm11", "expansion", "gammafn", "normalization"]),
    lam=st.sampled_from(["1/5", "1/80", "9/25", "0", "1/2", "-1/3", "1", "7/3", "1/0", "abc",
                         "1e-400", "0.49999999999999999999", "nan", "inf", "1e308"]),
    n_max=st.integers(-1, 3),
    m_cap=st.integers(0, 40),
    k=st.one_of(st.none(), st.integers(-1, 3)),
    alpha=st.sampled_from(["0", "0.5", "1.5", "nan", "inf"]),
)
@example(check="thm11", lam="1e-400", n_max=2, m_cap=40, k=None, alpha="1")
@example(check="expansion", lam="1e-400", n_max=2, m_cap=40, k=None, alpha="1")
def test_gamma_check_ends_in_a_document_or_one_error_line(check, lam, n_max, m_cap, k, alpha):
    argv = ["gamma-check", check, f"--lambda={lam}", f"--n-max={n_max}", f"--m-cap={m_cap}",
            f"--alpha={alpha}"]
    if k is not None:
        argv.append(f"--k={k}")
    code, out, err = _main_output(argv)
    assert code in (0, 1, 2), (code, err)
    assert "Traceback" not in out + err
    if code == 2:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    elif out:
        assert json.loads(out)["command"] == "gamma-check"
    else:  # a quadrature failure: one error line, exit 1
        assert code == 1 and err.startswith("error: ") and err.count("\n") == 1


identity_lists = st.one_of(
    st.none(),
    st.sampled_from(["all", " ALL ", "", ",", "THM99", "thm3", "all,THM3", "THM3,,THM3"]),
    st.lists(st.sampled_from([i.value for i in IdentityId]), min_size=1, max_size=3).map(",".join),
)
# grids of at most 3 values, one in four holding rationals the parser
# rejects
grid_values = st.one_of(
    st.sampled_from(["0", "1", "-1", "1/2", "-1/3", "2/7", "3/4", "-2", "2/4", "0.25", "1e308",
                     "1e-400"]),
    st.builds("{}/{}".format, st.integers(-5, 5), st.integers(1, 5)),
)
bad_values = st.sampled_from(["1/0", "0/0", "1/-2", "", " ", "abc", "1//2", "nan", "inf", "--1"])
good_grids = st.lists(grid_values, min_size=1, max_size=3)
grids = st.one_of(
    good_grids, good_grids, good_grids,
    st.lists(st.one_of(grid_values, bad_values), min_size=1, max_size=3),
).map(",".join)

# trailing tokens, in one draw of three, that argparse itself rejects: an
# unknown option, a stray positional, an option missing its value
argparse_rejected = st.one_of(
    st.just([]), st.just([]),
    st.lists(st.sampled_from(["--bogus", "stray", "--n-max", "--jobs=x", "-q"]), min_size=1,
             max_size=2),
)


def _document_or_one_error_line(command, code, out, err):
    """exit 0 or 1 with the command's document on stdout and nothing on
    stderr, or exit 2 with nothing on stdout and one error line; returns the
    document's results, None for an error."""
    assert code in (0, 1, 2), (code, err)
    assert "Traceback" not in out + err
    if code == 2:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
        return None
    assert err == ""
    doc = json.loads(out)
    assert doc["command"] == command
    return doc["results"]


@settings(max_examples=100, deadline=10000)
@given(
    ids=identity_lists,
    n_max=st.sampled_from([*range(9), -1, "abc"]),
    r_max=st.sampled_from([*range(1, 7), 0, -1, "1.5"]),
    lams=grids,
    xs=grids,
    jobs=st.sampled_from([1, 1, 2, 2, 0, -1, ""]),
    mutate=st.booleans(),
    extra=argparse_rejected,
)
@example(ids=None, n_max=8, r_max=6, lams="1e308,-1/3,2/4", xs="1e-400,3/4,-2", jobs=2,
         mutate=True, extra=[])
@example(ids=",", n_max=3, r_max=1, lams="0", xs="0", jobs=1, mutate=False,
         extra=[])  # empty list
def test_verify_ends_in_a_document_or_one_error_line(ids, n_max, r_max, lams, xs, jobs, mutate,
                                                      extra):
    argv = ["verify", f"--n-max={n_max}", f"--r-max={r_max}", f"--lambda-grid={lams}",
            f"--x-grid={xs}", f"--jobs={jobs}"]
    if ids is not None:
        argv.append(f"--identities={ids}")
    if mutate:
        argv.append("--mutate")
    argv += extra
    code, out, err = _main_output(argv)
    results = _document_or_one_error_line("verify", code, out, err)
    if results is not None:
        assert code == (0 if results["passed"] else 1)
        assert results["passed"] is not bool(results["failures"])


@settings(max_examples=60, deadline=10000)
@given(ids=identity_lists, n_max=st.sampled_from([*range(7), -1, "abc"]), mutate=st.booleans(),
       extra=argparse_rejected)
@example(ids="THM2_REC", n_max=0, mutate=True, extra=[])  # an identity with no n in range
def test_certify_ends_in_a_document_or_one_error_line(ids, n_max, mutate, extra):
    argv = ["certify", f"--n-max={n_max}"]
    if ids is not None:
        argv.append(f"--identities={ids}")
    if mutate:
        argv.append("--mutate")
    argv += extra
    code, out, err = _main_output(argv)
    results = _document_or_one_error_line("certify", code, out, err)
    if results is not None:
        certified = [ok for result in results for ok in result["certified"].values()]
        assert code == (0 if all(certified) else 1)


def test_values_past_the_int_str_digit_limit_are_written_whole():
    # CPython (3.11, and 3.10.7 on) refuses str() of an int of more than
    # 4300 digits by default; these values reach about 5,500 at n = 256, and
    # each is written whole, with the process's limit restored afterwards
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    argv = ["table", "derangement", "--lambda=1/1234567890", "--x=1/1234567891", "--n-max=256",
            "--format=csv"]
    code, out, err = _main_output(argv)
    assert (code, err) == (0, "")
    assert len(out.splitlines()[-1]) > 4300
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_import_does_not_load_scipy():
    # the probability layer, the process pool and dataclasses are imported
    # on first use, so neither the package nor the exact commands load them,
    # nor scipy or numpy; sample, in both formats, loads neither scipy nor
    # numpy; the package still resolves every name it exports
    code = (
        "import sys, degderange, degderange.cli\n"
        "from degderange import cli\n"
        "for argv in (['table', 'derangement', '--lambda=1/3', '--n-max', '6'],\n"
        "             ['verify', '--n-max', '4'],\n"
        "             ['certify', '--n-max', '3']):\n"
        "    assert cli.main(argv) == 0\n"
        "exact = sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')\n"
        "               or m.startswith(('concurrent', 'multiprocessing')) or m in ('dataclasses',\n"
        "               'degderange.probability', 'degderange._quadpack'))\n"
        "for fmt in ('json', 'csv'):\n"
        "    assert cli.main(['sample', '--lambda=1/4', '--count', '10', '--format', fmt]) == 0\n"
        "sampling = sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy'))\n"
        "print(exact, sampling)\n"
        "from degderange import exactcore, identities, probability, sequences, series\n"
        "layers = (exactcore, identities, probability, sequences, series)\n"
        "for name in degderange.__all__:\n"
        "    assert any(vars(m).get(name, m) is getattr(degderange, name) for m in layers), name\n"
        "assert degderange.probability is probability\n"
        "namespace = {}\n"
        "exec('from degderange import *', namespace)\n"
        "assert all(namespace[name] is getattr(degderange, name) for name in degderange.__all__)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "[] []"


def test_sampling_bytes_and_ks_check_need_no_numpy():
    # the sampler draws from random.Random and maps math.expm1/log1p, so the
    # pinned bytes and a passing KS check come out with every numpy import
    # failing: they do not depend on numpy's build or its CPU dispatch
    code = (
        "import hashlib, io, sys\n"
        "from contextlib import redirect_stdout\n"
        "sys.modules['numpy'] = None  # every numpy import now raises ImportError\n"
        "from degderange import cli\n"
        "from degderange.probability import sampler_ks_check\n"
        "buf = io.StringIO()\n"
        "with redirect_stdout(buf):\n"
        f"    assert cli.main({SAMPLE_ARGV + ['--count', '8193']!r}) == 0\n"
        "print(hashlib.sha256(buf.getvalue().encode()).hexdigest())\n"
        "assert sampler_ks_check(0.25, 10**5, 42)[2]\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [dict(SAMPLE_CSV_DIGESTS)[8193]]


def test_quadrature_and_ks_check_load_no_scipy_stats():
    # QUADPACK is ported and the KS critical value is the DKW-Massart bound,
    # so neither a quadrature nor the KS check at any size imports any part
    # of scipy; the small counts also run with every scipy import failing.
    # No gamma-check starts a process, so none loads the process pool.
    code = (
        "import sys\n"
        "from degderange import cli\n"
        "from degderange.probability import sampler_ks_check\n"
        "for check in (['thm11', '--lambda=1/5', '--n-max', '3'], ['gammafn', '--lambda=1/5', '--k', '2'],\n"
        "              ['normalization', '--lambda=1/5', '--alpha', '1.5'],\n"
        "              ['expansion', '--lambda=1/80', '--n-max', '1']):\n"
        "    assert cli.main(['gamma-check', *check]) == 0\n"
        "pool = [m for m in sys.modules if m.split('.')[0] in ('concurrent', 'multiprocessing')]\n"
        "assert not pool, pool\n"
        "assert cli.main(['sample', '--lambda=1/4', '--count', '10']) == 0\n"
        "assert sampler_ks_check(0.25, 10**5, 42)[2]\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "sys.modules['scipy'] = None  # every scipy import now raises ImportError\n"
        "for count in (1, 7, 141):\n"
        "    sampler_ks_check(0.25, count, 42)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "[]"


# SHA-256 of stdout for the density normalization check, at non-integer alpha
# (the normaliser is itself a quadrature) and at the README's integer alpha.
# The floats printed are part of the output contract.
NORMALIZATION_DIGESTS = [
    ("--lambda=1/20 --alpha 1.5", "279edf173745f586d43a204eac4bfd3cecb64da1c31f055621bfb57722580e64"),
    ("--lambda=1/5 --alpha 1.5", "257e918c6353f6ca22329ef9957c212bb5bf829253eb796ad18e6dd0f0f668ea"),
    ("--lambda=9/25 --alpha 1.5", "6604946f1c80605ed4721580b51de55efd873d61419c329f431fd83bfccf8859"),
    ("--lambda 1/5 --alpha 2", "cc1d543789121c2af2a6f4ddd2649b46cb502c07e4f60d9e27d7f6b7adbd17cb"),
]


@pytest.mark.parametrize(
    "argv, digest", NORMALIZATION_DIGESTS, ids=[a for a, _ in NORMALIZATION_DIGESTS]
)
def test_normalization_bytes_are_unchanged(argv, digest, capsys):
    from degderange import cli

    assert cli.main(["gamma-check", "normalization"] + argv.split()) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of stdout for the other three checks, one run each as the gamma
# benchmark workload runs them: the moment identity, the gamma function at an
# integer and the log-power expansion.
GAMMA_CHECK_DIGESTS = [
    ("thm11 --lambda=1/5 --n-max 8", "25c2f8c223088528e67085fe2197992a6caee413a67f76112f079d1e2eb10111"),
    ("gammafn --k 2 --lambda=9/25", "20d0c7624885734a55ba1588527bceb9e92f505bd4166738eef82e1a04ac9eef"),
    ("expansion --lambda=1/80 --n-max 2 --m-cap 40",
     "a5c14d4edef2773aaca55dc4b3f52b6a0a0a87c94cfb692876bf400332b25dfe"),
]


@pytest.mark.parametrize(
    "argv, digest", GAMMA_CHECK_DIGESTS, ids=[a for a, _ in GAMMA_CHECK_DIGESTS]
)
def test_gamma_check_bytes_are_unchanged(argv, digest, capsys):
    from degderange import cli

    assert cli.main(["gamma-check"] + argv.split()) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_parser_is_built_once_and_reused(capsys):
    # main() reuses one parser; each call parses its own arguments, so calls
    # in one process print what separate fresh processes print
    from degderange import cli

    runs = [
        ["table", "falling", "--lambda", "-1/3", "--x", "-2", "--n-max", "5"],
        ["certify", "--identities", "THM7_B", "--n-max", "3"],
        ["table", "derangement", "--n-max", "4", "--format", "csv"],
        ["table", "stirling2", "--lambda", "1/2", "--n-max", "3"],
    ]
    in_process = []
    for argv in runs:
        rc = cli.main(argv)
        in_process.append((rc, *capsys.readouterr()))
    assert cli._build_parser() is cli._build_parser()
    for argv, (rc, out, err) in zip(runs, in_process):
        fresh = run_cli(*argv)
        assert (rc, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)


# SHA-256 of certify's stdout.  Every --mutate run must still exit 1 with at
# least one uncertified n.
CERTIFY_DIGESTS = [
    ("--n-max 16", 0, "dd3164db0830b163492816485a4db6a45651558b1742e4b54ed4258fd7a014ce"),
    ("--n-max 3 --mutate", 1, "98d8425c1d41ece8c6cf8a5839d348fc5489e62ab5d90055654bd775d308be94"),
]
MUTATED_CERTIFY_DIGESTS = {
    "THM2_CONV": "93222da289774da308c75b8f6822377771707e465cb94ad323a30269a8c2b560",
    "THM2_REC": "7d57e5a91aa08d6eab2d202c0dc2cdb533c08d008e7dde8a28d2f5165505e533",
    "THM2_REC_X0": "bef2b249eed72c16e0d1bba8fe5975299581d5cde894ff5e946ab5c515839f1b",
    "THM3": "d599bccdf1f7e79a03e31d8a93516e2e57c50699b57892d98da33b11bb17dec2",
    "THM4": "e2bae598875aa200afc0b09c238dffd5f7b250f9e998dce7b72abca598f84b27",
    "THM5": "5319ec6b42488fa561b3becbc1c2992dd12d58bb112bf9234397c9fe840db9d9",
    "LEMMA6": "49ee4cfccf33735576988ada486dfc41badd2d61f96aec84df6fbd36e9c8abe6",
    "THM7_A": "477a959cdd5eb7fa760263046bce399e350492d3762c7331b444c1e239323f54",
    "THM7_B": "b6a17cdcd96171e027f2a09048785a69678055e7a8438703cee44df60cef9779",
    "THM8_A": "dee2ef2754cde11423f912d4a3564f86d83137035d45c2afb486c89140fe2805",
    "THM8_B": "672c6e6e5aca9feae9e9d0f027c85bbd8d5330c6eec17433a0e58c457fd933b6",
    "EQ24_25": "993355fd17fceb99493cc6ae101940ed880e01fe719dab0ce98ddadeefa31763",
    "THM9_VS_SERIES": "e4f589d0cad9abe6bbb709cc6a4c67c0126efd5cf37a8ad117b064e5fc67233f",
    "THM10": "22a46497f761cc47f665899255a252a272fe980eeb928c3148fd7bfc571322d3",
    "EXP_MOMENT_BRIDGE": "3d3b3c696f3dba6067e8b8373a53df23e21a6b91fd198b7215f7ff3943c9a029",
}


@pytest.mark.parametrize("argv, rc, digest", CERTIFY_DIGESTS, ids=[a for a, _, _ in CERTIFY_DIGESTS])
def test_certify_bytes_are_unchanged(argv, rc, digest, capsys):
    from degderange import cli

    assert cli.main(["certify"] + argv.split()) == rc
    out, err = capsys.readouterr()
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("extra", [[], ["--mutate"]], ids=["plain", "mutate"])
def test_certify_repeats_a_listed_identity_with_identical_bytes(extra, capsys):
    """An identity listed twice is certified once and printed twice, each
    entry as a run of that identity alone prints it."""
    from degderange import cli

    argv = ["certify", "--n-max", "4", *extra, "--identities"]
    rc = cli.main(argv + ["THM3,THM7_B,THM3,THM10"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == (1 if extra else 0)
    assert doc["params"]["identities"] == ["THM3", "THM7_B", "THM3", "THM10"]
    entries = [json.dumps(entry) for entry in doc["results"]]
    assert entries[0] == entries[2]
    for ident, entry in zip(doc["params"]["identities"], entries):
        assert cli.main(argv + [ident]) == rc
        assert json.dumps(json.loads(capsys.readouterr().out)["results"][0]) == entry


@pytest.mark.parametrize("ident", list(MUTATED_CERTIFY_DIGESTS))
def test_mutated_certify_bytes_are_unchanged(ident, capsys):
    from degderange import cli

    assert cli.main(["certify", "--identities", ident, "--n-max", "3", "--mutate"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert not all(json.loads(out)["results"][0]["certified"].values())
    assert hashlib.sha256(out.encode()).hexdigest() == MUTATED_CERTIFY_DIGESTS[ident]


# SHA-256 of verify's stdout on the default grid, serial and pooled: the
# case order of a run must never reach its output.
VERIFY_DIGEST = "bad4d42b8fa1ce8a4ff4e9e910c51657a5f150f2fda1c512f5b5fd0e3d4c12ca"
# SHA-256 of verify --mutate's stdout on a small grid, per identity: the
# failures are listed in IdentityCase.sort_key order.
MUTATED_VERIFY_ARGV = "--n-max 8 --lambda-grid=0,1/2,-1/3 --x-grid=0,1,3/4 --r-max 2 --mutate"
MUTATED_VERIFY_DIGESTS = {
    "THM2_CONV": "c04a7647f9c0049bddad67184da0a63e5935981e4029fd7801788d7748c76f2d",
    "THM2_REC": "73d7e8dfbbd29d2099c7a230a4ee4b1619825d139d8411fff1a1b6302ec41284",
    "THM2_REC_X0": "b3166e15d6f84e9ed979d989bd6206e3a4b16a92cbddf5c65689e662c88d2cbd",
    "THM3": "dd102add1bf49f9c67aecf8924c7276d120bc3232617e8663fe7243112af842a",
    "THM4": "0159fa8db8c826cdc449c3c2764f20fda335cce13e6a557e40f3b522edfaf197",
    "THM5": "126ad252b2110a2ea9ce585505a564c4a1cf4e5d03bf68594bdd423d914ae8ac",
    "LEMMA6": "1b50c8fa2588126176b730ba23a35bd342e08e91a29136e5d2eb8b2faa5ed05d",
    "THM7_A": "5ecb3e71c466ac99a4835b1d06bcda348a7cb389ed261de6a7103e6dd5345ae9",
    "THM7_B": "aa9d0d7d86348e894220d71a0afafdc9ba02d41562663d0c332c844b8ed07307",
    "THM8_A": "5fbde6ac461d6b464d5551b6caf79fb0d1b67c11ee026ef1985026359a6abdd1",
    "THM8_B": "73803e8bb6bd2a6ba827bc531d0db8b8375456f15e9b1c8d664ff93c8dd9fc5d",
    "EQ24_25": "1ab2adc54e47bc622ae7186091276e84affe8fa4eafb18bae69b963f74e6151c",
    "THM9_VS_SERIES": "d2292e4cce2f9c9048316f3fd74066c40b47eb361f76c7d95e4ed49ee4d0d0f2",
    "THM10": "5d15f79d48d6a9df20c5f58dffaea2b19cb6b49a4de44eff05acdb2030e05fdf",
    "EXP_MOMENT_BRIDGE": "f8a3e3d827488ff5f30baa33760ddd7eaa3d23c947b35408f0a6704a1e775eba",
}


# SHA-256 of verify's stdout on a grid with repeated values (2/4 is 1/2, 3/4
# twice), without and with --mutate: a repeated value counts its copies in
# cases_run and lists each failure once per copy.
REPEATED_VERIFY_ARGV = (
    "--lambda-grid=1/2,0,-1/3,2/4,-1,2/7 --x-grid=3/4,-2,0,3/4,1 --n-max 6 --r-max 3"
)
REPEATED_VERIFY_DIGESTS = {
    (): "1f0c30a06fb2dc1ae35cb883faeeb175b3ee79fab002346fc0512c5e2a980c14",
    ("--mutate",): "8b7b1a36e1378a3a6af62215c76683238d33ee6859f1e8e682b083b5591ced21",
}


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("extra", list(REPEATED_VERIFY_DIGESTS), ids=["plain", "mutate"])
def test_repeated_value_verify_bytes_are_unchanged(extra, jobs, capsys):
    from degderange import cli

    argv = ["verify", "--jobs", jobs, *REPEATED_VERIFY_ARGV.split(), *extra]
    assert cli.main(argv) == (1 if extra else 0)
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out)["results"]["cases_run"] == 2496
    assert hashlib.sha256(out.encode()).hexdigest() == REPEATED_VERIFY_DIGESTS[extra]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_bytes_are_unchanged(jobs, capsys):
    from degderange import cli

    assert cli.main(["verify", "--jobs", jobs]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_DIGEST


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("ident", list(MUTATED_VERIFY_DIGESTS))
def test_mutated_verify_bytes_are_unchanged(ident, jobs, capsys):
    from degderange import cli

    argv = ["verify", f"--identities={ident}", "--jobs", jobs] + MUTATED_VERIFY_ARGV.split()
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out)["results"]["failures"]
    assert hashlib.sha256(out.encode()).hexdigest() == MUTATED_VERIFY_DIGESTS[ident]
