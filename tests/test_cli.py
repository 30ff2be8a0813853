import json
import re
import subprocess
import sys

CMD = [sys.executable, "-m", "degderange"]


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


def test_gamma_check_jobs_deterministic():
    base = run_cli("gamma-check", "thm11", "--lambda", "1/4", "--n-max", "3")
    par = run_cli("gamma-check", "thm11", "--lambda", "1/4", "--n-max", "3", "--jobs", "2")
    assert base.returncode == par.returncode == 0
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


def test_sample_domain():
    out = run_cli("sample", "--lambda", "3/2", "--seed", "1", "--count", "3")
    assert out.returncode == 2


def test_out_file_and_env_dir(tmp_path):
    target = tmp_path / "t.json"
    out = run_cli(
        "table", "derangement", "--lambda", "0", "--n-max", "2", "--out", str(target)
    )
    assert out.returncode == 0
    assert json.loads(target.read_text())["command"] == "table"

    import os

    env = dict(os.environ, DEGDERANGE_OUT_DIR=str(tmp_path))
    out = run_cli(
        "table", "derangement", "--lambda", "0", "--n-max", "2",
        "--out", "rel.json", env=env,
    )
    assert out.returncode == 0
    assert (tmp_path / "rel.json").exists()


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
    for argv in (
        ("verify", "--identities", "THM3", "--n-max", "2", "--jobs", "0"),
        ("gamma-check", "thm11", "--lambda", "1/4", "--n-max", "1", "--jobs", "-1"),
    ):
        out = run_cli(*argv)
        assert out.returncode == 2
        assert "--jobs" in out.stderr


def test_jobs_capped_at_cpu_count(monkeypatch, capsys):
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

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    monkeypatch.setattr(identities, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    assert cli.main(["verify", "--identities", "THM3", "--n-max", "4", "--jobs", "64"]) == 0
    assert cli.main(["gamma-check", "thm11", "--lambda", "1/4", "--n-max", "2", "--jobs", "64"]) == 0
    assert cli.main(["verify", "--identities", "THM3", "--n-max", "4", "--jobs", "2"]) == 0
    assert sizes == [3, 3, 2]
    capsys.readouterr()
