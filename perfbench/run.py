"""Benchmark of the degderange library, measured from outside the package.

Run from the root of a checkout:

    python3 perfbench/run.py --workload grid --seed 1 --seconds 15 --trace 0

Workloads (see workloads.py and NOTES.md): grid, certify, high-order, gamma.
Each unit of a workload is one fresh interpreter with cold module caches,
because every CLI user pays import and cache fill on every invocation.  This
process runs one unit at a time (closed loop, one client); only the
grid's ``--jobs 2`` unit uses a second core.

With ``--trace 0`` it runs serial units while another one still fits in
``--seconds`` (at least one), and reports the end-to-end metrics as medians
over units.  With ``--trace 1`` it runs one untraced unit (plus
the ``--jobs 2`` unit on grid) and one traced unit, and reports the
per-layer metrics.  Human-readable lines come first;
the last line of stdout is one JSON object.  Full results and the traced
unit's spans are written under ``.perfbench/``.

Exit status is 0 when a result was printed (``correct`` says whether every
output passed its check), and non-zero without a result when the checkout
has no ``src/degderange`` or a unit could not run.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import compileall  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
from fractions import Fraction  # noqa: E402
from time import perf_counter  # noqa: E402

import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
UNIT = os.path.join(HERE, "unit.py")
OUT_DIR = ".perfbench"
SETUP_SAMPLES = 5  # interpreters timed per run: each unit's own, topped up by import-only ones
CALIB_REPEATS = 5
RUN_BUDGET_S = 170.0


class UnitError(RuntimeError):
    pass


def calibrate_ms() -> list[float]:
    """A fixed pure-Python Fraction loop (12k operations, no repo code), so a
    host slowdown can be told apart from a program slowdown."""
    samples = []
    for _ in range(CALIB_REPEATS):
        start = perf_counter()
        acc = Fraction(0)
        for i in range(1, 4001):
            acc = Fraction(i, i + 1) * Fraction(i + 2, i + 3) + Fraction(1, i % 97 + 1)
        samples.append((perf_counter() - start) * 1e3)
    return samples


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def kill_group(proc: subprocess.Popen) -> None:
    """Kill a unit and any pool workers it left behind."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn_unit(args, variant: str, deadline: float, trace: bool = False, spans: str | None = None) -> dict:
    """Run one unit; its ``raw_setup_s`` is process start to degderange
    imported, and its ``setup_s`` the same with the import at reference speed."""
    cmd = [sys.executable, UNIT, "--workload", args.workload, "--seed", str(args.seed), "--variant", variant]
    if trace:
        cmd.append("--trace")
    if spans:
        cmd += ["--spans", spans]
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), text=True, start_new_session=True)
    timer = threading.Timer(max(deadline - start, 1.0), kill_group, (proc,))
    timer.start()
    try:
        first = proc.stdout.readline()
        setup_s = perf_counter() - start
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() != 0:
            kill_group(proc)
        proc.wait()
        proc.stdout.close()
    ready = first.split()
    if len(ready) != 3 or ready[0] != "ready" or proc.returncode != 0:
        raise UnitError(f"{variant} unit of {args.workload} failed (exit {proc.returncode})")
    result = json.loads(rest.strip().splitlines()[-1]) if variant != "import" else {}
    # The unit's clock covered its import: that part counts at the reference speed.
    import_span_s, import_ref_s = float(ready[1]), float(ready[2])
    result["setup_s"] = setup_s - import_span_s + import_ref_s
    result["raw_setup_s"] = setup_s
    return result


def import_times() -> tuple[float, float]:
    """(scipy, whole package) import seconds from a ``-X importtime`` child."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import degderange, degderange.cli"],
        capture_output=True, text=True, env=child_env(), timeout=60,
    )
    if proc.returncode != 0:
        raise UnitError("importtime child failed")
    rows = []
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cum_us, raw = line.split("|")
        rows.append(((len(raw) - len(raw.lstrip()) - 1) // 2, int(cum_us), raw.strip()))
    totals = {"scipy": 0, "degderange": 0}
    stack: list[tuple[int, str]] = []
    # importtime prints children before their parent; reversed, parents come first.
    for depth, cum_us, name in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        top = name.split(".")[0]
        if top in totals and all(n.split(".")[0] != top for _, n in stack):
            totals[top] += cum_us
        stack.append((depth, name))
    return totals["scipy"] / 1e6, totals["degderange"] / 1e6


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join("src", "degderange", "__init__.py")):
        print("error: run from the root of a degderange checkout (no src/degderange here)", file=sys.stderr)
        return 2
    t_begin = perf_counter()
    deadline = t_begin + RUN_BUDGET_S
    compileall.compile_dir(os.path.join("src", "degderange"), quiet=1)
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    parallel = args.workload in workloads.PARALLEL

    calib_before = calibrate_ms()
    try:
        serial = []
        measure_start = perf_counter()
        while True:
            unit_start = perf_counter()
            serial.append(spawn_unit(args, "serial", deadline))
            unit_s = perf_counter() - unit_start
            if args.trace or perf_counter() - measure_start + unit_s > args.seconds:
                break
        par = [spawn_unit(args, "par", deadline)] if args.trace and parallel else []
        setup_units = serial + par
        setup_units += [spawn_unit(args, "import", deadline) for _ in range(SETUP_SAMPLES - len(setup_units))]
        setup = [u["setup_s"] for u in setup_units]
        raw_setup = [u["raw_setup_s"] for u in setup_units]
        traced = None
        if args.trace:
            traced = spawn_unit(args, "serial", deadline, trace=True,
                                spans=os.path.join(OUT_DIR, f"spans-{tag}.json"))
            scipy_import_s, package_import_s = import_times()
    except (UnitError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    calib_after = calibrate_ms()

    units = serial + par + ([traced] if traced else [])
    run_errors: dict[str, str] = {}
    if len({u["digest"] for u in units}) != 1:  # whatever the worker count or tracing
        run_errors["same-output"] = "identical configuration gave different output bytes"
    if traced:
        expected = {"grid": workloads.GRID_CASES, "certify": workloads.certify_cases()}.get(args.workload, 0)
        cases = traced["layers"]["identities.cases"][0]
        if cases != expected:
            run_errors["case-count"] = f"identities.verify ran {cases} times, expected {expected}"
    # The run-level checks (same output; case count when traced) count as operations.
    attempted = sum(u["attempted"] for u in units) + 1 + bool(traced)
    failed = sum(u["failed"] for u in units) + len(run_errors)
    calib = calib_before + calib_after

    wall = [u["wall_s"] for u in serial]
    median = statistics.median
    report = {  # name -> (value, unit, samples)
        "setup_s": (median(setup), "s", len(setup)),
        "ref_wall_s": (median(u["ref_wall_s"] for u in serial), "s", len(serial)),
        "host.setup_s": (median(raw_setup), "s", len(raw_setup)),
        "host.wall_s": (median(wall), "s", len(wall)),
        "peak_rss_mb": (median(u["peak_rss_mb"] for u in serial), "MB", len(serial)),
        "ok_ratio": ((attempted - failed) / attempted, "ratio", attempted),
        "fail_ratio": (failed / attempted, "ratio", attempted),
        "host.calib_ms": (median(calib), "ms", len(calib)),
    }
    if traced:
        layers = {name: (value, unit, 1) for name, (value, unit) in traced["layers"].items()}
        report.update(layers)
        report["setup.scipy_import_s"] = (scipy_import_s, "s", 1)
        report["setup.package_import_s"] = (package_import_s, "s", 1)
        report["par_wall_s"] = (par[0]["wall_s"] if par else 0.0, "s", len(par))
        report["identities.pool_speedup"] = (wall[0] / par[0]["wall_s"] if par else 0.0, "ratio", len(par))
        report["cli.bytes_out"] = (traced["bytes_out"], "bytes", 1)
        report["trace.overhead_ratio"] = (traced["ref_wall_s"] / serial[0]["ref_wall_s"], "ratio", 1)

    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    errors = {**run_errors, **{f"{i}:{k}": v for i, u in enumerate(units) for k, v in u["errors"].items()}}
    for name, msg in errors.items():
        print(f"FAILED {name}: {msg.strip().splitlines()[-1]}", file=sys.stderr)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  units {len(serial)}  "
          f"run {perf_counter() - t_begin:.1f} s")
    for name, (value, unit, samples) in report.items():
        print(f"  {name:28s} {value:14.6g} {unit:6s} n={samples}")
    full = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in report.items()},
        "calib_before_ms": calib_before, "calib_after_ms": calib_after,
        "setup_samples_s": setup, "raw_setup_samples_s": raw_setup,
        "op_seconds": [u["op_seconds"] for u in units],
        "op_ref_seconds": [u["op_ref_seconds"] for u in units],
        "snippet_p50_ms": [u["snippet_p50_ms"] for u in units], "errors": errors,
    }
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w") as fh:
        json.dump(full, fh, indent=1)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": report[m["name"]][0], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
