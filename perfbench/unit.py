"""One cold-process unit of a workload.

Run from the root of a checkout with ``src`` on PYTHONPATH:

    python3 perfbench/unit.py --workload grid --seed 1 --variant serial [--trace]

The first thing it does is import degderange and degderange.cli, then it
prints ``ready`` so the parent can time interpreter start plus import.  With
``--variant import`` it stops there.  Otherwise it runs the workload's
operations (optionally traced), then the negative controls and every output
check, and prints one JSON line with the results.

The import, and a serial unit's timed operations, are timed twice over by
``HostClock``: as wall time, and as ``ref`` time, the wall time rescaled
slice by slice to the reference host speed.  The ``ready`` line carries the
import's clock span and ``ref`` time.
"""

import sys

from hostclock import HostClock

setup_clock = HostClock()
setup_clock.start()
import degderange  # noqa: E402
import degderange.cli  # noqa: E402

setup_clock.stop()
print(f"ready {setup_clock.span_s()!r} {setup_clock.ref_s!r}", flush=True)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter  # noqa: E402

import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402


def run_op(op, modules):
    """Returns (output, error message or None)."""
    try:
        if op.argv is not None:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = modules["cli"].main(op.argv)
            if rc != op.expect_rc:
                return buf.getvalue(), f"exit code {rc}, expected {op.expect_rc}"
            return buf.getvalue(), None
        return op.call(modules), None
    except Exception:
        return None, traceback.format_exc(limit=3)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--variant", choices=("serial", "par", "import"), required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", default=None, help="where a traced unit writes its spans")
    args = ap.parse_args()
    if args.variant == "import":
        return 0
    modules = {layer: importlib.import_module(f"degderange.{layer}") for layer in LAYERS}
    ops = workloads.WORKLOADS[args.workload](args.seed, args.variant)
    # The pool's work runs in other processes, so only serial units carry
    # the host clock; a traced unit's layer times leave its snippets out.
    clock = HostClock() if args.variant == "serial" else None
    tracer = None
    if args.trace:
        tracer = Tracer(clock)
        tracer.install(degderange)

    outputs, errors, seconds, ref_seconds = {}, {}, {}, {}
    bytes_out = 0
    digest = hashlib.sha256()
    if clock:
        clock.start()
    for request, op in enumerate(o for o in ops if o.timed):
        if tracer:
            tracer.request = request
            tracer.enabled = True
        if clock:
            clock.tick()
            raw0, ref0 = clock.raw_s, clock.ref_s
            out, err = run_op(op, modules)
            clock.tick()
            seconds[op.name] = clock.raw_s - raw0
            ref_seconds[op.name] = clock.ref_s - ref0
        else:
            start = perf_counter()
            out, err = run_op(op, modules)
            seconds[op.name] = perf_counter() - start
        if tracer:
            tracer.enabled = False
        outputs[op.name] = out
        if err:
            errors[op.name] = err
        text = out if isinstance(out, str) else repr(out)
        digest.update(text.encode())
        if isinstance(out, str):
            bytes_out += len(out.encode())
    if clock:
        clock.stop()  # its final slice is not booked to any operation
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for op in ops:
        if not op.timed:
            outputs[op.name], err = run_op(op, modules)
            if err:
                errors[op.name] = err
    for op in ops:
        if op.name in errors:
            continue
        try:
            op.check(outputs[op.name], outputs, modules)
        except Exception as exc:
            errors[op.name] = f"check failed: {exc!r}"

    result = {
        "attempted": len(ops),
        "failed": len(errors),
        "errors": errors,
        "wall_s": sum(seconds.values()),
        "ref_wall_s": sum(ref_seconds.values()) if clock else None,
        "op_seconds": seconds,
        "op_ref_seconds": ref_seconds,
        "snippet_p50_ms": clock.snippet_p50_ms() if clock else None,
        "peak_rss_mb": peak_rss_mb,
        "bytes_out": bytes_out,
        "digest": digest.hexdigest(),
    }
    if tracer:
        result["layers"] = tracer.metrics()
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
