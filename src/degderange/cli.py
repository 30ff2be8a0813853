"""Command-line front end: sequence tables, identity certification,
moment checks, and sampling, with machine-readable JSON/CSV output.

Exit codes: 0 success (``--help`` included: ``main`` returns its status and
raises no ``SystemExit``), 1 any check/identity failure, 2 configuration or
domain error, with one ``error:`` line on stderr (an argument that argparse
rejects among them: an unknown option, a value that is no int, a missing
or invalid choice, no subcommand; and a ``table`` option among ``--x``,
``--r`` and ``--m`` that the selector does not read, a negative ``sample
--seed``, which the generator would take for its absolute value, a
``sample --lambda`` that rounds to 0 or 1 as a float, an option value
``--``, a ``certify --n-max`` above ``CERTIFY_MAX_N`` = 64, a
``gamma-check thm11`` or ``expansion`` ``--n-max`` above
``probability.MAX_FLOAT_N`` = 170, where the target (1-lam) n! is past the
float range, or ``--lambda`` that rounds to 0 or 1/2 as a float, a
``gamma-check gammafn`` target past the float range, a ``verify
--r-max`` above ``identities.MAX_N`` = 256, a ``verify`` or ``certify``
selection with no case to run, every identity of it starting past
``--n-max``, and an ``--out`` path that cannot be opened for writing),
141 (128 + SIGPIPE) stdout closed by its reader before the output was
written, as by ``| head``.  Rationals are always emitted as
"p/q" strings (never decimals), whole at any length: a run lifts CPython's
4300-digit int/str limit, which ended a long value in a ValueError
traceback, exit 1; floats use shortest round-trip formatting, and a sample
past the float range is written ``inf`` (CSV) or ``Infinity`` (JSON).
Every JSON document has the bytes of ``json.dumps(doc, indent=2)`` and a
final newline, on stdout and in an ``--out`` file alike;
``table`` formats its rows itself (``_table_json``), since an indent puts
json on its pure-Python encoder.
The environment variable DEGDERANGE_OUT_DIR supplies a default directory
for relative --out paths.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import os
import re
import sys
from collections.abc import Iterable
from fractions import Fraction
from typing import TYPE_CHECKING

from . import identities, sequences

if TYPE_CHECKING:
    from . import probability

SCHEMA_VERSION = 1

SAMPLE_CHUNK = 8192  # samples per draw and write in sample --format csv

# certify's time grows steeply with n (like n^3.6), and time alone sets the
# cap: every run empties the memos after each |lambda| group.  On a 2-CPU
# host a fresh --n-max 48 took 6.5 s (minimum of 5) with a 19 MB peak, and
# --n-max 64 21.8 s (minimum of 2) with 21 MB; the rest keep identities.MAX_N
CERTIFY_MAX_N = 64

# each table selector with the options, beyond --lambda and --n-max, that it
# reads; any other of --x, --r and --m is refused
TABLE_SELECTORS = {
    "derangement": ("x",),
    "derangement-poly": (),
    "derangement-order": ("x", "r"),
    "stirling1": ("m",),
    "stirling2": ("m",),
    "fubini": ("x",),
    "bell": ("x",),
    "falling": ("x",),
}


class CliError(Exception):
    """Configuration/domain problem; maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    """An argument parser whose own rejections (an unknown option, a bad
    int, a missing or invalid choice) raise ``CliError``, so they end in
    one ``error:`` line like every other exit 2; subparsers inherit it."""

    def error(self, message):
        raise CliError(message)


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"bad rational {text!r}: {exc}") from None


# Options whose value is a rational or a comma list of rationals.  argparse
# takes a separate value token such as "-1/3" for an option, so main() glues
# a negative value to its option ("--lambda=-1/3") before parsing.
_RATIONAL_OPTIONS = ("--lambda", "--x", "--lambda-grid", "--x-grid")
_NEGATIVE_VALUE = re.compile(r"-[\d.]")


def _glue_negative_values(argv: list[str]) -> list[str]:
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in _RATIONAL_OPTIONS and _NEGATIVE_VALUE.match(tok):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def _check_n_max(n_max: int, top: int = identities.MAX_N) -> None:
    if not 0 <= n_max <= top:
        raise CliError(f"--n-max must lie in [0, {top}]")


def _parse_grid(text: str) -> list[Fraction]:
    vals = [_parse_rational(part) for part in text.split(",") if part.strip()]
    if not vals:
        raise CliError("empty grid")
    return vals


def _resolve_out(path: str | None):
    if path is None or path == "-":
        return None
    if not os.path.isabs(path):
        base = os.environ.get("DEGDERANGE_OUT_DIR")
        if base:
            path = os.path.join(base, path)
    return path


def _open_out(out_path: str):
    # only the open maps to exit 2: an OSError while writing, BrokenPipeError
    # among them, keeps its own handling
    try:
        return open(out_path, "w")
    except OSError as exc:
        raise CliError(f"cannot write {out_path}: {exc.strerror}") from None


def _out_file(out_path: str | None):
    """stdout, left open on exit, or the out file opened for writing."""
    return contextlib.nullcontext(sys.stdout) if out_path is None else _open_out(out_path)


def _emit(text: str, out_path: str | None) -> None:
    """Write a JSON document and its final newline to stdout or the out file."""
    with _out_file(out_path) as fh:
        fh.write(text)
        fh.write("\n")


def _json_doc(command: str, params: dict, results) -> str:
    return json.dumps(
        {
            "schema_version": SCHEMA_VERSION,
            "command": command,
            "params": params,
            "results": results,
        },
        indent=2,
    )


def _emit_csv(header: list[str], rows: Iterable[list[str]], out_path: str | None) -> None:
    """Write the rows straight to stdout or the out file, one at a time, so a
    generator of rows is never held in memory whole, nor is the text."""
    with _out_file(out_path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# table


def _table(args) -> tuple[dict, list]:
    """The params echo and the values 0..n_max of a table: rationals, or
    polynomials in x for derangement-poly."""
    lam = _parse_rational(args.lam)
    n_max = args.n_max
    _check_n_max(n_max)
    sel = args.sequence
    for option in ("x", "r", "m"):
        if getattr(args, option) is not None and option not in TABLE_SELECTORS[sel]:
            raise CliError(f"{sel} takes no --{option}")
    params = {"sequence": sel, "lambda": str(lam), "n_max": n_max}
    if sel == "derangement-poly":
        return params, sequences.derange_poly_row(n_max, lam)
    if sel in ("stirling1", "stirling2"):
        if args.m is None:
            raise CliError(f"{sel} needs --m (fixed second index)")
        if args.m < 0:
            raise CliError("--m must be >= 0")
        m = params["m"] = args.m
        column = sequences.stirling1_column if sel == "stirling1" else sequences.stirling2_column
        return params, column(n_max, m, lam)
    if sel == "derangement-order":
        if args.r is None:
            raise CliError("derangement-order needs --r")
        if args.r < 1:
            raise CliError("--r must be >= 1")
    default_x = 0 if sel in ("derangement", "derangement-order") else 1
    x = _parse_rational(args.x) if args.x is not None else Fraction(default_x)
    params["x"] = str(x)
    if sel == "derangement":
        return params, sequences.derange_row(n_max, lam, x)
    if sel == "derangement-order":
        r = params["r"] = args.r
        return params, sequences.derange_order_row(n_max, r, lam, x)
    if sel == "fubini":
        return params, sequences.fubini_row(n_max, lam, x)
    if sel == "bell":
        return params, sequences.bell_row(n_max, lam, x)
    return params, sequences.falling_row(x, n_max, lam)


def _table_json(params: dict, field: str, cells: list) -> str:
    """``_json_doc("table", params, rows)`` byte for byte, with each row
    formatted by one f-string in json's indent=2 layout.  With an indent,
    ``json.dumps`` runs its pure-Python encoder, and the rows are nearly all
    of a table's bytes; the head (schema, command, params echo) still comes
    from ``json.dumps``.  Every cell is the str() of an int or a Fraction,
    made of digits, "-" and "/", which json quotes without escapes."""
    if field == "coeffs":  # a list of strings, one per line at indent 8
        sep = '",\n        "'
        cells = [f'[\n        "{sep.join(c)}"\n      ]' if c else "[]" for c in cells]
    else:
        cells = [f'"{c}"' for c in cells]
    rows = [f'    {{\n      "n": {n},\n      "{field}": {c}\n    }}' for n, c in enumerate(cells)]
    head = _json_doc("table", params, [])  # ends in '"results": []\n}'
    return head[:-4] + "[\n" + ",\n".join(rows) + "\n  ]\n}"


def _cmd_table(args) -> int:
    params, values = _table(args)
    if args.sequence == "derangement-poly":
        field, cells = "coeffs", [[str(c) for c in p.coeffs] for p in values]
    else:
        field, cells = "value", [str(v) for v in values]
    out_path = _resolve_out(args.out)
    if args.format == "json":
        _emit(_table_json(params, field, cells), out_path)
    else:
        rows = [[str(n), c if isinstance(c, str) else " ".join(c)] for n, c in enumerate(cells)]
        _emit_csv(["n", field], rows, out_path)
    return 0


# ---------------------------------------------------------------------------
# verify / certify


def _parse_identities(text: str | None) -> list[identities.IdentityId]:
    if text is None or text.strip().lower() == "all":
        return list(identities.IdentityId)
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            out.append(identities.IdentityId(part))
        except ValueError:
            valid = ", ".join(i.value for i in identities.IdentityId)
            raise CliError(f"unknown identity {part!r}; valid: {valid}") from None
    if not out:
        raise CliError("empty identity list")
    return out


def _cmd_verify(args) -> int:
    ids = _parse_identities(args.identities)
    _check_n_max(args.n_max)
    if args.r_max < 1:
        raise CliError("--r-max must be >= 1")
    if args.r_max > identities.MAX_N:
        raise CliError(f"--r-max must be <= {identities.MAX_N}")
    if args.jobs < 1:
        raise CliError(f"--jobs must be >= 1, got {args.jobs}")
    lam_grid = _parse_grid(args.lambda_grid)
    x_grid = _parse_grid(args.x_grid)
    try:
        report = identities.verify_grid(
            ids,
            n_max=args.n_max,
            lam_grid=lam_grid,
            x_grid=x_grid,
            r_max=args.r_max,
            mutate=args.mutate,
            jobs=args.jobs,
        )
    except ValueError as exc:  # no selected identity has an n in range
        raise CliError(str(exc)) from None
    params = {
        "identities": [i.value for i in ids],
        "n_max": args.n_max,
        "lambda_grid": [str(v) for v in lam_grid],
        "x_grid": [str(v) for v in x_grid],
        "r_max": args.r_max,
        "mutate": args.mutate,
    }
    failures = [
        {
            "identity": case.identity_id.value,
            "n": case.n,
            "lambda": str(case.lam),
            "x": str(case.x) if case.x is not None else None,
            "r": case.r,
            "lhs": str(lhs),
            "rhs": str(rhs),
        }
        for case, lhs, rhs in report.failures
    ]
    results = {
        "cases_run": report.cases_run,
        "failures": failures,
        "passed": report.ok,
    }
    _emit(_json_doc("verify", params, results), _resolve_out(args.out))
    return 0 if report.ok else 1


def _cmd_certify(args) -> int:
    ids = _parse_identities(args.identities)
    _check_n_max(args.n_max, CERTIFY_MAX_N)
    try:
        certified = identities.certify_ranges(ids, args.n_max, mutate=args.mutate)
    except ValueError as exc:  # no selected identity has an n in range
        raise CliError(str(exc)) from None
    all_ok = all(all(per_n.values()) for per_n in certified.values())
    results = [
        {"identity": ident.value, "certified": {str(n): ok for n, ok in certified[ident].items()}}
        for ident in ids
    ]
    params = {
        "identities": [i.value for i in ids],
        "n_max": args.n_max,
        "mutate": args.mutate,
    }
    _emit(_json_doc("certify", params, results), _resolve_out(args.out))
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# gamma-check / sample


def _result_dict(res: probability.MomentCheckResult, **context) -> dict:
    out = dict(context)
    out.update(
        {
            "numeric_value": res.numeric_value,
            "exact_target": str(res.exact_target),
            "abs_error": res.abs_error,
            "rel_error": res.rel_error,
            "passed": res.passed,
        }
    )
    if res.inconclusive:
        out["inconclusive"] = True
    if res.detail:
        out["detail"] = res.detail
    return out


def _cmd_gamma_check(args) -> int:
    from . import probability

    lam = _parse_rational(args.lam)
    results = []
    params: dict = {"check": args.check, "lambda": str(lam)}
    try:
        if args.check == "thm11":
            _check_n_max(args.n_max, probability.MAX_FLOAT_N)
            params["n_max"] = args.n_max
            # top n first, so each memo row of lam is built once, to n_max
            batch = [probability.theorem11_check(n, lam) for n in range(args.n_max, -1, -1)]
            for n, res in enumerate(reversed(batch)):
                results.append(_result_dict(res, n=n))
        elif args.check == "gammafn":
            if args.k is None:
                raise CliError("gammafn needs --k")
            params["k"] = args.k
            exact = probability.deg_gamma_fn_exact(args.k, lam)
            probability._float_target(exact)  # refused before the quadrature runs
            numeric = probability.deg_gamma_fn_quadrature(args.k, float(lam))
            res = probability._compare(numeric, exact, probability.DEFAULT_CHECK_TOL)
            results.append(_result_dict(res, k=args.k))
        elif args.check == "normalization":
            params["alpha"] = args.alpha
            params["beta"] = args.beta
            p = probability.DegGammaParams(args.alpha, args.beta, float(lam))
            mass = probability._pdf_mass(p)
            res = probability._compare(mass, Fraction(1), probability.DEFAULT_CHECK_TOL)
            results.append(_result_dict(res, alpha=args.alpha, beta=args.beta))
        elif args.check == "expansion":
            _check_n_max(args.n_max, probability.MAX_FLOAT_N)
            params["n_max"] = args.n_max
            params["m_cap"] = args.m_cap
            for n in range(args.n_max + 1):
                res = probability.stirling_log_expansion_check(n, args.m_cap, lam)
                results.append(_result_dict(res, n=n))
        else:
            raise CliError(f"unknown check {args.check!r}")
    except ValueError as exc:
        raise CliError(str(exc)) from None
    except probability.QuadratureError as exc:  # scipy's texts hold newlines
        print("error:", *str(exc).split(), file=sys.stderr)
        return 1
    _emit(_json_doc("gamma-check", params, results), _resolve_out(args.out))
    return 0 if all(r["passed"] for r in results) else 1


def _cmd_sample(args) -> int:
    from . import probability

    lam = _parse_rational(args.lam)
    if not 0 < lam < 1:
        raise CliError(f"--lambda must lie in (0, 1), got {lam}")
    lamf = float(lam)
    if not 0 < lamf < 1:  # as for 1e-400 or 1 - 1e-20
        raise CliError(f"--lambda {args.lam.strip()} rounds to {lamf!r}, outside (0, 1)")
    if args.count < 0:
        raise CliError("--count must be >= 0")
    if args.seed < 0:
        raise CliError("--seed must be >= 0")
    params = {
        "lambda": str(lam),
        "seed": args.seed,
        "count": args.count,
    }
    out_path = _resolve_out(args.out)
    if args.format == "json":
        samples = probability.sample_deg_gamma11(lamf, args.seed, args.count)
        _emit(_json_doc("sample", params, {"samples": samples}), out_path)
    else:
        # one float per line needs no CSV quoting: the samples are drawn,
        # transformed and written a chunk at a time, so memory stays flat
        # however large --count is
        blocks = probability.sample_deg_gamma11_blocks(lamf, args.seed, args.count, SAMPLE_CHUNK)
        with _out_file(out_path) as fh:
            fh.write("sample\n")
            for block in blocks:
                fh.write("\n".join(map(repr, block)) + "\n")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; ``main`` parses each
    argument list with it afresh."""
    parser = _Parser(
        prog="degderange",
        description="Exact degenerate-derangement sequence tables, identity "
        "certification, and degenerate-gamma moment checks.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    common_out = dict(default=None, help="output path (default stdout; see DEGDERANGE_OUT_DIR)")

    p_table = sub.add_parser("table", help="emit a sequence table")
    p_table.add_argument("sequence", choices=TABLE_SELECTORS)
    p_table.add_argument("--lambda", dest="lam", default="0", help='deformation parameter "p/q"')
    p_table.add_argument("--x", default=None, help='argument "p/q" (sequence-dependent default)')
    p_table.add_argument("--r", type=int, default=None, help="order for derangement-order")
    p_table.add_argument("--m", type=int, default=None, help="second index for stirling tables")
    p_table.add_argument("--n-max", type=int, default=10)
    p_table.add_argument("--format", choices=("json", "csv"), default="json")
    p_table.add_argument("--out", **common_out)
    p_table.set_defaults(fn=_cmd_table)

    p_verify = sub.add_parser("verify", help="run identity verifiers over a grid")
    p_verify.add_argument("--identities", default=None, help="comma list or 'all'")
    p_verify.add_argument("--n-max", type=int, default=32)
    p_verify.add_argument(
        "--lambda-grid", default=",".join(map(str, identities.DEFAULT_LAMBDA_GRID))
    )
    p_verify.add_argument("--x-grid", default=",".join(map(str, identities.DEFAULT_X_GRID)))
    p_verify.add_argument("--r-max", type=int, default=4)
    p_verify.add_argument("--mutate", action="store_true", help="negative-control mode")
    p_verify.add_argument("--jobs", type=int, default=1)
    p_verify.add_argument("--out", **common_out)
    p_verify.set_defaults(fn=_cmd_verify)

    p_certify = sub.add_parser("certify", help="polynomial-identity certification per n")
    p_certify.add_argument("--identities", default=None, help="comma list or 'all'")
    p_certify.add_argument("--n-max", type=int, default=16)
    p_certify.add_argument("--mutate", action="store_true")
    p_certify.add_argument("--out", **common_out)
    p_certify.set_defaults(fn=_cmd_certify)

    p_gamma = sub.add_parser("gamma-check", help="numeric checks for the gamma layer")
    p_gamma.add_argument("check", choices=("thm11", "gammafn", "normalization", "expansion"))
    p_gamma.add_argument("--lambda", dest="lam", required=True)
    p_gamma.add_argument("--n-max", type=int, default=8)
    p_gamma.add_argument("--k", type=int, default=None)
    p_gamma.add_argument("--m-cap", type=int, default=40)
    p_gamma.add_argument("--alpha", type=float, default=1.0)
    p_gamma.add_argument("--beta", type=float, default=1.0)
    p_gamma.add_argument("--out", **common_out)
    p_gamma.set_defaults(fn=_cmd_gamma_check)

    p_sample = sub.add_parser("sample", help="draw from the unit-parameter family")
    p_sample.add_argument("--lambda", dest="lam", required=True)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--count", type=int, default=1000)
    p_sample.add_argument("--format", choices=("json", "csv"), default="json")
    p_sample.add_argument("--out", **common_out)
    p_sample.set_defaults(fn=_cmd_sample)

    return parser


def main(argv: list[str] | None = None) -> int:
    digits = getattr(sys, "get_int_max_str_digits", int)()
    try:
        argv = _glue_negative_values(sys.argv[1:] if argv is None else argv)
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:  # --help alone: error() raises CliError
            return exc.code
        if [] in vars(args).values():
            # argparse takes the value of "--n-max=--" for its separator,
            # drops it and hands the option an empty list
            raise CliError("an option value cannot be '--'")
        # exact values are read and written whole, however many digits they
        # have: lift CPython's int/str digit limit (3.11, and 3.10.7 on) for
        # the run; the forked workers of verify --jobs inherit it
        if digits:
            sys.set_int_max_str_digits(0)
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull, so that the flush at
        # exit writes nowhere instead of raising again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    finally:
        if digits:
            sys.set_int_max_str_digits(digits)


if __name__ == "__main__":
    sys.exit(main())
