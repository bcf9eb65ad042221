"""Command line front end.

Three subcommands:

* ``verify``      - run named randomized suites, emit CheckReports (JSON
                    array or CSV rows).  Exit 0 if every suite passed,
                    exit 2 on any margin failure, any trial that raised
                    (recorded under "errors" in its report) or any suite
                    whose trials were all skipped.
* ``compute``     - evaluate one quantity (entropy | relent | chi | bures)
                    on matrix/ensemble JSON files, print JSON to stdout.
* ``convergence`` - trapezoid step vs absolute error of the quadrature
                    route against the closed-form value, as
                    ``step,abs_error`` CSV rows, halving down to the step
                    the route runs.

Every float is serialized with 17 significant digits so runs are
reproducible byte for byte; infinities and NaN are rendered as the strings
"inf", "-inf" and "nan".  Usage, file, and parse problems exit 1.  The
default seed is taken from the ENTROPION_SEED environment variable when set.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys

from .entropy import (
    bures_distance,
    relative_entropy,
    relative_entropy_integral_steps,
    relative_entropy_spectral_kernel,
    von_neumann_entropy,
)
from .holevo import Ensemble, chi
from .matcore import matrix_from_json, read_matrix
from .suites import run_suite, suite_names

_PROG = "entropion"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _fmt_float(x: float) -> str:
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if math.isnan(x):
        return "nan"
    return format(float(x), ".17g")


def _json_scalar(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        s = _fmt_float(x)
        return f'"{s}"' if s in ("inf", "-inf", "nan") else s
    if isinstance(x, str):
        return json.dumps(x)
    if x is None:
        return "null"
    raise TypeError(f"cannot serialize {type(x).__name__}")


def dumps_17g(obj, level: int = 0) -> str:
    """Deterministic JSON with 17-significant-digit floats."""
    pad = "  " * level
    inner = "  " * (level + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [f"{inner}{json.dumps(str(k))}: {dumps_17g(v, level + 1)}" for k, v in obj.items()]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        items = list(obj)
        if not items:
            return "[]"
        if all(not isinstance(v, (dict, list, tuple)) for v in items):
            return "[" + ", ".join(_json_scalar(v) for v in items) + "]"
        rows = [f"{inner}{dumps_17g(v, level + 1)}" for v in items]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    return _json_scalar(obj)


def _write_out(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        vals = [int(p) for p in text.split(",") if p.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"bad {what} list {text!r}: {exc}") from exc
    if not vals:
        raise UsageError(f"empty {what} list")
    return vals


def _default_seed() -> int:
    raw = os.environ.get("ENTROPION_SEED")
    if raw is None:
        return 42
    try:
        return int(raw)
    except ValueError as exc:
        raise UsageError(f"ENTROPION_SEED is not an integer: {raw!r}") from exc


def _load_ensemble(path: str) -> Ensemble:
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict) or "weights" not in obj or "states" not in obj:
        raise ValueError(f"{path}: ensemble JSON needs 'weights' and 'states'")
    states = [matrix_from_json(s) for s in obj["states"]]
    return Ensemble(obj["weights"], states)


# --------------------------------------------------------------------------
# verify


def _reports_csv(reports) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["suite", "trials", "seed", "tol", "pass", "worst_margin",
         "skipped_infinite", "n_failures", "runtime_ms"]
    )
    for r in reports:
        writer.writerow(
            [r.suite, r.trials, r.seed, _fmt_float(r.tol),
             "true" if r.passed else "false", _fmt_float(r.worst_margin),
             r.skipped_infinite, len(r.failures) + len(r.errors), _fmt_float(r.runtime_ms)]
        )
    return buf.getvalue()


def _cmd_verify(args) -> int:
    requested: list[str] = []
    for chunk in args.suites:
        requested.extend(p for p in chunk.split(",") if p)
    names = suite_names()
    if any(s == "all" for s in requested):
        requested = names
    unknown = [s for s in requested if s not in names]
    if unknown:
        raise ValueError(
            f"unknown suite(s): {', '.join(unknown)}; known: {', '.join(names)}"
        )
    if not requested:
        raise UsageError("no suites requested")
    dims = _parse_int_list(args.dims, "dims")
    seed = _default_seed() if args.seed is None else args.seed
    reports = [
        run_suite(name, dims=dims, trials=args.trials, seed=seed, tol=args.tol)
        for name in requested
    ]
    for r in reports:
        status = "pass" if r.passed else "FAIL"
        kernel = f" kernel={r.skipped_kernel}" if r.skipped_kernel else ""
        errors = f" errors={len(r.errors)}" if r.errors else ""
        print(
            f"{r.suite}: {status} worst_margin={_fmt_float(r.worst_margin)} "
            f"skipped={r.skipped_infinite}{kernel}{errors} ({r.runtime_ms:.0f} ms)",
            file=sys.stderr,
        )
    if args.format == "json":
        text = dumps_17g([r.to_json_dict() for r in reports])
    else:
        text = _reports_csv(reports)
    _write_out(args.out, text)
    return 0 if all(r.passed for r in reports) else 2


# --------------------------------------------------------------------------
# compute

_QUANTITY_ARITY = {"entropy": 1, "relent": 2, "chi": 1, "bures": 2}


def _cmd_compute(args) -> int:
    n = _QUANTITY_ARITY[args.quantity]
    if len(args.files) != n:
        raise UsageError(f"{args.quantity} needs exactly {n} input file(s)")
    if args.quantity == "entropy":
        value = von_neumann_entropy(read_matrix(args.files[0]))
    elif args.quantity == "relent":
        value = relative_entropy(read_matrix(args.files[0]), read_matrix(args.files[1]))
    elif args.quantity == "chi":
        value = chi(_load_ensemble(args.files[0]))
    else:
        value = bures_distance(read_matrix(args.files[0]), read_matrix(args.files[1]))
    text = dumps_17g({"quantity": args.quantity, "value": value})
    _write_out(args.out, text)
    return 0


# --------------------------------------------------------------------------
# convergence


def _cmd_convergence(args) -> int:
    p = read_matrix(args.p_file)
    q = read_matrix(args.q_file)
    reference = relative_entropy_spectral_kernel(p, q)
    if math.isinf(reference):
        raise ValueError("relative entropy is infinite for this pair; no convergence study")
    rows = ["step,abs_error"]
    for step, approx in relative_entropy_integral_steps(p, q):
        rows.append(f"{_fmt_float(step)},{_fmt_float(abs(approx - reference))}")
    _write_out(args.out, "\n".join(rows) + "\n")
    return 0


# --------------------------------------------------------------------------


@functools.cache  # built on the first main() call, reused by later calls
def _build_parser() -> _Parser:
    parser = _Parser(prog=_PROG, description=__doc__.split("\n")[0] if __doc__ else None)
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run randomized inequality suites")
    v.add_argument("--suites", nargs="+", required=True, metavar="NAME",
                   help="suite names (comma or space separated); 'all' runs everything")
    v.add_argument("--dims", default="2,3",
                   help="comma separated dimensions cycled over trials (default 2,3)")
    v.add_argument("--trials", type=int, default=100, help="trials per suite (default 100)")
    v.add_argument("--seed", type=int, default=None,
                   help="root seed (default: ENTROPION_SEED or 42)")
    v.add_argument("--tol", type=float, default=1e-9,
                   help="margin tolerance (default 1e-9)")
    v.add_argument("--format", choices=("json", "csv"), default="json",
                   help="report format (default json)")
    v.add_argument("--out", default="-", help="output path, '-' for stdout")
    v.set_defaults(func=_cmd_verify)

    c = sub.add_parser("compute", help="evaluate one quantity on JSON inputs")
    c.add_argument("quantity", choices=sorted(_QUANTITY_ARITY))
    c.add_argument("files", nargs="+", metavar="FILE",
                   help="matrix JSON file(s); 'chi' takes one ensemble JSON file")
    c.add_argument("--out", default="-", help="output path, '-' for stdout")
    c.set_defaults(func=_cmd_compute)

    g = sub.add_parser("convergence",
                       help="quadrature step vs absolute error against the closed form")
    g.add_argument("p_file")
    g.add_argument("q_file")
    g.add_argument("--out", default="-", help="output path, '-' for stdout")
    g.set_defaults(func=_cmd_convergence)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"{_PROG}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"{_PROG}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
