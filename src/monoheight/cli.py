"""Command-line front door.

Parses matrices, systems and points, dispatches to the library, and emits
either a versioned JSON document ("schema": "monoheight/1", reals as decimal
strings) or a short text report.  Output is deterministic for a fixed job
apart from the timestamp field.
"""

import argparse
import functools
import json
import sys
from datetime import datetime, timezone

from .errors import BudgetError, InputError, MonoheightError, UnsupportedError
from .precision import default_precision, mp, real_str
from .matrices import IntMatrix
from .jordan import jordan_basis, jordan_profile, limit_matrix_B
from .points import PointGm, log_profile, weil_height_of_point
from .heights import (
    DEFAULT_WORD_BUDGET,
    canonical_height_closed,
    canonical_height_truncated,
    classify_orbit,
)
from .systems import DEFAULT_N_MAX, SystemF, system_report
from .baker import effective_constants

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_UNSUPPORTED = 3
EXIT_BUDGET = 4

SCHEMA = "monoheight/1"


def _load_json_file(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def _matrix_from_obj(obj) -> IntMatrix:
    # canonical {"n":, "rows":}, plus tolerant forms: raw [[..]] or {"matrix": [[..]]}
    if isinstance(obj, dict):
        if "rows" in obj:
            return IntMatrix.from_json(obj)
        if "matrix" in obj:
            obj = obj["matrix"]
    if isinstance(obj, list):
        return IntMatrix(obj)
    raise InputError('matrix JSON must be [[...]] or {"rows": [[...]]}')


def load_matrix(path) -> IntMatrix:
    return _matrix_from_obj(_load_json_file(path))


def load_system(path) -> SystemF:
    obj = _load_json_file(path)
    if isinstance(obj, dict) and isinstance(obj.get("matrices"), list):
        mats = [_matrix_from_obj(m) for m in obj["matrices"]]
        k = obj.get("k", len(mats))
        if type(k) is not int or k != len(mats):
            raise InputError("system JSON: k does not match the matrix count")
        return SystemF(tuple(mats))
    if isinstance(obj, list):
        return SystemF(tuple(_matrix_from_obj(m) for m in obj))
    raise InputError('system JSON must be {"matrices": [...]} or a list of matrices')


def _poly_json(p):
    return {"coeffs": [str(c) for c in p.coeffs], "str": str(p)}


def _cmd_analyze(args):
    A = load_matrix(args.matrix)
    prof = jordan_profile(A)
    report = {
        "matrix": A.to_json(),
        "charpoly": _poly_json(prof.modulus.charpoly),
        "factors": [{"poly": _poly_json(fd.poly), "multiplicity": fd.multiplicity}
                    for fd in prof.modulus.factors],
        "rho": prof.rho.to_json(),
        "l": prof.l,
        "r": prof.r,
        "rbar": prof.rbar,
        "parity_period": prof.m,
    }
    try:
        b = limit_matrix_B(A, prec=args.precision)
        report["limit_matrix"] = {
            "exact": b.exact,
            "entries": [[str(v) if b.exact else real_str(v, 15) for v in row] for row in b.entries],
            "congruence_modulus": b.m,
            "notes": list(b.notes),
        }
    except MonoheightError as exc:
        report["limit_matrix"] = {"unavailable": str(exc)}
    try:
        jb = jordan_basis(A)
        report["jordan"] = {
            "det_J": str(jb.det_J),
            "field": "Q" if jb.field_d == 0 else f"Q(sqrt({jb.field_d}))",
        }
    except MonoheightError as exc:
        report["jordan"] = {"unavailable": str(exc)}
    return report


def _cmd_height(args):
    P = PointGm.parse(args.point)
    hv = weil_height_of_point(P)
    return {
        "point": P.to_json(),
        "profile": log_profile(P).to_json(),
        "height": hv.to_json(),
    }


def _cmd_canonical_height(args):
    A = load_matrix(args.matrix)
    P = PointGm.parse(args.point)
    hv = canonical_height_closed(A, P, prec=args.precision)
    report = {
        "matrix": A.to_json(),
        "point": P.to_json(),
        "canonical_height": hv.to_json(),
    }
    if args.truncation_order:
        est = canonical_height_truncated(
            A, P, args.truncation_order, word_budget=args.word_budget, prec=args.precision
        )
        report["truncated"] = est.to_json()
    return report


def _cmd_system(args):
    F = load_system(args.system)
    P = PointGm.parse(args.point)
    rep = system_report(F, P, n_max=args.n_max, word_budget=args.word_budget)
    return rep.to_json()


def _cmd_baker_bound(args):
    A = load_matrix(args.matrix)
    P = PointGm.parse(args.point)
    bc = effective_constants(A, P, prec=args.precision)
    return bc.to_json()


def _cmd_classify(args):
    if args.system:
        F = load_system(args.system)
    else:
        F = load_matrix(args.matrix)
    P = PointGm.parse(args.point)
    verdict = classify_orbit(F, P, budget=args.word_budget)
    return {"point": P.to_json(), "orbit": verdict.to_json()}


_COMMANDS = {
    "analyze": (_cmd_analyze, ("matrix",)),
    "height": (_cmd_height, ("point",)),
    "canonical-height": (_cmd_canonical_height, ("matrix", "point")),
    "system": (_cmd_system, ("system", "point")),
    "baker-bound": (_cmd_baker_bound, ("matrix", "point")),
    "classify": (_cmd_classify, ("point",)),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one argument parser; it does not depend on the arguments."""
    parser = argparse.ArgumentParser(
        prog="monoheight",
        description="Heights and dynamical degrees of monomial maps on the torus.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--matrix", metavar="FILE", help="JSON file with one integer matrix")
    parser.add_argument("--system", metavar="FILE", help="JSON file with a list of matrices")
    parser.add_argument("--point", metavar="LIST", help="comma-separated rational coordinates")
    parser.add_argument("--n-max", type=int, default=DEFAULT_N_MAX, dest="n_max")
    parser.add_argument("--precision", type=int, default=None, metavar="BITS")
    parser.add_argument("--word-budget", type=int, default=DEFAULT_WORD_BUDGET, dest="word_budget")
    parser.add_argument("--truncation-order", type=int, default=0, dest="truncation_order")
    parser.add_argument("--format", choices=("json", "text"), default="json")
    return parser


def _validate(args):
    handler, required = _COMMANDS[args.command]
    for name in required:
        if getattr(args, name) is None:
            raise InputError(f"{args.command} requires --{name}")
    if args.command == "classify" and not (args.matrix or args.system):
        raise InputError("classify requires --matrix or --system")
    if args.n_max < 1 or args.word_budget < 1:
        raise InputError("budgets must be positive")
    if args.precision is not None and not 16 <= args.precision <= 1 << 16:
        raise InputError("precision must be between 16 and 65536 bits")
    return handler


def _render_text(doc, out):
    def walk(key, value, indent):
        pad = "  " * indent
        if isinstance(value, dict):
            out.write(f"{pad}{key}:\n")
            for k, v in value.items():
                walk(k, v, indent + 1)
        elif isinstance(value, list) and value and isinstance(value[0], (dict, list)):
            out.write(f"{pad}{key}:\n")
            for i, v in enumerate(value):
                walk(str(i), v, indent + 1)
        else:
            out.write(f"{pad}{key}: {value}\n")

    for k, v in doc.items():
        if k in ("schema", "timestamp"):
            continue
        walk(k, v, 0)


def run(argv=None, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code else EXIT_OK
    prec = args.precision or default_precision()
    try:
        handler = _validate(args)
        with mp.workprec(prec):
            report = handler(args)
        doc = {
            "schema": SCHEMA,
            "command": args.command,
            "precision_bits": prec,
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "report": report,
        }
        if args.format == "json":
            json.dump(doc, out, indent=2)
            out.write("\n")
        else:
            _render_text(doc, out)
        return EXIT_OK
    except BudgetError as exc:
        return _emit_error(out, EXIT_BUDGET, "budget", exc)
    except UnsupportedError as exc:
        return _emit_error(out, EXIT_UNSUPPORTED, "unsupported", exc)
    except InputError as exc:
        return _emit_error(out, EXIT_INPUT, "input", exc)


def _emit_error(out, code, kind, exc) -> int:
    json.dump({"schema": SCHEMA, "error": {"type": kind, "message": str(exc)}}, out, indent=2)
    out.write("\n")
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
