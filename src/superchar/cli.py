"""Command-line front end.

Subcommands: validate, table, value, irreducible, orbits, check.  Input
files are sniffed by their first header token: ``n`` starts a closed-set
spec, ``d`` a structure-constant spec.  Exit codes: 0 success, 1 parse or
validation error, 2 enumeration cap exceeded, 3 formula/oracle mismatch.
All configuration is flags and files; no environment variables.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from .algebra import parse_algebra_spec, emit_algebra_spec
from .core import DEFAULT_ENUM_CAP, PatternGroup, StructureAlgebra
from .errors import SizeCapExceeded, SuperCharError
from .formula import CharacterEvaluator, coranks, table_rows
from .oracle import DEFAULT_ORACLE_CAP, full_check
from .poset import _content_lines, _functional_items, emit_spec, format_functional, parse_field_literal, parse_functional, parse_spec
from .table import build_table, _head


def _load(path: str):
    """Parse a spec file into a PatternGroup or StructureAlgebra."""
    text = Path(path).read_text(encoding="utf-8")
    first = next(_content_lines(text), None)
    if first is None:
        raise SuperCharError(f"{path}: empty spec file")
    if first[1].split()[0] == "d":
        alg, _embedding = parse_algebra_spec(text)
        return alg
    J, field = parse_spec(text)
    return PatternGroup(J, field)


def _parse_algebra_functional(alg: StructureAlgebra, text: str):
    """``k=v;...`` items with 1-based coordinate indexes; "0" is zero."""
    out = [0] * alg.d
    for k, val in _functional_items(text, int).items():
        if not 1 <= k <= alg.d:
            raise SuperCharError(f"coordinate {k} out of range 1..{alg.d}")
        out[k - 1] = parse_field_literal(alg.field, val)
    return tuple(out)


def _functional(obj, text: str):
    """A functional of ``obj`` parsed from ``text``, with its display label."""
    if isinstance(obj, PatternGroup):
        f = parse_functional(obj.J, obj.field, text)
        return f, format_functional(obj.J, obj.field, f)
    return _parse_algebra_functional(obj, text), text


def cmd_validate(args) -> int:
    obj = _load(args.path)
    if isinstance(obj, PatternGroup):
        sys.stdout.write(emit_spec(obj.J, obj.field))
    else:
        sys.stdout.write(emit_algebra_spec(obj))
    return 0


def cmd_table(args) -> int:
    tab = build_table(_load(args.path), cap=args.cap)
    if not args.out:
        tab.write(args.format, sys.stdout)
        return 0
    # a sibling temporary file replaces --out only once it is complete, so a
    # failed write leaves the old file as it was and no temporary behind
    out = Path(args.out)
    tmp = out.with_name(f".{out.name}.{os.getpid()}.tmp")
    try:
        stream = open(tmp, "x", encoding="utf-8")
    except OSError as exc:  # name --out, not the hidden temporary beside it
        raise OSError(exc.errno, exc.strerror, args.out) from exc
    try:
        with stream:
            tab.write(args.format, stream)
        os.replace(tmp, out)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return 0


def cmd_value(args) -> int:
    obj = _load(args.path)
    eta, eta_s = _functional(obj, args.eta)
    phi, phi_s = _functional(obj, args.phi)
    val = CharacterEvaluator(obj, eta).value(phi)
    print(f"chi[{eta_s}](x[{phi_s}]) = {val.render()}")
    return 0


def cmd_irreducible(args) -> int:
    obj = _load(args.path)
    eta, _ = _functional(obj, args.eta)
    print(f"irreducible: {'true' if obj.is_irreducible(eta) else 'false'}")
    return 0


def cmd_orbits(args) -> int:
    obj = _load(args.path)
    classes, sizes, chars, co_sizes, _ = table_rows(obj, args.cap)  # its value chunks are never read
    ranks = coranks(obj, chars)
    rep_obj = _head(obj)[2]
    payload = {
        "classes": [{"rep": rep_obj(f), "size": s} for f, s in zip(classes.tolist(), sizes.tolist())],
        "coorbits": [
            {"rep": rep_obj(f), "size": s, "corank": c}
            for f, s, c in zip(chars.tolist(), co_sizes.tolist(), ranks.tolist())
        ],
    }
    sys.stdout.write(json.dumps(payload, separators=(",", ":"), check_circular=False) + "\n")
    return 0


def cmd_check(args) -> int:
    obj = _load(args.path)
    report = full_check(obj, oracle_cap=args.oracle_cap)
    for line in report.lines():
        print(line)
    if report.ok:
        print("all checks passed")
        return 0
    return 3


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: it holds no state of a call."""
    parser = argparse.ArgumentParser(
        prog="superchar",
        description="Supercharacter tables of pattern groups and algebra groups, exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse a spec file and print its canonical form")
    p.add_argument("path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("table", help="compute the supercharacter table")
    p.add_argument("path")
    p.add_argument("--format", choices=("json", "csv", "pretty"), default="json")
    p.add_argument("--out", default=None)
    p.add_argument("--cap", type=int, default=DEFAULT_ENUM_CAP)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("value", help="one supercharacter value")
    p.add_argument("path")
    p.add_argument("--eta", required=True)
    p.add_argument("--phi", required=True)
    p.set_defaults(func=cmd_value)

    p = sub.add_parser("irreducible", help="decide irreducibility of chi^eta")
    p.add_argument("path")
    p.add_argument("--eta", required=True)
    p.set_defaults(func=cmd_irreducible)

    p = sub.add_parser("orbits", help="list superclass and co-orbit representatives")
    p.add_argument("path")
    p.add_argument("--cap", type=int, default=DEFAULT_ENUM_CAP)
    p.set_defaults(func=cmd_orbits)

    p = sub.add_parser("check", help="verify the formula against brute-force orbit sums")
    p.add_argument("path")
    p.add_argument("--oracle-cap", type=int, default=DEFAULT_ORACLE_CAP)
    p.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except SizeCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SuperCharError, FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
