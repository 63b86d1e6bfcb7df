"""Command-line front end.

Subcommands: validate, table, value, irreducible, orbits, check.  Input
files are sniffed by their first header token: ``n`` starts a closed-set
spec, ``d`` a structure-constant spec.  Exit codes: 0 success, 1 parse or
validation error, 2 enumeration cap exceeded, 3 formula/oracle mismatch.
All configuration is flags and files; no environment variables.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .algebra import StructureAlgebra, parse_algebra_spec, emit_algebra_spec
from .core import DEFAULT_ENUM_CAP, PatternGroup
from .errors import SizeCapExceeded, SuperCharError
from .formula import CharacterEvaluator, is_irreducible
from .oracle import DEFAULT_ORACLE_CAP, full_check
from .poset import emit_spec, format_functional, parse_functional, parse_spec
from .table import build_algebra_table, build_pattern_table, _algebra_rep_obj, _pattern_rep_obj


def _load(path: str):
    """Parse a spec file into a PatternGroup or StructureAlgebra."""
    text = Path(path).read_text(encoding="utf-8")
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head = line.split()[0]
        break
    else:
        raise SuperCharError(f"{path}: empty spec file")
    if head == "d":
        alg, _embedding = parse_algebra_spec(text)
        return alg
    J, field = parse_spec(text)
    return PatternGroup(J, field)


def _parse_algebra_functional(alg: StructureAlgebra, text: str):
    """``k=v;...`` items with 1-based coordinate indexes; "0" is zero."""
    from .poset import parse_field_literal

    text = text.strip()
    out = [0] * alg.d
    if text in ("", "0"):
        return tuple(out)
    for item in text.split(";"):
        item = item.strip()
        if not item:
            continue
        idx_s, _, val = item.partition("=")
        k = int(idx_s)
        if not 1 <= k <= alg.d:
            raise SuperCharError(f"coordinate {k} out of range 1..{alg.d}")
        out[k - 1] = parse_field_literal(alg.field, val)
    return tuple(out)


def cmd_validate(args) -> int:
    obj = _load(args.path)
    if isinstance(obj, PatternGroup):
        sys.stdout.write(emit_spec(obj.J, obj.field))
    else:
        sys.stdout.write(emit_algebra_spec(obj))
    return 0


def cmd_table(args) -> int:
    obj = _load(args.path)
    build = build_pattern_table if isinstance(obj, PatternGroup) else build_algebra_table
    tab = build(obj, cap=args.cap)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as out:
            tab.write(args.format, out)
    else:
        tab.write(args.format, sys.stdout)
    return 0


def cmd_value(args) -> int:
    obj = _load(args.path)
    if isinstance(obj, PatternGroup):
        eta = parse_functional(obj.J, obj.field, args.eta)
        phi = parse_functional(obj.J, obj.field, args.phi)
        eta_s = format_functional(obj.J, obj.field, eta)
        phi_s = format_functional(obj.J, obj.field, phi)
    else:
        eta = _parse_algebra_functional(obj, args.eta)
        phi = _parse_algebra_functional(obj, args.phi)
        eta_s, phi_s = args.eta, args.phi
    val = CharacterEvaluator(obj, eta).value(phi)
    print(f"chi[{eta_s}](x[{phi_s}]) = {val.render(obj.field)}")
    return 0


def cmd_irreducible(args) -> int:
    obj = _load(args.path)
    if isinstance(obj, PatternGroup):
        eta = parse_functional(obj.J, obj.field, args.eta)
        result = is_irreducible(obj, eta)
    else:
        eta = _parse_algebra_functional(obj, args.eta)
        result = obj.is_irreducible(eta)
    print(f"irreducible: {'true' if result else 'false'}")
    return 0


def cmd_orbits(args) -> int:
    obj = _load(args.path)
    classes = obj.all_orbit_reps(args.cap)
    coorbits = obj.all_coorbit_reps(args.cap)
    if isinstance(obj, PatternGroup):
        rep_obj = lambda f: _pattern_rep_obj(obj, f)  # noqa: E731
    else:
        rep_obj = lambda f: _algebra_rep_obj(obj, f)  # noqa: E731
    coranks = [obj.corank(o.rep) for o in coorbits]
    payload = {
        "classes": [{"rep": rep_obj(o.rep), "size": o.size} for o in classes],
        "coorbits": [
            {"rep": rep_obj(o.rep), "size": o.size, "corank": c}
            for o, c in zip(coorbits, coranks)
        ],
    }
    sys.stdout.write(json.dumps(payload, separators=(",", ":")) + "\n")
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


def main(argv=None) -> int:
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

    args = parser.parse_args(argv)
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
