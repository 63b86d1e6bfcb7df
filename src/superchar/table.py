"""Supercharacter tables and their machine-readable serializations.

A table is rows of characters against columns of superclasses, both in the
canonical representative order, with column 0 the identity superclass (so
column 0 of every row is the character's degree).  The JSON layout is fixed
and emitted with deterministic key order; CSV renders values as
``q^m*z^k`` strings; the pretty format renders plain integers whenever
p = 2 (where zeta_2 = -1 makes every value a signed power of q).
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

import numpy as np

from .algebra import StructureAlgebra
from .core import PatternGroup
from .errors import InternalInvariantViolation
from .formula import CharacterEvaluator, is_irreducible
from .gf import CharValue, Fq
from .poset import format_field_literal


@dataclass
class SuperTable:
    kind: str  # "pattern" | "algebra"
    meta: dict
    classes: list  # {"rep": obj, "size": int}
    chars: list  # {"rep": obj, "corank": int, "degree": int, "irreducible": bool}
    values: list  # rows of CharValue

    @property
    def field(self) -> Fq:
        modulus = self.meta.get("modulus")
        return Fq.of(self.meta["q"], tuple(modulus) if modulus else None)

    def to_json_obj(self) -> dict:
        obj = {"kind": self.kind}
        obj.update(self.meta)
        obj["classes"] = self.classes
        obj["chars"] = self.chars
        obj["values"] = [[v.to_json() for v in row] for row in self.values]
        return obj

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), separators=(",", ":")) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "SuperTable":
        obj = json.loads(text)
        kind = obj.pop("kind")
        classes = obj.pop("classes")
        chars = obj.pop("chars")
        values = [[CharValue.from_json(v) for v in row] for row in obj.pop("values")]
        return cls(kind, obj, classes, chars, values)

    # -- rendering ---------------------------------------------------------

    def _rep_label(self, rep) -> str:
        if self.kind == "pattern":
            items = [f"{pos}={val}" for pos, val in rep.items()]
            return ";".join(items) if items else "0"
        return ",".join(rep["coords"])

    def to_csv(self) -> str:
        field = self.field
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        size_label = self.meta.get("n", self.meta.get("d"))
        writer.writerow(
            [f"kind={self.kind}", f"size={size_label}", f"q={self.meta['q']}", f"p={self.meta['p']}"]
        )
        writer.writerow(["char\\class"] + [self._rep_label(c["rep"]) for c in self.classes])
        writer.writerow(["size"] + [str(c["size"]) for c in self.classes])
        for ch, row in zip(self.chars, self.values):
            writer.writerow([self._rep_label(ch["rep"])] + [v.render(field) for v in row])
        return out.getvalue()

    def to_pretty(self) -> str:
        field = self.field
        p = self.meta["p"]

        def show(v: CharValue) -> str:
            if p == 2:
                return str(v.as_int(field))
            return v.render(field)

        headers = ["chi \\ class"] + [self._rep_label(c["rep"]) for c in self.classes]
        rows = [headers, ["size"] + [str(c["size"]) for c in self.classes]]
        for ch, row in zip(self.chars, self.values):
            rows.append([self._rep_label(ch["rep"])] + [show(v) for v in row])
        widths = [max(len(r[k]) for r in rows) for k in range(len(headers))]
        lines = [
            f"# kind={self.kind} q={self.meta['q']} classes={len(self.classes)}"
        ]
        for r in rows:
            lines.append("  ".join(s.rjust(w) for s, w in zip(r, widths)))
        return "\n".join(lines) + "\n"

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return self.to_json()
        if fmt == "csv":
            return self.to_csv()
        if fmt == "pretty":
            return self.to_pretty()
        raise ValueError(f"unknown format {fmt!r}")


def _pattern_rep_obj(G: PatternGroup, f) -> dict:
    return {
        f"{i},{j}": format_field_literal(G.field, v)
        for (i, j), v in zip(G.J.order, f)
        if v
    }


def _algebra_rep_obj(alg: StructureAlgebra, f) -> dict:
    return {"coords": [format_field_literal(alg.field, v) for v in f]}


def _build_table(kind: str, source, meta: dict, cap, rep_obj, irreducible) -> SuperTable:
    """Partition ``source``, then fill each character's row with one
    ``value_block`` call over the digits of every class representative."""
    classes = source.all_orbit_reps(cap)
    chars = source.all_coorbit_reps(cap)
    if len(classes) != len(chars):
        raise InternalInvariantViolation("superclass and character counts differ")
    if classes and any(classes[0].rep):
        raise InternalInvariantViolation("identity superclass is not in column 0")
    digits = np.array([o.rep for o in classes], dtype=np.int64).reshape(len(classes), source.dim)
    q = source.field.q
    cells: dict = {}  # one shared CharValue per distinct (is_zero, q_exp, zeta_exp)
    entries, rows = [], []
    for o in chars:
        ev = CharacterEvaluator(source, o.rep)
        row = []
        for key in zip(*(col.tolist() for col in ev.value_block(digits))):
            v = cells.get(key)
            if v is None:
                is_zero, q_exp, zeta_exp = key
                v = cells[key] = CharValue.zero() if is_zero else CharValue(q_exp, zeta_exp, False)
            row.append(v)
        rows.append(row)
        entries.append(
            {
                "rep": rep_obj(o.rep),
                "corank": ev.corank,
                "degree": q**ev.corank,
                "irreducible": irreducible(o.rep),
            }
        )
    return SuperTable(
        kind=kind,
        meta=meta,
        classes=[{"rep": rep_obj(o.rep), "size": o.size} for o in classes],
        chars=entries,
        values=rows,
    )


def _field_meta(F: Fq) -> dict:
    meta = {"q": F.q, "p": F.p}
    if F.r > 1:
        meta["modulus"] = list(F.modulus)
    return meta


def build_pattern_table(G: PatternGroup, cap: int | None = None) -> SuperTable:
    meta = {"n": G.J.n, **_field_meta(G.field), "J": [[i, j] for i, j in G.J.order]}
    return _build_table(
        "pattern", G, meta, cap, lambda f: _pattern_rep_obj(G, f), lambda eta: is_irreducible(G, eta)
    )


def build_algebra_table(alg: StructureAlgebra, cap: int | None = None) -> SuperTable:
    constants = [
        [i + 1, j + 1, k + 1, format_field_literal(alg.field, v)]
        for (i, j) in sorted(alg.constants)
        for k, v in sorted(alg.constants[(i, j)].items())
    ]
    meta = {"d": alg.d, **_field_meta(alg.field), "constants": constants}
    return _build_table(
        "algebra", alg, meta, cap, lambda f: _algebra_rep_obj(alg, f), alg.is_irreducible
    )
