"""Supercharacter tables and their machine-readable serializations.

A table is rows of characters against columns of superclasses, both in the
canonical representative order, with column 0 the identity superclass (so
column 0 of every row is the character's degree).  Every value is 0 or
q**m * zeta_p**k, so the values are kept as three arrays (zero mask, m, k),
and the emitters render each distinct value once and write the rows to a
stream one by one.  The JSON layout is fixed and emitted with deterministic
key order; CSV renders values as ``q^m*z^k`` strings; the pretty format
renders plain integers whenever p = 2 (where zeta_2 = -1 makes every value a
signed power of q).
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

import numpy as np

from .core import PatternGroup, StructureAlgebra
from .errors import InternalInvariantViolation, SpecMismatch
from .formula import value_arrays, value_chunks
from .gf import CharValue, Fq
from .poset import format_field_literal


_BLOCK_CELLS = 1 << 20  # cells per block of rows while rendering


@dataclass(eq=False)
class SuperTable:
    """The table is stored as three (characters, classes) arrays: cell
    (i, j) is 0 where ``zero`` is set and q**q_exp * zeta_p**zeta_exp
    otherwise.  The emitters render each distinct value once and stream the
    rows; ``values`` builds CharValue rows on demand."""

    kind: str  # "pattern" | "algebra"
    meta: dict
    classes: list  # {"rep": obj, "size": int}
    chars: list  # {"rep": obj, "corank": int, "degree": int, "irreducible": bool}
    zero: np.ndarray
    q_exp: np.ndarray
    zeta_exp: np.ndarray

    @property
    def field(self) -> Fq:
        modulus = self.meta.get("modulus")
        return Fq.of(self.meta["q"], tuple(modulus) if modulus else None)

    @property
    def values(self) -> list:
        """Rows of CharValue, one shared instance per distinct value."""
        return list(self._cells(self._lookup(lambda v: v)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SuperTable):
            return NotImplemented
        head = (self.kind, self.meta, self.classes, self.chars)
        return head == (other.kind, other.meta, other.classes, other.chars) and all(
            np.array_equal(getattr(self, a), getattr(other, a)) for a in ("zero", "q_exp", "zeta_exp")
        )

    def to_json(self) -> str:
        return self.render("json")

    @classmethod
    def from_json(cls, text: str) -> "SuperTable":
        """The table ``to_json`` wrote; any other input raises SpecMismatch."""
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecMismatch(f"a table is JSON: {exc}") from exc
        kind = obj.get("kind") if isinstance(obj, dict) else None
        if kind not in ("pattern", "algebra"):
            raise SpecMismatch(f"a table is a JSON object of kind pattern or algebra, not {kind!r}")
        size = ("d", int) if kind == "algebra" else ("J", list)
        for key, want in (size, ("p", int), ("classes", list), ("chars", list), ("values", list)):
            if type(obj.get(key)) is not want:  # so a bool is no int
                raise SpecMismatch(f"the table's {key!r} is not a JSON {want.__name__}")
        kind, classes, chars, rows = (obj.pop(key) for key in ("kind", "classes", "chars", "values"))
        dim, p = obj["d"] if kind == "algebra" else len(obj["J"]), obj["p"]
        if len(rows) != len(chars) or any(type(row) is not list or len(row) != len(classes) for row in rows):
            raise SpecMismatch(f"values are not {len(chars)} characters x {len(classes)} classes")
        zero, q_exp, zeta_exp = value_arrays((len(chars), len(classes)), dim, p)
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                if v is None:
                    zero[i, j] = True
                elif (
                    type(v) is dict
                    and v.keys() == {"q_exp", "zeta_exp"}
                    and all(type(x) is int for x in v.values())
                    and 0 <= v["q_exp"] <= dim
                    and 0 <= v["zeta_exp"] < p
                ):
                    q_exp[i, j], zeta_exp[i, j] = v["q_exp"], v["zeta_exp"]
                else:
                    raise SpecMismatch(f"value {v!r} at ({i}, {j}) is not q^m*z^k with m <= {dim}, k < {p}")
        return cls(kind, obj, classes, chars, zero, q_exp, zeta_exp)

    # -- rendering ---------------------------------------------------------

    def _row_blocks(self):
        """Slices of consecutive rows, about ``_BLOCK_CELLS`` cells each."""
        step = max(1, _BLOCK_CELLS // max(1, len(self.classes)))
        for start in range(0, len(self.chars), step):
            yield slice(start, start + step)

    def _codes(self, rows: slice) -> np.ndarray:
        """Cell codes of a block of rows: 0 for a zero cell and
        1 + q_exp * p + zeta_exp otherwise."""
        codes = self.q_exp[rows].astype(np.int64) * self.meta["p"] + self.zeta_exp[rows] + 1
        codes[self.zero[rows]] = 0
        return codes

    def _lookup(self, show) -> np.ndarray:
        """An object array indexed by cell code: ``show(CharValue)`` for every
        code that occurs in the table, computed once per code."""
        p = self.meta["p"]
        present = np.zeros(1 + (int(self.q_exp.max(initial=0)) + 1) * p, dtype=bool)
        for rows in self._row_blocks():
            present[self._codes(rows)] = True
        lookup = np.empty(len(present), dtype=object)
        for code in np.flatnonzero(present).tolist():
            q_exp, zeta_exp = divmod(code - 1, p)
            lookup[code] = show(CharValue.zero() if code == 0 else CharValue(q_exp, zeta_exp, False))
        return lookup

    def _cells(self, lookup: np.ndarray):
        """Each row as the list of its cells looked up in ``lookup``."""
        for rows in self._row_blocks():
            yield from lookup[self._codes(rows)].tolist()

    def _rep_label(self, rep) -> str:
        if self.kind == "pattern":
            items = [f"{pos}={val}" for pos, val in rep.items()]
            return ";".join(items) if items else "0"
        return ",".join(rep["coords"])

    def _write_json(self, stream) -> None:
        head = {"kind": self.kind, **self.meta, "classes": self.classes, "chars": self.chars}
        stream.write(json.dumps(head, separators=(",", ":"))[:-1] + ',"values":[')
        lookup = self._lookup(lambda v: json.dumps(v.to_json(), separators=(",", ":")))
        for i, cells in enumerate(self._cells(lookup)):
            stream.write(("[" if i == 0 else ",[") + ",".join(cells) + "]")
        stream.write("]}\n")

    def _write_csv(self, stream) -> None:
        writer = csv.writer(stream, lineterminator="\n")
        size_label = self.meta.get("n", self.meta.get("d"))
        writer.writerow(
            [f"kind={self.kind}", f"size={size_label}", f"q={self.meta['q']}", f"p={self.meta['p']}"]
        )
        writer.writerow(["char\\class"] + [self._rep_label(c["rep"]) for c in self.classes])
        writer.writerow(["size"] + [str(c["size"]) for c in self.classes])
        field = self.field
        lookup = self._lookup(lambda v: v.render(field))
        # The values never need quoting, so csv.writer writes only each row's
        # label and its comma, and the values follow joined by commas.
        label_writer = csv.writer(stream, lineterminator="")
        for ch, cells in zip(self.chars, self._cells(lookup)):
            label_writer.writerow([self._rep_label(ch["rep"]), ""])
            stream.write(",".join(cells) + "\n")

    def _write_pretty(self, stream) -> None:
        field = self.field
        if self.meta["p"] == 2:
            lookup = self._lookup(lambda v: str(v.as_int(field)))
        else:
            lookup = self._lookup(lambda v: v.render(field))
        headers = ["chi \\ class"] + [self._rep_label(c["rep"]) for c in self.classes]
        sizes = ["size"] + [str(c["size"]) for c in self.classes]
        labels = [self._rep_label(ch["rep"]) for ch in self.chars]
        widths = [max(len(h), len(s)) for h, s in zip(headers, sizes)]
        widths[0] = max([widths[0]] + [len(s) for s in labels])
        lengths = np.array([0 if s is None else len(s) for s in lookup])
        for rows in self._row_blocks():
            widest = lengths[self._codes(rows)].max(axis=0)
            widths[1:] = np.maximum(widths[1:], widest).tolist()
        stream.write(f"# kind={self.kind} q={self.meta['q']} classes={len(self.classes)}\n")
        for row in (headers, sizes):
            stream.write("  ".join(map(str.rjust, row, widths)) + "\n")
        for label, cells in zip(labels, self._cells(lookup)):
            stream.write("  ".join(map(str.rjust, [label, *cells], widths)) + "\n")

    def write(self, fmt: str, stream) -> None:
        """Write the table in ``fmt`` (json, csv or pretty) to a text stream,
        row by row."""
        writers = {"json": self._write_json, "csv": self._write_csv, "pretty": self._write_pretty}
        if fmt not in writers:
            raise ValueError(f"unknown format {fmt!r}")
        writers[fmt](stream)

    def render(self, fmt: str) -> str:
        out = io.StringIO()
        self.write(fmt, out)
        return out.getvalue()


def _pattern_rep_obj(G: PatternGroup, f) -> dict:
    return {
        f"{i},{j}": format_field_literal(G.field, v)
        for (i, j), v in zip(G.J.order, f)
        if v
    }


def _algebra_rep_obj(alg: StructureAlgebra, f) -> dict:
    return {"coords": [format_field_literal(alg.field, v) for v in f]}


def _build_table(kind: str, source, meta: dict, cap, rep_obj) -> SuperTable:
    """Partition ``source``, then fill the value arrays a chunk of rows at a
    time from ``value_chunks`` over the digits of every class
    representative."""
    classes = source.all_orbit_reps(cap)
    chars = source.all_coorbit_reps(cap)
    if len(classes) != len(chars):
        raise InternalInvariantViolation("superclass and character counts differ")
    if classes and any(classes[0].rep):
        raise InternalInvariantViolation("identity superclass is not in column 0")
    digits = np.array([o.rep for o in classes], dtype=np.int64).reshape(len(classes), source.dim)
    q = source.field.q
    values = value_arrays((len(chars), len(classes)), source.dim, source.field.p)
    entries = []
    for start, evaluators, block in value_chunks(source, [o.rep for o in chars], digits):
        for arr, rows in zip(values, block):
            arr[start : start + len(rows)] = rows
        # chi^eta = (|eta U| / |U eta U|) * sum of theta o mu over the co-orbit
        # U eta U, and the theta o mu are orthonormal, so <chi^eta, chi^eta> =
        # |eta U|**2 / |U eta U| with |eta U| = q**rank(A_eta) = q**corank:
        # chi^eta is irreducible iff its co-orbit has q**(2 * corank) members.
        entries += [
            {
                "rep": rep_obj(eta),
                "corank": corank,
                "degree": q**corank,
                "irreducible": ch.size == q ** (2 * corank),
            }
            for eta, corank, ch in zip(evaluators.etas.tolist(), evaluators.coranks.tolist(), chars[start:])
        ]
    return SuperTable(
        kind,
        meta,
        [{"rep": rep_obj(o.rep), "size": o.size} for o in classes],
        entries,
        *values,
    )


def _field_meta(F: Fq) -> dict:
    meta = {"q": F.q, "p": F.p}
    if F.r > 1:
        meta["modulus"] = list(F.modulus)
    return meta


def build_pattern_table(G: PatternGroup, cap: int | None = None) -> SuperTable:
    meta = {"n": G.J.n, **_field_meta(G.field), "J": [[i, j] for i, j in G.J.order]}
    return _build_table("pattern", G, meta, cap, lambda f: _pattern_rep_obj(G, f))


def build_algebra_table(alg: StructureAlgebra, cap: int | None = None) -> SuperTable:
    constants = [
        [i + 1, j + 1, k + 1, format_field_literal(alg.field, v)]
        for (i, j) in sorted(alg.constants)
        for k, v in sorted(alg.constants[(i, j)].items())
    ]
    meta = {"d": alg.d, **_field_meta(alg.field), "constants": constants}
    return _build_table("algebra", alg, meta, cap, lambda f: _algebra_rep_obj(alg, f))
