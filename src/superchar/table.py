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

Tables are built one of two ways.  Any algebra group is partitioned by the
orbit sweep of :mod:`.core` and evaluated by the batched evaluator of
:mod:`.formula`; the full triangular U_n lists its monomials, the least
members of its superclasses and co-orbits alike, and counts sizes, coranks,
irreducibility and values off their arcs, with no sweep.  Both write the
same bytes.  Labels render their "i,j" keys once per table and each field
literal once per value.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

import numpy as np

from .core import PatternGroup, StructureAlgebra, sweep_size
from .errors import BadField, InternalInvariantViolation, SpecMismatch
from .formula import un_arc_counts, un_monomials, un_value_chunks, value_arrays, value_chunks
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
        for key, want in (size, ("q", int), ("p", int), ("classes", list), ("chars", list), ("values", list)):
            if type(obj.get(key)) is not want:  # so a bool is no int
                raise SpecMismatch(f"the table's {key!r} is not a JSON {want.__name__}")
        modulus = obj.get("modulus")
        if "modulus" in obj and not (type(modulus) is list and all(type(c) is int and 0 <= c < obj["p"] for c in modulus)):
            raise SpecMismatch(f"the table's modulus {modulus!r} is not a list of ints below p")
        try:
            field = Fq.of(obj["q"], modulus)
        except BadField as exc:
            raise SpecMismatch(f"the table's field is unusable: {exc}") from exc
        kind, classes, chars, rows = (obj.pop(key) for key in ("kind", "classes", "chars", "values"))
        dim, p = obj["d"] if kind == "algebra" else len(obj["J"]), obj["p"]
        if field.p != p:
            raise SpecMismatch(f"the table's p = {p} is not the characteristic of F_{field.q}")
        if len(classes) != len(chars):
            raise SpecMismatch(f"a table is square, not {len(chars)} characters x {len(classes)} classes")
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


class _Literals(dict):
    """Field literals by element code, each rendered on first use."""

    def __init__(self, field: Fq):
        super().__init__()
        self.field = field

    def __missing__(self, v: int) -> str:
        self[v] = literal = format_field_literal(self.field, v)
        return literal


def _pattern_rep_obj(G: PatternGroup):
    """The JSON rep object of a functional of ``G``, as a function: its
    nonzero entries under the "i,j" keys, which are built once."""
    keys, literals = [f"{i},{j}" for i, j in G.J.order], _Literals(G.field)
    return lambda f: {key: literals[v] for key, v in zip(keys, f) if v}


def _algebra_rep_obj(alg: StructureAlgebra):
    """The JSON rep object of a functional of ``alg``, as a function."""
    literals = _Literals(alg.field)
    return lambda f: {"coords": [literals[v] for v in f]}


def _head(source) -> tuple:
    """(kind, meta, rep_obj) of the table of ``source``."""
    F = source.field
    field = {"q": F.q, "p": F.p}
    if F.r > 1:
        field["modulus"] = list(F.modulus)
    if isinstance(source, PatternGroup):
        J = source.J
        return "pattern", {"n": J.n, **field, "J": [[i, j] for i, j in J.order]}, _pattern_rep_obj(source)
    constants = [
        [i + 1, j + 1, k + 1, format_field_literal(F, v)]
        for (i, j) in sorted(source.constants)
        for k, v in sorted(source.constants[(i, j)].items())
    ]
    return "algebra", {"d": source.d, **field, "constants": constants}, _algebra_rep_obj(source)


def _table(source, class_reps, sizes, char_reps, coranks, irreducible, values) -> SuperTable:
    """The table of ``source`` from its class and character representatives
    (one list, rendered once, when they are the same list), the class
    sizes, the character coranks and irreducibility flags, and the value
    arrays."""
    kind, meta, rep_obj = _head(source)
    classes = [rep_obj(rep) for rep in class_reps]
    chars = classes if char_reps is class_reps else [rep_obj(rep) for rep in char_reps]
    q = source.field.q
    return SuperTable(
        kind,
        meta,
        [{"rep": rep, "size": size} for rep, size in zip(classes, sizes)],
        [
            {"rep": rep, "corank": c, "degree": q**c, "irreducible": irr}
            for rep, c, irr in zip(chars, coranks, irreducible)
        ],
        *values,
    )


def _build_table(source, cap: int | None = None) -> SuperTable:
    """The table of any algebra group: partition ``source`` by the sweep,
    then fill the value arrays a chunk of rows at a time from
    ``value_chunks`` over the digits of every class representative."""
    classes = source.all_orbit_reps(cap)
    chars = source.all_coorbit_reps(cap)
    if len(classes) != len(chars):
        raise InternalInvariantViolation("superclass and character counts differ")
    if classes and any(classes[0].rep):
        raise InternalInvariantViolation("identity superclass is not in column 0")
    digits = np.array([o.rep for o in classes], dtype=np.int64).reshape(len(classes), source.dim)
    values = value_arrays((len(chars), len(classes)), source.dim, source.field.p)
    coranks = []
    for start, evaluators, block in value_chunks(source, [o.rep for o in chars], digits):
        for arr, rows in zip(values, block):
            arr[start : start + len(rows)] = rows
        coranks += evaluators.coranks.tolist()
    # chi^eta = (|eta U| / |U eta U|) * sum of theta o mu over the co-orbit
    # U eta U, and the theta o mu are orthonormal, so <chi^eta, chi^eta> =
    # |eta U|**2 / |U eta U| with |eta U| = q**rank(A_eta) = q**corank:
    # chi^eta is irreducible iff its co-orbit has q**(2 * corank) members.
    q = source.field.q
    irreducible = [o.size == q ** (2 * c) for o, c in zip(chars, coranks)]
    return _table(
        source,
        [o.rep for o in classes],
        [o.size for o in classes],
        [o.rep for o in chars],
        coranks,
        irreducible,
        values,
    )


def _build_un_table(G: PatternGroup, cap: int | None = None) -> SuperTable:
    """The table of U_n with no sweep and no evaluator: the monomials are
    the classes and the characters, in the sweep's order, and sizes,
    coranks, irreducibility and values are counted off their arcs
    (:func:`~superchar.formula.un_value_chunks`).  The cap is the sweep's."""
    sweep_size(G.field, G.d, cap)
    monomials = un_monomials(G)
    e, coranks, irreducible = un_arc_counts(G, monomials)
    values = value_arrays((len(monomials),) * 2, G.d, G.field.p)
    for start, block in un_value_chunks(G, monomials, monomials):
        for arr, rows in zip(values, block):
            arr[start : start + len(rows)] = rows
    reps, q = monomials.tolist(), G.field.q
    return _table(G, reps, [q**k for k in e.tolist()], reps, coranks.tolist(), irreducible.tolist(), values)


def build_pattern_table(G: PatternGroup, cap: int | None = None) -> SuperTable:
    """The table of U_J; for the full triangular J, by its monomials."""
    build = _build_un_table if G.J.is_full_triangular() else _build_table
    return build(G, cap)


def build_algebra_table(alg: StructureAlgebra, cap: int | None = None) -> SuperTable:
    return _build_table(alg, cap)
