"""Supercharacter tables and their machine-readable serializations.

A table is rows of characters against columns of superclasses, both in the
canonical representative order, with column 0 the identity superclass (so
column 0 of every row is the character's degree).  Every value is 0 or
q**m * zeta_p**k with m <= dim, so the table keeps one narrow unsigned cell
code per value (:func:`~superchar.gf.cell_codes`), one byte per cell unless
(dim + 1) * p passes 255: the codes the value kernels write, stored as
they come.  The emitters read the codes a block of rows at a
time and look the text up by code in one lookup kept for the whole table,
which renders each distinct value once.  JSON and CSV rows take their text
two cells at a time, already joined by a comma, from code pairs, unless the
pairs outnumber the table's cells; ``values`` and the pretty format take
one cell at a time.  Rows go to the stream one by one.  The JSON layout
is fixed and emitted with deterministic key order; CSV renders values as
``q^m*z^k`` strings; the pretty format renders plain integers whenever
p = 2 (where zeta_2 = -1 makes every value a signed power of q).

One builder, :func:`build_table` (also named ``build_pattern_table`` and
``build_algebra_table``), makes every table from the rows of
:func:`~superchar.formula.table_rows`, the rows ``superchar check`` judges.
Labels render their "i,j" keys once per table and each field literal once
per value.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import PatternGroup, StructureAlgebra
from .errors import BadField, SpecMismatch
from .formula import table_rows
from .gf import CharValue, Fq, cell_code_dtype, cell_codes, cell_value
from .poset import format_field_literal, parse_field_literal


# Cells per block of rows while rendering.  Measured on U_8(2) (17.1 M
# cells): 2^16 writes JSON and CSV as fast as any of 2^14..2^20 and holds
# the least memory per block.
_BLOCK_CELLS = 1 << 16


@dataclass(eq=False)
class SuperTable:
    """The values are one (characters, classes) array of cell codes:
    ``codes[i, j]`` is 0 for a zero cell and 1 + q_exp * p + zeta_exp for
    q**q_exp * zeta_p**zeta_exp (:func:`~superchar.gf.cell_codes`), in the
    narrowest unsigned dtype that holds (dim + 1) * p.  The emitters render
    each distinct code once and stream the rows; ``values`` decodes
    CharValue rows on demand."""

    kind: str  # "pattern" | "algebra"
    meta: dict
    classes: list  # {"rep": obj, "size": int}
    chars: list  # {"rep": obj, "corank": int, "degree": int, "irreducible": bool}
    codes: np.ndarray

    @cached_property
    def field(self) -> Fq:
        modulus = self.meta.get("modulus")
        return Fq.of(self.meta["q"], tuple(modulus) if modulus else None)

    @property
    def values(self) -> list:
        """Rows of CharValue, one shared instance per distinct value."""
        return list(self._rows(lambda v: v))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SuperTable):
            return NotImplemented
        head = (self.kind, self.meta, self.classes, self.chars)
        return head == (other.kind, other.meta, other.classes, other.chars) and np.array_equal(self.codes, other.codes)

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
        is_rep = _rep_check(kind, obj, field)
        for k, c in enumerate(classes):
            if not (
                type(c) is dict
                and c.keys() == {"rep", "size"}
                and is_rep(c["rep"])
                and type(c["size"]) is int
                and c["size"] > 0
            ):
                raise SpecMismatch(f"class {k} {c!r} is not a rep and a positive size")
        for k, c in enumerate(chars):
            if not (
                type(c) is dict
                and c.keys() == {"rep", "corank", "degree", "irreducible"}
                and is_rep(c["rep"])
                and type(c["corank"]) is int
                and 0 <= c["corank"] <= dim
                and type(c["degree"]) is int
                and c["degree"] == field.q ** c["corank"]
                and type(c["irreducible"]) is bool
            ):
                raise SpecMismatch(
                    f"character {k} {c!r} is not a rep, a corank <= {dim}, its degree q**corank and a bool"
                )
        zero, q_exp, zeta_exp = np.zeros((3, len(chars), len(classes)), dtype=cell_code_dtype(dim, p))
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
        return cls(kind, obj, classes, chars, cell_codes(zero, q_exp, zeta_exp, p, dim))

    # -- rendering ---------------------------------------------------------

    def _row_blocks(self):
        """Slices of consecutive rows, about ``_BLOCK_CELLS`` cells each."""
        step = max(1, _BLOCK_CELLS // max(1, len(self.classes)))
        for start in range(0, len(self.chars), step):
            yield slice(start, start + step)

    def _blocks(self, show, pairs: bool = False):
        """The rows in blocks, each as (items, lookup): row i of a block is
        ``lookup[items[i]]``, its cells in order one or two at a time.

        The cells are the table's codes, n of them up to its largest.  An
        item is one cell, its code, shown as ``show(CharValue)``; with
        ``pairs``, when the n**2 pairs are no more than the table's cells, it
        is two, the pair c1 * n + c2 (or n**2 + c for an odd last cell), in
        the narrowest unsigned dtype that holds it, shown as the two texts
        joined by a comma.  ``lookup`` lasts the whole table: a block renders
        only the items no earlier block held, each cell code shown once."""
        p, width = self.meta["p"], len(self.classes)
        n = int(self.codes.max(initial=0)) + 1
        k = 2 if pairs and n * n <= self.codes.size else 1
        size = n * n + n if k == 2 else n
        dtype = np.min_scalar_type(size - 1)
        lookup, unseen, shown = np.empty(size, dtype=object), np.ones(size, dtype=bool), {}

        def cell(code: int):
            if code not in shown:
                shown[code] = show(cell_value(code, p))
            return shown[code]

        def text(item: int):
            if k == 1:
                return cell(item)
            if item >= n * n:
                return cell(item - n * n)
            first, second = divmod(item, n)
            return cell(first) + "," + cell(second)

        half = width // 2
        for rows in self._row_blocks():
            items = codes = self.codes[rows]
            if k == 2:
                items = np.empty((len(codes), width - half), dtype=dtype)
                np.multiply(codes[:, 0 : 2 * half : 2], n, out=items[:, :half], dtype=dtype)
                items[:, :half] += codes[:, 1 : 2 * half : 2]
                if width % 2:
                    np.add(codes[:, -1], n * n, out=items[:, half], dtype=dtype)
            fresh = items[unseen.take(items)]  # the items no earlier block held
            if len(fresh):
                new = np.zeros(size, dtype=bool)
                new[fresh] = True
                unseen[new] = False
                for item in np.flatnonzero(new).tolist():
                    lookup[item] = text(item)
            yield items, lookup

    def _rows(self, show, pairs: bool = False):
        """Each row as the list of its items (:meth:`_blocks`)."""
        for items, lookup in self._blocks(show, pairs):
            yield from lookup[items].tolist()

    def _rep_label(self, rep) -> str:
        if self.kind == "pattern":
            items = [f"{pos}={val}" for pos, val in rep.items()]
            return ";".join(items) if items else "0"
        return ",".join(rep["coords"])

    def _write_json(self, stream) -> None:
        head = {"kind": self.kind, **self.meta, "classes": self.classes, "chars": self.chars}
        stream.write(json.dumps(head, separators=(",", ":"), check_circular=False)[:-1] + ',"values":[')
        show = lambda v: json.dumps(v.to_json(), separators=(",", ":"))
        for i, items in enumerate(self._rows(show, pairs=True)):
            stream.write(("[" if i == 0 else ",[") + ",".join(items) + "]")
        stream.write("]}\n")

    def _write_csv(self, stream) -> None:
        writer = csv.writer(stream, lineterminator="\n")
        size_label = self.meta.get("n", self.meta.get("d"))
        writer.writerow(
            [f"kind={self.kind}", f"size={size_label}", f"q={self.meta['q']}", f"p={self.meta['p']}"]
        )
        writer.writerow(["char\\class"] + [self._rep_label(c["rep"]) for c in self.classes])
        writer.writerow(["size"] + [str(c["size"]) for c in self.classes])
        # The values never need quoting, so csv.writer writes only each row's
        # label and its comma, and the values follow joined by commas.
        label_writer = csv.writer(stream, lineterminator="")
        for ch, items in zip(self.chars, self._rows(CharValue.render, pairs=True)):
            label_writer.writerow([self._rep_label(ch["rep"]), ""])
            stream.write(",".join(items) + "\n")

    def _write_pretty(self, stream) -> None:
        if self.meta["p"] == 2:
            field = self.field
            show = lambda v: str(v.as_int(field))
        else:
            show = CharValue.render
        headers = ["chi \\ class"] + [self._rep_label(c["rep"]) for c in self.classes]
        sizes = ["size"] + [str(c["size"]) for c in self.classes]
        labels = [self._rep_label(ch["rep"]) for ch in self.chars]
        widths = [max(len(h), len(s)) for h, s in zip(headers, sizes)]
        widths[0] = max([widths[0]] + [len(s) for s in labels])
        for items, lookup in self._blocks(show):
            lengths = np.array([0 if s is None else len(s) for s in lookup.tolist()])
            widths[1:] = np.maximum(widths[1:], lengths[items].max(axis=0)).tolist()
        stream.write(f"# kind={self.kind} q={self.meta['q']} classes={len(self.classes)}\n")
        for row in (headers, sizes):
            stream.write("  ".join(map(str.rjust, row, widths)) + "\n")
        for label, cells in zip(labels, self._rows(show)):
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


def _rep_check(kind: str, meta: dict, field: Fq):
    """A test of the JSON rep objects of a table read back: "i,j" keys of J
    mapped to literals of nonzero elements for a pattern group, and
    {"coords": [d literals]} for an algebra group.  Literals are the ones
    :func:`format_field_literal` writes; SpecMismatch when J is no list of
    int pairs."""
    elements = {}  # each string tested -> the element it is the literal of, or None

    def element(s):
        if type(s) is not str:
            return None
        if s not in elements:
            try:
                a = parse_field_literal(field, s)
            except BadField:
                a = None
            elements[s] = a if a is not None and format_field_literal(field, a) == s else None
        return elements[s]

    if kind == "algebra":
        d = meta["d"]
        return lambda rep: (
            type(rep) is dict
            and rep.keys() == {"coords"}
            and type(rep["coords"]) is list
            and len(rep["coords"]) == d
            and all(element(s) is not None for s in rep["coords"])
        )
    if not all(type(pair) is list and len(pair) == 2 and all(type(i) is int for i in pair) for pair in meta["J"]):
        raise SpecMismatch(f"the table's J {meta['J']!r} is not a list of [i, j] pairs")
    keys = {f"{i},{j}" for i, j in meta["J"]}
    return lambda rep: type(rep) is dict and rep.keys() <= keys and all(map(element, rep.values()))


def _pattern_rep_obj(G: PatternGroup):
    """The JSON rep object of a functional of ``G``, as a function: its
    nonzero entries under the "i,j" keys, which are built once."""
    keys, literals = [f"{i},{j}" for i, j in G.J.order], _Literals(G.field)
    return lambda f: dict(itertools.compress(zip(keys, map(literals.__getitem__, f)), f))


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


def build_table(source, cap: int | None = None) -> SuperTable:
    """The table of any algebra group, from the rows of
    :func:`~superchar.formula.table_rows`, each chunk written into its own
    rows."""
    classes, sizes, chars, _, chunks = table_rows(source, cap)
    dim, p = source.dim, source.field.p
    codes = np.zeros((len(chars), len(classes)), dtype=cell_code_dtype(dim, p))
    kind, meta, rep_obj = _head(source)
    class_reps = [rep_obj(rep) for rep in classes.tolist()]
    char_reps = class_reps if chars is classes else [rep_obj(rep) for rep in chars.tolist()]
    q, char_rows = source.field.q, [None] * len(chars)
    for rows, coranks, irreducible, block in chunks:
        codes[rows] = block
        for i, c, irr in zip(rows.tolist(), coranks.tolist(), irreducible.tolist()):
            char_rows[i] = {"rep": char_reps[i], "corank": c, "degree": q**c, "irreducible": irr}
    class_rows = [{"rep": rep, "size": size} for rep, size in zip(class_reps, sizes.tolist())]
    return SuperTable(kind, meta, class_rows, char_rows, codes)


build_pattern_table = build_algebra_table = build_table
