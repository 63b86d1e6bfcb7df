"""Structure-constant spec files and embeddings in the triangular matrices.

The engine itself, :class:`StructureAlgebra`, lives in :mod:`.core` (a
pattern group is one of its instances) and is re-exported here.  This module
parses and emits the ``d``/``q``/``constants`` file format, builds the
constants of a span of strictly upper triangular matrices, and finds the
smallest pattern group containing such a span.
"""

from __future__ import annotations

from .core import StructureAlgebra
from .errors import ParseError, SpecMismatch
from .gf import Fq, FqMatrix, solve
from .poset import ClosedSet, _content_lines, _int_token, close_covers, format_field_literal, parse_field_literal


def validate_algebra(d: int, field: Fq, constants) -> StructureAlgebra:
    """Build a StructureAlgebra or raise NotAssociative / NotNilpotent."""
    return StructureAlgebra(d, field, constants)


# ---------------------------------------------------------------------------
# embeddings in the triangular matrices


def constants_from_matrices(n: int, field: Fq, basis) -> dict:
    """Structure constants of the span of strictly upper triangular basis
    matrices (given as {(i, j): value} dicts), by expressing every pairwise
    product in the basis.  Raises if the span is not closed under products.
    """
    positions = sorted({pos for mat in basis for pos in mat})
    for i, j in positions:
        if not (1 <= i < j <= n):
            raise SpecMismatch(f"matrix position ({i}, {j}) is not strictly upper triangular")
    d = len(basis)

    def flatten(mat):
        return [mat.get(pos, 0) for pos in positions]

    cols = None
    if positions:
        cols = FqMatrix.from_rows(
            field, [list(col) for col in zip(*(flatten(m) for m in basis))], d
        )

    def dense_mul(x, y):
        out = {}
        for (i, j), a in x.items():
            for (jj, k), b in y.items():
                if j == jj and a and b:
                    key = (i, k)
                    out[key] = field.add(out.get(key, 0), field.mul(a, b))
        return {k: v for k, v in out.items() if v}

    constants = {}
    for i, x in enumerate(basis):
        for j, y in enumerate(basis):
            prod = dense_mul(x, y)
            if not prod:
                continue
            extra = set(prod) - set(positions)
            if extra:
                raise SpecMismatch(f"basis is not closed under products (position {extra.pop()})")
            sol = solve(cols, flatten(prod))
            if sol is None:
                raise SpecMismatch("basis is not closed under products")
            constants[(i, j)] = {k: v for k, v in enumerate(sol) if v}
    return constants


def pattern_envelope(n: int, basis, field: Fq) -> ClosedSet:
    """The smallest closed set whose pattern group contains the given span.

    Relations: (a) every nonzero position of a basis matrix, and (b) every
    composite (i, k) with (i, j) and (j, k) nonzero positions; transitively
    closed for safety (a no-op for honest algebra spans).
    """
    supp = {pos for mat in basis for pos, v in mat.items() if v}
    rel = set(supp)
    for i, j in supp:
        for jj, k in supp:
            if j == jj:
                rel.add((i, k))
    return close_covers(n, rel)


# ---------------------------------------------------------------------------
# the algebra spec file format


def parse_algebra_spec(text: str):
    """Parse the structure-constant file format.

    Returns (StructureAlgebra, embedding) where embedding is None or
    (n, [basis matrices as {(i, j): value} dicts]).
    """
    d = None
    q = None
    modulus = None
    field = None
    section = None
    embed_n = None
    constants: dict = {}
    seen: set = set()  # (section, indexes) of every constant and embed line
    embed_entries: dict[int, dict] = {}
    for lineno, line in _content_lines(text):
        tokens = line.split()
        head = tokens[0]
        if section is None:
            if head == "d":
                if d is not None or len(tokens) != 2:
                    raise ParseError(lineno, "expected a single 'd <int>' header")
                d = _int_token(lineno, tokens[1])
            elif head == "q":
                if q is not None or len(tokens) != 2:
                    raise ParseError(lineno, "expected a single 'q <int>' header")
                q = _int_token(lineno, tokens[1])
            elif head == "modulus":
                if modulus is not None or len(tokens) < 2:
                    raise ParseError(lineno, "expected 'modulus c0 c1 ... cr'")
                modulus = tuple(_int_token(lineno, t) for t in tokens[1:])
            elif head == "constants":
                if d is None or q is None:
                    raise ParseError(lineno, "'d' and 'q' must come before 'constants'")
                field = Fq.of(q, modulus)
                section = "constants"
            else:
                raise ParseError(lineno, f"unexpected {head!r} in header")
        elif head == "embed":
            if len(tokens) != 3 or tokens[1] != "n":
                raise ParseError(lineno, "expected 'embed n <int>'")
            embed_n = _int_token(lineno, tokens[2])
            section = "embed"
        elif section == "constants":
            if len(tokens) != 4:
                raise ParseError(lineno, f"expected 'i j k v', got {line!r}")
            i, j, k = (_int_token(lineno, t) for t in tokens[:3])
            v = parse_field_literal(field, tokens[3])
            if not (1 <= i <= d and 1 <= j <= d and 1 <= k <= d):
                raise ParseError(lineno, f"constant index out of range in {line!r}")
            if (section, i, j, k) in seen:
                raise ParseError(lineno, f"repeated constant {i} {j} {k}")
            seen.add((section, i, j, k))
            if v:
                constants.setdefault((i - 1, j - 1), {})[k - 1] = v
        else:  # embed section
            if len(tokens) != 4:
                raise ParseError(lineno, f"expected 'b i j v', got {line!r}")
            b, i, j = (_int_token(lineno, t) for t in tokens[:3])
            v = parse_field_literal(field, tokens[3])
            if not 1 <= b <= d:
                raise ParseError(lineno, f"basis index out of range in {line!r}")
            if (section, b, i, j) in seen:
                raise ParseError(lineno, f"repeated entry {b} {i} {j}")
            seen.add((section, b, i, j))
            if v:
                embed_entries.setdefault(b - 1, {})[(i, j)] = v
    if section is None:
        raise ParseError(0, "missing 'constants' section")
    alg = StructureAlgebra(d, field, constants)
    embedding = None
    if embed_n is not None:
        basis = [embed_entries.get(b, {}) for b in range(d)]
        embedding = (embed_n, basis)
    return alg, embedding


def emit_algebra_spec(alg: StructureAlgebra) -> str:
    lines = [f"d {alg.d}", f"q {alg.field.q}"]
    if alg.field.r > 1:
        lines.append("modulus " + " ".join(str(c) for c in alg.field.modulus))
    lines.append("constants")
    for (i, j) in sorted(alg.constants):
        for k, v in sorted(alg.constants[(i, j)].items()):
            lines.append(f"{i + 1} {j + 1} {k + 1} {format_field_literal(alg.field, v)}")
    return "\n".join(lines) + "\n"
