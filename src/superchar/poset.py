"""Closed sets of strictly upper-triangular positions and their chain structure.

A closed set J on {1..n} is a set of pairs (i, j), i < j, with
(i, j), (j, k) in J implying (i, k) in J; equivalently a partial order on
{1..n}.  Pairs are kept in the canonical total order

    (r, s) < (i, j)  iff  r > i, or r = i and s > j,

so for n = 4 the full set reads (3,4) < (2,4) < (2,3) < (1,4) < (1,3) < (1,2).
Functionals J -> F_q are packed tuples of field codes in that order; the
helpers at the bottom pack sparse {(i, j): value} maps and convert to and
from the ``i,j=v;...`` literal syntax used on the command line.
"""

from __future__ import annotations

from .errors import BadField, NotClosed, PairOutOfRange, ParseError, SpecMismatch
from .gf import Fq

Pair = tuple[int, int]


def order_key(pair: Pair) -> tuple[int, int]:
    i, j = pair
    return (-i, -j)


class ClosedSet:
    """A validated closed set with eagerly built chain caches."""

    __slots__ = (
        "n",
        "pairs",
        "order",
        "index",
        "chains3",
        "chains4",
        "chain3_idx",
    )

    def __init__(self, n: int, pairs):
        pairs = frozenset(tuple(p) for p in pairs)
        if n < 1:
            raise PairOutOfRange(f"n must be positive, got {n}")
        for i, j in pairs:
            if not (1 <= i < j <= n):
                raise PairOutOfRange(f"pair ({i}, {j}) outside 1 <= i < j <= {n}")
        witnesses = []
        for i, j in sorted(pairs):
            for jj, k in sorted(pairs):
                if jj == j and (i, k) not in pairs:
                    witnesses.append((i, j, k))
        if witnesses:
            raise NotClosed(sorted(witnesses))

        self.n = n
        self.pairs = pairs
        self.order = tuple(sorted(pairs, key=order_key))
        self.index = {p: k for k, p in enumerate(self.order)}

        by_first: dict[int, list[Pair]] = {}
        for p in sorted(pairs):
            by_first.setdefault(p[0], []).append(p)
        chains3 = []
        for i, j in sorted(pairs):
            for _, k in by_first.get(j, ()):
                chains3.append((i, j, k))
        chains4 = []
        for i, j, k in chains3:
            for _, m in by_first.get(k, ()):
                chains4.append((i, j, k, m))
        self.chains3 = tuple(chains3)
        self.chains4 = tuple(chains4)

        idx = self.index
        self.chain3_idx = tuple(
            (idx[(a, b)], idx[(b, c)], idx[(a, c)]) for a, b, c in chains3
        )

    # -- basic protocol ------------------------------------------------------

    def __len__(self) -> int:
        return len(self.order)

    def __contains__(self, pair) -> bool:
        return tuple(pair) in self.pairs

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ClosedSet) and self.n == other.n and self.pairs == other.pairs
        )

    def __hash__(self) -> int:
        return hash((self.n, self.pairs))

    def __repr__(self) -> str:
        return f"ClosedSet(n={self.n}, pairs={sorted(self.pairs)})"

    @property
    def has_4chain(self) -> bool:
        return bool(self.chains4)

    def is_full_triangular(self) -> bool:
        return len(self.order) == self.n * (self.n - 1) // 2


def validate_closed(n: int, pairs) -> ClosedSet:
    """Build a ClosedSet, reporting every violating triple if not closed."""
    return ClosedSet(n, pairs)


def close_covers(n: int, covers) -> ClosedSet:
    """Transitively close a cover relation and return the resulting ClosedSet."""
    covers = set(tuple(p) for p in covers)
    for i, j in covers:
        if not (1 <= i < j <= n):
            raise PairOutOfRange(f"pair ({i}, {j}) outside 1 <= i < j <= {n}")
    reach = {v: {j for (i, j) in covers if i == v} for v in range(1, n + 1)}
    changed = True
    while changed:
        changed = False
        for v in range(1, n + 1):
            extra = set()
            for w in reach[v]:
                extra |= reach[w] - reach[v]
            if extra:
                reach[v] |= extra
                changed = True
    pairs = {(i, j) for i in range(1, n + 1) for j in reach[i]}
    return ClosedSet(n, pairs)


def derived_subgroup(J: ClosedSet) -> ClosedSet:
    """The closed set of all composites (i, k) with (i, j), (j, k) in J."""
    return ClosedSet(J.n, {(a, c) for a, _, c in J.chains3})


# ---------------------------------------------------------------------------
# functionals as packed tuples


def functional(J: ClosedSet, field: Fq, values: dict) -> tuple[int, ...]:
    """Pack a sparse {(i, j): code} mapping; absent pairs are zero."""
    out = [0] * len(J)
    for pair, v in values.items():
        pair = tuple(pair)
        if pair not in J.index:
            raise PairOutOfRange(f"pair {pair} not in the closed set")
        out[J.index[pair]] = field.check(int(v))
    return tuple(out)


def _sized(J: ClosedSet, f) -> tuple:
    """``f`` as a tuple; SpecMismatch, with core's message, unless it has one
    entry per pair of J."""
    f = tuple(f)
    if len(f) != len(J):
        raise SpecMismatch(f"functional of length {len(f)} for dimension {len(J)}")
    return f


def support(J: ClosedSet, f) -> tuple[Pair, ...]:
    return tuple(pair for pair, v in zip(J.order, _sized(J, f)) if v)


def is_monomial(J: ClosedSet, f) -> bool:
    """At most one nonzero entry in every matrix row and every column."""
    rows = set()
    cols = set()
    for (i, j), v in zip(J.order, _sized(J, f)):
        if v:
            if i in rows or j in cols:
                return False
            rows.add(i)
            cols.add(j)
    return True


# ---------------------------------------------------------------------------
# field-element and functional literals


def parse_field_literal(field: Fq, s: str) -> int:
    s = s.strip()
    try:
        if ":" in s:
            return field.from_coeffs(int(c) for c in s.split(":"))
        return int(s) % field.p  # integer literals mean n * 1 in any field
    except ValueError as exc:
        raise BadField(f"bad field element literal {s!r}") from exc


def format_field_literal(field: Fq, a: int) -> str:
    if field.r == 1:
        return str(a)
    return ":".join(str(c) for c in field.coeffs(a))


def _functional_items(text: str, position) -> dict:
    """{position(k): v} over the items ``k=v`` of ``k=v;k=v;...``, each v still
    a literal; "0" or the empty string has none.  ``position`` raises
    ValueError on a malformed k; that and a repeated k are ParseErrors."""
    text = text.strip()
    items: dict = {}
    if text in ("", "0"):
        return items
    for item in text.split(";"):
        item = item.strip()
        if not item:
            continue
        pos, _, val = item.partition("=")
        try:
            k = position(pos)
        except ValueError as exc:
            raise ParseError(0, f"bad functional item {item!r}") from exc
        if not val:
            raise ParseError(0, f"bad functional item {item!r}")
        if k in items:
            raise ParseError(0, f"repeated position {pos.strip()} in functional")
        items[k] = val
    return items


def _pair(pos: str) -> Pair:
    i_s, j_s = pos.split(",")
    return int(i_s), int(j_s)


def parse_functional(J: ClosedSet, field: Fq, text: str) -> tuple[int, ...]:
    """Parse ``i,j=v;i,j=v;...``; "0" or the empty string is the zero functional."""
    items = _functional_items(text, _pair)
    return functional(J, field, {pair: parse_field_literal(field, v) for pair, v in items.items()})


def format_functional(J: ClosedSet, field: Fq, f) -> str:
    """The ``i,j=v;...`` literal of f; SpecMismatch, with core's messages,
    unless f lies in F_q**len(J)."""
    f = _sized(J, f)
    try:
        for v in f:
            field.check(v)
    except BadField:
        raise SpecMismatch(f"functional {f} is not in F_{field.q}^{len(J)}") from None
    items = [
        f"{i},{j}={format_field_literal(field, v)}" for (i, j), v in zip(J.order, f) if v
    ]
    return ";".join(items) if items else "0"


# ---------------------------------------------------------------------------
# the spec file format


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def _header_line(lineno: int, tokens, header: dict, size: str) -> bool:
    """Read a ``<size> <int>``, ``q <int>`` or ``modulus c0 c1 ... cr`` header
    line into ``header``, once each; False for any other line."""
    head = tokens[0]
    if head in (size, "q"):
        if head in header or len(tokens) != 2:
            raise ParseError(lineno, f"expected a single '{head} <int>' header")
        header[head] = _int_token(lineno, tokens[1])
    elif head == "modulus":
        if head in header or len(tokens) < 2:
            raise ParseError(lineno, "expected 'modulus c0 c1 ... cr'")
        header[head] = tuple(_int_token(lineno, t) for t in tokens[1:])
    else:
        return False
    return True


def _emit_header(size: str, value: int, field: Fq) -> list[str]:
    """The header lines that :func:`_header_line` reads."""
    lines = [f"{size} {value}", f"q {field.q}"]
    if field.r > 1:
        lines.append("modulus " + " ".join(str(c) for c in field.modulus))
    return lines


def parse_spec(text: str) -> tuple[ClosedSet, Fq]:
    """Parse the closed-set file format; see the package README for the grammar."""
    header: dict = {}
    mode = None
    raw_pairs = []
    for lineno, line in _content_lines(text):
        tokens = line.split()
        head = tokens[0]
        if mode is None:
            if _header_line(lineno, tokens, header, "n"):
                continue
            if head not in ("pairs", "covers"):
                raise ParseError(lineno, f"unexpected {head!r} in header")
            if "n" not in header or "q" not in header:
                raise ParseError(lineno, "'n' and 'q' must come before the mode line")
            mode = head
        else:
            if len(tokens) != 2:
                raise ParseError(lineno, f"expected 'i j', got {line!r}")
            raw_pairs.append((_int_token(lineno, tokens[0]), _int_token(lineno, tokens[1])))
    if mode is None:
        raise ParseError(0, "missing mode line ('pairs' or 'covers')")
    field = Fq.of(header["q"], header.get("modulus"))
    if mode == "pairs":
        J = validate_closed(header["n"], raw_pairs)
    else:
        J = close_covers(header["n"], raw_pairs)
    return J, field


def _int_token(lineno: int, tok: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(lineno, f"expected an integer, got {tok!r}") from None


def emit_spec(J: ClosedSet, field: Fq) -> str:
    lines = _emit_header("n", J.n, field)
    lines.append("pairs")
    lines.extend(f"{i} {j}" for i, j in J.order)
    return "\n".join(lines) + "\n"
