"""Algebra groups presented by structure constants.

A nilpotent algebra of dimension d over F_q is given by the constants
c[i][j][k] with  X_i * X_j = sum_k c_ij^k X_k  on a chosen basis.  The group
is 1 + the algebra, with (1+X)(1+Y) = 1 + X + Y + XY; group elements and
dual functionals are coordinate tuples of length d.

The supercharacter ingredients mirror the pattern-group ones through the
derived matrices (C_i)_jk = c_ij^k and (C^j)_ik = c_ij^k:

    M[i][j] = phi C_i C^j eta      a[i] = phi C_i eta      b[j] = phi C^j eta

and the value is q**(corank - rank M) * theta(b0.b + phi.eta) when phi
meshes with eta, zero otherwise.  The corank is rank(A_eta), where
(A_eta)_ij = sum_k c_ij^k eta_k: the right orbit of lambda_eta is an affine
space of that dimension (Diaconis-Isaacs, Supercharacters and superclasses
for algebra groups).  The same matrix gives the sparse mesh terms that
:class:`superchar.formula.CharacterEvaluator` evaluates:

    a_i = sum_s phi_s A[i][s]      b_j = sum_s phi_s A[s][j]
    M[i][j] = sum_s phi_s sum_m c_is^m A[m][j]
"""

from __future__ import annotations

from .errors import (
    InternalInvariantViolation,
    NotAssociative,
    NotNilpotent,
    ParseError,
    SizeCapExceeded,
    SpecMismatch,
)
from .gf import CharValue, Fq, FqMatrix, perp_to_nullspace, rank, solve
from .core import DEFAULT_ENUM_CAP, Orbit, OrbitPartition, _bfs, orbit_partition_from_moves
from .poset import ClosedSet, close_covers, format_field_literal, parse_field_literal

Vec = tuple


class StructureAlgebra:
    """A validated structure-constant presentation of a nilpotent algebra."""

    __slots__ = ("d", "field", "constants", "_c_rows", "_c_cols", "_moves")

    def __init__(self, d: int, field: Fq, constants):
        if d < 0:
            raise SpecMismatch("dimension must be nonnegative")
        self.d = d
        self.field = field
        cleaned: dict[tuple[int, int], dict[int, int]] = {}
        for (i, j), row in constants.items():
            if not (0 <= i < d and 0 <= j < d):
                raise SpecMismatch(f"constant index ({i}, {j}) out of range")
            entry = {}
            for k, v in row.items():
                if not 0 <= k < d:
                    raise SpecMismatch(f"constant target {k} out of range")
                v = field.check(int(v))
                if v:
                    entry[k] = v
            if entry:
                cleaned[(i, j)] = entry
        self.constants = cleaned
        # (C_i)_jk = c_ij^k as dense rows; (C^j)_ik likewise.
        self._c_rows = [
            [[0] * d for _ in range(d)] for _ in range(d)
        ]  # _c_rows[i][j][k]
        self._c_cols = [[[0] * d for _ in range(d)] for _ in range(d)]
        for (i, j), row in cleaned.items():
            for k, v in row.items():
                self._c_rows[i][j][k] = v
                self._c_cols[j][i][k] = v
        self._validate_associative()
        self._validate_nilpotent()
        self._moves = None

    # -- the algebra product ----------------------------------------------

    def product(self, u, v) -> Vec:
        """Coordinates of X_u * X_v."""
        F = self.field
        out = [0] * self.d
        for (i, j), row in self.constants.items():
            a = u[i]
            b = v[j]
            if a and b:
                ab = F.mul(a, b)
                for k, c in row.items():
                    out[k] = F.add(out[k], F.mul(ab, c))
        return tuple(out)

    def multiply(self, x, y) -> Vec:
        """Group product of x = 1 + X and y = 1 + Y."""
        F = self.field
        prod = self.product(x, y)
        return tuple(F.add(F.add(a, b), c) for a, b, c in zip(x, y, prod))

    def inverse(self, x) -> Vec:
        F = self.field
        out = [0] * self.d
        term = tuple(x)
        sign = -1
        while any(term):
            for k, v in enumerate(term):
                if v:
                    out[k] = F.add(out[k], v if sign > 0 else F.neg(v))
            term = self.product(term, x)
            sign = -sign
        return tuple(out)

    def zero(self) -> Vec:
        return (0,) * self.d

    @property
    def dim(self) -> int:
        return self.d

    def order(self) -> int:
        return self.field.q ** self.d

    # -- validation ----------------------------------------------------------

    def _basis_vec(self, i):
        return tuple(1 if k == i else 0 for k in range(self.d))

    def _validate_associative(self):
        d = self.d
        basis = [self._basis_vec(i) for i in range(d)]
        for i in range(d):
            for j in range(d):
                ij = self.product(basis[i], basis[j])
                for k in range(d):
                    lhs = self.product(ij, basis[k])
                    rhs = self.product(basis[i], self.product(basis[j], basis[k]))
                    if lhs != rhs:
                        l = next(m for m in range(d) if lhs[m] != rhs[m])
                        raise NotAssociative(i, j, k, l)

    def _validate_nilpotent(self):
        """Products of more than d basis elements must vanish."""
        F = self.field
        d = self.d
        level = [(self._basis_vec(i), (i,)) for i in range(d)]
        for _ in range(d):
            echelon: list[tuple] = []
            nxt = []
            for i in range(d):
                e_i = self._basis_vec(i)
                for vec, seq in level:
                    w = self.product(e_i, vec)
                    if not any(w):
                        continue
                    red = _reduce_against(F, w, echelon)
                    if red is not None:
                        echelon.append(red)
                        nxt.append((w, (i,) + seq))
            level = nxt
            if not level:
                return
        if level:  # d = 0 starts with no products at all
            raise NotNilpotent(level[0][1])

    # -- mesh data and values --------------------------------------------------

    def _row_times(self, vec, mat) -> Vec:
        """vec (row) times a dense d x d matrix."""
        F = self.field
        out = [0] * self.d
        for j, row in enumerate(mat):
            a = vec[j]
            if a:
                for k, m in enumerate(row):
                    if m:
                        out[k] = F.add(out[k], F.mul(a, m))
        return tuple(out)

    def _times_col(self, mat, vec) -> Vec:
        F = self.field
        out = [0] * self.d
        for i, row in enumerate(mat):
            acc = 0
            for k, m in enumerate(row):
                if m and vec[k]:
                    acc = F.add(acc, F.mul(m, vec[k]))
            out[i] = acc
        return tuple(out)

    def mesh_data(self, phi, eta):
        """(M, a, b) with M[i][j] = phi C_i C^j eta, a_i = phi C_i eta, b_j = phi C^j eta."""
        F = self.field
        d = self.d
        u = [self._row_times(phi, self._c_rows[i]) for i in range(d)]  # phi C_i
        w = [self._times_col(self._c_cols[j], eta) for j in range(d)]  # C^j eta
        rows = [[F.dot(u[i], w[j]) for j in range(d)] for i in range(d)]
        a = tuple(F.dot(u[i], eta) for i in range(d))
        b = tuple(F.dot(phi, w[j]) for j in range(d))
        return FqMatrix.from_rows(F, rows, d), a, b

    def meshes(self, phi, eta):
        M, a, b = self.mesh_data(phi, eta)
        F = self.field
        b0 = solve(M, tuple(F.neg(x) for x in a))
        if b0 is None or not perp_to_nullspace(M, b):
            return False, None
        return True, b0

    def _eta_matrix(self, eta):
        """A_eta as dense rows: (A_eta)_ij = sum_k c_ij^k eta_k."""
        F = self.field
        d = self.d
        A = [[0] * d for _ in range(d)]
        for (i, j), row in self.constants.items():
            acc = 0
            for k, c in row.items():
                if eta[k]:
                    acc = F.add(acc, F.mul(c, eta[k]))
            A[i][j] = acc
        return A

    def mesh_terms(self, eta):
        """The sparse mesh data of eta: (target, phi-slot, coefficient) terms of
        a, b and M (targets of M are (row, col) pairs), read off A_eta."""
        F = self.field
        A = self._eta_matrix(eta)
        a_terms, b_terms = [], []
        for i, row in enumerate(A):
            for s, v in enumerate(row):
                if v:
                    a_terms.append((i, s, v))
                    b_terms.append((s, i, v))
        m_acc: dict = {}
        for (i, s), row in self.constants.items():
            for m, c in row.items():
                for j, v in enumerate(A[m]):
                    if v:
                        key = ((i, j), s)
                        m_acc[key] = F.add(m_acc.get(key, 0), F.mul(c, v))
        m_terms = [(pos, s, v) for (pos, s), v in m_acc.items() if v]
        return a_terms, b_terms, m_terms

    def corank(self, eta, cap: int | None = None) -> int:
        """rank(A_eta), the dimension of the right orbit of lambda_eta.

        ``cap`` is accepted for compatibility and ignored: nothing is enumerated.
        """
        return rank(FqMatrix.from_rows(self.field, self._eta_matrix(eta), self.d))

    def value(self, eta, phi, corank: int | None = None) -> CharValue:
        """chi^eta at the superclass of x_phi."""
        F = self.field
        M, a, b = self.mesh_data(phi, eta)
        b0 = solve(M, tuple(F.neg(x) for x in a))
        if b0 is None or not perp_to_nullspace(M, b):
            return CharValue.zero()
        r = rank(M)
        if corank is None:
            corank = self.corank(eta)
        if corank < r:
            raise InternalInvariantViolation("rank of the mesh matrix exceeds the corank")
        zeta = F.trace(F.add(F.dot(b0, b), F.dot(phi, eta)))
        return CharValue.of(corank - r, zeta, F.p)

    def is_irreducible(self, eta, corank: int | None = None) -> bool:
        """Right plus left annihilator of eta fills F_q**d.

        They are the nullspaces of A_eta and its transpose, each of dimension
        d - rank(A_eta), so their sum is everything iff [A_eta; A_eta^T] has
        rank 2 * rank(A_eta).  ``corank`` is rank(A_eta) when the caller has it.
        """
        A = self._eta_matrix(eta)
        if corank is None:
            corank = rank(FqMatrix.from_rows(self.field, A, self.d))
        stacked = A + [list(col) for col in zip(*A)]
        return rank(FqMatrix.from_rows(self.field, stacked, self.d)) == 2 * corank

    # -- orbits ------------------------------------------------------------------

    def _move_set(self, kind: str):
        if self._moves is None:
            gens = self.field.additive_generators()
            d = self.d
            right, left, co_right, co_left = [], [], [], []
            for j in range(d):
                ups = []  # phi'_m += t * c_ij^m * phi_i  (right mult by 1 + t X_j)
                for (i, jj), row in self.constants.items():
                    if jj == j:
                        ups.extend((k, i, v) for k, v in row.items())
                if ups:
                    right.extend((t, tuple(ups)) for t in gens)
            for i in range(d):
                ups = []  # phi'_m += t * c_ij^m * phi_j  (left mult by 1 + t X_i)
                for (ii, j), row in self.constants.items():
                    if ii == i:
                        ups.extend((k, j, v) for k, v in row.items())
                if ups:
                    left.extend((t, tuple(ups)) for t in gens)
            for j in range(d):
                ups = []  # eta'_k += t * c_kj^m * eta_m
                for (k, jj), row in self.constants.items():
                    if jj == j:
                        ups.extend((k, m, v) for m, v in row.items())
                if ups:
                    co_right.extend((t, tuple(ups)) for t in gens)
            for i in range(d):
                ups = []  # eta'_k += t * c_ik^m * eta_m
                for (ii, k), row in self.constants.items():
                    if ii == i:
                        ups.extend((k, m, v) for m, v in row.items())
                if ups:
                    co_left.extend((t, tuple(ups)) for t in gens)
            self._moves = {
                "right": tuple(right),
                "left": tuple(left),
                "co_right": tuple(co_right),
                "co_left": tuple(co_left),
            }
        return self._moves[kind]

    def orbit(self, phi, cap: int | None = None) -> Orbit:
        cap = DEFAULT_ENUM_CAP if cap is None else cap
        if self.order() > cap:
            raise SizeCapExceeded(self.order(), cap, "orbit enumeration")
        members = _bfs(
            self.field, tuple(phi), self._move_set("left") + self._move_set("right")
        )
        return Orbit(min(members), len(members), frozenset(members))

    def coorbit(self, eta, cap: int | None = None) -> Orbit:
        cap = DEFAULT_ENUM_CAP if cap is None else cap
        if self.order() > cap:
            raise SizeCapExceeded(self.order(), cap, "co-orbit enumeration")
        members = _bfs(
            self.field, tuple(eta), self._move_set("co_left") + self._move_set("co_right")
        )
        return Orbit(min(members), len(members), frozenset(members))

    def orbit_partition(self, cap: int | None = None) -> OrbitPartition:
        cap = DEFAULT_ENUM_CAP if cap is None else cap
        return orbit_partition_from_moves(
            self.field, self.d, self._move_set("left") + self._move_set("right"), cap
        )

    def coorbit_partition(self, cap: int | None = None) -> OrbitPartition:
        cap = DEFAULT_ENUM_CAP if cap is None else cap
        return orbit_partition_from_moves(
            self.field, self.d, self._move_set("co_left") + self._move_set("co_right"), cap
        )

    def all_orbit_reps(self, cap: int | None = None) -> list[Orbit]:
        part = self.orbit_partition(cap)
        return [Orbit(rep, size) for rep, size in zip(part.reps, part.sizes)]

    def all_coorbit_reps(self, cap: int | None = None) -> list[Orbit]:
        part = self.coorbit_partition(cap)
        return [Orbit(rep, size) for rep, size in zip(part.reps, part.sizes)]


def _reduce_against(field: Fq, vec, echelon):
    """Reduce vec against echelon rows (leading-one normal form); append form or None."""
    v = list(vec)
    for lead, row in echelon:
        c = v[lead]
        if c:
            for k, x in enumerate(row):
                if x:
                    v[k] = field.sub(v[k], field.mul(c, x))
    for lead, x in enumerate(v):
        if x:
            inv = field.inv(x)
            return (lead, tuple(field.mul(inv, y) for y in v))
    return None


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


def pattern_to_algebra(J: ClosedSet, field: Fq) -> StructureAlgebra:
    """The structure-constant presentation of a pattern group on the basis
    indexed by J in canonical order: c[(i,j),(j,l)] -> (i,l) is 1 per chain."""
    constants: dict = {}
    for ab, bc, ac in J.chain3_idx:
        constants.setdefault((ab, bc), {})[ac] = 1
    return StructureAlgebra(len(J), field, constants)


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
    embed_entries: dict[int, dict] = {}
    for lineno, line in _algebra_lines(text):
        tokens = line.split()
        head = tokens[0]
        if section is None:
            if head == "d" and len(tokens) == 2:
                d = _int_tok(lineno, tokens[1])
            elif head == "q" and len(tokens) == 2:
                q = _int_tok(lineno, tokens[1])
            elif head == "modulus":
                modulus = tuple(_int_tok(lineno, t) for t in tokens[1:])
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
            embed_n = _int_tok(lineno, tokens[2])
            section = "embed"
        elif section == "constants":
            if len(tokens) != 4:
                raise ParseError(lineno, f"expected 'i j k v', got {line!r}")
            i, j, k = (_int_tok(lineno, t) for t in tokens[:3])
            v = parse_field_literal(field, tokens[3])
            if not (1 <= i <= d and 1 <= j <= d and 1 <= k <= d):
                raise ParseError(lineno, f"constant index out of range in {line!r}")
            if v:
                constants.setdefault((i - 1, j - 1), {})[k - 1] = v
        else:  # embed section
            if len(tokens) != 4:
                raise ParseError(lineno, f"expected 'b i j v', got {line!r}")
            b, i, j = (_int_tok(lineno, t) for t in tokens[:3])
            v = parse_field_literal(field, tokens[3])
            if not 1 <= b <= d:
                raise ParseError(lineno, f"basis index out of range in {line!r}")
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


def _algebra_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def _int_tok(lineno: int, tok: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(lineno, f"expected an integer, got {tok!r}") from None


def emit_algebra_spec(alg: StructureAlgebra) -> str:
    lines = [f"d {alg.d}", f"q {alg.field.q}"]
    if alg.field.r > 1:
        lines.append("modulus " + " ".join(str(c) for c in alg.field.modulus))
    lines.append("constants")
    for (i, j) in sorted(alg.constants):
        for k, v in sorted(alg.constants[(i, j)].items()):
            lines.append(f"{i + 1} {j + 1} {k + 1} {format_field_literal(alg.field, v)}")
    return "\n".join(lines) + "\n"
