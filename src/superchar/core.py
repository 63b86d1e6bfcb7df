"""The structure-constant engine: algebra groups, their actions and orbits.

A nilpotent algebra of dimension d over F_q is given by the constants
c[i][j][k] with  X_i * X_j = sum_k c_ij^k X_k  on a chosen basis.  The group
is 1 + the algebra, with (1+X)(1+Y) = 1 + X + Y + XY; group elements and
dual functionals are coordinate tuples of length d.  Every action, action
matrix, mesh datum and orbit move is read off the constants:

    act_left:   x_rho * X_phi     = X_phi + X_rho X_phi
    act_right:  X_phi * x_rho     = X_phi + X_phi X_rho
    coact:      (x_tau**-1 lambda_eta x_rho**-1)(X_k) = lambda_eta(x_tau X_k x_rho)

and the right orbit of lambda_eta is an affine space of dimension
rank(A_eta), where (A_eta)_ij = sum_k c_ij^k eta_k (Diaconis-Isaacs,
Supercharacters and superclasses for algebra groups).  The mesh data of
(phi, eta), with (C_i)_jk = c_ij^k and (C^j)_ik = c_ij^k, is

    M[i][j] = phi C_i C^j eta      a[i] = phi C_i eta      b[j] = phi C^j eta

and chi^eta(x_phi) = q**(corank - rank M) * theta(b0.b + phi.eta) when phi
meshes with eta (M b0 = -a is solvable and b is perpendicular to the
nullspace of M), zero otherwise.  :meth:`StructureAlgebra.value` is the
dense reference; :class:`superchar.formula.CharacterEvaluator` reads the
same data off A_eta as sparse terms in phi.

A pattern group U_J is the algebra group of its closed set J, with
c_{(i,j),(j,k)}^{(i,k)} = 1 for each 3-chain; packed tuples follow J's
canonical order (:mod:`.poset`).  Every class is represented by its least
member, for U_n its monomial (see :class:`PatternGroup`).

Orbits are closures under the generators 1 + t X_i, t in an additive basis
of F_q.  Full-space orbit partitions use one vectorized sweep for every F_q:
visiting q**d functionals one tuple at a time is the desk-scale hot spot.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    InternalInvariantViolation,
    NotAssociative,
    NotNilpotent,
    SizeCapExceeded,
    SpecMismatch,
)
from .gf import CharValue, Fq, FqMatrix, perp_to_nullspace, rank, solve
from .poset import ClosedSet

DEFAULT_ENUM_CAP = 1 << 20


@dataclass(frozen=True)
class Orbit:
    """A two-sided (co)orbit: canonical representative, size, optional elements."""

    rep: tuple[int, ...]
    size: int
    elements: frozenset | None = None


def _apply_move(field: Fq, f, t: int, updates) -> tuple[int, ...]:
    out = list(f)
    add, mul = field.add, field.mul
    for tgt, src, coeff in updates:
        v = f[src]
        if v:
            if coeff != 1:
                v = mul(coeff, v)
            out[tgt] = add(out[tgt], mul(t, v))
    return tuple(out)


def _codes_to_digits(codes, q: int, dim: int) -> np.ndarray:
    codes = np.asarray(codes, dtype=np.int64)
    out = np.empty((len(codes), dim), dtype=np.int64)
    rem = codes.copy()
    for k in range(dim - 1, -1, -1):
        out[:, k] = rem % q
        rem //= q
    return out


class OrbitPartition:
    """The orbit decomposition of the full functional space F_q**dim."""

    def __init__(self, field: Fq, dim: int, rep_codes: np.ndarray, sizes, labels):
        self.field = field
        self.dim = dim
        self._rep_codes = rep_codes  # ascending, so class k has the k-th least representative
        # packed tuples, lexicographically ascending
        self.reps = tuple(map(tuple, _codes_to_digits(rep_codes, field.q, dim).tolist()))
        self.sizes = sizes
        self._labels = labels  # code -> code of its class minimum, smallest unsigned dtype

    def __len__(self) -> int:
        return len(self.reps)

    def code(self, f) -> int:
        acc = 0
        for v in f:
            acc = acc * self.field.q + v
        return acc

    def decode(self, code: int) -> tuple[int, ...]:
        out = [0] * self.dim
        for k in range(self.dim - 1, -1, -1):
            code, out[k] = divmod(code, self.field.q)
        return tuple(out)

    def classes_of(self, fs) -> np.ndarray:
        """The class index of every functional in ``fs``, by one label lookup;
        SpecMismatch unless each lies in F_q**dim."""
        q, dim = self.field.q, self.dim
        try:
            arr = np.array(fs, dtype=np.int64).reshape(len(fs), dim)
        except (ValueError, OverflowError):  # ragged, of the wrong length, or huge
            arr = None
        if arr is None or ((arr < 0) | (arr >= q)).any():
            bad = next(f for f in fs if len(f) != dim or not all(0 <= v < q for v in f))
            raise SpecMismatch(f"functional {tuple(bad)} is not in F_{q}^{dim}")
        codes = arr @ q ** np.arange(dim - 1, -1, -1, dtype=np.int64)
        return np.searchsorted(self._rep_codes, self._labels[codes])

    def class_of(self, f) -> int:
        """The index of f's class; SpecMismatch unless f lies in F_q**dim."""
        return int(self.classes_of([f])[0])

    def canonical_codes(self) -> np.ndarray:
        """For every functional code, the code of its class representative."""
        return np.asarray(self._labels, dtype=np.int64)

    @cached_property
    def members(self) -> tuple[np.ndarray, np.ndarray]:
        """(codes, bounds): every functional code grouped by class, ascending
        within a class, with class k at codes[bounds[k] : bounds[k + 1]]."""
        codes = np.argsort(self._labels, kind="stable")  # classes are in label order
        return codes, np.concatenate(([0], np.cumsum(self.sizes)))

    def elements_digits(self, k: int) -> np.ndarray:
        """All members of class k as a (size, dim) digit array."""
        codes, bounds = self.members
        return _codes_to_digits(codes[bounds[k] : bounds[k + 1]], self.field.q, self.dim)

    def elements(self, k: int) -> list[tuple[int, ...]]:
        return [tuple(int(v) for v in row) for row in self.elements_digits(k)]


def _bfs(field: Fq, start, moves) -> set:
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for f in frontier:
            for t, updates in moves:
                g = _apply_move(field, f, t, updates)
                if g not in seen:
                    seen.add(g)
                    nxt.append(g)
        frontier = nxt
    return seen


def _digit_moves(field: Fq, moves) -> list[dict]:
    """Each move (t, updates) as an F_p-linear map on base-p digits: a dict
    from target digit position to its (source position, coefficient) terms.

    An update (tgt, src, coeff) adds c * f[src] to f[tgt] with c = t * coeff,
    which on digits is the r x r block of x -> c * x.  Digit u of coordinate
    k sits at position k*r + (r-1-u), most significant first, so the base-p
    code of a digit vector is the base-q code of its functional.
    """
    r = field.r
    out = []
    for t, updates in moves:
        terms: dict = {}
        for tgt, src, coeff in updates:
            block = field.digit_matrix(field.mul(t, coeff))
            for s, row in enumerate(block):
                for u, c in enumerate(row):
                    if c:
                        terms.setdefault(tgt * r + r - 1 - u, []).append((src * r + r - 1 - s, c))
        if terms:
            out.append(terms)
    return out


def orbit_partition_from_moves(field: Fq, dim: int, moves, cap: int) -> OrbitPartition:
    """The orbits of the moves on F_q**dim; the oracle calls it with its own moves.

    Each move becomes one permutation of the codes, shaped (p,) * (dim * r)
    with one axis per base-p digit: digit w of every code is arange(p) along
    axis w, so no digit array is materialized.  Labels then pull the minimum
    backward through every permutation to a fixpoint, the orbit minimum
    everywhere since orbits are strongly connected (the moves generate a
    group action).
    """
    total = field.q ** dim
    if total > cap:
        raise SizeCapExceeded(total, cap, "orbit enumeration")
    p, n = field.p, dim * field.r
    dtype = np.min_scalar_type(total - 1)
    codes = np.arange(total, dtype=dtype).reshape((p,) * n)

    def digit(w):
        return np.arange(p).reshape([p if k == w else 1 for k in range(n)])

    perms = []
    for terms in _digit_moves(field, moves):
        perm = codes.copy()
        for tgt, srcs in terms.items():
            d = digit(tgt)
            new = (d + sum(c * digit(src) for src, c in srcs)) % p
            # a negative shift wraps modulo the unsigned dtype; every partial
            # sum is still a code, since it changes only digits already done
            perm += ((new - d) * p ** (n - 1 - tgt)).astype(dtype)
        perms.append(perm.ravel())
    labels = np.arange(total, dtype=dtype)
    changed = True
    while changed:
        changed = False
        for perm in perms:
            pulled = labels[perm]
            if (pulled < labels).any():
                np.minimum(labels, pulled, out=labels)
                changed = True
    rep_codes, counts = np.unique(labels, return_counts=True)
    return OrbitPartition(field, dim, rep_codes, tuple(int(c) for c in counts), labels)


# ---------------------------------------------------------------------------

Vec = tuple


class StructureAlgebra:
    """A validated structure-constant presentation of a nilpotent algebra,
    with its algebra group 1 + A acting on A and on the dual space."""

    __slots__ = ("d", "field", "constants", "_moves")

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
        self._validate_associative()
        self._validate_nilpotent()
        self._moves = None

    def _vec(self, f) -> Vec:
        """``f`` as a tuple; SpecMismatch unless it has one coordinate per basis element."""
        f = tuple(f)
        if len(f) != self.d:
            raise SpecMismatch(f"functional of length {len(f)} for dimension {self.d}")
        return f

    # -- the algebra product and the group ---------------------------------

    def product(self, u, v) -> Vec:
        """Coordinates of X_u * X_v."""
        F = self.field
        u, v = self._vec(u), self._vec(v)
        out = [0] * self.d
        for (i, j), row in self.constants.items():
            a = u[i]
            b = v[j]
            if a and b:
                ab = F.mul(a, b)
                for k, c in row.items():
                    out[k] = F.add(out[k], F.mul(ab, c))
        return tuple(out)

    def _plus(self, u, v) -> Vec:
        return tuple(self.field.add(a, b) for a, b in zip(u, v))

    def multiply(self, x, y) -> Vec:
        """Group product of x = 1 + X and y = 1 + Y."""
        return self._plus(self._plus(x, y), self.product(x, y))

    def inverse(self, x) -> Vec:
        """(1 + X)**-1 = 1 - X + X**2 - ...; the series stops by nilpotency."""
        F = self.field
        x = self._vec(x)
        out = [0] * self.d
        term = x
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

    identity = zero  # x_0 = 1

    @property
    def dim(self) -> int:
        return self.d

    def order(self) -> int:
        return self.field.q ** self.d

    # -- validation ----------------------------------------------------------

    def _basis_vec(self, i):
        return tuple(1 if k == i else 0 for k in range(self.d))

    def _validate_associative(self):
        """(e_i e_j) e_k = e_i (e_j e_k) on basis triples.  Both sides are 0
        unless (i, j) or (j, k) carries constants, so only those are checked."""
        C, F = self.constants, self.field
        triples = {(i, j, k) for i, j in C for k in range(self.d)}
        triples |= {(i, j, k) for j, k in C for i in range(self.d)}
        for i, j, k in sorted(triples):
            lhs = _combine(F, C.get((i, j), {}), lambda m: C.get((m, k), {}))
            rhs = _combine(F, C.get((j, k), {}), lambda m: C.get((i, m), {}))
            if lhs != rhs:
                l = min(m for m in lhs.keys() | rhs.keys() if lhs.get(m) != rhs.get(m))
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

    # -- one- and two-sided actions ------------------------------------------

    def act_left(self, rho, phi) -> Vec:
        """x_rho * X_phi."""
        return self._plus(phi, self.product(rho, phi))

    def act_right(self, phi, rho) -> Vec:
        """X_phi * x_rho."""
        return self._plus(phi, self.product(phi, rho))

    def act_two_sided(self, tau, phi, rho) -> Vec:
        """x_tau * X_phi * x_rho."""
        return self.act_right(self.act_left(tau, phi), rho)

    def coact(self, tau, eta, rho) -> Vec:
        """x_tau**-1 * lambda_eta * x_rho**-1 on the dual space: its value at
        X_k is lambda_eta(x_tau X_k x_rho)."""
        F = self.field
        eta = self._vec(eta)
        return tuple(
            F.dot(eta, self.act_two_sided(tau, self._basis_vec(k), rho)) for k in range(self.d)
        )

    # -- action matrices -------------------------------------------------------

    def _phi_matrix(self, phi, left: bool) -> FqMatrix:
        F = self.field
        phi = self._vec(phi)
        rows = [[0] * self.d for _ in range(self.d)]
        for (i, j), row in self.constants.items():
            col, v = (i, phi[j]) if left else (j, phi[i])
            if v:
                for m, c in row.items():
                    rows[m][col] = F.add(rows[m][col], F.mul(c, v))
        return FqMatrix.from_rows(F, rows, self.d)

    def left_action_matrix(self, phi) -> FqMatrix:
        """The matrix of rho -> X_rho X_phi: [m][i] = sum_j c_ij^m phi_j."""
        return self._phi_matrix(phi, left=True)

    def right_action_matrix(self, phi) -> FqMatrix:
        """The matrix of rho -> X_phi X_rho: [m][j] = sum_i phi_i c_ij^m."""
        return self._phi_matrix(phi, left=False)

    def _eta_matrix(self, eta):
        """A_eta as dense rows: (A_eta)_ij = sum_k c_ij^k eta_k."""
        F = self.field
        eta = self._vec(eta)
        A = [[0] * self.d for _ in range(self.d)]
        for (i, j), row in self.constants.items():
            acc = 0
            for k, c in row.items():
                if eta[k]:
                    acc = F.add(acc, F.mul(c, eta[k]))
            A[i][j] = acc
        return A

    def dual_right_action_matrix(self, eta) -> FqMatrix:
        """A_eta, whose nullspace is the right annihilator of lambda_eta."""
        return FqMatrix.from_rows(self.field, self._eta_matrix(eta), self.d)

    def dual_left_action_matrix(self, eta) -> FqMatrix:
        """The transpose of A_eta, whose nullspace is the left annihilator."""
        A = self._eta_matrix(eta)
        return FqMatrix.from_rows(self.field, [list(col) for col in zip(*A)], self.d)

    # -- mesh data and values --------------------------------------------------

    def mesh_data(self, phi, eta):
        """(M, a, b) with M[i][j] = phi C_i C^j eta, a_i = phi C_i eta and
        b_j = phi C^j eta, where (C_i)_jk = (C^j)_ik = c_ij^k: the dense
        definition that the evaluator's sparse terms are checked against."""
        F, d = self.field, self.d
        phi, eta = self._vec(phi), self._vec(eta)
        u = [[0] * d for _ in range(d)]  # u[i] = phi C_i
        w = [[0] * d for _ in range(d)]  # w[j] = C^j eta
        for (i, j), row in self.constants.items():
            for k, c in row.items():
                u[i][k] = F.add(u[i][k], F.mul(phi[j], c))
                w[j][i] = F.add(w[j][i], F.mul(c, eta[k]))
        rows = [[F.dot(u_i, w_j) for w_j in w] if any(u_i) else [0] * d for u_i in u]
        a = tuple(F.dot(u_i, eta) for u_i in u)
        b = tuple(F.dot(phi, w_j) for w_j in w)
        return FqMatrix.from_rows(F, rows, d), a, b

    def meshes(self, phi, eta):
        """Whether phi meshes with eta; the deterministic witness b0 when it does."""
        M, a, b = self.mesh_data(phi, eta)
        F = self.field
        b0 = solve(M, tuple(F.neg(x) for x in a))
        if b0 is None or not perp_to_nullspace(M, b):
            return False, None
        return True, b0

    def corank(self, eta, cap: int | None = None) -> int:
        """rank(A_eta), the dimension of the right orbit of lambda_eta.

        ``cap`` is accepted for compatibility and ignored: nothing is enumerated.
        """
        return self._corank_of(self._eta_matrix(eta))

    def _corank_of(self, A) -> int:
        return rank(FqMatrix.from_rows(self.field, A, self.d))

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

    def is_irreducible(self, eta) -> bool:
        """Right plus left annihilator of eta fills F_q**d.

        They are the nullspaces of A_eta and its transpose, each of dimension
        d - rank(A_eta), so their sum is everything iff [A_eta; A_eta^T] has
        rank 2 * rank(A_eta).  Nothing is enumerated, so this works beyond
        any cap; tables read the same fact off the co-orbit sizes instead.
        """
        A = self._eta_matrix(eta)
        stacked = A + [list(col) for col in zip(*A)]
        return rank(FqMatrix.from_rows(self.field, stacked, self.d)) == 2 * self._corank_of(A)

    # -- orbits ------------------------------------------------------------------

    def _move_set(self, kind: str):
        """The moves of one action, per generator 1 + t X_g and t in an additive
        basis of F_q.  Each constant c = c_ij^k adds one update to each kind:

            left (g = i):     phi'_k += t c phi_j      right (g = j):    phi'_k += t c phi_i
            co_left (g = i):  eta'_j += t c eta_k      co_right (g = j): eta'_i += t c eta_k
        """
        if self._moves is None:
            gens = self.field.additive_generators()
            ups = {kind: [[] for _ in range(self.d)] for kind in ("right", "left", "co_right", "co_left")}
            for (i, j), row in self.constants.items():
                for k, c in row.items():
                    ups["left"][i].append((k, j, c))
                    ups["right"][j].append((k, i, c))
                    ups["co_left"][i].append((j, k, c))
                    ups["co_right"][j].append((i, k, c))
            self._moves = {
                kind: tuple((t, tuple(u)) for u in per_gen if u for t in gens)
                for kind, per_gen in ups.items()
            }
        return self._moves[kind]

    def _orbit(self, f, kinds, cap) -> Orbit:
        cap = DEFAULT_ENUM_CAP if cap is None else cap
        if self.order() > cap:
            raise SizeCapExceeded(self.order(), cap, "orbit enumeration")
        moves = sum((self._move_set(kind) for kind in kinds), ())
        members = _bfs(self.field, self._vec(f), moves)
        return Orbit(min(members), len(members), frozenset(members))

    def orbit(self, phi, cap: int | None = None) -> Orbit:
        """The two-sided multiplication orbit of X_phi."""
        return self._orbit(phi, ("left", "right"), cap)

    def orbit_left(self, phi, cap: int | None = None) -> Orbit:
        return self._orbit(phi, ("left",), cap)

    def orbit_right(self, phi, cap: int | None = None) -> Orbit:
        return self._orbit(phi, ("right",), cap)

    def coorbit(self, eta, cap: int | None = None) -> Orbit:
        """The two-sided orbit of lambda_eta on the dual space."""
        return self._orbit(eta, ("co_left", "co_right"), cap)

    def coorbit_left(self, eta, cap: int | None = None) -> Orbit:
        return self._orbit(eta, ("co_left",), cap)

    def coorbit_right(self, eta, cap: int | None = None) -> Orbit:
        return self._orbit(eta, ("co_right",), cap)

    def one_sided_orbit_sizes(self, phi) -> tuple[int, int]:
        """(left, right) orbit sizes of X_phi as q**rank; no enumeration, no cap."""
        q = self.field.q
        return (
            q ** rank(self.left_action_matrix(phi)),
            q ** rank(self.right_action_matrix(phi)),
        )

    def one_sided_coorbit_size(self, eta) -> int:
        """Common size of the left and right orbits of lambda_eta: q**corank."""
        return self.field.q ** self.corank(eta)

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
        """Canonical superclass representatives (least members) with sizes, ascending."""
        part = self.orbit_partition(cap)
        return [Orbit(rep, size) for rep, size in zip(part.reps, part.sizes)]

    def all_coorbit_reps(self, cap: int | None = None) -> list[Orbit]:
        part = self.coorbit_partition(cap)
        return [Orbit(rep, size) for rep, size in zip(part.reps, part.sizes)]


def _combine(F: Fq, coeffs: dict, vec_of) -> dict:
    """sum_m coeffs[m] * vec_of(m) for sparse {index: value} vectors, zeros dropped."""
    out: dict = {}
    for m, c in coeffs.items():
        for l, v in vec_of(m).items():
            out[l] = F.add(out.get(l, 0), F.mul(c, v))
    return {l: v for l, v in out.items() if v}


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


# ---------------------------------------------------------------------------


class PatternGroup(StructureAlgebra):
    """The pattern group U_J over F_q: the algebra group of the closed set J,
    on the basis indexed by J in canonical order, with the constant
    c_{(i,j),(j,k)}^{(i,k)} = 1 for every 3-chain (i, j, k).

    For U_n each superclass and each co-orbit holds exactly one monomial M,
    at most one nonzero per row and column (Andre; Diaconis-Isaacs,
    Supercharacters and superclasses for algebra groups), and M is the class
    representative, its least member.  The bottom row is most significant in
    the canonical order, and within a row the right end; 0 is the least code.
    So M < Y for Y != M in the class once M_ij = 0 at their most significant
    difference (i, j).  Suppose M_ij != 0: row i and column j of M hold only
    (i, j), and row i of Y is zero right of j, as that of M is.

    Superclasses.  Multiplying by 1 + t E_ab (a < b) adds t * row b to row a
    or t * column a to column b.  Reduce Y from the bottom row up: take the
    leftmost nonzero (r, s) of row r, clear the rest of row r by column
    moves, then column s above r by row moves.  Column s is zero below r (a
    pivot there would have cleared (r, s)), so finished rows stay, and the
    result is a monomial of the class: M.  Rows of Y below i are those of
    M, so they need row moves only, which change row i only in the columns
    of lower pivots of M, not in column j.  So at its turn row i holds Y_ij
    and is zero right of j: its pivot is (i, j) with value Y_ij if Y_ij is
    its leftmost nonzero, and not at (i, j) otherwise; both contradict M.

    Co-orbits.  The dual moves add t * row a to row b (a < b) on the columns
    right of b, and t * column b to column a on the rows above a.  Reduce Y
    from the right column leftwards: take the topmost nonzero (r, s) of
    column s, clear column s below it by row moves, then row r left of s by
    column moves.  Row r is zero in finished columns (a pivot there would
    have cleared (r, s)), so they stay, and the result is M.  Row moves
    change row i only if (i, s) != 0 for the column s being reduced, and
    column moves only the pivot's row, so row i, zero right of j, stays
    until column j.  There the pivot is (i, j) with value Y_ij if Y_ij is
    the topmost nonzero, and not at (i, j) otherwise; both contradict M.
    """

    __slots__ = ("J",)

    def __init__(self, J: ClosedSet, field: Fq):
        constants: dict = {}
        for ab, bc, ac in J.chain3_idx:
            constants[(ab, bc)] = {ac: 1}
        super().__init__(len(J), field, constants)
        self.J = J
