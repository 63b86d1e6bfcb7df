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
same data off A_eta as sparse terms in phi, for a batch of characters at
once through the constant blocks of :meth:`StructureAlgebra._constant_blocks`.
Both decide a single cell by the one scalar mesh solve of :mod:`.gf`: one
row reduction of [M | -a] gives solvability, rank M, b0 and whether b is
perpendicular to null(M), and :func:`_mesh_value` reads the value off it.
:meth:`StructureAlgebra.corank` and the nilpotency check call the same row
reduction, ``gf._rref``.

A pattern group U_J is the algebra group of its closed set J, with
c_{(i,j),(j,k)}^{(i,k)} = 1 for each 3-chain; packed tuples follow J's
canonical order (:mod:`.poset`).  Every class is represented by its least
member, for U_n its monomial (see :class:`PatternGroup`).

Orbits are closures under the generators 1 + t X_i, t in an additive basis
of F_q.  A move is the tuple of updates (tgt, src, c), each adding c times
coordinate src to coordinate tgt, with t folded into c; the oracle writes
its moves the same way.  One vectorized sweep over F_q**d partitions every
orbit space, once per action: the algebra keeps it, and its partitions and
single orbits are lookups in it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import (
    InternalInvariantViolation,
    NotAssociative,
    NotNilpotent,
    SizeCapExceeded,
    SpecMismatch,
)
from . import gf
from .gf import CharValue, Fq, FqMatrix, _solve_perp, rank
from .poset import ClosedSet

DEFAULT_ENUM_CAP = 1 << 20


@dataclass(frozen=True)
class Orbit:
    """A two-sided (co)orbit: canonical representative, size, optional elements."""

    rep: tuple[int, ...]
    size: int
    elements: frozenset | None = None


def _codes_to_digits(codes, q: int, dim: int) -> np.ndarray:
    """The (count, dim) functionals of base-q codes, first coordinate most significant."""
    return np.asarray(codes, dtype=np.int64).reshape(-1, 1) // q ** np.arange(dim - 1, -1, -1) % q


def _digits_to_codes(digits, q: int) -> np.ndarray:
    """The inverse of :func:`_codes_to_digits`, over the last axis."""
    return np.asarray(digits, dtype=np.int64) @ q ** np.arange(np.shape(digits)[-1] - 1, -1, -1)


def _check_functional(field: Fq, dim: int, f) -> tuple:
    """``f`` as a tuple; SpecMismatch unless it lies in F_q**dim.  The one
    scalar check of a functional, by ``min`` and ``max``: the per-cell
    paths call it once per cell."""
    f, q = tuple(f), field.q
    if len(f) != dim:
        raise SpecMismatch(f"functional of length {len(f)} for dimension {dim}")
    if f and (min(f) < 0 or max(f) >= q):
        raise SpecMismatch(f"functional {f} is not in F_{q}^{dim}")
    return f


def _check_functionals(field: Fq, dim: int, fs) -> np.ndarray:
    """``fs`` as a (count, dim) int64 array; SpecMismatch unless each lies in
    F_q**dim, with the message of :func:`_check_functional` for the first
    that does not.  The one array check of functionals and digit blocks."""
    try:
        arr = np.array(fs, dtype=np.int64).reshape(len(fs), dim)
    except (ValueError, TypeError, OverflowError):  # ragged, of the wrong length, or huge
        arr = None
    if arr is None or ((arr < 0) | (arr >= field.q)).any():
        for f in fs:
            _check_functional(field, dim, np.ravel(f).tolist())
    return arr


class OrbitPartition:
    """The orbit decomposition of the full functional space F_q**dim."""

    def __init__(self, field: Fq, dim: int, rep_codes: np.ndarray, sizes, labels):
        self.field = field
        self.dim = dim
        self._rep_codes = rep_codes  # ascending, so class k has the k-th least representative
        self.sizes = sizes
        self._labels = labels  # code -> code of its class minimum, smallest unsigned dtype

    @cached_property
    def digits(self) -> np.ndarray:
        """Every class representative, ascending, as a read-only (count, dim) array."""
        digits = _codes_to_digits(self._rep_codes, self.field.q, self.dim)
        digits.flags.writeable = False
        return digits

    @cached_property
    def reps(self) -> tuple[tuple[int, ...], ...]:
        """:attr:`digits` as tuples."""
        return tuple(map(tuple, self.digits.tolist()))

    def __len__(self) -> int:
        return len(self._rep_codes)

    def rep(self, k: int) -> tuple[int, ...]:
        return self.decode(int(self._rep_codes[k]))

    def code(self, f) -> int:
        return int(_digits_to_codes(_check_functional(self.field, self.dim, f), self.field.q))

    def decode(self, code: int) -> tuple[int, ...]:
        return tuple(_codes_to_digits(code, self.field.q, self.dim)[0].tolist())

    def classes_of(self, fs) -> np.ndarray:
        """The class index of every functional in ``fs``, by one label lookup;
        SpecMismatch unless each lies in F_q**dim."""
        arr = _check_functionals(self.field, self.dim, fs)
        return self.classes_of_codes(_digits_to_codes(arr, self.field.q))

    def classes_of_codes(self, codes) -> np.ndarray:
        """The class index of every code in ``codes``, each below q**dim, by
        one label lookup."""
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


def sweep_size(field: Fq, dim: int, cap: int | None) -> int:
    """q**dim, the functionals a sweep of F_q**dim visits; SizeCapExceeded
    when that passes ``cap`` (DEFAULT_ENUM_CAP when None)."""
    total = field.q ** dim
    cap = DEFAULT_ENUM_CAP if cap is None else cap
    if total > cap:
        raise SizeCapExceeded(total, cap, "functionals to sweep")
    return total


def orbit_partition_from_moves(field: Fq, dim: int, moves, cap: int | None) -> OrbitPartition:
    """The orbits of the moves on F_q**dim; the oracle calls it with its own moves.

    Each move becomes one permutation of the codes, shaped (q,) * dim with
    one axis per coordinate: coordinate k of every code is arange(q) along
    axis k, so no coordinate array is materialized.  A target gains c times
    each source, read before the move, on the axes they span only: O(q) rows
    c * arange(q), one per distinct constant per sweep (never a q x q table:
    q goes up to 2**16), added by :meth:`~superchar.gf.Fq.add_codes`.
    Permutations and labels are kept in the smallest unsigned dtype that
    holds a code, since a wider permutation is a fresh mapping that
    page-faults in at a cost the wider gather does not repay.  Labels
    pull the minimum backward through every permutation to a fixpoint, the
    orbit minimum everywhere since orbits are strongly connected (the moves
    generate a group action).  Each pull is one ``labels.take(perm)``, a
    plain gather that costs about 0.6 of the fancy index ``labels[perm]`` on
    these narrow index arrays, and one in-place minimum; the fixpoint is
    the first pass after which the sum of the labels has not fallen.
    """
    total = sweep_size(field, dim, cap)
    q = field.q
    dtype = np.min_scalar_type(total - 1)
    codes = np.arange(total, dtype=dtype).reshape((q,) * dim)
    # coordinate k of every code, with trailing axes of length 1 that broadcast
    coord = [np.arange(q).reshape((q,) + (1,) * (dim - 1 - k)) for k in range(dim)]
    multiples = cache(field.multiples)  # for this sweep only

    perms = []
    for updates in moves:
        terms: dict = {}
        for tgt, src, c in updates:
            terms.setdefault(tgt, [coord[tgt]]).append(multiples(c).reshape(coord[src].shape))
        # the change of code, summed over the targets on the axes they read
        # only; shifts wrap modulo the unsigned dtype, and so does their sum,
        # which brings every code to its image
        shift = dtype.type(0)
        for tgt, values in terms.items():
            shift = shift + ((field.add_codes(values) - coord[tgt]) * q ** (dim - 1 - tgt)).astype(dtype)
        perms.append((codes + shift).ravel())
    labels = np.arange(total, dtype=dtype)
    # labels only fall, so a pass that leaves their sum alone changed none
    weight, before = total * (total - 1) // 2, None
    while weight != before:
        for perm in perms:
            np.minimum(labels, labels.take(perm), out=labels)
        weight, before = int(labels.sum(dtype=np.int64)), weight
    # each orbit's representative is the one code that is its own label
    rep_codes = np.flatnonzero(labels == codes.ravel()).astype(dtype)
    sizes = np.bincount(labels, minlength=total)[rep_codes]
    return OrbitPartition(field, dim, rep_codes, tuple(sizes.tolist()), labels)


def _mesh_value(field: Fq, solved, corank, b, phi, eta) -> CharValue:
    """The scalar formula after the mesh solve ``solved`` of :mod:`.gf`:
    zero when it is None, else q**(corank - rank M) * theta(b0.b + phi.eta)."""
    if solved is None:
        return CharValue.zero()
    rank_m, b0 = solved
    if corank < rank_m:
        raise InternalInvariantViolation("rank of the mesh matrix exceeds the corank")
    return CharValue.of(corank - rank_m, field.trace(field.add(field.dot(b0, b), field.dot(phi, eta))), field.p)


# ---------------------------------------------------------------------------

Vec = tuple


class StructureAlgebra:
    """A validated structure-constant presentation of a nilpotent algebra,
    with its algebra group 1 + A acting on A and on the dual space."""

    __slots__ = ("d", "field", "constants", "_moves", "_blocks", "_sweeps")

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
        self._blocks = None
        self._sweeps: dict[tuple[str, ...], OrbitPartition] = {}

    def _functional(self, f) -> Vec:
        """``f`` as a tuple by the scalar check: SpecMismatch unless it lies
        in F_q**d.  Every method that takes a functional calls it."""
        return _check_functional(self.field, self.d, f)

    # -- the algebra product and the group ---------------------------------

    def product(self, u, v) -> Vec:
        """Coordinates of X_u * X_v."""
        F = self.field
        u, v = self._functional(u), self._functional(v)
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
        xy = self.product(x, y)  # checks x and y before they are added
        return self._plus(self._plus(x, y), xy)

    def inverse(self, x) -> Vec:
        """(1 + X)**-1 = 1 - X + X**2 - ...; the series stops by nilpotency."""
        F = self.field
        x = self._functional(x)
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
        """Products of more than d basis elements must vanish.  Each level
        keeps the products e_i * v (v of the level before) that the pivot
        columns of one row reduction pick: in order, each one outside the
        span of those before it."""
        d = self.d
        level = [(self._basis_vec(i), (i,)) for i in range(d)]
        for _ in range(d):
            products = []
            for i in range(d):
                e_i = self._basis_vec(i)
                for vec, seq in level:
                    w = self.product(e_i, vec)
                    if any(w):
                        products.append((w, (i,) + seq))
            if not products:
                return
            _, pivots = gf._rref(self.field, list(zip(*(w for w, _ in products))), len(products))
            level = [products[c] for c in pivots]
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
        tau, eta, rho = map(self._functional, (tau, eta, rho))
        return tuple(
            F.dot(eta, self.act_two_sided(tau, self._basis_vec(k), rho)) for k in range(self.d)
        )

    # -- action matrices -------------------------------------------------------

    def _phi_matrix(self, phi, left: bool) -> FqMatrix:
        F = self.field
        phi = self._functional(phi)
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
        eta = self._functional(eta)
        A = [[0] * self.d for _ in range(self.d)]
        for (i, j), row in self.constants.items():
            acc = 0
            for k, c in row.items():
                if eta[k]:
                    acc = F.add(acc, F.mul(c, eta[k]))
            A[i][j] = acc
        return A

    def _constant_blocks(self):
        """(pairs, W): the (i, j) that carry constants, as a (pairs, 2) array
        in ascending order, and the (d * r, pairs * r) F_p matrix with
        W[(m, u), (n, v)] = D(c_(pairs[n])^m)[u, v], D(c) the block of
        x -> c x on row digit vectors.  D is F_p-linear, so for any x in
        F_q**d the digits of sum_m c_ij^m x_m at every pair are digits(x) W:
        one mod-p product contracts the constants with a batch of vectors,
        A_eta on the pairs for x = eta among them."""
        if self._blocks is None:
            F, d, r = self.field, self.d, self.field.r
            pairs = sorted(self.constants)
            terms = [(m, n, c) for n, pair in enumerate(pairs) for m, c in self.constants[pair].items()]
            W = np.zeros((d, r, len(pairs), r), dtype=np.int64)
            if terms:
                m, n, c = np.array(terms, dtype=np.int64).T
                W[m, :, n, :] = F.digit_blocks(F.p_digits(c))
            pairs = np.array(pairs, dtype=np.int64).reshape(len(pairs), 2)
            self._blocks = pairs, W.reshape(d * r, len(pairs) * r)
        return self._blocks

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
        phi, eta = self._functional(phi), self._functional(eta)
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

    def _mesh_solve(self, phi, eta):
        """b and the one scalar mesh solve of :mod:`.gf` for M x = -a."""
        M, a, b = self.mesh_data(phi, eta)
        neg = self.field.neg
        return b, _solve_perp(self.field, [row + (neg(x),) for row, x in zip(M.rows, a)], self.d, b)

    def meshes(self, phi, eta):
        """Whether phi meshes with eta; the deterministic witness b0 when it does."""
        _, solved = self._mesh_solve(phi, eta)
        return (False, None) if solved is None else (True, solved[1])

    def corank(self, eta, cap: int | None = None) -> int:
        """rank(A_eta), the dimension of the right orbit of lambda_eta.

        ``cap`` is accepted for compatibility and ignored: nothing is enumerated.
        """
        return self._corank_of(self._eta_matrix(eta))

    def _corank_of(self, A) -> int:
        return len(gf._rref(self.field, A, self.d)[1])

    def value(self, eta, phi, corank: int | None = None) -> CharValue:
        """chi^eta at the superclass of x_phi."""
        b, solved = self._mesh_solve(phi, eta)
        if solved is not None and corank is None:
            corank = self.corank(eta)
        return _mesh_value(self.field, solved, corank, b, phi, eta)

    def is_irreducible(self, eta) -> bool:
        """Right plus left annihilator of eta fills F_q**d.

        They are the nullspaces of A_eta and its transpose, each of dimension
        d - rank(A_eta), so their sum is everything iff [A_eta; A_eta^T] has
        rank 2 * rank(A_eta).  Nothing is enumerated, so this works beyond
        any cap; tables read the same fact off the co-orbit sizes instead.
        """
        A = self._eta_matrix(eta)
        stacked = A + [list(col) for col in zip(*A)]
        return len(gf._rref(self.field, stacked, self.d)[1]) == 2 * self._corank_of(A)

    # -- orbits ------------------------------------------------------------------

    def _move_set(self, kind: str):
        """The moves of one action, per generator 1 + t X_g and t in an additive
        basis of F_q, each the tuple of its updates (tgt, src, t c).  Each
        constant c = c_ij^k adds one update to each kind:

            left (g = i):     phi'_k += t c phi_j      right (g = j):    phi'_k += t c phi_i
            co_left (g = i):  eta'_j += t c eta_k      co_right (g = j): eta'_i += t c eta_k
        """
        if self._moves is None:
            F, gens = self.field, self.field.additive_generators()
            ups = {kind: [[] for _ in range(self.d)] for kind in ("right", "left", "co_right", "co_left")}
            for (i, j), row in self.constants.items():
                for k, c in row.items():
                    ups["left"][i].append((k, j, c))
                    ups["right"][j].append((k, i, c))
                    ups["co_left"][i].append((j, k, c))
                    ups["co_right"][j].append((i, k, c))
            self._moves = {
                kind: tuple(tuple((tgt, src, F.mul(t, c)) for tgt, src, c in u) for u in per_gen if u for t in gens)
                for kind, per_gen in ups.items()
            }
        return self._moves[kind]

    def _sweep(self, kinds, cap) -> OrbitPartition:
        """The orbits of the move sets ``kinds`` on F_q**d: one sweep per set,
        on first use, kept and read by every query of it; the cap holds for a
        kept sweep too (:func:`sweep_size`)."""
        sweep_size(self.field, self.d, cap)
        if kinds not in self._sweeps:
            moves = sum((self._move_set(kind) for kind in kinds), ())
            self._sweeps[kinds] = orbit_partition_from_moves(self.field, self.d, moves, cap)
        return self._sweeps[kinds]

    def _orbit(self, f, kinds, cap) -> Orbit:
        """The orbit of f, looked up in the sweep of ``kinds`` (:meth:`_sweep`):
        O(q**d) time and memory on the first query whatever the orbit's size."""
        f = self._functional(f)
        cap = DEFAULT_ENUM_CAP if cap is None else cap
        if self.order() > cap:
            raise SizeCapExceeded(self.order(), cap, "functionals to search")
        part = self._sweep(kinds, cap)
        k = part.class_of(f)
        return Orbit(part.rep(k), part.sizes[k], frozenset(part.elements(k)))

    def orbit(self, phi, cap: int | None = None) -> Orbit:
        """The two-sided multiplication orbit of X_phi; costs as :meth:`_orbit`."""
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
        return self._sweep(("left", "right"), cap)

    def coorbit_partition(self, cap: int | None = None) -> OrbitPartition:
        return self._sweep(("co_left", "co_right"), cap)

    def symmetries(self) -> list:
        """Generators (to, scale), f to f' with f'[to[k]] = scale[k] f[k], of
        symmetries of the table: here the generator g of F_q^*, if g != 1."""
        return [(np.arange(self.d), np.full(self.d, self.field.generator))][: self.field.generator != 1]

    def all_orbit_reps(self, cap: int | None = None) -> list[Orbit]:
        """Canonical superclass representatives (least members) with sizes, ascending."""
        part = self.orbit_partition(cap)
        return [Orbit(rep, size) for rep, size in zip(part.reps, part.sizes)]

    def all_coorbit_reps(self, cap: int | None = None) -> list[Orbit]:
        part = self.coorbit_partition(cap)
        return [Orbit(rep, size) for rep, size in zip(part.reps, part.sizes)]


def symmetry_codes(field: Fq, symmetries, digits) -> np.ndarray:
    """The codes of the (count, d) functionals ``digits`` under each map of
    :meth:`StructureAlgebra.symmetries`: a table lookup per coordinate."""
    (count, d), q = digits.shape, field.q
    to, scale = (np.array(column, dtype=np.int64).reshape(len(symmetries), d) for column in zip(*symmetries or [((), ())]))
    units = sorted(set(scale.ravel().tolist()))
    table = np.array([field.multiples(c) for c in units], dtype=np.int64).reshape(-1, q)[np.searchsorted(units, scale)] * q ** (d - 1 - to)[:, :, None]
    return sum((table[:, k].take(digits[:, k], axis=1) for k in range(d)), np.zeros((len(symmetries), count), dtype=np.int64))


def _combine(F: Fq, coeffs: dict, vec_of) -> dict:
    """sum_m coeffs[m] * vec_of(m) for sparse {index: value} vectors, zeros dropped."""
    out: dict = {}
    for m, c in coeffs.items():
        for l, v in vec_of(m).items():
            out[l] = F.add(out.get(l, 0), F.mul(c, v))
    return {l: v for l, v in out.items() if v}


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

    So a U_n table lists the monomials in code order instead of sweeping,
    and counts sizes and values off their arcs
    (:func:`superchar.formula.un_value_chunks`).
    """

    __slots__ = ("J",)

    def __init__(self, J: ClosedSet, field: Fq):
        # E_ab E_bc = E_ac over a validated closed set: the constants are in
        # range, associative and strictly upper triangular by construction,
        # so the checks of StructureAlgebra.__init__ have nothing to find
        self.J, self.d, self.field = J, len(J), field
        self.constants = {(ab, bc): {ac: 1} for ab, bc, ac in J.chain3_idx}
        self._moves = self._blocks = None
        self._sweeps = {}

    def symmetries(self) -> list:
        """The scalar; for q > 2 the scaling by t_v = g of each vertex v < n a
        pair touches, (a, b) times t_b / t_a; the swap of each twin vertex
        (equal lower and upper neighbours) with the next: automorphisms of U_J."""
        F, J = self.field, self.J
        a, b = np.array(J.order, dtype=np.int64).reshape(self.d, 2).T
        g, out, twins = F.generator, super().symmetries(), {}
        if g != 1:  # the vertex scalings, q > 2
            out += [(range(self.d), np.where(b == v, g, np.where(a == v, F.power(g, -1), 1))) for v in range(1, J.n) if v in a or v in b]
        for v in range(1, J.n + 1):
            twins.setdefault((frozenset(a[b == v].tolist()), frozenset(b[a == v].tolist())), []).append(v)
        for (lower, upper), vs in twins.items():  # the twin swaps
            swaps = [{u: v, v: u} for u, v in zip(vs, vs[1:]) if lower or upper]
            out += [([J.index[s.get(i, i), s.get(j, j)] for i, j in J.order], [1] * self.d) for s in swaps]
        return out
