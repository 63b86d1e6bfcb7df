"""Exact arithmetic over small finite fields and in Z[zeta_p].

Field elements are plain ints in ``range(q)``.  The base-p digits of an
element are the coefficients of its residue polynomial, least significant
digit first, so prime fields are the ordinary residues ``0..p-1``.  All
arithmetic goes through the owning :class:`Fq`; elements carry no field
reference, so layers above never mix encodings from different fields
(matrices, groups and algebras each hold a single field and raise
``SpecMismatch`` when combined across fields).

Bulk code works on base-p digits instead, where multiplication by a fixed
element and the trace are F_p-linear: :class:`Fq` holds that view as arrays
(digits, digit blocks, trace form, inverses mod p), one exact mod-p matrix
product and one batched Gauss-Jordan elimination mod p, the only digit
arithmetic of the evaluator and the oracle.  The orbit sweep of :mod:`.core`
adds codes digit-wise and reads rows of multiples off the log tables, as do
the formula and the oracle, whose orbits and rows gf walks and fills.

There is one scalar arithmetic for every q.  Multiplication by X is the
companion matrix C of the modulus, so the blocks D(X**v) are C**v mod p, and
everything F_p-linear is read from them: every block D(c), the trace form
(matrix traces of D(X**u) D(X**v)) and :meth:`Fq.trace` (a linear form on
digits).  The powers of the least unit g that generates F_q*, taken by
doubling with those blocks, give the exp, log and Zech logarithm tables, so
each scalar op (add, neg, sub, mul, inv, power) is a few list lookups.  The
same walk proves the modulus irreducible when an extension field is built,
so the module holds no polynomial arithmetic.

Dense matrices reduce by ``_rref``, the package's only scalar pivoting, and
``_solve_perp``, the one scalar mesh solve, reads one reduction of [M | rhs]:
consistency, rank M, a particular solution, and whether b is in rowspace(M).

Character values live in the ring of cyclotomic integers Z[zeta_p].
:class:`CycInt` is the full ring, used by brute-force orbit sums;
:class:`CharValue` is the closed multiplicative form ``q**m * zeta_p**k``
that the character formulas produce, and :func:`cell_codes` packs arrays of
such values into one small code per cell, which :func:`cell_value` and
:func:`cell_exponents` read back.  The additive character is fixed once and
for all as ``theta(t) = zeta_p ** trace(t)``: any nontrivial character would
do, and this one makes every emitted table reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .errors import BadField, InternalInvariantViolation, SpecMismatch

MAX_Q = 1 << 16

# The least monic irreducible polynomial of each degree, read from the
# leading coefficient down (the least code sum m_i p**i); stored
# constant-term first.  Overridable per input file.
DEFAULT_MODULI = {
    4: (1, 1, 1),
    8: (1, 1, 0, 1),
    9: (1, 0, 1),
    16: (1, 1, 0, 0, 1),
    25: (2, 0, 1),
    27: (1, 2, 0, 1),
}

def _prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n >= 1, ascending, by trial division:
    the package's only factoring."""
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + ([n] if n > 1 else [])


def _prime_power(q: int) -> tuple[int, int]:
    """Split q = p**r or raise BadField."""
    if q < 2:
        raise BadField(f"q must be at least 2, got {q}")
    factors = _prime_factors(q)
    if len(factors) > 1:
        raise BadField(f"{q} is not a prime power")
    p, r = factors[0], 0
    while q > 1:
        q //= p
        r += 1
    return p, r


@dataclass(frozen=True)
class Fq:
    """The finite field F_q, q = p**r, with elements encoded as ints in range(q)."""

    p: int
    r: int
    modulus: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.r < 1:
            raise BadField(f"extension degree must be positive, got {self.r}")
        if self.p ** self.r > MAX_Q:  # before factoring p, which takes sqrt(p) steps
            raise BadField(f"q = {self.p}**{self.r} exceeds the supported limit {MAX_Q}")
        if _prime_factors(self.p) != [self.p]:  # [] for p < 2
            raise BadField(f"{self.p} is not prime")
        if self.r == 1:
            if self.modulus is not None:
                raise BadField("a modulus is only meaningful for proper prime powers")
        else:
            m = self.modulus
            if m is None:
                raise BadField(f"q = {self.q} needs a modulus polynomial")
            if len(m) != self.r + 1:
                raise BadField(f"modulus must have degree {self.r}")
            if any(not (0 <= c < self.p) for c in m):
                raise BadField("modulus coefficients must be reduced mod p")
            if m[-1] != 1:
                raise BadField("modulus must be monic")
            self._logs  # the walk that builds the log tables proves m irreducible

    @classmethod
    def of(cls, q: int, modulus=None) -> "Fq":
        if q > MAX_Q:  # before factoring q, which takes sqrt(q) steps for a prime
            raise BadField(f"q = {q} exceeds the supported limit {MAX_Q}")
        p, r = _prime_power(q)
        if modulus is None and r > 1:
            if q not in DEFAULT_MODULI:
                raise BadField(f"no built-in modulus for q = {q}; supply one")
            modulus = DEFAULT_MODULI[q]
        return cls(p, r, None if modulus is None else tuple(int(c) % p for c in modulus))

    @property
    def q(self) -> int:
        return self.p ** self.r

    def __repr__(self):
        if self.r == 1:
            return f"Fq({self.p})"
        return f"Fq({self.q}, modulus={list(self.modulus)})"

    # -- element encoding -------------------------------------------------

    def coeffs(self, a: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.r):
            a, c = divmod(a, self.p)
            out.append(c)
        return tuple(out)

    def from_coeffs(self, cs) -> int:
        cs = list(cs)
        if len(cs) > self.r:
            raise BadField(f"too many coefficients for degree-{self.r} extension")
        a = 0
        for c in reversed(cs):
            a = a * self.p + (int(c) % self.p)
        return a

    def check(self, a: int) -> int:
        if not (0 <= a < self.q):
            raise BadField(f"{a} is not an element of F_{self.q}")
        return a

    def elements(self) -> range:
        return range(self.q)

    def additive_generators(self) -> tuple[int, ...]:
        """A basis of F_q over F_p: 1, X, ..., X**(r-1)."""
        return tuple(self.p ** i for i in range(self.r))

    # -- arithmetic --------------------------------------------------------

    @cached_property
    def _logs(self):
        """exp[k] = g**k, log and zech[k] = log(1 + g**k) (-1 where
        1 + g**k = 0) for the least code g whose powers reach every unit, and
        log(-1).  exp and zech are stored twice over, with length 2(q - 1), so
        a sum or difference of two logs indexes them directly (Python reads a
        negative index mod the length); log[0] is never read.  BadField when
        the walk finds the modulus reducible."""
        p, n = self.p, self.q - 1
        digits = self._unit_powers(next((g for g in range(1, n + 1) if self._generates(g)), 1))  # 1 fails the test below
        codes = digits @ p ** np.arange(self.r)
        # F_p[X]/(m) is a field iff some g has q - 1 distinct nonzero powers:
        # a ring R that is not a field has at most q - 2 units, where a unit's
        # powers lie, and the powers g, g**2, ... of a zero divisor g lie in
        # the proper ideal gR of at most q/p elements.
        if not np.bincount(codes, minlength=n + 1)[1:].all():
            raise BadField(f"reducible polynomial: {list(self.modulus)} over F_{p}")
        log = np.zeros(n + 1, dtype=np.int64)
        log[codes] = np.arange(n)
        one_plus = codes + np.where(digits[:, 0] == p - 1, 1 - p, 1)  # add 1 to digit 0
        zech = np.where(one_plus == 0, -1, log[one_plus])
        return np.tile(codes, 2).tolist(), log.tolist(), np.tile(zech, 2).tolist(), int(log[p - 1])

    def _generates(self, g: int) -> bool:
        """Whether g generates F_q*: g**((q-1)/l) != 1 for every prime l
        dividing q - 1.  The power of g is row 0 of the block power
        D(g)**((q-1)/l), taken by square-and-multiply."""
        p, n, one = self.p, self.q - 1, self.p_digits(1)
        block = self.digit_blocks(self.p_digits(g))
        for l in _prime_factors(n):
            power, base, e = np.eye(self.r, dtype=np.int64), block, n // l
            while e:
                if e & 1:
                    power = power @ base % p
                base, e = base @ base % p, e >> 1
            if (power[0] == one).all():
                return False
        return True

    def _unit_powers(self, g: int) -> np.ndarray:
        """The digits of g**0, ..., g**(q-2), by doubling:
        digits(g**(m..2m-1)) = digits(g**(0..m-1)) D(g**m)."""
        p, n = self.p, self.q - 1
        digits, block = self.p_digits([1]), self.digit_blocks(self.p_digits(g))
        while len(digits) < n:
            digits = np.concatenate([digits, digits[: n - len(digits)] @ block % p])
            block = block @ block % p
        return digits

    def add(self, a: int, b: int) -> int:
        if not (a and b):
            return a or b
        exp, log, zech, _ = self._logs
        la = log[a]
        z = zech[log[b] - la]  # a + b = a (1 + b / a)
        return exp[la + z] if z >= 0 else 0

    def neg(self, a: int) -> int:
        if not a:
            return 0
        exp, log, _, log_minus_one = self._logs
        return exp[log[a] + log_minus_one]

    def sub(self, a: int, b: int) -> int:
        # one Zech step on log(-b), not add(a, neg(b)): _rref subtracts per entry
        if not b:
            return a
        exp, log, zech, log_minus_one = self._logs
        lb = log[b] + log_minus_one  # log(-b)
        if not a:
            return exp[lb]
        la = log[a]
        z = zech[lb - la]
        return exp[la + z] if z >= 0 else 0

    def mul(self, a: int, b: int) -> int:
        if not (a and b):
            return 0
        exp, log, _, _ = self._logs
        return exp[log[a] + log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero in a finite field")
        exp, log, _, _ = self._logs
        return exp[-log[a]]

    def power(self, a: int, e: int) -> int:
        if not a:
            if e < 0:
                raise ZeroDivisionError("inverse of zero in a finite field")
            return 1 if e == 0 else 0
        exp, log, _, _ = self._logs
        return exp[log[a] * e % (self.q - 1)]

    def dot(self, u, v) -> int:
        acc = 0
        for a, b in zip(u, v):
            if a and b:
                acc = self.add(acc, self.mul(a, b))
        return acc

    # -- trace and the fixed additive character ----------------------------

    def trace(self, a: int) -> int:
        """Tr(a) = a + a**p + ... + a**(p**(r-1)), an element of F_p: the
        matrix trace of x -> a x, so the F_p-linear form digits(a)
        ``trace_form[0]``, and a itself when r = 1."""
        if self.r == 1:
            return a % self.p
        return int(sum(c * t for c, t in zip(self.coeffs(a), self.trace_form[0].tolist())) % self.p)

    # -- the vectorized F_p view: arrays of base-p digits ---------------------

    def p_digits(self, codes) -> np.ndarray:
        """The base-p digits of an integer array of element codes, least
        significant first, on a new last axis of length r."""
        return np.asarray(codes, dtype=np.int64)[..., None] // self.p ** np.arange(self.r) % self.p

    def digit_blocks(self, digits) -> np.ndarray:
        """D(c) for the digit vectors of c on the last axis of ``digits``, on
        two new last axes: the matrix of x -> c x on row digit vectors,
        D(c) = sum_v digit_v(c) * D(p**v) since D is F_p-linear in c."""
        return np.einsum("...w,wuv->...uv", digits, self._basis_blocks) % self.p

    @cached_property
    def _log_arrays(self):
        """The exp and log tables of :attr:`_logs` as numpy arrays."""
        return tuple(map(np.array, self._logs[:2]))

    @property
    def generator(self) -> int:
        """The generator of F_q* that the log tables are built on: the least
        code whose powers reach every unit (1 when q = 2)."""
        return self._logs[0][1]

    def multiples(self, c: int) -> np.ndarray:
        """c * x for every code x in range(q), indexed by x, for a unit c:
        O(q) lookups in the log tables, never a q x q table."""
        exp, log = self._log_arrays
        return np.concatenate(([0], exp[log[c] + log[1:]]))

    def add_codes(self, terms) -> np.ndarray:
        """The sum of broadcastable arrays of element codes, digit-wise mod p."""
        p = self.p
        if p == 2:
            return reduce(np.bitwise_xor, terms)
        if self.r == 1:
            return sum(terms) % p
        return sum(sum(t // v % p for t in terms) % p * v for v in (p ** np.arange(self.r)).tolist())

    @cached_property
    def _basis_blocks(self) -> np.ndarray:
        """D(X**v) = C**v mod p for v < r, where C = D(X) is the companion
        matrix of the modulus: row u < r - 1 of C holds the digits of
        X**(u+1), and row r - 1 those of X**r = -(m_0 + ... + m_(r-1) X**(r-1))."""
        p, r = self.p, self.r
        C = np.eye(r, k=1, dtype=np.int64)
        if r > 1:
            C[-1] = np.negative(self.modulus[:r]) % p
        blocks = [np.eye(r, dtype=np.int64)]
        for _ in range(1, r):
            blocks.append(blocks[-1] @ C % p)
        return np.array(blocks)

    @cached_property
    def trace_form(self) -> np.ndarray:
        """T_uv = trace(X**u * X**v), the matrix trace of D(X**u) D(X**v),
        so trace(b * x) = digits(b) T digits(x)^T."""
        B = self._basis_blocks
        return np.einsum("uij,vji->uv", B, B) % self.p

    @cached_property
    def fp_inverses(self) -> np.ndarray:
        """The inverses mod p, indexed by residue (0 maps to 0)."""
        return np.array([0] + [pow(v, -1, self.p) for v in range(1, self.p)], dtype=np.int64)

    def matmul_mod_p(self, a, b) -> np.ndarray:
        """a @ b mod p for entries in range(p), in the narrowest unsigned dtype.

        Entries of a @ b are at most inner * (p-1)**2, so a float (BLAS)
        product is exact: float32 below 2**24, float64 below 2**53.  So is
        P - p * floor(P / p): P / p rounds by less than 1/p."""
        p, inner = self.p, np.shape(a)[-1]
        bound = inner * (p - 1) ** 2
        if bound >= 2**53:
            raise InternalInvariantViolation(f"a product of inner length {inner} is not exact mod {p}")
        dtype = np.float32 if bound < 2**24 else np.float64
        P = np.asarray(a).astype(dtype, copy=False) @ np.asarray(b).astype(dtype, copy=False)
        # The quotient array costs a second product's worth of memory, but
        # np.fmod(P, p, out=P) runs libm's fmod per entry: on a (64, 65536)
        # float32 product it took 223 ms against 5.8 ms for this floor
        # reduction, and np.remainder 79 ms (numpy 2.4, one x86-64 core).
        quotient = P / p
        np.floor(quotient, out=quotient)
        quotient *= p
        P -= quotient
        return P.astype(np.min_scalar_type(p - 1))

    def row_reduce_mod_p(self, system: np.ndarray, rows: int, cols: int):
        """Gauss-Jordan elimination mod p of a batch of matrices, in place:
        the one F_p elimination of the block evaluator, for coranks and hard
        cells alike.

        ``system`` is a (batch, R, C) int64 array with entries in range(p).
        For each of the first ``cols`` columns in turn, the first row among
        the first ``rows`` that holds no pivot yet and is nonzero there
        becomes the pivot: it is scaled to 1 and the column is cleared in
        every other row, rows past ``rows`` included.  Returns (free, rank):
        the (batch, rows) mask of rows that hold no pivot, and the number of
        pivots of each matrix, its rank over F_p when rows = R and cols = C.
        """
        p, h = self.p, len(system)
        free = np.ones((h, rows), dtype=bool)
        rank = np.zeros(h, dtype=np.int64)
        for c in range(cols):
            candidates = free & (system[:, :rows, c] != 0)
            cells = np.flatnonzero(candidates.any(axis=1))
            if not len(cells):
                continue
            pivot = candidates[cells].argmax(axis=1)
            sub = system[cells]
            prow = sub[np.arange(len(cells)), pivot]
            prow = prow * self.fp_inverses[prow[:, c], None] % p
            sub -= sub[:, :, c, None] * prow[:, None, :]
            sub %= p
            sub[np.arange(len(cells)), pivot] = prow
            system[cells] = sub
            free[cells, pivot] = False
            rank[cells] += 1
        return free, rank


SYMMETRY_CELLS = 1 << 15  # table cells from which formula and oracle fold a pattern group by every symmetry, not the scalar alone


def orbit_tree(steps) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(source, parent, via, depth) of the group generated by the
    permutations ``steps[j]`` of range(n), the one orbit walk of formula and
    oracle: each O(n) pass pulls every label from its preimages, so
    source[k], the least index of k's orbit, settles at the pass depth[k],
    from the first generator holding it, k = steps[via[k]][parent[k]]: a BFS
    tree, via -1 at a source.  InternalInvariantViolation for a non-permutation."""
    steps = np.asarray(steps)
    gens, n = steps.shape
    every, inverse = np.arange(n), np.full((n, gens), -1)
    inverse[steps, np.arange(gens)[:, None]] = every  # row k: the preimage of k under each generator
    if (inverse < 0).any():  # an index no map reaches
        raise InternalInvariantViolation("a generator map does not permute the indices")
    source, parent, via, depth, distance = every.copy(), every.copy(), np.full(n, -1), np.zeros(n, dtype=np.int64), 0
    while gens:
        pulled, distance = source[inverse], distance + 1
        j = pulled.argmin(axis=1)
        if not len(lower := np.flatnonzero(pulled[every, j] < source)):
            break
        j = j[lower]
        source[lower], parent[lower], via[lower], depth[lower] = pulled[lower, j], inverse[lower, j], j, distance
    return source, parent, via, depth


def tree_rows(tree, steps: np.ndarray, nodes, held: dict, make) -> np.ndarray:
    """The rows of ``nodes`` over ``tree``, the (parent, via, depth) of
    :func:`orbit_tree`: a node's row is its parent's, from ``held`` or made
    first in this call, gathered through steps[via]; ``make(ks)`` gives those
    of the sources and of the nodes whose parent is neither, in order.
    ``held`` keeps rows with children still to make: a path, in preorder."""
    parent, via, depth = tree
    nodes = np.asarray(nodes)
    if not len(steps):  # every node a source
        return make(nodes)
    if "rows" not in held:  # children not yet made, per node
        held["waiting"], held["rows"] = np.bincount(parent[via >= 0], minlength=len(parent)), (nodes[:0], None)
    waiting, (kept, old) = held["waiting"], held["rows"]
    slot = np.full(len(parent), -1)
    slot[kept], slot[nodes] = np.arange(len(kept)), len(kept) + np.arange(len(nodes))
    up, key = slot[parent[nodes]], depth[nodes] * len(steps) + via[nodes]
    fresh = (via[nodes] < 0) | (up < 0)
    made = make(nodes[fresh])
    rows = np.concatenate([old if len(kept) else made[:0], np.empty((len(nodes),) + made.shape[1:], made.dtype)])
    rows[len(kept) + np.flatnonzero(fresh)] = made
    grow = np.flatnonzero(~fresh)[np.argsort(key[~fresh], kind="stable")]  # by level, then generator: parents first
    _, starts = np.unique(key[grow], return_index=True)
    for lo, hi in zip(starts.tolist(), [*starts[1:].tolist(), len(grow)]):  # runs of one level and generator
        rows[len(kept) + grow[lo:hi]] = rows[up[grow[lo:hi]]].take(steps[key[grow[lo]] % len(steps)], axis=1)
    np.subtract.at(waiting, parent[nodes[via[nodes] >= 0]], 1)
    keep = waiting[every := np.concatenate([kept, nodes])] > 0
    held["rows"] = every[keep], rows[keep]
    return rows[len(kept) :]


# ---------------------------------------------------------------------------
# dense matrices over F_q


@dataclass(frozen=True)
class FqMatrix:
    """A dense matrix over F_q; rows are tuples of element codes."""

    field: Fq
    rows: tuple[tuple[int, ...], ...]
    ncols: int

    @classmethod
    def from_rows(cls, field: Fq, rows, ncols: int | None = None) -> "FqMatrix":
        rows = tuple(tuple(r) for r in rows)
        if ncols is None:
            if not rows:
                raise ValueError("ncols is required for a matrix with no rows")
            ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        return cls(field, rows, ncols)

    @classmethod
    def zero(cls, field: Fq, nrows: int, ncols: int) -> "FqMatrix":
        return cls(field, tuple((0,) * ncols for _ in range(nrows)), ncols)

    @classmethod
    def identity(cls, field: Fq, n: int) -> "FqMatrix":
        return cls(field, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)), n)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def mul_vector(self, v) -> tuple[int, ...]:
        F = self.field
        return tuple(F.dot(row, v) for row in self.rows)


def _rref(field: Fq, rows, ncols):
    """Reduced row echelon form; pivot = leftmost nonzero, rows scanned top-down."""
    R = [list(r) for r in rows]
    pivots = []
    prow = 0
    nrows = len(R)
    for col in range(ncols):
        pr = None
        for i in range(prow, nrows):
            if R[i][col]:
                pr = i
                break
        if pr is None:
            continue
        R[prow], R[pr] = R[pr], R[prow]
        inv = field.inv(R[prow][col])
        if inv != 1:
            R[prow] = [field.mul(inv, x) for x in R[prow]]
        lead = R[prow]
        for i in range(nrows):
            f = R[i][col]
            if i != prow and f:
                row = R[i]
                R[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(row, lead)]
        pivots.append(col)
        prow += 1
        if prow == nrows:
            break
    return R, pivots


def rank(M: FqMatrix) -> int:
    _, pivots = _rref(M.field, M.rows, M.ncols)
    return len(pivots)


def nullspace_basis(M: FqMatrix) -> list[tuple[int, ...]]:
    """Basis of the right nullspace, one vector per free column in ascending order."""
    F = M.field
    R, pivots = _rref(F, M.rows, M.ncols)
    pivot_set = set(pivots)
    basis = []
    for free in range(M.ncols):
        if free in pivot_set:
            continue
        v = [0] * M.ncols
        v[free] = 1
        for k, pc in enumerate(pivots):
            v[pc] = F.neg(R[k][free])
        basis.append(tuple(v))
    return basis


def _solve_perp(field: Fq, system, ncols: int, b):
    """The one scalar mesh solve, by one reduction of ``system`` = [M | rhs]
    (M has ``ncols`` columns): None if M x = rhs is inconsistent or b is not
    in the rowspace of M (not perpendicular to null(M)), else (rank M, x0)
    with the free variables of x0 zero.  The reduced rows of M span its
    rowspace, so b is in it iff each free entry of b is the combination of
    b's pivot entries that the free column gives."""
    if not any(map(any, system)):
        return None if any(b) else (0, (0,) * ncols)
    R, pivots = _rref(field, system, ncols + 1)
    if pivots and pivots[-1] == ncols:
        return None
    b_pivots = [b[c] for c in pivots]
    for free in set(range(ncols)).difference(pivots):
        if b[free] != field.dot([row[free] for row in R], b_pivots):
            return None
    x = [0] * ncols
    for row, c in zip(R, pivots):
        x[c] = row[ncols]
    return len(pivots), tuple(x)


def solve(M: FqMatrix, rhs) -> tuple[int, ...] | None:
    """A particular solution of M x = rhs with free variables set to 0, or None."""
    rhs = tuple(rhs)
    if len(rhs) != M.nrows:
        raise ValueError("right-hand side has the wrong length")
    solved = _solve_perp(M.field, [row + (c,) for row, c in zip(M.rows, rhs)], M.ncols, (0,) * M.ncols)
    return None if solved is None else solved[1]


def perp_to_nullspace(M: FqMatrix, b) -> bool:
    """True iff b is orthogonal to the nullspace of M (i.e. b in rowspace)."""
    b = tuple(b)
    if len(b) != M.ncols:
        raise ValueError("vector has the wrong length")
    return _solve_perp(M.field, [row + (0,) for row in M.rows], M.ncols, b) is not None


# ---------------------------------------------------------------------------
# cyclotomic integers

_COEFF_LIMIT = 1 << 63  # checked arithmetic; overflow is a hard error


def _check_coeffs(cs):
    for c in cs:
        if not (-_COEFF_LIMIT < c < _COEFF_LIMIT):
            raise OverflowError("cyclotomic coefficient exceeds 64-bit range")
    return cs


@dataclass(frozen=True)
class CycInt:
    """An element of Z[zeta_p] in the reduced basis 1, zeta, ..., zeta**(p-2)."""

    p: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.p - 1:
            raise ValueError(f"need {self.p - 1} coefficients for p = {self.p}")
        _check_coeffs(self.coeffs)

    @classmethod
    def zero(cls, p: int) -> "CycInt":
        return cls(p, (0,) * (p - 1))

    @classmethod
    def integer(cls, p: int, n: int) -> "CycInt":
        return cls(p, (n,) + (0,) * (p - 2))

    @classmethod
    def root(cls, p: int, k: int, scale: int = 1) -> "CycInt":
        """scale * zeta_p**k, canonicalized via 1 + zeta + ... + zeta**(p-1) = 0."""
        k %= p
        if k < p - 1:
            cs = [0] * (p - 1)
            cs[k] = scale
        else:
            cs = [-scale] * (p - 1)
        return cls(p, tuple(cs))

    def _match(self, other: "CycInt"):
        if self.p != other.p:
            raise SpecMismatch(f"cyclotomic orders differ: {self.p} vs {other.p}")

    def __add__(self, other):
        if isinstance(other, int):
            other = CycInt.integer(self.p, other)
        self._match(other)
        return CycInt(self.p, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CycInt(self.p, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, int):
            other = CycInt.integer(self.p, other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return CycInt(self.p, tuple(a * other for a in self.coeffs))
        self._match(other)
        p = self.p
        acc = [0] * p  # coefficients on zeta**0 .. zeta**(p-1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        acc[(i + j) % p] += a * b
        top = acc[p - 1]
        return CycInt(p, tuple(acc[k] - top for k in range(p - 1)))

    __rmul__ = __mul__

    def conjugate(self) -> "CycInt":
        """Complex conjugation zeta -> zeta**-1; identity for p = 2."""
        p = self.p
        acc = [0] * p
        for i, a in enumerate(self.coeffs):
            acc[(-i) % p] += a
        top = acc[p - 1]
        return CycInt(p, tuple(acc[k] - top for k in range(p - 1)))

    def __bool__(self):
        return any(self.coeffs)

    def to_json(self):
        return {"p": self.p, "coeffs": list(self.coeffs)}

    @classmethod
    def from_json(cls, obj) -> "CycInt":
        return cls(int(obj["p"]), tuple(int(c) for c in obj["coeffs"]))


# ---------------------------------------------------------------------------
# closed-form character values


@dataclass(frozen=True)
class CharValue:
    """A supercharacter value: zero, or q**q_exp * zeta_p**zeta_exp."""

    q_exp: int = 0
    zeta_exp: int = 0
    is_zero: bool = False

    @classmethod
    def zero(cls) -> "CharValue":
        return cls(0, 0, True)

    @classmethod
    def of(cls, q_exp: int, zeta_exp: int, p: int) -> "CharValue":
        if q_exp < 0:
            raise ValueError("nonzero character values have nonnegative q-exponent")
        return cls(q_exp, zeta_exp % p, False)

    def conjugate(self, p: int) -> "CharValue":
        if self.is_zero:
            return self
        return CharValue(self.q_exp, (-self.zeta_exp) % p, False)

    def to_cyc(self, field: Fq) -> CycInt:
        if self.is_zero:
            return CycInt.zero(field.p)
        return CycInt.root(field.p, self.zeta_exp, scale=field.q ** self.q_exp)

    def as_int(self, field: Fq) -> int | None:
        """The value as a rational integer, when it is one (always for p = 2)."""
        if self.is_zero:
            return 0
        if self.zeta_exp == 0:
            return field.q ** self.q_exp
        if field.p == 2 and self.zeta_exp == 1:
            return -(field.q ** self.q_exp)
        return None

    def render(self) -> str:
        if self.is_zero:
            return "0"
        return f"q^{self.q_exp}*z^{self.zeta_exp}"

    def to_json(self):
        if self.is_zero:
            return None
        return {"q_exp": self.q_exp, "zeta_exp": self.zeta_exp}

    @classmethod
    def from_json(cls, obj) -> "CharValue":
        if obj is None:
            return cls.zero()
        return cls(int(obj["q_exp"]), int(obj["zeta_exp"]), False)


# A cell code is one small integer per value: 0 for zero, and
# 1 + q_exp * p + (zeta_exp mod p) for q**q_exp * zeta_p**zeta_exp.  The
# value kernels write it, tables store it, the emitters look text up by it,
# and the oracle keys its expected columns on it; the functions below are the
# only place that computes it or reads it back.


def cell_code_dtype(dim: int, p: int) -> np.dtype:
    """The narrowest unsigned dtype that holds the code of every value with
    q_exp <= dim, the largest being (dim + 1) * p."""
    return np.min_scalar_type((dim + 1) * p)


def cell_codes(zero, q_exp, zeta_exp, p: int, dim: int) -> np.ndarray:
    """The codes of broadcastable (zero, q_exp, zeta_exp) arrays, in
    :func:`cell_code_dtype`: 0 where ``zero`` is set, whatever the exponents
    there, and 1 + q_exp * p + (zeta_exp mod p) elsewhere.
    InternalInvariantViolation when a nonzero cell has q_exp > dim, which
    no character value of dimension dim has."""
    zero, q_exp, zeta_exp = np.asarray(zero, dtype=bool), np.asarray(q_exp), np.asarray(zeta_exp)
    shape = np.broadcast_shapes(zero.shape, q_exp.shape, zeta_exp.shape)
    # a plain max first: a masked one costs far more, and zero cells may carry any exponent
    if q_exp.max(initial=0) > dim and (top := np.broadcast_to(q_exp, shape)[~zero].max(initial=0)) > dim:
        raise InternalInvariantViolation(f"a character value q**{int(top)} passes q**{dim}, the largest of dimension {dim}")
    if zeta_exp.max(initial=0) >= p:  # zeta**k = zeta**(k mod p)
        zeta_exp = zeta_exp % p
    dtype = cell_code_dtype(dim, p)
    base = np.multiply(q_exp, p, dtype=dtype, casting="unsafe")  # in q_exp's own shape
    base += 1
    codes = np.add(base, zeta_exp, out=np.empty(shape, dtype), casting="unsafe")
    codes *= ~zero
    return codes


def cell_exponents(codes, p: int):
    """(is_zero, q_exp, zeta_exp) arrays of an array of cell codes, both
    exponents 0 at a zero cell: the inverse of :func:`cell_codes`."""
    codes = np.asarray(codes)
    q_exp, zeta_exp = np.divmod(np.maximum(codes, 1) - 1, p)
    return codes == 0, q_exp, zeta_exp


def cell_value(code: int, p: int) -> CharValue:
    """The value of a cell code: the inverse of :func:`cell_codes`."""
    return CharValue(*divmod(code - 1, p), False) if code else CharValue.zero()


def theta(field: Fq, t: int) -> CharValue:
    """The fixed additive character theta(t) = zeta_p**trace(t)."""
    return CharValue.of(0, field.trace(t), field.p)
