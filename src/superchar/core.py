"""Pattern-group elements, the two-sided actions, and orbit enumeration.

Group elements x_phi = 1 + X_phi and functionals lambda_eta are both packed
tuples over the closed set's canonical order (see :mod:`.poset`).  The action
update rules all reduce to accumulations over 3- and 4-chains of the poset:

    multiply:   (xy)_il = x_il + y_il + sum_(i,k,l) x_ik * y_kl
    act_left:   phi'_il = phi_il + sum_(i,j,l) rho_ij * phi_jl
    act_right:  phi'_il = phi_il + sum_(i,j,l) phi_ij * rho_jl
    coact:      eta'_jk = eta_jk + sum_(i,j,k) tau_ij * eta_ik
                        + sum_(j,k,l) eta_jl * rho_kl
                        + sum_(i,j,k,l) tau_ij * eta_il * rho_kl

Orbits are closures under the one-parameter generators x_alpha(t), with t
running over an additive basis of F_q; a single-generator move touches only
the chain positions cached on the ClosedSet.  Full-space orbit partitions
use one vectorized sweep for every F_q, since visiting q**|J| functionals
one tuple at a time is the only hot spot at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InternalInvariantViolation, SizeCapExceeded, SpecMismatch
from .gf import Fq, FqMatrix, rank
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

    def __init__(self, field: Fq, dim: int, reps, sizes, labels):
        self.field = field
        self.dim = dim
        self.reps = reps  # packed tuples, lexicographically ascending
        self.sizes = sizes
        self._labels = labels  # code -> code of its class minimum, smallest unsigned dtype
        self._rep_index = {r: k for k, r in enumerate(reps)}
        self._groups = None

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

    def class_of(self, f) -> int:
        return self._rep_index[self.decode(int(self._labels[self.code(f)]))]

    def canonical_codes(self) -> np.ndarray:
        """For every functional code, the code of its class representative."""
        return np.asarray(self._labels, dtype=np.int64)

    def elements_digits(self, k: int) -> np.ndarray:
        """All members of class k as a (size, dim) digit array."""
        if self._groups is None:
            codes = self.canonical_codes()
            order = np.argsort(codes, kind="stable")
            sorted_codes = codes[order]
            rep_codes = np.array([self.code(r) for r in self.reps], dtype=np.int64)
            starts = np.searchsorted(sorted_codes, rep_codes, side="left")
            ends = np.searchsorted(sorted_codes, rep_codes, side="right")
            self._groups = (order, starts, ends)
        order, starts, ends = self._groups
        member_codes = order[starts[k] : ends[k]]
        return _codes_to_digits(member_codes, self.field.q, self.dim)

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
    reps = tuple(
        tuple(int(v) for v in row) for row in _codes_to_digits(rep_codes, field.q, dim)
    )
    return OrbitPartition(field, dim, reps, tuple(int(c) for c in counts), labels)


# ---------------------------------------------------------------------------


class PatternGroup:
    """The pattern group U_J over F_q, acting on its algebra and its dual."""

    def __init__(self, J: ClosedSet, field: Fq):
        self.J = J
        self.field = field
        gens = field.additive_generators()
        self._right_moves = self._moves(J.right_updates, gens)
        self._left_moves = self._moves(J.left_updates, gens)
        self._co_right_moves = self._moves(J.co_right_updates, gens)
        self._co_left_moves = self._moves(J.co_left_updates, gens)

    @staticmethod
    def _moves(update_table, gens):
        moves = []
        for updates in update_table:
            if updates:
                for t in gens:
                    moves.append((t, updates))
        return tuple(moves)

    @property
    def dim(self) -> int:
        return len(self.J)

    def order(self) -> int:
        return self.field.q ** len(self.J)

    def zero(self) -> tuple[int, ...]:
        return (0,) * len(self.J)

    identity = zero  # x_0 = 1

    def _check_like(self, f):
        if len(f) != len(self.J):
            raise SpecMismatch("functional length does not match the closed set")
        return tuple(f)

    # -- group structure ----------------------------------------------------

    def multiply(self, x, y) -> tuple[int, ...]:
        x, y = self._check_like(x), self._check_like(y)
        F = self.field
        out = [F.add(a, b) for a, b in zip(x, y)]
        for ab, bc, ac in self.J.chain3_idx:
            v = x[ab]
            w = y[bc]
            if v and w:
                out[ac] = F.add(out[ac], F.mul(v, w))
        return tuple(out)

    def nil_product(self, u, v) -> tuple[int, ...]:
        """X_u * X_v inside the nilpotent algebra (no linear part)."""
        F = self.field
        out = [0] * len(self.J)
        for ab, bc, ac in self.J.chain3_idx:
            a = u[ab]
            b = v[bc]
            if a and b:
                out[ac] = F.add(out[ac], F.mul(a, b))
        return tuple(out)

    def inverse(self, x) -> tuple[int, ...]:
        """(1 + X)**-1 = 1 - X + X**2 - ...; the series stops by nilpotency."""
        x = self._check_like(x)
        F = self.field
        out = [0] * len(self.J)
        term = x
        sign = -1
        while any(term):
            for k, v in enumerate(term):
                if v:
                    out[k] = F.add(out[k], v if sign > 0 else F.neg(v))
            term = self.nil_product(term, x)
            sign = -sign
        return tuple(out)

    # -- one- and two-sided actions ------------------------------------------

    def act_left(self, rho, phi) -> tuple[int, ...]:
        """x_rho * X_phi."""
        F = self.field
        out = list(self._check_like(phi))
        rho = self._check_like(rho)
        for ab, bc, ac in self.J.chain3_idx:
            r = rho[ab]
            v = phi[bc]
            if r and v:
                out[ac] = F.add(out[ac], F.mul(r, v))
        return tuple(out)

    def act_right(self, phi, rho) -> tuple[int, ...]:
        """X_phi * x_rho."""
        F = self.field
        out = list(self._check_like(phi))
        rho = self._check_like(rho)
        for ab, bc, ac in self.J.chain3_idx:
            v = phi[ab]
            r = rho[bc]
            if v and r:
                out[ac] = F.add(out[ac], F.mul(v, r))
        return tuple(out)

    def act_two_sided(self, tau, phi, rho) -> tuple[int, ...]:
        """x_tau * X_phi * x_rho, in one pass."""
        F = self.field
        tau, phi, rho = self._check_like(tau), self._check_like(phi), self._check_like(rho)
        out = list(phi)
        for ab, bc, ac in self.J.chain3_idx:
            t = tau[ab]
            v = phi[bc]
            if t and v:
                out[ac] = F.add(out[ac], F.mul(t, v))
            v = phi[ab]
            r = rho[bc]
            if v and r:
                out[ac] = F.add(out[ac], F.mul(v, r))
        for ab, bc, cd, ad in self.J.chain4_idx:
            t = tau[ab]
            v = phi[bc]
            r = rho[cd]
            if t and v and r:
                out[ad] = F.add(out[ad], F.mul(F.mul(t, v), r))
        return tuple(out)

    def coact(self, tau, eta, rho) -> tuple[int, ...]:
        """x_tau**-1 * lambda_eta * x_rho**-1 on the dual space."""
        F = self.field
        tau, eta, rho = self._check_like(tau), self._check_like(eta), self._check_like(rho)
        out = list(eta)
        for ab, bc, ac in self.J.chain3_idx:
            t = tau[ab]
            e = eta[ac]
            if t and e:
                out[bc] = F.add(out[bc], F.mul(t, e))
            r = rho[bc]
            if r and e:
                out[ab] = F.add(out[ab], F.mul(e, r))
        for ab, bc, cd, ad in self.J.chain4_idx:
            t = tau[ab]
            e = eta[ad]
            r = rho[cd]
            if t and e and r:
                out[bc] = F.add(out[bc], F.mul(F.mul(t, e), r))
        return tuple(out)

    # -- action matrices and corank -------------------------------------------

    def left_action_matrix(self, phi) -> FqMatrix:
        """M with row (i,l), column (i,k) entry phi_kl for every chain (i,k,l)."""
        phi = self._check_like(phi)
        d = len(self.J)
        rows = [[0] * d for _ in range(d)]
        for ab, bc, ac in self.J.chain3_idx:
            rows[ac][ab] = phi[bc]
        return FqMatrix.from_rows(self.field, rows, d)

    def right_action_matrix(self, phi) -> FqMatrix:
        """M with row (i,l), column (j,l) entry phi_ij for every chain (i,j,l)."""
        phi = self._check_like(phi)
        d = len(self.J)
        rows = [[0] * d for _ in range(d)]
        for ab, bc, ac in self.J.chain3_idx:
            rows[ac][bc] = phi[ab]
        return FqMatrix.from_rows(self.field, rows, d)

    def dual_left_action_matrix(self, eta) -> FqMatrix:
        """M with row (j,k), column (i,j) entry eta_ik for every chain (i,j,k)."""
        eta = self._check_like(eta)
        d = len(self.J)
        rows = [[0] * d for _ in range(d)]
        for ab, bc, ac in self.J.chain3_idx:
            rows[bc][ab] = eta[ac]
        return FqMatrix.from_rows(self.field, rows, d)

    def dual_right_action_matrix(self, eta) -> FqMatrix:
        """M with row (j,k), column (k,l) entry eta_jl for every chain (j,k,l)."""
        eta = self._check_like(eta)
        d = len(self.J)
        rows = [[0] * d for _ in range(d)]
        for ab, bc, ac in self.J.chain3_idx:
            rows[ab][bc] = eta[ac]
        return FqMatrix.from_rows(self.field, rows, d)

    def mesh_terms(self, eta):
        """The sparse mesh data of eta: (target, phi-slot, coefficient) terms of
        a, b and M (targets of M are (row, col) pairs), read off the chains."""
        eta = self._check_like(eta)
        a_terms, b_terms, m_terms = [], [], []
        for ab, bc, ac in self.J.chain3_idx:
            e = eta[ac]
            if e:
                a_terms.append((ab, bc, e))
                b_terms.append((bc, ab, e))
        for ab, bc, cd, ad in self.J.chain4_idx:
            e = eta[ad]
            if e:
                m_terms.append(((ab, cd), bc, e))
        return a_terms, b_terms, m_terms

    def corank(self, eta) -> int:
        rl = rank(self.dual_left_action_matrix(eta))
        rr = rank(self.dual_right_action_matrix(eta))
        if rl != rr:
            raise InternalInvariantViolation(
                f"dual action matrices disagree on rank: {rl} vs {rr}"
            )
        return rl

    # -- orbits ----------------------------------------------------------------

    def _cap_check(self, cap):
        cap = DEFAULT_ENUM_CAP if cap is None else cap
        total = self.order()
        if total > cap:
            raise SizeCapExceeded(total, cap, "orbit materialization")
        return cap

    def orbit(self, phi, cap: int | None = None, with_elements: bool = True) -> Orbit:
        """The two-sided multiplication orbit of X_phi."""
        self._cap_check(cap)
        members = _bfs(self.field, self._check_like(phi), self._left_moves + self._right_moves)
        return Orbit(min(members), len(members), frozenset(members) if with_elements else None)

    def orbit_left(self, phi, cap: int | None = None) -> Orbit:
        self._cap_check(cap)
        members = _bfs(self.field, self._check_like(phi), self._left_moves)
        return Orbit(min(members), len(members), frozenset(members))

    def orbit_right(self, phi, cap: int | None = None) -> Orbit:
        self._cap_check(cap)
        members = _bfs(self.field, self._check_like(phi), self._right_moves)
        return Orbit(min(members), len(members), frozenset(members))

    def coorbit(self, eta, cap: int | None = None, with_elements: bool = True) -> Orbit:
        """The two-sided orbit of lambda_eta on the dual space."""
        self._cap_check(cap)
        members = _bfs(
            self.field, self._check_like(eta), self._co_left_moves + self._co_right_moves
        )
        return Orbit(min(members), len(members), frozenset(members) if with_elements else None)

    def coorbit_left(self, eta, cap: int | None = None) -> Orbit:
        self._cap_check(cap)
        members = _bfs(self.field, self._check_like(eta), self._co_left_moves)
        return Orbit(min(members), len(members), frozenset(members))

    def coorbit_right(self, eta, cap: int | None = None) -> Orbit:
        self._cap_check(cap)
        members = _bfs(self.field, self._check_like(eta), self._co_right_moves)
        return Orbit(min(members), len(members), frozenset(members))

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
            self.field, len(self.J), self._left_moves + self._right_moves, cap
        )

    def coorbit_partition(self, cap: int | None = None) -> OrbitPartition:
        cap = DEFAULT_ENUM_CAP if cap is None else cap
        return orbit_partition_from_moves(
            self.field, len(self.J), self._co_left_moves + self._co_right_moves, cap
        )

    def all_orbit_reps(self, cap: int | None = None) -> list[Orbit]:
        """Canonical superclass representatives with sizes, ascending."""
        part = self.orbit_partition(cap)
        reps = self._adjust_reps(part)
        return [Orbit(rep, size) for rep, size in zip(reps, part.sizes)]

    def all_coorbit_reps(self, cap: int | None = None) -> list[Orbit]:
        part = self.coorbit_partition(cap)
        reps = self._adjust_reps(part)
        return [Orbit(rep, size) for rep, size in zip(reps, part.sizes)]

    def _adjust_reps(self, part: OrbitPartition):
        """For the full triangular set, replace each representative by the least
        monomial member of its class (one exists for every U_n orbit)."""
        if not self.J.is_full_triangular():
            return part.reps
        return [self.monomial_rep(part, k) for k in range(len(part))]

    def monomial_rep(self, part: OrbitPartition, k: int) -> tuple[int, ...]:
        digits = part.elements_digits(k)
        n = self.J.n
        row_inc = np.zeros((len(self.J), n + 1), dtype=np.int64)
        col_inc = np.zeros((len(self.J), n + 1), dtype=np.int64)
        for idx, (i, j) in enumerate(self.J.order):
            row_inc[idx, i] = 1
            col_inc[idx, j] = 1
        nz = (digits != 0).astype(np.int64)
        ok = ((nz @ row_inc) <= 1).all(axis=1) & ((nz @ col_inc) <= 1).all(axis=1)
        if not ok.any():
            raise InternalInvariantViolation("orbit has no monomial representative")
        powers = self.field.q ** np.arange(len(self.J) - 1, -1, -1, dtype=np.int64)
        codes = digits[ok] @ powers
        best = digits[ok][int(np.argmin(codes))]
        return tuple(int(v) for v in best)
