"""The closed-form supercharacter formula, evaluated in bulk.

For a pattern group U_J with functionals phi (superclass label) and eta
(character label), the mesh data is

    M[(i,j),(k,l)] = phi_jk * eta_il   for 4-chains (i,j,k,l), else 0
    a[(i,j)]       = sum over 3-chains (i,j,k) of phi_jk * eta_ik
    b[(j,k)]       = sum over 3-chains (i,j,k) of phi_ij * eta_ik

the algebra-group mesh data of :mod:`.core` for the constants of J.  phi
meshes with eta when M x = -a is solvable and b is perpendicular to the
nullspace of M; then

    chi^eta(x_phi) = q**(corank(eta) - rank(M)) * theta(b0.b + sum phi*eta)

with b0 the particular solution, and chi^eta(x_phi) = 0 otherwise.  (The
orbit-sum definition fixes the sign of the exponent of theta here; the
brute-force oracle pins it in the tests.)

:class:`CharacterEvaluator` caches the eta-dependent parts, the corank and
the sparse mesh terms of any algebra group, so table builders don't
recompute them per entry, and evaluates a whole block of superclass columns
at once over any F_q.  The closed-form specializations for pattern groups
below are independent references the tests compare against.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    InternalInvariantViolation,
    NonMonomialRepresentative,
    ShapeMismatch,
    SpecMismatch,
)
from .gf import CharValue, Fq, FqMatrix, _rref, nullspace_basis, rank
from .core import PatternGroup
from .poset import is_monomial, support


def value(G: PatternGroup, eta, phi) -> CharValue:
    """chi^eta evaluated at the superclass of x_phi."""
    return CharacterEvaluator(G, eta).value(phi)


def degree(G: PatternGroup, eta) -> int:
    """chi^eta(1) = q**corank(eta)."""
    return G.field.q ** G.corank(eta)


class CharacterEvaluator:
    """chi^eta as a reusable evaluator over many superclass representatives.

    ``source`` is any :class:`~superchar.core.StructureAlgebra` (a
    :class:`PatternGroup` is one); it supplies the corank of eta and the
    sparse (target, phi-slot, coefficient) terms of its mesh data.  A single
    value costs O(terms) plus a small solve when the mesh matrix is nonzero.
    """

    def __init__(self, source, eta):
        self.field = source.field
        self.eta = eta = tuple(eta)
        self.corank = source.corank(eta)
        self._a_terms, self._b_terms, self._m_terms = source.mesh_terms(eta)
        # Fixed submatrix frame for the nonzero-mesh-matrix branch: every
        # possibly-nonzero entry of M lives at these row/column slots, so the
        # small system below never changes shape for a given eta.
        self._m_rows = sorted({r for (r, _), _, _ in self._m_terms})
        self._m_cols = sorted({c for (_, c), _, _ in self._m_terms})
        self._row_pos = {r: k for k, r in enumerate(self._m_rows)}
        self._col_pos = {c: k for k, c in enumerate(self._m_cols)}

    def value(self, phi) -> CharValue:
        F = self.field
        phi = tuple(phi)
        if len(phi) != len(self.eta):
            raise SpecMismatch("functional length does not match the group")
        a = _accumulate(F, self._a_terms, phi)
        b = _accumulate(F, self._b_terms, phi)
        m = _accumulate(F, self._m_terms, phi)
        theta_tr = F.trace(F.dot(phi, self.eta))
        if not any(m.values()):
            # M = 0: meshed iff a = 0 and b = 0, and then b0 = 0.
            if any(a.values()) or any(b.values()):
                return CharValue.zero()
            return CharValue.of(self.corank, theta_tr, F.p)
        return self._value_hard(m, a, b, theta_tr)

    def _value_hard(self, m, a, b, theta_tr) -> CharValue:
        """The nonzero-mesh-matrix branch: one small row reduction decides
        solvability, the particular solution, the rank and the nullspace.

        ``m``, ``a`` and ``b`` map positions to their entries, and
        ``theta_tr`` is trace(phi . eta).  Zero rows of M force the matching
        entries of a to vanish; standard basis vectors at zero columns lie in
        the nullspace, so b must vanish off the fixed column frame too.
        """
        F = self.field
        row_pos, col_pos = self._row_pos, self._col_pos
        if any(v and t not in row_pos for t, v in a.items()):
            return CharValue.zero()
        if any(v and t not in col_pos for t, v in b.items()):
            return CharValue.zero()
        ncols = len(self._m_cols)
        rows = [[0] * (ncols + 1) for _ in self._m_rows]
        for (r, c), v in m.items():
            rows[row_pos[r]][col_pos[c]] = v
        for t, v in a.items():
            if v:
                rows[row_pos[t]][ncols] = F.neg(v)
        R, pivots = _rref(F, rows, ncols + 1)
        if pivots and pivots[-1] == ncols:
            return CharValue.zero()  # M x = -a is inconsistent
        b_active = [b.get(t, 0) for t in self._m_cols]
        pivot_set = set(pivots)
        for free in range(ncols):
            if free in pivot_set:
                continue
            acc = b_active[free]
            for k, pc in enumerate(pivots):
                if R[k][free] and b_active[pc]:
                    acc = F.sub(acc, F.mul(R[k][free], b_active[pc]))
            if acc:
                return CharValue.zero()  # b not perpendicular to the nullspace
        r = len(pivots)
        if self.corank < r:
            raise InternalInvariantViolation("rank of the mesh matrix exceeds the corank")
        dot = 0
        for k, pc in enumerate(pivots):
            if R[k][ncols] and b_active[pc]:
                dot = F.add(dot, F.mul(R[k][ncols], b_active[pc]))
        return CharValue.of(self.corank - r, F.trace(dot) + theta_tr, F.p)

    # -- block evaluation -------------------------------------------------

    def value_block(self, digits: np.ndarray):
        """Values over a block of superclass representatives.

        ``digits`` is a (count, dim) integer array of packed functionals.
        Returns (is_zero, q_exp, zeta_exp) arrays.

        Multiplication by a fixed coefficient is F_p-linear on the r base-p
        digits of an F_q element, and so is the trace.  So every entry of a,
        b and M, and trace(phi . eta), is one column of a single integer
        product over the digit matrix, reduced mod p.  The rows whose M
        vanishes are decided from that product alone; the others go through
        the small row reduction of :meth:`_value_hard`.
        """
        F = self.field
        p, r = F.p, F.r
        count, dim = len(digits), len(self.eta)
        parts = (self._a_terms, self._b_terms, self._m_terms)
        slots: dict = {}  # (part, target) -> its group of r columns; a, then b, then M
        for part, terms in enumerate(parts):
            for tgt, _, _ in terms:
                slots.setdefault((part, tgt), len(slots))
        col = len(slots) * r  # the trace column
        weights = np.zeros((dim, r, col + 1), dtype=np.int64)
        for part, terms in enumerate(parts):
            for tgt, src, coeff in terms:
                k = slots[part, tgt] * r
                weights[src, :, k : k + r] += F.digit_matrix(coeff)
        powers = [p**t for t in range(r)]
        for s, e in enumerate(self.eta):
            if e:
                weights[s, :, col] = [F.trace(F.mul(e, x)) for x in powers]
        weights = weights.reshape(dim * r, col + 1) % p
        x = (np.asarray(digits, dtype=np.int64).reshape(count, dim, 1) // powers) % p
        y = (x.reshape(count, dim * r) @ weights) % p

        m_start = r * sum(part < 2 for part, _ in slots)
        hard = y[:, m_start:col].any(axis=1)
        out_zero = ~hard & y[:, :m_start].any(axis=1)
        meshed = ~hard & ~out_zero
        out_q = np.where(meshed, self.corank, 0)
        out_z = np.where(meshed, y[:, col], 0)
        hard_idx = np.nonzero(hard)[0]
        codes = y[hard_idx, :col].reshape(len(hard_idx), len(slots), r) @ powers
        for k, row, tt in zip(hard_idx.tolist(), codes.tolist(), y[hard_idx, col].tolist()):
            a, b, m = entries = ({}, {}, {})
            for (part, tgt), v in zip(slots, row):
                entries[part][tgt] = v
            cv = self._value_hard(m, a, b, tt)
            out_zero[k], out_q[k], out_z[k] = cv.is_zero, cv.q_exp, cv.zeta_exp
        return out_zero, out_q, out_z


def _accumulate(F: Fq, terms, phi) -> dict:
    """Sum (target, phi-slot, coefficient) terms at phi, by target."""
    out = {}
    add, mul = F.add, F.mul
    for tgt, src, coeff in terms:
        v = phi[src]
        if v:
            out[tgt] = add(out.get(tgt, 0), mul(v, coeff))
    return out


# ---------------------------------------------------------------------------
# closed-form specializations


def _heisenberg_n(G: PatternGroup) -> int:
    n = G.J.n
    expected = {(1, j) for j in range(2, n + 1)} | {(i, n) for i in range(2, n)}
    if G.J.pairs != frozenset(expected):
        raise ShapeMismatch("closed set is not the Heisenberg pattern (top row and last column)")
    return n


def value_heisenberg(G: PatternGroup, eta, phi) -> CharValue:
    """chi^eta(x_phi) for the Heisenberg pattern: nonzero entries confined to
    the top row and last column, everything indexed by the corner (1, n)."""
    n = _heisenberg_n(G)
    F = G.field
    corner = G.J.index[(1, n)]
    if eta[corner] == 0:
        return CharValue.of(0, F.trace(F.dot(phi, eta)), F.p)
    if any(v for k, v in enumerate(phi) if k != corner):
        return CharValue.zero()
    return CharValue.of(n - 2, F.trace(F.mul(phi[corner], eta[corner])), F.p)


def value_un(G: PatternGroup, eta, phi) -> CharValue:
    """chi^eta(x_phi) on the full triangular group, for monomial representatives.

    Meshing reduces to two support conditions, and the q-exponent counts, for
    each (i, l) in supp(eta), the interior positions i < j < k < l minus the
    support of phi strictly inside that interval.
    """
    if not G.J.is_full_triangular():
        raise ShapeMismatch("closed set is not the full triangular position set")
    if not is_monomial(G.J, eta) or not is_monomial(G.J, phi):
        raise NonMonomialRepresentative("representatives must be monomial in rows and columns")
    F = G.field
    supp_eta = support(G.J, eta)
    supp_phi = support(G.J, phi)
    # In a shared row, eta must sit weakly left of phi; in a shared column,
    # weakly below: each strict violation leaves a nonzero entry in b or a.
    for i, j in supp_phi:
        for ii, l in supp_eta:
            if i == ii and j < l:
                return CharValue.zero()
    for j, k in supp_phi:
        for i, kk in supp_eta:
            if k == kk and i < j:
                return CharValue.zero()
    exponent = 0
    for i, l in supp_eta:
        exponent += l - i - 1
        exponent -= sum(1 for j, k in supp_phi if i < j and k < l)
    if exponent < 0:
        raise InternalInvariantViolation("negative exponent in the monomial formula")
    return CharValue.of(exponent, F.trace(F.dot(phi, eta)), F.p)


def value_no4chain(G: PatternGroup, eta, phi) -> CharValue:
    """chi^eta(x_phi) when the poset has no 4-chains.

    The mesh matrix vanishes identically, so the value is nonzero exactly
    when a = b = 0, and the q-exponent is the corank: a sum over middle
    elements j of the rank of the block of eta-values eta_ik with
    (i, j) and (j, k) in J.
    """
    if G.J.has_4chain:
        raise ShapeMismatch("poset has a 4-chain")
    F = G.field
    _, a, b = G.mesh_data(phi, eta)
    if any(a) or any(b):
        return CharValue.zero()
    middles = sorted({b for _, b, _ in G.J.chains3})
    exponent = 0
    for j in middles:
        rows = sorted({a for a, bb, _ in G.J.chains3 if bb == j})
        cols = sorted({c for _, bb, c in G.J.chains3 if bb == j})
        block = [[eta[G.J.index[(i, k)]] for k in cols] for i in rows]
        exponent += rank(FqMatrix.from_rows(F, block, len(cols)))
    return CharValue.of(exponent, F.trace(F.dot(phi, eta)), F.p)


# ---------------------------------------------------------------------------
# irreducibility


def ann_spaces(G: PatternGroup, eta):
    """Echelonized bases of the right and left annihilator spaces of eta.

    ann_R = all rho with lambda_eta(X_phi X_rho) = 0 for every phi, which is
    the nullspace of the dual right action matrix; ann_L likewise on the
    other side.
    """
    basis_r = nullspace_basis(G.dual_right_action_matrix(eta))
    basis_l = nullspace_basis(G.dual_left_action_matrix(eta))
    return basis_r, basis_l


def is_irreducible(G: PatternGroup, eta, corank: int | None = None) -> bool:
    """True iff ann_R(eta) + ann_L(eta) fills the whole functional space
    (see :meth:`superchar.core.StructureAlgebra.is_irreducible`)."""
    return G.is_irreducible(eta, corank)


def superclass_is_class_sufficient(G: PatternGroup, phi) -> bool:
    """No 4-chain hits supp(phi) at both ends: the superclass of x_phi is then
    a single conjugacy class.  (Sufficient, not necessary.)"""
    supp = set(support(G.J, phi))
    return not any(
        ((i, j) in supp and (k, l) in supp) for i, j, k, l in G.J.chains4
    )


def irreducible_sufficient(G: PatternGroup, eta) -> bool:
    """No 4-chain (i,j,k,l) with (i,k) and (j,l) in supp(eta): chi^eta is then
    irreducible.  (Sufficient, not necessary.)"""
    supp = set(support(G.J, eta))
    return not any(
        ((i, k) in supp and (j, l) in supp) for i, j, k, l in G.J.chains4
    )


def full_un_irreducible(G: PatternGroup, eta) -> bool:
    """On the full triangular group with monomial eta the sufficient condition
    is also necessary."""
    if not G.J.is_full_triangular():
        raise ShapeMismatch("closed set is not the full triangular position set")
    if not is_monomial(G.J, eta):
        raise NonMonomialRepresentative("eta must be monomial in rows and columns")
    return irreducible_sufficient(G, eta)
