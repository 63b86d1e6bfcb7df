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

:class:`CharacterEvaluator` builds A_eta once and reads off it the corank,
the sparse mesh terms of any algebra group and irreducibility.  Its
:meth:`~CharacterEvaluator.value` is the per-cell reference.  The bulk path
is :func:`value_blocks`, which evaluates many characters over a block of
superclass representatives at once, over any F_q and with no field tables:

* Multiplication by a fixed coefficient is F_p-linear on the r base-p
  digits of an F_q element, and so is the trace.  So every entry of a, b
  and M, for a chunk of characters padded to one frame, is a column of one
  integer product over the digit matrix, reduced mod p.  Cells with M = 0
  are decided from that product alone, and so is a cell with a nonzero
  entry of a off M's row frame or of b off its column frame: it is zero.
* The other ("hard") cells are solved together by one Gaussian elimination
  over F_p.  Entry M_ij becomes the r x r block D(M_ij)^T, where D(c) is
  the matrix of x -> c x on row digit vectors, and b becomes the
  functional x -> trace(b . x).  null(M) is an F_q-subspace and the trace
  form is nondegenerate, so b is perpendicular to null(M) iff that
  functional vanishes on the F_p nullspace.  rank_Fq(M) = rank_Fp / r.
* Any particular solution serves: once b is perpendicular to null(M),
  b . b0 is the same for every solution b0 of M x = -a.  So the pivot order
  of the elimination is free, and it takes b0 with its free digits 0.

The closed-form specializations for pattern groups below are independent
references the tests compare against.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

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
    :class:`PatternGroup` is one).  A_eta is built once; the corank, the
    sparse (target, phi-slot, coefficient) mesh terms and irreducibility are
    all read off it.  :meth:`value` is the per-cell reference;
    :meth:`value_block` and :func:`value_blocks` are the bulk paths.
    """

    def __init__(self, source, eta):
        self.field = source.field
        self._source = source
        self._A = A = source._eta_matrix(eta)
        self.eta = tuple(eta)
        self.corank = source._corank_of(A)
        self._a_terms, self._b_terms, self._m_terms = source._mesh_terms_of(A)
        # Fixed submatrix frame for the nonzero-mesh-matrix branch: every
        # possibly-nonzero entry of M lives at these row/column slots.
        self._m_rows = sorted({r for (r, _), _, _ in self._m_terms})
        self._m_cols = sorted({c for (_, c), _, _ in self._m_terms})
        self._row_pos = {r: k for k, r in enumerate(self._m_rows)}
        self._col_pos = {c: k for k, c in enumerate(self._m_cols)}

    def is_irreducible(self) -> bool:
        """Whether chi^eta is irreducible (read off the shared A_eta)."""
        return self._source._is_irreducible_of(self._A, self.corank)

    def value(self, phi) -> CharValue:
        """chi^eta(x_phi), one cell at a time: the reference the block paths
        are tested against."""
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

    def value_block(self, digits: np.ndarray):
        """(is_zero, q_exp, zeta_exp) arrays over a (count, dim) block of
        packed superclass representatives: :func:`value_blocks` for this one
        character."""
        zero, q_exp, zeta_exp = value_blocks([self], digits)
        return zero[0], q_exp[0], zeta_exp[0]

    @cached_property
    def _plan(self):
        """The mesh terms laid out for :func:`value_blocks`.

        Returns the frame shape (rows, cols, off) and one (kind, i, j, phi-slot,
        coefficient) row per term: kind 0 is an entry of a on frame row i,
        1 an entry of b on frame column j, 2 the entry (i, j) of M, and 3 an
        entry of a or b off the frame, in its own slot i.
        """
        row_pos, col_pos = self._row_pos, self._col_pos
        off: dict = {}
        plan = []
        for part, terms, pos in ((0, self._a_terms, row_pos), (1, self._b_terms, col_pos)):
            for t, s, v in terms:
                if t not in pos:
                    plan.append((3, off.setdefault((part, t), len(off)), 0, s, v))
                elif part == 0:
                    plan.append((0, pos[t], 0, s, v))
                else:
                    plan.append((1, 0, pos[t], s, v))
        for (r, c), s, v in self._m_terms:
            plan.append((2, row_pos[r], col_pos[c], s, v))
        shape = (len(self._m_rows), len(self._m_cols), len(off))
        return shape, np.array(plan, dtype=np.int64).reshape(len(plan), 5)


_ROW_CELLS = 1 << 16  # cells per chunk of rows in value_chunks
_CHUNK_ENTRIES = 1 << 15  # entries of the digit product per chunk of characters
_BATCH_CELLS = 4096  # hard cells per batched elimination


def value_chunks(source, etas, digits: np.ndarray):
    """Yield (start, evaluators, values) for consecutive chunks of the
    characters ``etas`` of ``source``, about ``_ROW_CELLS`` cells each:
    the chunk's evaluators and its :func:`value_blocks` over ``digits``.
    A chunk's evaluators live only until the next one is made, so memory
    stays O(chunk x classes)."""
    step = max(1, _ROW_CELLS // max(1, len(digits)))
    for start in range(0, len(etas), step):
        evaluators = [CharacterEvaluator(source, eta) for eta in etas[start : start + step]]
        yield start, evaluators, value_blocks(evaluators, digits)


def value_blocks(evaluators, digits: np.ndarray):
    """Values of many characters of one group over a block of superclass
    representatives (the bulk path of the module docstring).

    ``digits`` is a (count, dim) integer array of packed functionals.
    Returns (is_zero, q_exp, zeta_exp), each of shape (len(evaluators),
    count), in the smallest dtypes that hold them (:func:`value_arrays`).
    Characters are taken in chunks whose padded digit product has at most
    ``_CHUNK_ENTRIES`` entries.
    """
    digits = np.asarray(digits, dtype=np.int64)
    dims = {len(ev.eta) for ev in evaluators}
    if digits.ndim != 2 or dims - {digits.shape[-1]}:
        raise SpecMismatch(f"digit block of shape {digits.shape} for functionals of length {dims}")
    count, dim = digits.shape
    if not evaluators:
        return value_arrays((0, count), dim, 2)
    F = evaluators[0].field
    p, r = F.p, F.r
    x = (digits.reshape(count, dim, 1) // p ** np.arange(r) % p).reshape(count, dim * r)
    out = value_arrays((len(evaluators), count), dim, p)
    start = 0
    while start < len(evaluators):
        # the longest run of characters whose padded digit product fits
        stop, frame = start + 1, evaluators[start]._plan[0]
        while stop < len(evaluators):
            wider = tuple(map(max, frame, evaluators[stop]._plan[0]))
            if count * (stop + 1 - start) * _width(r, *wider) > _CHUNK_ENTRIES:
                break
            stop, frame = stop + 1, wider
        for arr, block in zip(out, _chunk_values(F, evaluators[start:stop], x, *frame)):
            arr[start:stop] = block
        start = stop
    return out


def value_arrays(shape, dim: int, p: int):
    """Zero mask, q-exponents and zeta-exponents of ``shape``, in the
    smallest dtypes that hold q_exp <= dim and zeta_exp < p."""
    return (
        np.zeros(shape, dtype=bool),
        np.zeros(shape, dtype=np.min_scalar_type(dim)),
        np.zeros(shape, dtype=np.min_scalar_type(p - 1)),
    )


def _width(r: int, rows: int, cols: int, off: int) -> int:
    """Columns of one character in the padded digit product: r digits for
    each entry of a on the frame rows, of b on the frame columns, of M on
    the frame, and of the off-frame entries of a and b; then the trace."""
    return r * (rows + cols + rows * cols + off) + 1


@lru_cache(maxsize=None)
def _field_arrays(F: Fq):
    """Three arrays of F_q over F_p: the trace form T_uv = trace(p**u * p**v),
    so that trace(b * x) = digits(b) T digits(x)^T; the digit matrices
    D(p**v) of the basis, stacked; and the inverses mod p, indexed by
    residue (0 maps to 0)."""
    p = F.p
    powers = [p**t for t in range(F.r)]
    trace_form = np.array([[F.trace(F.mul(u, v)) for v in powers] for u in powers], dtype=np.int64)
    basis = np.array([F.digit_matrix(u) for u in powers], dtype=np.int64)
    inverses = np.array([0] + [pow(v, -1, p) for v in range(1, p)], dtype=np.int64)
    return trace_form, basis, inverses


def _chunk_values(F: Fq, chunk, x: np.ndarray, rows: int, cols: int, off: int):
    """(is_zero, q_exp, zeta_exp), each (len(chunk), count), for characters
    whose frames all fit in rows x cols with at most ``off`` off-frame slots."""
    p, r = F.p, F.r
    k, count, dim = len(chunk), len(x), len(chunk[0].eta)
    width = _width(r, rows, cols, off)
    plans = [ev._plan[1] for ev in chunk]
    kind, i, j, src, coeff = np.concatenate(plans).T
    owner = np.repeat(np.arange(k), [len(plan) for plan in plans])
    # the first digit column of each term's entry, in units of r
    base = np.array([0, rows, rows + cols, rows + cols + rows * cols])
    stride = np.array([1, 0, cols, 1])
    unit = base[kind] + i * stride[kind] + j
    uniq, which = np.unique(coeff, return_inverse=True)
    blocks = np.array([F.digit_matrix(int(c)) for c in uniq], dtype=np.int64).reshape(len(uniq), r, r)
    weights = np.zeros((dim, r, k, width), dtype=np.int64)
    digit = np.arange(r)
    np.add.at(
        weights,
        (src[:, None, None], digit[None, :, None], owner[:, None, None], r * unit[:, None, None] + digit),
        blocks[which],
    )
    etas = np.array([ev.eta for ev in chunk], dtype=np.int64).reshape(k, dim, 1)
    trace_form = _field_arrays(F)[0]
    weights[:, :, :, -1] = (etas // p**digit % p @ trace_form % p).transpose(1, 2, 0)
    weights %= p
    y = x @ weights.reshape(dim * r, k * width)
    y %= p
    y = y.reshape(count, k, width)

    m_start, m_stop = r * (rows + cols), r * (rows + cols + rows * cols)
    hard = y[:, :, m_start:m_stop].any(axis=2)
    off_frame = y[:, :, m_stop:-1].any(axis=2)
    zero = off_frame | (~hard & y[:, :, :m_start].any(axis=2))
    meshed = ~zero & ~hard
    corank = np.array([ev.corank for ev in chunk])
    q_exp = np.where(meshed, corank, 0)
    zeta_exp = np.where(meshed, y[:, :, -1], 0)
    cls, ch = np.nonzero(hard & ~off_frame)
    for s in range(0, len(cls), _BATCH_CELLS):
        c, e = cls[s : s + _BATCH_CELLS], ch[s : s + _BATCH_CELLS]
        zero[c, e], q_exp[c, e], zeta_exp[c, e] = _solve_hard(F, y[c, e], rows, cols, corank[e])
    return zero.T, q_exp.T, zeta_exp.T


def _solve_hard(F: Fq, y: np.ndarray, rows: int, cols: int, corank: np.ndarray):
    """Decide a batch of hard cells by one Gaussian elimination over F_p.

    ``y`` holds each cell's row of the digit product (a, b and M on the
    padded rows x cols frame, then the trace).  Each cell becomes the
    augmented F_p system [A | digits(-a)] of M x = -a, where entry (i, j)
    of M is the r x r block D(M_ij)^T (D(c) is the matrix of x -> c x on
    row digit vectors), plus one extra row [f | 0] for the functional
    f(x) = trace(b . x).  Pivots are taken only among the system rows, and
    every column is cleared in every other row, the extra one included.
    Then the system is inconsistent iff a non-pivot row keeps a nonzero
    right-hand side; b is perpendicular to null(M) iff the extra row's
    coefficients all vanish; and its last entry is -f(x0) for the
    particular solution x0 with free digits 0.
    """
    p, r = F.p, F.r
    h, n, m = len(y), rows * r, cols * r
    a = y[:, :n]
    b = y[:, n : n + m].reshape(h, cols, r)
    mesh = y[:, n + m : n + m + rows * m].reshape(h, rows, cols, r)
    trace_form, basis, inverses = _field_arrays(F)
    # D(c) = sum_v digit_v(c) * D(p**v), since D is F_p-linear in c
    system = np.zeros((h, n + 1, m + 1), dtype=np.int64)
    system[:, :n, :m] = (np.einsum("hijv,vtu->hiujt", mesh, basis) % p).reshape(h, n, m)
    system[:, :n, m] = -a % p
    system[:, n, :m] = (b @ trace_form % p).reshape(h, m)
    free = np.ones((h, n), dtype=bool)
    rank = np.zeros(h, dtype=np.int64)
    for c in range(m):
        candidates = free & (system[:, :n, c] != 0)
        cells = np.flatnonzero(candidates.any(axis=1))
        if not len(cells):
            continue
        pivot = candidates[cells].argmax(axis=1)
        sub = system[cells]
        prow = sub[np.arange(len(cells)), pivot]
        prow = prow * inverses[prow[:, c], None] % p
        sub -= sub[:, :, c, None] * prow[:, None, :]
        sub %= p
        sub[np.arange(len(cells)), pivot] = prow
        system[cells] = sub
        free[cells, pivot] = False
        rank[cells] += 1
    consistent = ~(free & (system[:, :n, m] != 0)).any(axis=1)
    meshed = consistent & ~system[:, n, :m].any(axis=1)
    rank //= r  # rank over F_q
    if (meshed & (corank < rank)).any():
        raise InternalInvariantViolation("rank of the mesh matrix exceeds the corank")
    q_exp = np.where(meshed, corank - rank, 0)
    zeta_exp = np.where(meshed, (y[:, -1] - system[:, n, m]) % p, 0)
    return ~meshed, q_exp, zeta_exp


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
