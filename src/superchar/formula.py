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

:class:`CharacterEvaluator` sets up a whole batch of characters of any
algebra group at once, as arrays: A_eta for every eta of the batch is one
mod-p product of their digits with the constant blocks of the algebra, the
coranks come from one batched elimination over F_p, and the mesh plans of
the batch are one array of terms, read off A_eta by masks and cumulative
sums (no loop per character).  Tables take irreducibility from the
co-orbit sizes instead.  A one-character evaluator is the batch of one;
its :meth:`~CharacterEvaluator.value` sums the plan at one phi and solves
the cell by the one scalar mesh solve of :mod:`.gf`, as the dense
reference in :mod:`.core` does: the per-cell reference.  The bulk path is
:func:`value_blocks`, which evaluates a batch over a block of superclass
representatives at once from the same plans, over any F_q and with no
field tables:

* Multiplication by a fixed coefficient is F_p-linear on the r base-p
  digits of an F_q element, and so is the trace.  So every entry of a, b
  and M, for a chunk of characters padded to one frame, is one mod-p
  product of weights and the digit matrix, laid out entry-major: each
  digit of each entry is a (characters, classes) plane, and the a, b, M
  and off-frame sections are runs of planes, each reduced over its run.
  Cells with M = 0 are decided from that product alone, and so is a cell
  with a nonzero entry of a off M's row frame or of b off its column frame:
  it is zero.
* The other ("hard") cells are solved together by one Gaussian elimination
  over F_p.  Entry M_ij becomes the r x r block D(M_ij)^T, where D(c) is
  the matrix of x -> c x on row digit vectors, and b becomes the
  functional x -> trace(b . x).  null(M) is an F_q-subspace and the trace
  form is nondegenerate, so b is perpendicular to null(M) iff that
  functional vanishes on the F_p nullspace.  rank_Fq(M) = rank_Fp / r.
* Any particular solution serves: once b is perpendicular to null(M),
  b . b0 is the same for every solution b0 of M x = -a.  So the pivot order
  of the elimination is free, and it takes b0 with its free digits 0.

The digit arithmetic -- base-p digits, the blocks D(c), the trace form,
the exact mod-p product and the batched elimination mod p that serves the
coranks and the hard cells alike -- is the F_p layer of
:class:`~superchar.gf.Fq`; this module only lays out the plans and the
systems it reduces.

Tables of the full triangular group U_n take a kernel of their own,
:func:`un_value_chunks`, which counts the values off the arcs of the
monomial representatives and needs no plans; :func:`table_rows` and
:func:`coranks` alone choose between the two.  Both kernels write each
value as its cell code (:func:`~superchar.gf.cell_codes`), the one format
that tables store and the check keys on.  :func:`table_rows` runs a kernel
on one character of each orbit under the scalars F_q^* and fills the
other rows of the orbit by a gather, as chi^(t eta)(x_phi) =
chi^eta(x_(t phi)) (:func:`_orbit_chunks`, which takes the orbits from
gf's walk, :func:`~superchar.gf.unit_orbits`).  The closed-form
specializations for pattern groups below, :func:`value_un` among them, are
references for the tests.
"""

from __future__ import annotations

import itertools
from functools import cache, cached_property

import numpy as np

from .errors import (
    InternalInvariantViolation,
    NonMonomialRepresentative,
    ShapeMismatch,
)
from .gf import CharValue, Fq, FqMatrix, _solve_perp, cell_code_dtype, cell_codes, cell_exponents, nullspace_basis, rank, unit_orbits
from .core import PatternGroup, _check_functionals, _digits_to_codes, _mesh_value, sweep_size
from .poset import ClosedSet, is_monomial, support


def value(G: PatternGroup, eta, phi) -> CharValue:
    """chi^eta evaluated at the superclass of x_phi."""
    return CharacterEvaluator(G, eta).value(phi)


def degree(G: PatternGroup, eta) -> int:
    """chi^eta(1) = q**corank(eta)."""
    return G.field.q ** G.corank(eta)


class CharacterEvaluator:
    """chi^eta for a batch of characters eta of one algebra group, set up
    together: ``CharacterEvaluator(source, eta)`` is the batch of one
    character, :meth:`batch` the batch of many, and both run one setup.

    ``source`` is any :class:`~superchar.core.StructureAlgebra` (a
    :class:`PatternGroup` is one).  Every entry of the mesh data is linear
    in phi, with (C_i)_jk = c_ij^k as in :mod:`.core`:

        a_i = sum_s phi_s A[i][s]      b_j = sum_s phi_s A[s][j]
        M[i][j] = sum_s phi_s T[j][(i, s)]      T[j][(i, s)] = sum_m c_is^m A[m][j]

    The setup reads all of it off the digits of the whole batch at once,
    through the constant blocks W of the source (the pairs (i, j) that
    carry constants, and digits(sum_m c_ij^m x_m) = digits(x) W):

    * A_eta on those pairs is one mod-p product, digits(eta) W, and T is
      the same W applied to the digits of the columns of A_eta;
    * the coranks rank(A_eta) come from one batched elimination over F_p,
      :meth:`~superchar.gf.Fq.row_reduce_mod_p`, of the matrices whose
      block (i, j) is D(A_ij): the rank over F_q is the rank over F_p / r;
    * the frame of a character is the rows and columns where M carries
      terms, plus one slot for each other nonzero entry of a or b, placed
      by cumulative sums over those masks.

    ``frames`` holds one (rows, cols, off) per character, and ``plan`` one
    (owner, kind, i, j, phi-slot, coefficient) row per term, sorted by
    owner: kind 0 is an entry of a on frame row i, 1 an entry of b on frame
    column j, 2 the entry (i, j) of M, and 3 an entry of a or b off the
    frame, in its own slot i.  A nonzero off-frame entry makes the value
    zero: rows of M off the frame vanish, so M x = -a forces a to vanish
    there, and standard basis vectors at columns off the frame lie in
    null(M), so b must vanish there.  Irreducibility is not read off:
    tables take it from the co-orbit sizes.

    Indexing gives the evaluator of one character (an int), of a run of
    them (a slice), on the same arrays, or of any selection of them in any
    order (an index array without repeats).  :meth:`value` is the per-cell
    reference of a one-character evaluator; :meth:`value_block` and
    :func:`value_blocks` are the bulk paths.  All of them read the plan.
    """

    def __init__(self, source, eta):
        self._setup(source, [eta])

    @classmethod
    def batch(cls, source, etas) -> "CharacterEvaluator":
        """The evaluator of every character in ``etas`` at once."""
        self = cls.__new__(cls)
        self._setup(source, etas)
        return self

    def _setup(self, source, etas):
        F, d = source.field, source.d
        p, r = F.p, F.r
        self.field, self.source = F, source
        self.etas = etas = _check_functionals(F, d, etas)
        k, place = len(etas), p ** np.arange(r)
        pairs, W = source._constant_blocks()
        A = np.zeros((k, d, d, r), dtype=np.min_scalar_type(p - 1))  # digits of A_eta
        A[:, pairs[:, 0], pairs[:, 1]] = F.matmul_mod_p(F.p_digits(etas).reshape(k, d * r), W).reshape(k, len(pairs), r)
        # block (i, j) = D(A_ij) is the F_p matrix of x -> A^T x, of rank
        # r * rank(A_eta); rows and columns where every A_eta vanishes go
        nonzero = A.any(axis=3)
        used = A[:, nonzero.any(axis=(0, 2))][:, :, nonzero.any(axis=(0, 1))]
        _, rows, cols, _ = used.shape
        blocks = F.digit_blocks(used).transpose(0, 1, 3, 2, 4).reshape(k, rows * r, cols * r)
        self.coranks = F.row_reduce_mod_p(blocks, rows * r, cols * r)[1] // r
        # T[k, j, n] = sum_m c_(pairs[n])^m A[k, m, j], digits by the same W
        T = F.matmul_mod_p(A.transpose(0, 2, 1, 3).reshape(k * d, d * r), W).reshape(k, d, len(pairs), r)
        owner, j, n = np.nonzero(T.any(axis=3))
        i, s = pairs[n].T
        on_rows, on_cols = np.zeros((2, k, d), dtype=bool)
        on_rows[owner, i] = on_cols[owner, j] = True
        row_at, col_at = np.cumsum(on_rows, axis=1) - 1, np.cumsum(on_cols, axis=1) - 1
        m_terms = [owner, np.full_like(owner, 2), row_at[owner, i], col_at[owner, j], s, T[owner, j, n] @ place]
        # A[i][s] is a term of a_i at phi_s and of b_s at phi_i; the a-slots
        # off the frame come first, then the b-slots
        off = np.concatenate([nonzero.any(axis=2) & ~on_rows, nonzero.any(axis=1) & ~on_cols], axis=1)
        off_at = np.cumsum(off, axis=1) - 1
        owner, i, s = np.nonzero(nonzero)
        coeff, zero = A[owner, i, s] @ place, np.zeros_like(owner)
        a_on, b_on = on_rows[owner, i], on_cols[owner, s]
        a_slot = np.where(a_on, row_at[owner, i], off_at[owner, i])
        b_slot, b_col = np.where(b_on, 0, off_at[owner, d + s]), np.where(b_on, col_at[owner, s], 0)
        a_terms = [owner, np.where(a_on, 0, 3), a_slot, zero, s, coeff]
        b_terms = [owner, np.where(b_on, 1, 3), b_slot, b_col, i, coeff]
        plan = np.stack([np.concatenate(column) for column in zip(m_terms, a_terms, b_terms)], axis=1)
        self.plan = plan[np.argsort(plan[:, 0], kind="stable")]
        self.frames = np.stack([on_rows.sum(axis=1), on_cols.sum(axis=1), off.sum(axis=1)], axis=1)

    def __len__(self) -> int:
        return len(self.etas)

    def __getitem__(self, index) -> "CharacterEvaluator":
        sub = CharacterEvaluator.__new__(CharacterEvaluator)
        sub.field, sub.source = self.field, self.source
        if isinstance(index, np.ndarray):
            # any selection, in its order: the plan rows of each character,
            # renumbered by its place in the selection and regrouped by it
            place = np.full(len(self), -1)
            place[index] = np.arange(len(index))
            plan = self.plan[place[self.plan[:, 0]] >= 0]
            plan[:, 0] = place[plan[:, 0]]
            sub.plan = plan[np.argsort(plan[:, 0], kind="stable")]
            sub.etas, sub.coranks, sub.frames = self.etas[index], self.coranks[index], self.frames[index]
            return sub
        span = range(len(self))[index]
        if isinstance(span, int):
            span = range(span, span + 1)
        if span.step != 1:
            raise IndexError("a run of characters is a slice with step 1")
        lo, hi = span.start, span.stop
        sub.etas, sub.coranks, sub.frames = self.etas[lo:hi], self.coranks[lo:hi], self.frames[lo:hi]
        first, last = np.searchsorted(self.plan[:, 0], [lo, hi])
        sub.plan = self.plan[first:last] - np.array([lo, 0, 0, 0, 0, 0])
        return sub

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    @property
    def eta(self) -> tuple:
        """The character of a one-character evaluator."""
        (eta,) = self.etas.tolist()
        return tuple(eta)

    @property
    def corank(self) -> int:
        """rank(A_eta) of a one-character evaluator."""
        (corank,) = self.coranks.tolist()
        return corank

    @cached_property
    def _scalar(self):
        """The frame, the (kind, i, j, phi-slot, coefficient) plan rows, the
        corank and eta of a one-character evaluator, as Python ints for
        :meth:`value`."""
        (frame,) = self.frames.tolist()
        return frame, self.plan[:, 1:].tolist(), self.corank, self.eta

    def value(self, phi) -> CharValue:
        """chi^eta(x_phi), one cell at a time: the plan summed at phi, then
        the one scalar mesh solve of :mod:`.gf` on the frame.  The reference
        the block paths are tested against."""
        F = self.field
        phi = self.source._functional(phi)
        (rows, cols, off), terms, corank, eta = self._scalar
        add, mul = F.add, F.mul
        system = [[0] * (cols + 1) for _ in range(rows)]  # [M | a] until negated
        b, outside = [0] * cols, [0] * off
        for kind, i, j, s, c in terms:
            v = phi[s]
            if not v:
                continue
            if kind == 3:
                vec, k = outside, i
            else:
                vec, k = (b, j) if kind == 1 else (system[i], j if kind == 2 else cols)
            vec[k] = add(vec[k], mul(v, c))
        if any(outside):
            return CharValue.zero()
        for row in system:
            row[cols] = F.neg(row[cols])
        return _mesh_value(F, _solve_perp(F, system, cols, b), corank, b, phi, eta)

    def value_block(self, digits: np.ndarray):
        """(is_zero, q_exp, zeta_exp) arrays over a (count, dim) block of
        packed superclass representatives: the codes of :func:`value_blocks`
        for this one character, read back by
        :func:`~superchar.gf.cell_exponents`."""
        return cell_exponents(value_blocks(self, digits)[0], self.field.p)


_ROW_CELLS = 1 << 16  # cells per chunk of rows in value_chunks
_SETUP_ENTRIES = 1 << 16  # entries of A_eta, k * d**2 * r, per batched setup in value_chunks
_CHUNK_ENTRIES = 1 << 16  # entries of the digit product per run of characters
_BATCH_CELLS = 4096  # hard cells per batched elimination


def _setup_size(source) -> int:
    """Characters per batched setup: ``_SETUP_ENTRIES`` entries of A_eta, k * d**2 * r, but at least one."""
    return max(1, _SETUP_ENTRIES // max(1, source.d**2 * source.field.r))


def value_chunks(source, etas, digits: np.ndarray):
    """Yield (start, evaluators, codes) for consecutive chunks of the
    characters ``etas`` of ``source``, about ``_ROW_CELLS`` cells each:
    the chunk's evaluator and its :func:`value_blocks` over ``digits``.

    The characters are set up in batches of :func:`_setup_size`, one
    :meth:`CharacterEvaluator.batch` each, sized before it allocates; the
    chunks are runs of a batch.  A batch lives only until the next one is
    made, so memory stays O(batch + chunk x classes).  The class digits are
    checked and expanded once (:func:`_digit_rows`), for :func:`_value_blocks`."""
    step = max(1, _ROW_CELLS // max(1, len(digits)))
    size, classes = _setup_size(source), _digit_rows(source.field, _check_functionals(source.field, source.d, digits))
    for lo in range(0, len(etas), size):
        batch = CharacterEvaluator.batch(source, etas[lo : lo + size])
        for start in range(0, len(batch), step):
            evaluators = batch[start : start + step]
            yield lo + start, evaluators, _value_blocks(evaluators, classes)


def _digit_rows(F: Fq, digits: np.ndarray) -> np.ndarray:
    """The base-p digits of the checked (count, dim) functionals ``digits``,
    shape (count, dim, r), in the narrowest dtype that holds p - 1."""
    return F.p_digits(digits).astype(np.min_scalar_type(F.p - 1))


def value_blocks(evaluators: CharacterEvaluator, digits: np.ndarray):
    """Values of the characters of an evaluator over a (count, dim) block of
    packed superclass representatives (the bulk path of the module
    docstring): :func:`_value_blocks` on their checked :func:`_digit_rows`."""
    F = evaluators.field
    return _value_blocks(evaluators, _digit_rows(F, _check_functionals(F, evaluators.source.d, digits)))


def _value_blocks(evaluators: CharacterEvaluator, x: np.ndarray):
    """The cell codes (:func:`~superchar.gf.cell_codes`) of the characters
    of an evaluator at the (count, dim, r) :func:`_digit_rows` ``x``, shape
    (len(evaluators), count), in :func:`~superchar.gf.cell_code_dtype`.  The
    characters are ordered by frame (rows, then columns, then off-frame
    slots), so that equal frames are neighbours and a run pads little, and
    taken in runs of that order whose padded digit product has at most
    ``_CHUNK_ENTRIES`` entries; each run's codes go to their own rows."""
    F, dim = evaluators.field, evaluators.source.d
    count, r = len(x), F.r
    x = x.reshape(count, dim * r)
    order = np.lexsort(evaluators.frames.T[::-1])
    ordered = evaluators[order]
    codes = np.empty((len(evaluators), count), dtype=cell_code_dtype(dim, F.p))
    start = 0
    while start < len(ordered):
        # the longest run of characters whose padded digit product fits:
        # the frame of a run is the running maximum of its frames
        frame = np.maximum.accumulate(ordered.frames[start:], axis=0)
        entries = count * np.arange(1, len(frame) + 1) * _width(r, *frame.T)
        stop = start + max(1, int(np.count_nonzero(entries <= _CHUNK_ENTRIES)))
        rows, cols, off = frame[stop - start - 1].tolist()
        codes[order[start:stop]] = _chunk_values(F, ordered[start:stop], x, rows, cols, off)
        start = stop
    return codes


def _width(r: int, rows, cols, off):
    """Columns of one character in the padded digit product: r digits for
    each entry of a on the frame rows, of b on the frame columns, of M on
    the frame, and of the off-frame entries of a and b; then the trace."""
    return r * (rows + cols + rows * cols + off) + 1


def _chunk_values(F: Fq, chunk: CharacterEvaluator, x: np.ndarray, rows: int, cols: int, off: int) -> np.ndarray:
    """The cell codes of the characters of ``chunk``, whose frames all fit
    in rows x cols with at most ``off`` off-frame slots, at the count
    classes of ``x``, shape (len(chunk), count): the easy cells encoded at
    once, then each batch of hard cells as :func:`_solve_hard` decides it.
    A section of the digit product with no planes (M on a frame with no
    rows or no columns, as on a set with no 4-chains, or no off-frame slots)
    reduces to no nonzero entry."""
    r = F.r
    (k, dim), count = chunk.etas.shape, len(x)
    width = _width(r, rows, cols, off)
    owner, kind, i, j, src, coeff = chunk.plan.T
    # the first digit column of each term's entry, in units of r
    base = np.array([0, rows, rows + cols, rows + cols + rows * cols])
    stride = np.array([1, 0, cols, 1])
    unit = base[kind] + i * stride[kind] + j
    digit = np.arange(r)
    # a character's plan holds each (phi-slot, entry) pair once, so every
    # block lands on its own weights; entry-major, so that each section of
    # the product below is a run of whole (characters, classes) planes;
    # digits in the narrow dtype of x
    weights = np.zeros((width, k, dim, r), dtype=x.dtype)
    idx = (r * unit[:, None, None] + digit, owner[:, None, None], src[:, None, None], digit[None, :, None])
    weights[idx] = F.digit_blocks(F.p_digits(coeff))
    weights[-1] = F.matmul_mod_p(F.p_digits(chunk.etas), F.trace_form)
    y = F.matmul_mod_p(weights.reshape(width * k, dim * r), x.T).reshape(width, k, count)

    # a cell with a nonzero entry of a, b, M or off the frame is not
    # q**corank * theta: it is zero when an entry is off the frame, or of a
    # or b where M = 0, and hard when M != 0 and no entry is off the frame
    m_start, m_stop = r * (rows + cols), r * (rows + cols + rows * cols)
    mesh, off_frame = y[m_start:m_stop].any(axis=0), y[m_stop:-1].any(axis=0)
    codes = cell_codes(y[:m_start].any(axis=0) | mesh | off_frame, chunk.coranks[:, None], y[-1], F.p, dim)
    # the hard cells, mesh & ~off_frame: a flat search is the faster of the two
    ch, cls = np.divmod(np.flatnonzero(mesh > off_frame), count)
    for s in range(0, len(ch), _BATCH_CELLS):
        e, c = ch[s : s + _BATCH_CELLS], cls[s : s + _BATCH_CELLS]
        codes[e, c] = cell_codes(*_solve_hard(F, y[:, e, c].T, rows, cols, chunk.coranks[e]), F.p, dim)
    return codes


def _solve_hard(F: Fq, y: np.ndarray, rows: int, cols: int, corank: np.ndarray):
    """Decide a batch of hard cells by one Gaussian elimination over F_p.

    ``y`` holds each cell's row of the digit product (a, b and M on the
    padded rows x cols frame, then the trace).  Each cell becomes the
    augmented F_p system [A | digits(-a)] of M x = -a, where entry (i, j)
    of M is the r x r block D(M_ij)^T (D(c) is the matrix of x -> c x on
    row digit vectors), plus one extra row [f | 0] for the functional
    f(x) = trace(b . x).  :meth:`~superchar.gf.Fq.row_reduce_mod_p` takes
    pivots only among the system rows and clears every column in every
    other row, the extra one included.  Then the system is inconsistent
    iff a non-pivot row keeps a nonzero right-hand side; b is perpendicular
    to null(M) iff the extra row's coefficients all vanish; and its last
    entry is -f(x0) for the particular solution x0 with free digits 0.
    """
    p, r = F.p, F.r
    h, n, m = len(y), rows * r, cols * r
    a = y[:, :n]
    b = y[:, n : n + m].reshape(h, cols, r)
    mesh = y[:, n + m : n + m + rows * m].reshape(h, rows, cols, r)
    system = np.zeros((h, n + 1, m + 1), dtype=np.int64)
    # block (i, j) holds D(M_ij)^T
    system[:, :n, :m] = F.digit_blocks(mesh).transpose(0, 1, 4, 2, 3).reshape(h, n, m)
    system[:, :n, m] = (p - a) % p
    system[:, n, :m] = F.matmul_mod_p(b, F.trace_form).reshape(h, m)
    free, rank = F.row_reduce_mod_p(system, n, m)
    consistent = ~(free & (system[:, :n, m] != 0)).any(axis=1)
    meshed = consistent & ~system[:, n, :m].any(axis=1)
    rank //= r  # rank over F_q
    if (meshed & (corank < rank)).any():
        raise InternalInvariantViolation("rank of the mesh matrix exceeds the corank")
    q_exp = np.where(meshed, corank - rank, 0)
    zeta_exp = np.where(meshed, (y[:, -1] - system[:, n, m]) % p, 0)
    return ~meshed, q_exp, zeta_exp


# ---------------------------------------------------------------------------
# the full triangular group U_n: monomials and arc counts


def un_monomials(G: PatternGroup) -> np.ndarray:
    """Every monomial of U_n as a (count, d) array of codes, ascending in
    the canonical code order: the representatives of the superclasses and
    of the co-orbits alike.  There are sum over set partitions of
    (q - 1)**arcs of them."""
    J, q, d = G.J, G.field.q, G.d
    supports = [()]
    for i in range(1, J.n):  # each start takes one free end, or none
        supports = [
            s + arc
            for s in supports
            for arc in [()] + [((i, l),) for l in range(i + 1, J.n + 1) if all(l != e for _, e in s)]
        ]
    blocks = []
    for s in supports:
        block = np.zeros(((q - 1) ** len(s), d), dtype=np.int64)
        block[:, [J.index[arc] for arc in s]] = list(itertools.product(range(1, q), repeat=len(s)))
        blocks.append(block)
    monomials = np.concatenate(blocks)
    return monomials[np.lexsort(monomials.T[::-1])] if d else monomials


def _arcs(J):
    """The starts and ends of J's positions in canonical order, as columns
    (i, l) for the arcs of a character or of a first monomial, and as rows
    (j, k) for the arcs of a class or of a second monomial."""
    i, l = np.array(J.order, dtype=np.int64).reshape(len(J), 2).T
    return i[:, None], l[:, None], i[None, :], l[None, :]


def un_arc_counts(G: PatternGroup, monomials: np.ndarray):
    """(e, corank, crossings) for each monomial in the (count, d) array
    ``monomials`` of U_n: its superclass has q**e members, and its character
    has degree q**corank and a co-orbit of q**(2 corank - crossings) members
    (the rules of :func:`un_value_chunks`).  NonMonomialRepresentative when
    two entries of a row share a start or an end."""
    i, l, j, k = _arcs(G.J)
    on = (_check_functionals(G.field, G.d, monomials) != 0).astype(np.int64)

    def pairs(relation):
        return ((on @ relation) * on).sum(axis=1)

    if pairs((i == j) != (l == k)).any():  # two positions share exactly one of start and end
        raise NonMonomialRepresentative("representatives must be monomial in rows and columns")
    e = on @ (i - 1 + G.J.n - l)[:, 0] - pairs((i < j) & (l < k))
    return e, on @ (l - i - 1)[:, 0], pairs((i < j) & (j < l) & (l < k))


def un_value_chunks(G: PatternGroup, etas, phis):
    """Yield (start, codes) for consecutive chunks of the monomial
    characters ``etas`` of U_n at the monomial classes ``phis``, about
    ``_ROW_CELLS`` cells each, as cell codes
    (:func:`~superchar.gf.cell_codes`): the U_n kernel, with no sweep and
    no mesh plans.

    Every superclass and every co-orbit of U_n holds exactly one monomial,
    its least member (:class:`~superchar.core.PatternGroup`; Andre;
    Diaconis-Isaacs, Supercharacters and superclasses for algebra groups;
    Aguiar et al., Supercharacters, symmetric functions in noncommuting
    variables, and related Hopf algebras).  A monomial is a set of arcs
    (i, l), i < l, no two sharing a start or an end -- the arcs of a set
    partition of {1..n} -- each labelled by an element of F_q^*.  The rest
    is counted off the arcs:

    * Class sizes.  Multiplying by 1 + t E_ab (a < b) on the left adds
      t * row b to row a, on the right t * column a to column b.  So the
      left moves fill the i - 1 positions above an arc (i, l) in its column
      and the right moves the n - l positions right of it in its row; no
      filled position is an arc, since each row and column holds one.  Two
      arcs (i, l), (j, k) with i < j share exactly one filled position,
      (i, k), when l < k, and none when they nest (k < l).  So the class has
      q**e members with e = sum over arcs (i - 1 + n - l) - #{arc pairs
      (i, l), (j, k): i < j, l < k}.
    * Coranks.  (A_eta)_((i,j),(j,l)) = eta_il for each arc (i, l) and
      i < j < l, and distinct arcs take distinct rows (their starts) and
      columns (their ends), so A_eta is monomial of rank sum over arcs
      (l - i - 1).
    * Irreducibility.  The co-orbit moves add t * row a to row b (a < b)
      right of column b, and t * column b to column a above row a.  They
      fill the l - i - 1 positions below an arc (i, l) in its column and the
      l - i - 1 left of it in its row, and two arcs (i, l), (j, k) share one
      of them, (j, l), exactly when they cross: i < j < l < k.  So the
      co-orbit has q**(2 corank - crossings) members, and <chi^eta,
      chi^eta> = q**(2 corank) / |U eta U| (see :func:`_orbit_chunks`) is 1
      iff no two arcs cross: :func:`full_un_irreducible`.
    * Values, the paper's U_n corollary.  chi^eta(x_phi) = 0 iff an arc of
      phi starts with a longer arc of eta, (i, j) against (i, l) with
      j < l, or ends with an arc of eta that starts before it, (j, k)
      against (i, k) with i < j; each leaves a nonzero entry of b or a.
      Otherwise it is q**(corank - nested) * zeta**trace(eta . phi), where
      nested counts the pairs of an eta arc (i, l) and a phi arc (j, k)
      with i < j and k < l.

    :func:`un_arc_counts` reads the first three rules off the arcs; the
    tests hold all four to the sweep, the oracle and the mesh evaluator.
    Here, with S the 0/1 arc supports, the zero test is S_eta Z S_phi^T > 0
    and the q-exponent S_eta (w - N S_phi^T), with Z and N the (d, d)
    relations of the value rule and w_(i,l) = l - i - 1; the phi side is
    multiplied out once.  The zeta-exponent is one mod-p product of the
    eta digits with the phi digits times the trace form, as in the oracle."""
    F, d = G.field, G.d
    r = F.r
    etas, phis = _check_functionals(F, d, etas), _check_functionals(F, d, phis)
    count = len(phis)
    i, l, j, k = _arcs(G.J)
    on_phi = (phis != 0).T.astype(np.float32)
    zero_at = (((i == j) & (k < l)) | ((l == k) & (i < j))).astype(np.float32) @ on_phi
    exp_at = (l - i - 1) - ((i < j) & (k < l)).astype(np.float32) @ on_phi
    trace = F.matmul_mod_p(F.p_digits(phis), F.trace_form).reshape(count, d * r).T
    step = max(1, _ROW_CELLS // max(1, count))
    for start in range(0, len(etas), step):
        chunk = etas[start : start + step]
        on = (chunk != 0).astype(np.float32)
        zero = on @ zero_at > 0
        exp = np.where(zero, 0, on @ exp_at)
        if (exp < 0).any():
            raise InternalInvariantViolation("negative exponent in the monomial formula")
        yield start, cell_codes(zero, exp, F.matmul_mod_p(F.p_digits(chunk).reshape(len(chunk), d * r), trace), F.p, d)


# ---------------------------------------------------------------------------
# the one row source of tables and checks


def table_rows(source, cap: int | None):
    """(classes, sizes, chars, co_sizes, chunks): the one source of the rows
    that ``superchar table`` emits and ``superchar check`` judges, described
    alike for every group: the ascending class and character representatives
    as (count, d) digit arrays (one array on U_n), the class and co-orbit
    sizes, and the chunks of :func:`_orbit_chunks`.  ``cap`` bounds q**d.
    On U_n the monomials are counted off their arcs with no sweep
    (:func:`un_arc_counts`, :func:`un_value_chunks`); any other group is
    swept and its values are :func:`value_chunks`."""
    F = source.field
    q, times_g = F.q, F.multiples(F.generator)
    if isinstance(source, PatternGroup) and source.J.is_full_triangular():
        sweep_size(F, source.d, cap)
        monomials = un_monomials(source)
        e, coranks, crossings = un_arc_counts(source, monomials)
        # a floor, not q**(2 corank - crossings): a wrong crossing count
        # must reach the check as a wrong size, not raise on a negative power
        co_sizes = q ** (2 * coranks) // q**crossings
        step = np.searchsorted(_digits_to_codes(monomials, q), _digits_to_codes(times_g[monomials], q))

        def un_sources(rows):
            for start, codes in un_value_chunks(source, monomials[rows], monomials):
                yield coranks[rows[start : start + len(codes)]], codes

        return monomials, q**e, monomials, co_sizes, _orbit_chunks(q, step, step, co_sizes, un_sources)
    sc, co = source.orbit_partition(cap), source.coorbit_partition(cap)
    if len(sc) != len(co):
        raise InternalInvariantViolation("superclass and character counts differ")

    def swept_sources(rows):
        for _, evaluators, codes in value_chunks(source, co.digits[rows], sc.digits):
            yield evaluators.coranks, codes

    co_sizes = np.asarray(co.sizes, dtype=np.int64)
    steps = co.classes_of(times_g[co.digits]), sc.classes_of(times_g[sc.digits])
    return sc.digits, np.asarray(sc.sizes, dtype=np.int64), co.digits, co_sizes, _orbit_chunks(q, *steps, co_sizes, swept_sources)


def coranks(source, etas) -> np.ndarray:
    """rank(A_eta) for every character in the (count, d) array ``etas``: off
    the arcs on U_n (:func:`un_arc_counts`), else off batched setups."""
    if isinstance(source, PatternGroup) and source.J.is_full_triangular():
        return un_arc_counts(source, etas)[1]
    size = _setup_size(source)
    return np.concatenate([CharacterEvaluator.batch(source, etas[lo : lo + size]).coranks for lo in range(0, len(etas), size)])


def _orbit_chunks(q: int, char_step: np.ndarray, class_step: np.ndarray, co_sizes: np.ndarray, evaluate):
    """Yield (rows, coranks, irreducible, codes) for consecutive runs of
    whole orbits of characters under the scalars F_q^*, about ``_ROW_CELLS``
    cells each but at least one orbit (of at most q - 1 rows).

    A scalar t commutes with both actions, so the co-orbit of t eta is t
    times that of eta, the superclass of t phi is t times that of phi, and
    chi^(t eta)(x_phi) = chi^eta(x_(t phi)).  With g the generator of F_q^*
    (:attr:`~superchar.gf.Fq.generator`), ``char_step[k]`` is the character
    of g eta_k and ``class_step[c]`` the class of g phi_c: the orbits are
    the cycles of char_step, each with its least character, its source, and
    the power with g**power[k] eta_source in the co-orbit of eta_k
    (:func:`~superchar.gf.unit_orbits`).  Only the sources are evaluated,
    by one pass of a value kernel: ``evaluate(sources)`` yields (coranks,
    codes) for consecutive runs of them, each cut into chunks as it comes;
    :func:`_orbit_rows` fills the other rows.  Every flag follows one rule
    (Diaconis-Isaacs): <chi^eta, chi^eta> = |eta U|**2 / |U eta U| with
    |eta U| = q**corank, so chi^eta is irreducible iff its co-orbit has
    ``co_sizes`` = q**(2 corank) members.  InternalInvariantViolation when
    char_step does not move every character in a cycle of at most q - 1
    through its source, or the kernel leaves sources out."""
    source, power = unit_orbits(char_step, q - 1)
    by_orbit = np.argsort(source, kind="stable")
    sources = np.flatnonzero(power == 0)
    ends = np.cumsum(np.bincount(source)[sources])  # rows through each orbit
    per_chunk = max(1, _ROW_CELLS // max(1, len(class_step)))
    lo = 0  # the first source not yet yielded
    for coranks, codes in evaluate(sources):
        while len(coranks):  # the piece's sources not yet yielded, from lo
            first = ends[lo - 1] if lo else 0
            hi = min(lo + len(coranks), max(lo + 1, int(np.searchsorted(ends, first + per_chunk, side="right"))))
            rows = np.sort(by_orbit[first : ends[hi - 1]])
            owner = np.searchsorted(sources[lo:hi], source[rows])
            rows, ranks, block = _orbit_rows(rows, owner, power[rows], class_step, coranks[: hi - lo], codes[: hi - lo])
            yield rows, ranks, co_sizes[rows] == q ** (2 * ranks), block
            coranks, codes, lo = coranks[hi - lo :], codes[hi - lo :], hi
    if lo < len(sources):
        raise InternalInvariantViolation("the value kernel evaluated too few sources")


def _orbit_rows(rows, owner, power, class_step, coranks, codes):
    """(rows, coranks, codes) of the ascending ``rows`` from the (coranks,
    codes) of their sources: row k is row owner[k] of the sources read at
    class_step applied power[k] times, and copies its corank, as an orbit
    shares it (see :func:`_orbit_chunks`)."""
    if not power.any():  # every orbit is its source alone
        return rows, coranks, codes
    out = np.empty((len(rows), codes.shape[1]), dtype=codes.dtype)
    classes = np.arange(codes.shape[1])
    for k in range(int(power.max()) + 1):
        at = np.flatnonzero(power == k)
        out[at] = codes[owner[at]].take(classes, axis=1) if k else codes[owner[at]]
        classes = class_step[classes]
    return rows, coranks[owner], out


# ---------------------------------------------------------------------------
# closed-form specializations


@cache
def _heisenberg_n(J: ClosedSet) -> int:
    """n for the Heisenberg pattern on n points, checked once per closed set."""
    n = J.n
    expected = {(1, j) for j in range(2, n + 1)} | {(i, n) for i in range(2, n)}
    if J.pairs != frozenset(expected):
        raise ShapeMismatch("closed set is not the Heisenberg pattern (top row and last column)")
    return n


def value_heisenberg(G: PatternGroup, eta, phi) -> CharValue:
    """chi^eta(x_phi) for the Heisenberg pattern: nonzero entries confined to
    the top row and last column, everything indexed by the corner (1, n)."""
    n = _heisenberg_n(G.J)
    F = G.field
    eta, phi = G._functional(eta), G._functional(phi)
    corner = G.J.index[(1, n)]
    if eta[corner] == 0:
        return CharValue.of(0, F.trace(F.dot(phi, eta)), F.p)
    if any(v for k, v in enumerate(phi) if k != corner):
        return CharValue.zero()
    return CharValue.of(n - 2, F.trace(F.mul(phi[corner], eta[corner])), F.p)


def value_un(G: PatternGroup, eta, phi) -> CharValue:
    """chi^eta(x_phi) on the full triangular group, for monomial
    representatives: the value rule of :func:`un_value_chunks`, read one
    cell at a time off the arcs, a reference for that kernel."""
    if not G.J.is_full_triangular():
        raise ShapeMismatch("closed set is not the full triangular position set")
    eta, phi = G._functional(eta), G._functional(phi)
    if not is_monomial(G.J, eta) or not is_monomial(G.J, phi):
        raise NonMonomialRepresentative("representatives must be monomial in rows and columns")
    arcs, class_arcs = support(G.J, eta), support(G.J, phi)
    if any((i == j and k < l) or (l == k and i < j) for i, l in arcs for j, k in class_arcs):
        return CharValue.zero()
    exponent = sum(l - i - 1 - sum(i < j and k < l for j, k in class_arcs) for i, l in arcs)
    return CharValue.of(exponent, G.field.trace(G.field.dot(phi, eta)), G.field.p)


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


def is_irreducible(G: PatternGroup, eta) -> bool:
    """True iff ann_R(eta) + ann_L(eta) fills the whole functional space
    (see :meth:`superchar.core.StructureAlgebra.is_irreducible`)."""
    return G.is_irreducible(eta)


def superclass_is_class_sufficient(G: PatternGroup, phi) -> bool:
    """No 4-chain hits supp(phi) at both ends: the superclass of x_phi is then
    a single conjugacy class.  (Sufficient, not necessary.)"""
    supp = set(support(G.J, G._functional(phi)))
    return not any(
        ((i, j) in supp and (k, l) in supp) for i, j, k, l in G.J.chains4
    )


def irreducible_sufficient(G: PatternGroup, eta) -> bool:
    """No 4-chain (i,j,k,l) with (i,k) and (j,l) in supp(eta): chi^eta is then
    irreducible.  (Sufficient, not necessary.)"""
    supp = set(support(G.J, G._functional(eta)))
    return not any(
        ((i, k) in supp and (j, l) in supp) for i, j, k, l in G.J.chains4
    )


def full_un_irreducible(G: PatternGroup, eta) -> bool:
    """On the full triangular group with monomial eta the sufficient condition
    is also necessary."""
    if not G.J.is_full_triangular():
        raise ShapeMismatch("closed set is not the full triangular position set")
    if not is_monomial(G.J, G._functional(eta)):
        raise NonMonomialRepresentative("eta must be monomial in rows and columns")
    return irreducible_sufficient(G, eta)
