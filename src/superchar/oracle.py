"""Definitional brute force on fully enumerated groups.

Everything here is computed from first principles so that agreement with the
closed-form machinery is meaningful: one backend derives every generator
action from a product alone, called once per pair of basis vectors, never
from the orbit moves or action matrices in :mod:`.core`.  Pattern groups
give it dense n x n matrix products, read off the closed set and not its
structure constants; other algebra groups give it their coordinate
product.  The only shared code is the generic set-closure plumbing.

Each orbit space -- superclasses, two-sided co-orbits, right co-orbits and
conjugacy classes -- is swept once per oracle, on first use, and every
question about one functional (its class, the size of its right co-orbit,
the members of its co-orbit) is a lookup in that sweep.

The supercharacter of eta is the scaled orbit sum

    chi^eta(x_phi) = (|lambda_eta U| / |U lambda_eta U|)
                     * sum over mu in the two-sided co-orbit of theta(mu . phi)

with the scaling division performed exactly (and loudly checked).  Many
characters are summed at once.  trace(mu . phi) is F_p-linear in the base-p
digits of the code of mu, so those digits split into runs and, per run, a
table holds the residue of every digit combination against every
representative: the fewest runs, at least two, whose tables hold at most
``_COEFF_CELLS`` entries each, built by additions once per set of
representatives and passed to every orbit-sum call against it.  The
residues of a block of members are then one row gather per run, added in
the narrowest unsigned dtype and folded back below p by
minimum(res, res - p), where res - p wraps when res < p.
Co-orbits of equal size m share blocks, counted per residue along the m
axis in counters of the narrowest dtype that holds m: by one comparison pass
per nonzero residue or by one bincount of a block's cells, whichever a
measured cost model of p and the block's residues, cells and rows finds
cheaper.  A block holds at most ``_BLOCK_CELLS`` member x class cells; a
larger co-orbit is split along its members, and the exact scaling runs on
the narrow counters.  The result and the residue counts hold p coefficients
per cell, so one call holds at most ``_COEFF_CELLS`` coefficients
(SizeCapExceeded beyond, before anything is allocated, and from the table
builder when not even one row fits), and callers take the characters in
chunks of at most ``_BLOCK_CELLS`` cells and that many coefficients.

:meth:`Oracle.value_rows` widens the scaled counters to int64 cyclotomic
coefficients.  :func:`full_check` does not: it judges each block of
counters as it comes, against the formula's coefficient columns divided by
the block's scale factor in the counters' own dtype (:class:`_Expected`).

A scalar t in F_p^* maps the co-orbit O of eta onto that of t eta, and
trace(t mu . phi) = t trace(mu . phi): t O has the counts of O at k / t.
On a pattern group a vertex scaling or twin swap D, read off the closed set
alone, maps co-orbits and superclasses onto their like, and (D mu) . phi =
mu . (D phi): D O has at phi the counts of O at D phi, those of D phi's
superclass.  :func:`full_check` and the constancy check count one co-orbit
per orbit of the group they generate (:attr:`Oracle._orbits`, each map
checked member by member first) and carry its values down gf's tree.

The representatives' digit rows come from the F_p layer of
:class:`~superchar.gf.Fq`: base-p digits, the trace form and one exact mod-p
product per set of representatives.  From :mod:`.formula` the oracle takes
only the rows it checks (``table_rows``, the rows ``superchar table``
emits), none of its arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np

from .errors import (
    InternalInvariantViolation,
    NonIntegralScaling,
    SizeCapExceeded,
)
from .gf import SYMMETRY_CELLS, CycInt, Fq, cell_codes, orbit_tree, tree_rows
from .core import OrbitPartition, PatternGroup, _check_functionals, _codes_to_digits, _digits_to_codes, orbit_partition_from_moves
from .formula import table_rows

DEFAULT_ORACLE_CAP = 1 << 12
_BLOCK_CELLS = 1 << 16  # member x class cells per block of an orbit sum
_COEFF_CELLS = 1 << 22  # coefficients x rows x classes per orbit-sum call


# ---------------------------------------------------------------------------
# the backend: definitional generator actions


class Backend:
    """The generator actions of the group 1 + A from the product of A alone.

    The product is called once per pair of basis vectors, and e_i e_j is
    kept as a sparse table; every other product is read off that table by
    bilinearity.  Per generator 1 + X_g, X_g = t e_g with t in an additive
    basis of F_q, each kind lists one move: the tuple of updates (tgt, src, c)
    of X -> (1 + X_g) X, of X -> X (1 + X_g), of conjugation, or, on the dual
    space, the transposed updates of the multiplications by (1 + X_g)**-1,
    in the move format of :mod:`.core`.

    Every action is a linear map, kept as {src: image of e_src} over the
    sources with a nonzero image: left multiplication by e_a is row a of the
    table and right multiplication column a, each listed once over its
    nonzero entries.  (1 + X_g)**-1, the maps of the dual kinds and
    conjugation are built from those maps, so no product meets an empty
    entry."""

    def __init__(self, field: Fq, dim: int, product):
        self.field = field
        self.dim = dim
        F = field
        basis = [tuple(1 if k == i else 0 for k in range(dim)) for i in range(dim)]
        table = [[{k: c for k, c in enumerate(product(u, v)) if c} for v in basis] for u in basis]
        # e_a e_src and e_src e_a over the sources src where they are nonzero
        rows = [[(src, table[a][src]) for src in range(dim) if table[a][src]] for a in range(dim)]
        cols = [[(src, table[src][a]) for src in range(dim) if table[src][a]] for a in range(dim)]

        # vectors below are sparse, {coordinate: nonzero value}, and so are
        # the images of a map
        def combine(terms):
            """sum of c * v over the (c, v) pairs of ``terms``."""
            out: dict = {}
            for c, v in terms:
                for k, x in v.items():
                    out[k] = F.add(out.get(k, 0), F.mul(c, x))
            return {k: x for k, x in out.items() if x}

        def multiplication(u, entries):
            """x -> u x (entries = rows) or x -> x u (entries = cols)."""
            images: dict = {}
            for a, c in u.items():
                for src, v in entries[a]:
                    images.setdefault(src, []).append((c, v))
            return {src: image for src, terms in images.items() if (image := combine(terms))}

        def plus(*vs):
            return combine((1, v) for v in vs)

        def apply(action, v):
            return combine((c, action[k]) for k, c in v.items() if k in action)

        def updates(action, transpose=False):
            """The map e -> e + action(e), or its transpose, as updates."""
            return tuple(
                (src, tgt, c) if transpose else (tgt, src, c)
                for src in sorted(action)
                for tgt, c in sorted(action[src].items())
            )

        moves = ([], [], [], [], [])
        for gidx in range(dim):
            for t in F.additive_generators():
                g, neg = {gidx: t}, {gidx: F.neg(t)}
                left, right_neg = multiplication(g, rows), multiplication(neg, cols)
                g_inv, term = {}, neg  # (1 + X)**-1 - 1 = -X + X**2 - ..., finite by nilpotency
                while term:
                    g_inv, term = plus(g_inv, term), apply(right_neg, term)
                right_inv = multiplication(g_inv, cols)
                # conjugation, e -> (1 + X_g) e (1 + X_g)**-1 - e, is
                # g e + e g_inv + (g e) g_inv, nonzero only where g e or e g_inv is
                conj = {}
                for src in left.keys() | right_inv.keys():
                    ge = left.get(src, {})
                    if image := plus(ge, right_inv.get(src, {}), apply(right_inv, ge)):
                        conj[src] = image
                per_kind = (
                    updates(left),
                    updates(multiplication(g, cols)),
                    updates(multiplication(g_inv, rows), transpose=True),
                    updates(right_inv, transpose=True),
                    updates(conj),
                )
                for out, ups in zip(moves, per_kind):
                    if ups:
                        out.append(ups)
        self.mult_left, self.mult_right, self.dual_left, self.dual_right, self.conj = map(tuple, moves)


def _dense_product(G: PatternGroup):
    """X_u * X_v for a pattern group, as the product of the n x n matrices
    with u and v at the positions of the closed set: read from ``J.order``
    alone, never from its structure constants.  Only nonzero entries are
    multiplied, entry (i, j) of X_u against row j of X_v."""
    F, J = G.field, G.J

    def product(u, v):
        rows = {}
        for (j, k), b in zip(J.order, v):
            if b:
                rows.setdefault(j, []).append((k, b))
        C = {}
        for (i, j), a in zip(J.order, u):
            if a:
                for k, b in rows.get(j, ()):
                    C[i, k] = F.add(C.get((i, k), 0), F.mul(a, b))
        outside = [pair for pair, c in C.items() if c and pair not in J.index]
        if outside:
            raise InternalInvariantViolation(f"dense action left the closed set at {outside[0]}")
        return tuple(C.get(pair, 0) for pair in J.order)

    return product


# ---------------------------------------------------------------------------
# the oracle proper


class Oracle:
    """Brute-force superclasses, co-orbits, conjugacy classes and orbit sums."""

    def __init__(self, source, cap: int | None = None):
        product = _dense_product(source) if isinstance(source, PatternGroup) else source.product
        self.backend = Backend(source.field, source.dim, product)
        self.field: Fq = self.backend.field
        self.dim: int = self.backend.dim
        self.cap = DEFAULT_ORACLE_CAP if cap is None else cap
        total = self.field.q ** self.dim
        if total > self.cap:
            raise SizeCapExceeded(total, self.cap, "group elements to enumerate")
        self.order = total
        self._partitions: dict[tuple[str, ...], OrbitPartition] = {}
        self._closed_set = source.J if isinstance(source, PatternGroup) else None

    # -- partitions ---------------------------------------------------------

    def _partition(self, *kinds: str) -> OrbitPartition:
        """The orbits of the backend's move sets ``kinds``, swept on first use and kept."""
        if kinds not in self._partitions:
            moves = sum((getattr(self.backend, kind) for kind in kinds), ())
            self._partitions[kinds] = orbit_partition_from_moves(self.field, self.dim, moves, self.cap)
        return self._partitions[kinds]

    def superclass_partition(self) -> OrbitPartition:
        return self._partition("mult_left", "mult_right")

    def coorbit_partition(self) -> OrbitPartition:
        return self._partition("dual_left", "dual_right")

    def conjugacy_partition(self) -> OrbitPartition:
        return self._partition("conj")

    @cached_property
    def _right_sizes(self) -> np.ndarray:
        """|lambda U| per co-orbit, read off the right-co-orbit sweep at its
        representative: left moves commute with the right action, so they
        carry right co-orbits to right co-orbits of the same size."""
        right = self._partition("dual_right")
        return np.asarray(right.sizes)[right.classes_of(self.coorbit_partition().digits)]

    def right_coorbit_size(self, eta) -> int:
        """|lambda_eta U|, looked up by eta's co-orbit."""
        return int(self._right_sizes[self.coorbit_partition().class_of(eta)])

    def coorbit_elements(self, eta) -> list[tuple[int, ...]]:
        """The two-sided co-orbit of eta, ascending."""
        part = self.coorbit_partition()
        return part.elements(part.class_of(eta))

    @cached_property
    def _orbits(self):
        """(source, tree, columns, power): gf's walk over the co-orbits under
        :func:`_symmetries`, each checked on every member of every co-orbit
        and superclass (:func:`_class_maps`); columns[j] is the class step of
        symmetry j, the identity for the scalar g, and co-orbit k is
        g**power[k] times the image of its source under the others."""
        F, co, sc = self.field, self.coorbit_partition(), self.superclass_partition()
        right = self._right_sizes  # the right sweep first, while little else is held
        whats, names, times, to = _symmetries(F, self.dim, self._closed_set if len(co) * len(sc) >= SYMMETRY_CELLS else None)
        images = _code_maps(times, to, F.q, self.dim) if whats else None
        source, parent, via, depth = orbit_tree(_class_maps(co, images, "co-orbit", whats, names, right))
        scalar, power = whats[:1] == ("scalar multiple",), np.zeros(len(co), dtype=np.int64)  # g twists residues: its columns stay
        columns = np.concatenate([np.arange(len(sc))[None][:scalar], _class_maps(sc, images if len(whats) > scalar else None, "superclass", whats, names)[scalar:]])
        while not np.array_equal(power, after := np.where(via < 0, 0, power[parent] + (via == 0) * scalar)):
            power = after
        return source, (parent, via, depth), columns, power

    # -- orbit sums -----------------------------------------------------------

    def value_rows(self, etas, class_digits: np.ndarray) -> np.ndarray:
        """Scaled orbit-sum values of chi^eta for every eta in ``etas`` at the
        given representatives, as a (p-1, len(etas), count) array of
        cyclotomic coefficients.

        Each eta is summed over its class in the co-orbit sweep, found by
        label lookup, so it may be any member of its co-orbit.  The result
        holds len(etas) x count cells of p - 1 coefficients: callers take
        the characters in chunks of :func:`_rows_per_call`.
        """
        return self._rows(etas, self._residue_tables(self._phi_digits(class_digits)))

    def value_row(self, eta, class_digits: np.ndarray, elements=None) -> np.ndarray:
        """:meth:`value_rows` for one character, shape (p-1, count).

        ``elements`` (a digit array) overrides the co-orbit of eta only so
        that a caller outside the package can time the orbit sum apart from
        the lookup; nothing in this package passes it.
        """
        tables = self._residue_tables(self._phi_digits(class_digits))
        if elements is None:
            return self._rows([eta], tables)[:, 0]
        k = self.coorbit_partition().class_of(eta)
        codes = _digits_to_codes(_check_functionals(self.field, self.dim, elements), self.field.q)
        sizes = np.array([len(codes)])
        return self._orbit_sums(codes, np.zeros(1, dtype=np.int64), sizes, self._right_sizes[[k]], tables)[:, 0]

    def _rows(self, etas, tables) -> np.ndarray:
        """:meth:`value_rows` against the :meth:`_residue_tables` of a set of
        representatives."""
        return self._orbit_sums(*self._runs(self.coorbit_partition().classes_of(etas)), tables)

    def _runs(self, ks):
        """(members, starts, sizes, nright) of the co-orbits ``ks``, indices
        into the co-orbit sweep: the runs of co-orbit members the orbit sums
        take, and |lambda U| per run."""
        codes, bounds = self.coorbit_partition().members
        starts = bounds[ks]
        return codes, starts, bounds[ks + 1] - starts, self._right_sizes[ks]

    def _orbit_sums(self, members, starts, sizes, nright, tables) -> np.ndarray:
        """(nright[i] / m) * sum of theta(mu . phi) over the m = sizes[i]
        codes members[starts[i] : starts[i] + m], for each row i, as
        (p-1, rows, count) cyclotomic coefficients, with ``tables`` the
        :meth:`_residue_tables` of the representatives phi.

        The scaling runs on the narrow counters of :meth:`_residue_counts`:
        each coefficient, a difference of two counts, is divided exactly by
        m / g, g = gcd(m, nright[i]) (:func:`_divided`), then widened once per
        block, when it is written into the result, and multiplied there by
        nright[i] / g.  SizeCapExceeded, before anything is allocated, when
        p x rows x count passes ``_COEFF_CELLS``.
        """
        blocks = self._residue_counts(members, starts, sizes, nright, tables)
        out = np.empty((self.field.p - 1, len(sizes), tables[0][1].shape[1]), dtype=np.int64)
        for sel, m, nr, counts in blocks:
            num, factor = _divided(counts, m, nr)
            out[:, sel] = num
            if factor > 1:
                out[:, sel] *= factor
        return out

    def _residue_counts(self, members, starts, sizes, nright, tables):
        """Count the residues (mu . phi) mod p of the orbit sums of
        :meth:`_orbit_sums`: an iterator of (sel, m, nr, counts), one per
        block, where the rows ``sel`` all have m = sizes[i] and nr =
        nright[i], and counts[k, j, c] is how many of the m members of row
        sel[j] have residue k against representative c.

        The residues of a block are one row gather per run of digits from
        ``tables``, added in the narrowest unsigned dtype that holds 2(p-1)
        and folded after each addition by minimum(res, res - p), where
        res - p wraps when res < p.  At p = 2 the runs combine by exclusive
        or, and the count of residue 1 is the sum of the residues, each its
        own 0/1 indicator.  Rows of equal (m, nr) are counted
        together, in blocks of at most ``_BLOCK_CELLS`` member x class cells;
        a co-orbit larger than a block is split along its members.  Counters
        have the narrowest dtype that holds m.  A block of n residues over W
        cells takes the cheaper counter, in units of one residue compared
        once: p - 1 comparison passes at n + 128 per row reduced + 32768
        each, or one bincount at 24 n + 8 p W.  The constants minimise the
        worst slowdown on timed blocks (p <= 65521, 3 to 2^16 residues, rows
        of 3 to 16129 classes): 1.22x on rows of 64 or more, 10x on rows of
        3.  SizeCapExceeded, when this is called and before anything is
        allocated, when p x rows x count passes ``_COEFF_CELLS``: the
        callers hold that many coefficients.
        """
        p = self.field.p
        (_, low), *higher = tables
        count = low.shape[1]
        if p * len(sizes) * count > _COEFF_CELLS:
            raise SizeCapExceeded(p * len(sizes) * count, _COEFF_CELLS, "orbit-sum coefficients")
        wrap = low.dtype.type(p)
        per_block = max(1, _BLOCK_CELLS // max(1, count))  # members per block

        def blocks():
            for m, nr in sorted(set(zip(sizes.tolist(), nright.tolist()))):
                rows = np.flatnonzero((sizes == m) & (nright == nr))
                piece = min(m, per_block)
                step = per_block // piece  # rows per block
                for i in range(0, len(rows), step):
                    sel = rows[i : i + step]
                    width, n = len(sel) * count, len(sel) * piece * count  # cells, residues
                    compare = (p - 1) * (n + 128 * len(sel) * piece + 32768) <= 24 * n + 8 * p * width
                    counts = np.zeros((p, len(sel), count), dtype=np.min_scalar_type(m))
                    for lo in range(0, m, piece):
                        codes = members[starts[sel, None] + np.arange(lo, min(m, lo + piece))]
                        res = low[codes % len(low)]
                        for scale, table in higher:
                            if p == 2:  # a sum mod 2 is an exclusive or
                                res ^= table[codes // scale % len(table)]
                            else:
                                res += table[codes // scale % len(table)]
                                np.minimum(res, res - wrap, out=res)
                        acc = np.min_scalar_type(piece)
                        if p == 2:  # a residue mod 2 is its own indicator
                            counts[1] += res.sum(axis=1, dtype=acc)
                        elif compare:  # summing bytes, in the narrowest dtype, beats counting bools
                            for k in range(1, p):
                                counts[k] += (res == k).view(np.uint8).sum(axis=1, dtype=acc)
                        else:
                            cells = np.arange(counts[0].size).reshape(len(sel), 1, count)
                            index = (res.astype(np.intp) * counts[0].size + cells).ravel()
                            counts += np.bincount(index, minlength=counts.size).reshape(counts.shape).astype(counts.dtype)
                    if compare or p == 2:
                        counts[0] = m - counts[1:].sum(axis=0, dtype=counts.dtype)
                    yield sel, m, nr, counts

        return blocks()

    def _residue_tables(self, phi) -> list:
        """The residue tables of :meth:`_orbit_sums` against ``phi``: (p**lo,
        table) per run of base-p digits lo..hi-1 of a code, row a of the
        table holding the residues against every representative of the
        digits a on that run, in the narrowest unsigned dtype that holds
        2(p-1).  The n digits split into the fewest runs, at least two when
        n >= 2, whose tables hold at most ``_COEFF_CELLS`` entries each: one
        run of all n digits would hold a row per element of the group.
        Built once per set of representatives by the callers of
        :meth:`_rows`.  SizeCapExceeded, before anything is allocated, when
        one row of orbit sums, p x count coefficients, passes
        ``_COEFF_CELLS``: that bound also keeps a table of one digit within it."""
        p = self.field.p
        n, count = phi.shape
        if p * count > _COEFF_CELLS:
            raise SizeCapExceeded(p * count, _COEFF_CELLS, "orbit-sum coefficients")
        runs = next((g for g in range(2, n + 1) if p ** -(-n // g) * count <= _COEFF_CELLS), 1)
        bounds = [n * i // runs for i in range(runs + 1)]
        dtype = np.min_scalar_type(2 * (p - 1))
        wrap = dtype.type(p)
        tables = []
        for lo, hi in zip(bounds, bounds[1:]):
            # d * phi_j mod p for every digit value d < p, by doubling: with
            # rows d < s known, row s + d is row d plus row s
            multiples = np.zeros((1, hi - lo, count), dtype=dtype)
            while len(multiples) < p:
                shift = multiples[-1] + phi[lo:hi]
                np.minimum(shift, shift - wrap, out=shift)
                more = multiples + shift
                np.minimum(more, more - wrap, out=more)
                multiples = np.concatenate([multiples, more])
            table = np.zeros((1, count), dtype=dtype)
            for j in range(hi - lo - 1, -1, -1):  # row a * p + d: d on digit lo + j, a on those above
                table = (table[:, None] + multiples[:p, j]).reshape(-1, count)
                np.minimum(table, table - wrap, out=table)
            tables.append((p**lo, table))
        return tables

    def _phi_digits(self, class_digits) -> np.ndarray:
        """The representatives times the trace form, one row per base-p
        digit of a code, least significant first, shape (dim * r, count):
        trace(mu . phi) = sum_k d(mu_k) T d(phi_k)^T over the coordinates k,
        with T the trace form of :class:`~superchar.gf.Fq`, and digit u of
        coordinate k is digit (dim - 1 - k) * r + u of the code of mu."""
        F = self.field
        digits = _check_functionals(F, self.dim, class_digits)[:, ::-1]
        rows = F.matmul_mod_p(F.p_digits(digits), F.trace_form).reshape(len(digits), self.dim * F.r)
        return np.ascontiguousarray(rows.T)

    def supercharacter(self, eta) -> dict[tuple, CycInt]:
        """The orbit-sum supercharacter as {superclass representative: value}."""
        part = self.superclass_partition()
        row = self.value_row(tuple(eta), part.digits)
        p = self.field.p
        return {
            rep: CycInt(p, tuple(int(row[k][c]) for k in range(p - 1)))
            for c, rep in enumerate(part.reps)
        }

    def inner_product(self, f, g) -> tuple[CycInt, int]:
        """|G| times <f, g> for class functions given per group element."""
        if len(f) != len(g):
            raise ValueError("class functions must have equal length")
        p = self.field.p
        acc = CycInt.zero(p)
        for a, b in zip(f, g):
            acc = acc + a * b.conjugate()
        return acc, len(f)

    # -- axioms ------------------------------------------------------------------

    def verify_axioms(self) -> "AxiomReport":
        sc = self.superclass_partition()
        co = self.coorbit_partition()
        conj = self.conjugacy_partition()
        report = AxiomReport()
        zero_class = sc.class_of((0,) * self.dim)
        report.record(
            "identity_superclass_is_singleton",
            sc.sizes[zero_class] == 1,
            f"size {sc.sizes[zero_class]}",
        )
        report.record(
            "superclass_and_coorbit_counts_equal",
            len(sc) == len(co),
            f"{len(sc)} superclasses vs {len(co)} co-orbits",
        )
        sc_codes = sc.canonical_codes()
        conj_codes = conj.canonical_codes()
        refine_ok = bool(np.array_equal(sc_codes, sc_codes[conj_codes]))
        report.record(
            "superclasses_union_conjugacy_classes",
            refine_ok,
            f"{len(conj)} conjugacy classes",
        )
        constant = self._check_constancy(sc, co)
        report.record("supercharacters_constant_on_superclasses", constant, "")
        return report

    def _check_constancy(self, sc: OrbitPartition, co: OrbitPartition) -> bool:
        """Every supercharacter is constant on every superclass, judged on
        the residue counters of :meth:`_residue_counts` over all of G before
        any scaling, with G in ``sc.members`` order, class after class: each
        element's counts must equal its neighbour's within its class run.
        For a fixed row the counts, which sum to m, determine the scaled
        value and are determined by it, so this is the axiom itself.  The
        exact scaling (NonIntegralScaling) is checked on the
        representatives' columns, each the first of its run, which then
        stand for every element.

        Only the source of each orbit (:attr:`_orbits`) is counted: D O has
        the counts of O relabelled by maps checked on every member, constant
        where those of O are, with differences those of O."""
        F = self.field
        members, bounds = sc.members
        tables = self._residue_tables(self._phi_digits(_codes_to_digits(members, F.q, self.dim)))
        inner = np.ones(self.order - 1, dtype=bool)  # neighbours in one class run
        inner[bounds[1:-1] - 1] = False
        counted = np.flatnonzero(np.bincount(self._orbits[0][self.coorbit_partition().classes_of(co.digits)]))
        step = _rows_per_call(F.p, self.order)
        for start in range(0, len(counted), step):
            for _, m, nr, counts in self._residue_counts(*self._runs(counted[start : start + step]), tables):
                if (counts[:, :, 1:] != counts[:, :, :-1]).any(axis=(0, 1))[inner].any():
                    return False
                _divided(counts[:, :, bounds[:-1]], m, nr)  # raises NonIntegralScaling if inexact
        return True


def _divided(counts, m: int, nr: int):
    """(num, factor): the scaled coefficients (nr / m)(counts[k] - counts[p-1]),
    k < p - 1, of a block's residue counts as num * factor.  num is taken in
    the narrowest signed dtype that holds +-m and divided exactly by m / g,
    g = gcd(m, nr), factor = nr / g; NonIntegralScaling when m / g does not
    divide a difference."""
    p = len(counts)
    num = np.subtract(counts[: p - 1], counts[p - 1], dtype=np.min_scalar_type(-m - 1))
    g = math.gcd(m, nr)  # the scale nr / m in lowest terms
    if m > g:  # a floor division by a constant is far faster than a remainder
        quotient = num // (m // g)
        if (quotient * (m // g) != num).any():
            raise NonIntegralScaling(f"co-orbit size {m} does not divide the scaled sum")
        num = quotient
    return num, nr // g


def _rows_per_call(p: int, count: int) -> int:
    """Characters per orbit-sum call over ``count`` classes: at most
    ``_BLOCK_CELLS`` cells and ``_COEFF_CELLS`` coefficients, but at least one."""
    return max(1, min(_BLOCK_CELLS, _COEFF_CELLS // p) // count)


def _code_maps(times, to, q: int, dim: int):
    """The map of codes of functionals f in F_q**dim to those of f' with
    f'[to[j, k]] = times[j, k][f[k]] for every j: two lookups in tables over
    the high and the low half of the coordinates, in the narrowest dtype."""
    split, weight = q ** (dim // 2), q ** (dim - 1 - np.asarray(to))
    high, low = (
        (times[:, ks, np.arange(q ** len(ks))[:, None] // q ** np.arange(len(ks) - 1, -1, -1) % q] * weight[:, None, ks]).sum(axis=2).astype(np.min_scalar_type(q**dim - 1))
        for ks in (np.arange(dim - dim // 2), np.arange(dim - dim // 2, dim))
    )
    return lambda codes: np.add(*(half.take(at, axis=1) for half, at in zip((high, low), np.divmod(codes, split))), dtype=high.dtype)


def _symmetries(F: Fq, dim: int, J):
    """(whats, names, times, to) for :func:`_code_maps`: the generator g of
    F_p^* unless p = 2, and on a closed set ``J``, read off its pairs alone,
    for q > 2 the scaling by t_v = h, the generator of F_q^*, of each vertex
    v < n a pair touches, (a, b) times t_b / t_a, and the swap of each twin
    vertex (of equal lower and upper neighbours) with the next."""
    g, h, pairs, twins = F.power(F.generator, (F.q - 1) // (F.p - 1)), F.generator, list(J.order) if J else [], {}
    units = {t: F.multiples(t) for t in {1, g, h, F.power(h, -1)}}
    out = [("scalar multiple", f"the scalar {g}", [units[g]] * dim, range(dim))] if g != 1 else []
    for v in sorted({v for pair in pairs for v in pair} - {J.n}) if J and h != 1 else ():  # q > 2
        out.append(("vertex scaling", f"the scaling of vertex {v}", [units[h if b == v else F.power(h, -1) if a == v else 1] for a, b in pairs], range(dim)))
    for v in range(1, J.n + 1) if J else ():
        twins.setdefault((frozenset(a for a, b in pairs if b == v), frozenset(b for a, b in pairs if a == v)), []).append(v)
    for (lower, upper), vs in twins.items():
        swaps = [(u, v, {u: v, v: u}) for u, v in zip(vs, vs[1:]) if lower or upper]
        out += [("twin swap", f"the swap of vertices {u} and {v}", [units[1]] * dim, [pairs.index(tuple(s.get(x, x) for x in pair)) for pair in pairs]) for u, v, s in swaps]
    whats, names, times, to = zip(*out) if out else ((), (), (), ())
    return whats, names, np.array(times, dtype=np.int64).reshape(len(out), dim, F.q), np.array(to, dtype=np.int64).reshape(len(out), dim)


def _class_maps(part: OrbitPartition, images, kind: str, whats, names, right=None) -> np.ndarray:
    """The class of the image of each class of ``part`` under each map of
    ``images`` (codes to a row of codes per map), checked on every member:
    equal labels in each class run, equal sizes (and ``right`` sizes)."""
    if images is None:  # no map
        return np.empty((0, len(part)), dtype=np.int64)
    codes, bounds = part.members
    inner = np.ones(len(codes) - 1, dtype=bool)  # neighbours in one class run
    inner[bounds[1:-1] - 1] = False
    cuts, steps = [*dict.fromkeys(bounds[np.searchsorted(bounds, np.arange(0, len(codes), _BLOCK_CELLS), side="right") - 1].tolist()), len(codes)], []
    for lo, hi in zip(cuts, cuts[1:]):  # blocks of whole classes, about _BLOCK_CELLS members each
        labels = part._labels[images(codes[lo:hi])]
        for j in np.flatnonzero(((labels[:, 1:] != labels[:, :-1]) & inner[lo : hi - 1]).any(axis=1))[:1]:
            raise InternalInvariantViolation(f"the image of a {kind} under {names[j]} is no {kind} of the sweep")
        steps.append(labels[:, bounds[(bounds >= lo) & (bounds < hi)] - lo])
    steps, sizes = np.searchsorted(part._rep_codes, np.concatenate(steps, axis=1)), np.diff(bounds)
    for j in np.flatnonzero((sizes[steps] != sizes).any(axis=1) | (right is not None and (right[steps] != right).any(axis=1)))[:1]:
        raise InternalInvariantViolation(f"a {whats[j]} of a {kind} differs from it in size")
    return steps


@dataclass
class AxiomReport:
    checks: list = dc_field(default_factory=list)

    def record(self, name: str, ok: bool, detail: str):
        self.checks.append((name, bool(ok), detail))

    @property
    def all_ok(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def lines(self):
        for name, ok, detail in self.checks:
            suffix = f" ({detail})" if detail else ""
            yield f"{'ok' if ok else 'FAIL'}: {name}{suffix}"


# ---------------------------------------------------------------------------
# the formula-vs-oracle equivalence check


@dataclass
class CheckReport:
    classes: int = 0
    characters: int = 0
    partitions_match: bool = False
    values_match: bool = False
    mismatches: int = 0  # cells where the formula and the orbit sum differ
    witness: tuple | None = None  # (eta, phi, formula coeffs, oracle coeffs) of the first
    axioms: AxiomReport | None = None
    order: int = 0  # |G|

    @property
    def ok(self) -> bool:
        return (
            self.partitions_match
            and self.values_match
            and (self.axioms is None or self.axioms.all_ok)
        )

    def lines(self):
        yield f"{'ok' if self.partitions_match else 'FAIL'}: orbit partitions agree"
        yield (
            f"{'ok' if self.values_match else 'FAIL'}: formula matches orbit sums "
            f"({self.characters} characters x {self.classes} superclasses, "
            f"{self.mismatches} mismatching cells)"
        )
        if self.witness is not None:
            eta, phi, f_val, o_val = self.witness
            yield f"  first mismatch: eta={eta} phi={phi} formula={f_val} oracle={o_val}"
        if self.axioms is not None:
            yield from self.axioms.lines()
        elif self.order > DEFAULT_ORACLE_CAP:
            yield f"skipped: axioms (|G| = {self.order} > {DEFAULT_ORACLE_CAP})"


def _code_columns(values: np.ndarray, p: int) -> np.ndarray:
    """The cyclotomic coefficients of every cell code with a q-exponent
    below len(values) (:func:`~superchar.gf.cell_codes`), one column per
    code, shape (p-1, 1 + len(values) * p): column 0 is zero, and column
    1 + e * p + z holds values[e] * zeta**z, so values[e] at coefficient z,
    and -values[e] at every coefficient when z = p - 1, as zeta**(p-1) =
    -(1 + ... + zeta**(p-2))."""
    columns = np.zeros((p - 1, 1 + len(values) * p), dtype=values.dtype)
    block = columns[:, 1:].reshape(p - 1, len(values), p)  # [coefficient, e, z], a view
    k = np.arange(p - 1)
    block[k, :, k] = values
    block[:, :, p - 1] = -values
    return columns


def charvalue_coeff_rows(p: int, q: int, zero, qexp, zexp) -> np.ndarray:
    """CharValue arrays of any shape -> cyclotomic coefficients, shape
    (p-1,) + that shape: q**qexp * zeta**zexp, or 0 where ``zero``, each
    cell's column looked up by its code (:func:`_code_columns`).
    OverflowError when the q**qexp of a nonzero cell passes int64."""
    qexp, zero = np.asarray(qexp), np.asarray(zero, dtype=bool)
    top = int(qexp.max(initial=0, where=~zero))
    if q**top > np.iinfo(np.int64).max:
        raise OverflowError(f"q**{top} with q = {q} does not fit in int64")
    columns = _code_columns(np.array([q**e for e in range(top + 1)], dtype=np.int64), p)
    return np.take(columns, cell_codes(zero, qexp, zexp, p, top), axis=1)


class _Expected:
    """The formula's values in the domain of the oracle's narrow counters,
    keyed by the cell codes the kernels write
    (:func:`~superchar.gf.cell_codes`).

    For the (num, factor) of a block (:func:`_divided`), :meth:`divided`
    holds the coefficients of each code divided by factor, in num's dtype,
    one column per code (:func:`_code_columns`): column 0, the zero cells'
    code, holds 0 (so no mask is needed for them), and num matches a cell
    iff it equals the column of the cell's code.

    A column whose value factor does not divide, or whose quotient falls
    outside num's dtype, holds the dtype's minimum at every coefficient.
    num never holds it (|num| <= m < -minimum), so those cells mismatch, as
    they must: the oracle value num * factor is a multiple of factor within
    that range."""

    def __init__(self, p: int, q: int, dim: int):
        self.p, self.q, self.dim = p, q, dim
        self._columns: dict = {}

    def divided(self, factor: int, dtype) -> np.ndarray:
        """The (p-1, 1 + (dim + 1) p) columns divided by ``factor``, in
        ``dtype``, built once per pair."""
        if (factor, dtype) not in self._columns:
            p, lowest = self.p, np.iinfo(dtype).min
            quotients = [divmod(self.q**e, factor) for e in range(self.dim + 1)]
            exact = np.array([not rest and value < -lowest for value, rest in quotients])
            values = np.array([value if ok else 0 for (value, _), ok in zip(quotients, exact)], dtype=dtype)
            columns = _code_columns(values, p)
            columns[:, 1:].reshape(p - 1, len(values), p)[:, ~exact] = lowest
            self._columns[factor, dtype] = columns
        return self._columns[factor, dtype]


def full_check(source, oracle_cap: int | None = None, with_axioms: bool | None = None) -> CheckReport:
    """Judge the rows of :func:`~superchar.formula.table_rows`, the ones
    ``superchar table`` emits, against the oracle.  The orbit partitions
    agree when core's label maps (the sweeps the group keeps), the listed
    representatives and the class and co-orbit sizes equal the oracle's,
    and each character has q**corank = |lambda_eta U| and its
    irreducibility flag set iff |U lambda_eta U| = |lambda_eta U|**2.

    The rows come in chunks, in any order.  The residues are counted once
    per orbit of co-orbits under the oracle's symmetries
    (:attr:`Oracle._orbits`), at its source, in the domain of the narrow
    counters: each block of :meth:`Oracle._residue_counts`, scaled by
    :func:`_divided` to num * factor, against the formula's coefficient
    columns divided by factor (:class:`_Expected`), gathered by the codes
    of the source's formula row.  The codes that match are the source's
    values, which the rows of its orbit take down the walk's tree (zeta ->
    zeta**t for the scalars); a row with values not all known is judged on
    its own counts.  Every mismatching cell is counted; the witness is the
    least in (eta, class) order, with both sides' coefficients.

    The axioms cost |G|**2 products; unless ``with_axioms`` says otherwise
    they are verified only when |G| <= DEFAULT_ORACLE_CAP."""
    oracle = Oracle(source, cap=oracle_cap)
    report = CheckReport(order=oracle.order)
    classes, sizes, chars, co_sizes, chunks = table_rows(source, oracle.cap)
    core_sc, core_co = source.orbit_partition(oracle.cap), source.coorbit_partition(oracle.cap)
    orc_sc, orc_co = oracle.superclass_partition(), oracle.coorbit_partition()
    agree = (
        np.array_equal(core_sc.canonical_codes(), orc_sc.canonical_codes())
        and np.array_equal(core_co.canonical_codes(), orc_co.canonical_codes())
        and np.array_equal(classes, orc_sc.digits)
        and np.array_equal(sizes, orc_sc.sizes)
        and np.array_equal(chars, orc_co.digits)
        and np.array_equal(co_sizes, orc_co.sizes)
    )
    report.classes, report.characters = len(classes), len(chars)

    F, p, width = oracle.field, oracle.field.p, len(orc_sc)
    tables = oracle._residue_tables(oracle._phi_digits(orc_sc.digits))
    expected, step, powers = _Expected(p, F.q, oracle.dim), _rows_per_call(p, width), np.array([F.q**e for e in range(oracle.dim + 1)], dtype=object)
    _, tree, steps, power = oracle._orbits
    g, unknown = F.power(F.generator, (F.q - 1) // (p - 1)), (oracle.dim + 1) * p + 1  # a code no kernel writes
    units, code = np.array([pow(g, i, p) for i in range(p - 1)]), np.arange(unknown + 1)  # g**i, every code
    columns = orc_sc.classes_of(classes)  # the oracle's class of each column
    identity = np.array_equal(columns, np.arange(width))
    orc_sizes, nright, held, placed = np.asarray(orc_co.sizes), oracle._right_sizes, {}, np.full(len(orc_co), -1)

    def differ(ks, guess, cols):  # the cells of the co-orbits ks, at classes cols, whose orbit sums are not guess
        out = np.empty(guess.shape, dtype=bool)
        for lo in range(0, len(ks), step):
            for sel, m, nr, counts in oracle._residue_counts(*oracle._runs(ks[lo : lo + step]), tables):
                num, factor = _divided(counts, m, nr)
                out[lo + sel] = (num[:, :, cols] != expected.divided(factor, num.dtype).take(guess[lo + sel], axis=1)).any(axis=0)
        return out

    def sources(ks):  # rows made afresh: the formula's codes where they are the orbit sums, else unknown
        guess = codes[placed[ks]].astype(np.min_scalar_type(unknown)) if identity else np.zeros((len(ks), width), np.min_scalar_type(unknown))
        guess[differ(ks, guess, slice(None))] = unknown
        return twist(guess, -power[ks])  # as its source's row would carry them

    def twist(found, powers):  # g**i takes q**e zeta**z, code 1 + e p + z, to q**e zeta**(g**i z), in place
        for i in set((powers % (p - 1)).tolist()) - {0}:
            rows, z = np.flatnonzero(powers % (p - 1) == i), (code - 1) % p
            found[rows] = np.where((code > 0) & (code < unknown), code - z + z * units[i] % p, code).astype(found.dtype)[found[rows]]
        return found

    first = None  # (row, class, formula coefficients, oracle coefficients) of the least mismatch
    # formula values and the oracle's for a chunk of rows at a time, so
    # memory stays O(chunk x classes)
    for rows, coranks, irreducible, codes in chunks:
        ks = orc_co.classes_of(chars[rows])
        right = nright[ks]
        agree = agree and np.array_equal(F.q**coranks, right) and np.array_equal(irreducible, orc_sizes[ks] == right**2)
        placed[:], placed[ks] = -1, np.arange(len(ks))  # where a co-orbit's formula row is, in this chunk
        found = twist(tree_rows(tree, steps, ks, held, sources), power[ks])  # a source's values down the tree
        bad = (found if identity else found[:, columns]) != codes
        redo = np.flatnonzero((found == unknown).any(axis=1))  # rows judged on their own counts
        bad[redo] = differ(ks[redo], codes[redo], columns)
        mismatches = int(np.count_nonzero(bad))
        report.mismatches += mismatches
        if mismatches:
            i, c = np.argwhere(bad)[0]  # rows ascend: the chunk's least (row, class)
            if first is None or (rows[i], c) < first[:2]:
                ((_, m, nr, counts),) = oracle._residue_counts(*oracle._runs(ks[i : i + 1]), tables)  # its own counts
                num, factor = _divided(counts, m, nr)
                formula_coeffs = tuple(_code_columns(powers, p)[:, codes[i, c]].tolist())
                first = (rows[i], c, formula_coeffs, tuple(int(x) * factor for x in num[:, 0, columns[c]]))
    if first is not None:
        i, c, formula_coeffs, oracle_coeffs = first
        report.witness = (tuple(chars[i].tolist()), tuple(classes[c].tolist()), formula_coeffs, oracle_coeffs)
    report.partitions_match = bool(agree)
    report.values_match = report.mismatches == 0
    if with_axioms is None:
        with_axioms = oracle.order <= DEFAULT_ORACLE_CAP
    if with_axioms:
        report.axioms = oracle.verify_axioms()
    return report
