"""Definitional brute force on fully enumerated groups.

Everything here is computed from first principles so that agreement with the
closed-form machinery is meaningful: one backend derives every generator
action from a product alone, never from the orbit moves or action matrices in
:mod:`.core`.  Pattern groups give it dense n x n matrix products, read off
the closed set and not its structure constants; other algebra groups give it
their coordinate product.  The only shared code is the generic set-closure
plumbing.

Each orbit space -- superclasses, two-sided co-orbits, right co-orbits and
conjugacy classes -- is swept once per oracle, on first use, and every
question about one functional (its class, the size of its right co-orbit,
the members of its co-orbit) is a lookup in that sweep.

The supercharacter of eta is the scaled orbit sum

    chi^eta(x_phi) = (|lambda_eta U| / |U lambda_eta U|)
                     * sum over mu in the two-sided co-orbit of theta(mu . phi)

with the scaling division performed exactly (and loudly checked).  Many
characters are summed at once: co-orbits of equal size m share blocks, each
one float matmul of the members' base-p digits against the representatives'
(times the trace form), reduced mod p and counted per residue along the m
axis.  A block holds at most ``_BLOCK_CELLS`` member x class cells; a larger
co-orbit is split along its members.  The result and the residue counts hold
p coefficients per cell, so one call holds at most ``_COEFF_CELLS``
coefficients (SizeCapExceeded beyond), and callers take the characters in
chunks of at most ``_BLOCK_CELLS`` cells and that many coefficients.
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
from .gf import CycInt, Fq
from .core import OrbitPartition, PatternGroup, _codes_to_digits, orbit_partition_from_moves
from .formula import value_chunks

DEFAULT_ORACLE_CAP = 1 << 12
_BLOCK_CELLS = 1 << 16  # member x class cells per block of an orbit sum
_COEFF_CELLS = 1 << 22  # coefficients x rows x classes per orbit-sum call


# ---------------------------------------------------------------------------
# the backend: definitional generator actions


class Backend:
    """The generator actions of the group 1 + A from the product of A alone.

    Per generator 1 + X_g, X_g = t e_g with t in an additive basis of F_q,
    each kind lists the updates (tgt, src, coeff) of X -> (1 + X_g) X, of
    X -> X (1 + X_g), of conjugation, or, on the dual space, the transposed
    updates of the multiplications by (1 + X_g)**-1."""

    def __init__(self, field: Fq, dim: int, product):
        self.field = field
        self.dim = dim
        F = field

        def plus(u, v):
            return tuple(F.add(a, b) for a, b in zip(u, v))

        def inverse(x):  # (1 + X)**-1 - 1 = -X + X**2 - ..., finite by nilpotency
            neg = tuple(F.neg(v) for v in x)
            out, term = (0,) * dim, neg
            while any(term):
                out, term = plus(out, term), product(term, neg)
            return out

        def updates(delta, transpose=False):
            """The map e -> e + delta(e), or its transpose, as updates."""
            ups = []
            for src in range(dim):
                e = tuple(1 if k == src else 0 for k in range(dim))
                for tgt, c in enumerate(delta(e)):
                    if c:
                        ups.append((src, tgt, c) if transpose else (tgt, src, c))
            return tuple(ups)

        moves = ([], [], [], [], [])
        for gidx in range(dim):
            for t in F.additive_generators():
                g = tuple(t if k == gidx else 0 for k in range(dim))
                g_inv = inverse(g)

                def conj(e):  # (1 + X_g) e (1 + X_g)**-1 - e
                    ge = product(g, e)
                    return plus(ge, product(plus(e, ge), g_inv))

                per_kind = (
                    updates(lambda e: product(g, e)),
                    updates(lambda e: product(e, g)),
                    updates(lambda e: product(g_inv, e), transpose=True),
                    updates(lambda e: product(e, g_inv), transpose=True),
                    updates(conj),
                )
                for out, ups in zip(moves, per_kind):
                    if ups:
                        out.append((1, ups))
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
            raise SizeCapExceeded(total, self.cap, "group enumeration")
        self.order = total
        self._partitions: dict[tuple[str, ...], OrbitPartition] = {}
        F = self.field
        # entries of mu . phi are at most dim * r * (p - 1)**2, exact in
        # float32 below 2**24 and in float64 (far faster than integer matmul)
        # below 2**53; residues take the narrowest unsigned dtype
        self._float = np.float32 if self.dim * F.r * (F.p - 1) ** 2 < 2**24 else np.float64
        self._residue = np.min_scalar_type(F.p - 1)
        # trace(mu . phi) = sum_k d(mu_k)^T T d(phi_k) over the base-p digits,
        # with the trace form T_ij = tr(p**i * p**j), one block per coordinate;
        # T = [[1]] for prime fields.
        powers = [F.p**i for i in range(F.r)]
        T = [[F.trace(F.mul(a, c)) for c in powers] for a in powers]
        self._trace_form = np.kron(np.eye(self.dim), T).astype(self._float)
        # codes of functionals, and digit u of coordinate k at column k*r + u
        self._code_weights = F.q ** np.arange(self.dim - 1, -1, -1, dtype=np.int64)
        self._digit_weights = np.outer(self._code_weights, powers).ravel()

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
        return np.asarray(right.sizes)[right.classes_of(self.coorbit_partition().reps)]

    def right_coorbit_size(self, eta) -> int:
        """|lambda_eta U|, looked up by eta's co-orbit."""
        return int(self._right_sizes[self.coorbit_partition().class_of(eta)])

    def coorbit_elements(self, eta) -> list[tuple[int, ...]]:
        """The two-sided co-orbit of eta, ascending."""
        part = self.coorbit_partition()
        return part.elements(part.class_of(eta))

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
        return self._rows(etas, self._phi_digits(class_digits))

    def value_row(self, eta, class_digits: np.ndarray, elements=None) -> np.ndarray:
        """:meth:`value_rows` for one character, shape (p-1, count).

        ``elements`` (a digit array) overrides the co-orbit of eta only so
        that a caller outside the package can time the orbit sum apart from
        the lookup; nothing in this package passes it.
        """
        phi = self._phi_digits(class_digits)
        if elements is None:
            return self._rows([eta], phi)[:, 0]
        k = self.coorbit_partition().class_of(eta)
        codes = np.asarray(elements, dtype=np.int64).reshape(-1, self.dim) @ self._code_weights
        sizes = np.array([len(codes)])
        return self._orbit_sums(codes, np.zeros(1, dtype=np.int64), sizes, self._right_sizes[[k]], phi)[:, 0]

    def _rows(self, etas, phi) -> np.ndarray:
        """:meth:`value_rows` at representatives given by :meth:`_phi_digits`."""
        co = self.coorbit_partition()
        ks = co.classes_of(etas)
        codes, bounds = co.members
        starts = bounds[ks]
        return self._orbit_sums(codes, starts, bounds[ks + 1] - starts, self._right_sizes[ks], phi)

    def _orbit_sums(self, members, starts, sizes, nright, phi) -> np.ndarray:
        """(nright[i] / m) * sum of theta(mu . phi) over the m = sizes[i]
        codes members[starts[i] : starts[i] + m], for each row i, as
        (p-1, rows, count) cyclotomic coefficients.

        Rows of equal (m, nright) are summed together, in blocks of at most
        ``_BLOCK_CELLS`` member x class cells; a co-orbit larger than a block
        is split along its members.  Residues are counted with one scatter
        of the m residues of each cell when m < p, and with one comparison
        pass per nonzero residue otherwise.  SizeCapExceeded, before
        anything is allocated, when p x rows x count passes ``_COEFF_CELLS``.
        """
        p = self.field.p
        count = phi.shape[1]
        if p * len(sizes) * count > _COEFF_CELLS:
            raise SizeCapExceeded(p * len(sizes) * count, _COEFF_CELLS, "orbit-sum coefficients")
        out = np.empty((p - 1, len(sizes), count), dtype=np.int64)
        per_block = max(1, _BLOCK_CELLS // max(1, count))  # members per block
        for m, nr in sorted(set(zip(sizes.tolist(), nright.tolist()))):
            rows = np.flatnonzero((sizes == m) & (nright == nr))
            piece = min(m, per_block)
            step = per_block // piece  # rows per block
            for i in range(0, len(rows), step):
                sel = rows[i : i + step]
                counts = np.zeros((p, len(sel), count), dtype=np.int64)
                for lo in range(0, m, piece):
                    codes = members[starts[sel, None] + np.arange(lo, min(m, lo + piece))]
                    # (mu . phi) mod p for every member against every representative
                    P = self._mod_p(self._digits(codes.ravel()) @ phi)
                    res = P.astype(self._residue).reshape(codes.shape + (count,))
                    if m < p:
                        cells = np.arange(counts[0].size).reshape(len(sel), 1, count)
                        np.add.at(counts.reshape(-1), res.astype(np.intp) * counts[0].size + cells, 1)
                    else:  # summing bytes, in the narrowest dtype, beats counting bools
                        acc = np.min_scalar_type(piece)
                        for k in range(1, p):
                            counts[k] += (res == k).view(np.uint8).sum(axis=1, dtype=acc)
                if m >= p:
                    counts[0] = m - counts[1:].sum(axis=0)
                num = counts[: p - 1]
                num -= counts[p - 1]
                g = math.gcd(m, nr)  # the scale nr / m in lowest terms
                if nr > g:
                    num *= nr // g
                if m > g:
                    if (num % (m // g)).any():
                        raise NonIntegralScaling(f"co-orbit size {m} does not divide the scaled sum")
                    num //= m // g
                out[:, sel] = num
        return out

    def _phi_digits(self, class_digits) -> np.ndarray:
        """The base-p digits of the representatives times the trace form,
        shape (dim * r, count)."""
        digits = np.asarray(class_digits, dtype=np.int64).reshape(len(class_digits), self.dim)
        return self._mod_p(self._digits(digits @ self._code_weights) @ self._trace_form).T

    def _digits(self, codes) -> np.ndarray:
        """The base-p digits of functional codes, digit u of coordinate k in
        column k*r + u, in the product's float dtype."""
        return (codes[:, None] // self._digit_weights % self.field.p).astype(self._float)

    def _mod_p(self, P) -> np.ndarray:
        """P mod p in place, for integral floats 0 <= P < 2**t (t = 24 or 53
        bits of precision): P / p rounds by less than 1/p, which keeps
        floor(P / p) = P // p."""
        p = self.field.p
        quotient = P / p
        np.floor(quotient, out=quotient)
        quotient *= p
        P -= quotient
        return P

    def supercharacter(self, eta) -> dict[tuple, CycInt]:
        """The orbit-sum supercharacter as {superclass representative: value}."""
        part = self.superclass_partition()
        digits = np.array(part.reps, dtype=np.int64).reshape(len(part.reps), self.dim)
        row = self.value_row(tuple(eta), digits)
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
        F = self.field
        total = self.order
        phi = self._phi_digits(_codes_to_digits(np.arange(total, dtype=np.int64), F.q, self.dim))
        sc_codes = sc.canonical_codes()
        step = _rows_per_call(F.p, total)
        for start in range(0, len(co.reps), step):
            rows = self._rows(co.reps[start : start + step], phi)  # (p-1, step, |G|)
            if not np.array_equal(rows, rows[:, :, sc_codes]):
                return False
        return True


def _rows_per_call(p: int, count: int) -> int:
    """Characters per orbit-sum call over ``count`` classes: at most
    ``_BLOCK_CELLS`` cells and ``_COEFF_CELLS`` coefficients, but at least one."""
    return max(1, min(_BLOCK_CELLS, _COEFF_CELLS // p) // count)


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


def charvalue_coeff_rows(p: int, q: int, zero, qexp, zexp) -> np.ndarray:
    """CharValue arrays of any shape -> cyclotomic coefficients, shape
    (p-1,) + that shape: q**qexp * zeta**zexp, or 0 where ``zero``."""
    zero = np.asarray(zero, dtype=bool)
    mag = np.where(zero, 0, np.power(np.int64(q), np.asarray(qexp, dtype=np.int64)))
    zexp = np.where(zero, 0, np.asarray(zexp, dtype=np.int64))
    out = np.zeros((p,) + mag.shape, dtype=np.int64)
    np.put_along_axis(out, zexp[None], mag[None], axis=0)
    out[: p - 1] -= out[p - 1]  # zeta**(p-1) = -(1 + zeta + ... + zeta**(p-2))
    return out[: p - 1]


def full_check(source, oracle_cap: int | None = None, with_axioms: bool | None = None) -> CheckReport:
    """Compare the closed-form values against orbit sums on every
    representative pair, after checking the two orbit decompositions agree.

    The axioms cost |G|**2 products; unless ``with_axioms`` says otherwise
    they are verified only when |G| <= DEFAULT_ORACLE_CAP."""
    oracle = Oracle(source, cap=oracle_cap)
    report = CheckReport(order=oracle.order)
    core_sc = source.orbit_partition(oracle.cap)
    core_co = source.coorbit_partition(oracle.cap)
    orc_sc = oracle.superclass_partition()
    orc_co = oracle.coorbit_partition()
    report.partitions_match = bool(
        np.array_equal(core_sc.canonical_codes(), orc_sc.canonical_codes())
        and np.array_equal(core_co.canonical_codes(), orc_co.canonical_codes())
    )
    report.classes = len(core_sc)
    report.characters = len(core_co)

    dim = oracle.dim
    class_digits = np.array(core_sc.reps, dtype=np.int64).reshape(len(core_sc.reps), dim)
    F = oracle.field
    # formula and oracle values for a chunk of rows at a time, so memory
    # stays O(chunk x classes x p); every mismatching cell is counted
    step = _rows_per_call(F.p, len(class_digits))
    for _, evaluators, values in value_chunks(source, core_co.reps, class_digits):
        for lo in range(0, len(evaluators), step):
            etas = [ev.eta for ev in evaluators[lo : lo + step]]
            oracle_rows = oracle.value_rows(etas, class_digits)
            formula_rows = charvalue_coeff_rows(F.p, F.q, *(arr[lo : lo + step] for arr in values))
            bad = (formula_rows != oracle_rows).any(axis=0)
            if report.witness is None and bad.any():
                i, c = np.argwhere(bad)[0]  # the first in (eta, class) order
                report.witness = (
                    etas[i],
                    core_sc.reps[c],
                    tuple(int(x) for x in formula_rows[:, i, c]),
                    tuple(int(x) for x in oracle_rows[:, i, c]),
                )
            report.mismatches += int(bad.sum())
    report.values_match = report.mismatches == 0
    if with_axioms is None:
        with_axioms = oracle.order <= DEFAULT_ORACLE_CAP
    if with_axioms:
        report.axioms = oracle.verify_axioms()
    return report
