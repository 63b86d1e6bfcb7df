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

with the scaling division performed exactly (and loudly checked).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

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
        # trace(mu . phi) = sum_k d(mu_k)^T T d(phi_k) over the base-p digits,
        # with the trace form T_ij = tr(p**i * p**j); T = [[1]] for prime fields.
        self._powers = [F.p**i for i in range(F.r)]
        self._trace_form = np.array([[F.trace(F.mul(a, c)) for c in self._powers] for a in self._powers])

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

    def right_coorbit_size(self, eta) -> int:
        """|lambda_eta U|, the size of eta's class in the right-co-orbit sweep."""
        part = self._partition("dual_right")
        return int(part.sizes[part.class_of(eta)])

    def coorbit_elements(self, eta) -> list[tuple[int, ...]]:
        """The two-sided co-orbit of eta, ascending."""
        part = self.coorbit_partition()
        return part.elements(part.class_of(eta))

    # -- orbit sums -----------------------------------------------------------

    def value_row(self, eta, class_digits: np.ndarray, elements=None) -> np.ndarray:
        """Scaled orbit-sum values of chi^eta at the given representatives,
        as a (p-1, count) array of cyclotomic coefficients.

        The co-orbit of eta defaults to the members of its class in the
        co-orbit sweep, which is how everything in this package calls it.
        ``elements`` (a digit array) overrides it only so that a caller
        outside the package can time the orbit sum apart from the lookup.
        """
        p, r = self.field.p, self.field.r
        nright = self.right_coorbit_size(eta)
        if elements is None:
            co = self.coorbit_partition()
            elements = co.elements_digits(co.class_of(eta))
        m, count = len(elements), len(class_digits)
        powers = self._powers
        mu = np.asarray(elements, dtype=np.int64).reshape(m, self.dim, 1) // powers % p
        mu = (mu @ self._trace_form % p).reshape(m, self.dim * r)
        phi = np.asarray(class_digits, dtype=np.int64).reshape(count, self.dim, 1) // powers % p
        phi = phi.reshape(count, self.dim * r)
        # Entries of both factors are below p, so those of the product are at
        # most dim * r * (p - 1)**2: exact in float64 (< 2**53, and an order
        # of magnitude faster than integer matmul) and in int32 while < 2**31.
        # Pf stays alive on purpose: freeing it before the masks below cost
        # 4 MB more peak RSS on full_check of Heisenberg n = 5 at q = 3.
        Pf = mu.astype(np.float64) @ phi.T.astype(np.float64)
        P = Pf.astype(np.int32 if self.dim * r * (p - 1) ** 2 < 2**31 else np.int64)
        P %= p
        counts = np.zeros((p, count), dtype=np.int64)
        for k in range(p):
            counts[k] = (P == k).sum(axis=0)
        num = (counts[: p - 1] - counts[p - 1]) * nright
        if (num % m).any():
            raise NonIntegralScaling(f"co-orbit size {m} does not divide the scaled sum")
        return num // m

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
        all_digits = _codes_to_digits(np.arange(total, dtype=np.int64), F.q, self.dim)
        sc_codes = sc.canonical_codes()
        for eta in co.reps:
            row = self.value_row(eta, all_digits)  # (p-1, |G|)
            if not np.array_equal(row, row[:, sc_codes]):
                return False
        return True


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


def charvalue_coeff_rows(p: int, q: int, zero, qexp, zexp) -> np.ndarray:
    """CharValue arrays -> cyclotomic coefficient rows, shape (p-1, count)."""
    zero = np.asarray(zero, dtype=bool)
    mag = np.where(zero, 0, np.power(np.int64(q), np.asarray(qexp, dtype=np.int64)))
    zexp = np.asarray(zexp, dtype=np.int64)
    out = np.zeros((p - 1, len(mag)), dtype=np.int64)
    for k in range(p):
        mask = (~zero) & (zexp == k)
        if not mask.any():
            continue
        if k < p - 1:
            out[k][mask] += mag[mask]
        else:
            out[:, mask] -= mag[mask]
    return out


def full_check(source, oracle_cap: int | None = None, with_axioms: bool = True) -> CheckReport:
    """Compare the closed-form values against orbit sums on every
    representative pair, after checking the two orbit decompositions agree."""
    report = CheckReport()
    oracle = Oracle(source, cap=oracle_cap)
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
    # formula values for a chunk of rows at a time, so memory stays
    # O(chunk x classes); every mismatching cell is counted
    for _, evaluators, (zero, qexp, zexp) in value_chunks(source, core_co.reps, class_digits):
        for i, ev in enumerate(evaluators):
            eta = ev.eta
            oracle_row = oracle.value_row(eta, class_digits)
            formula_row = charvalue_coeff_rows(F.p, F.q, zero[i], qexp[i], zexp[i])
            bad = np.flatnonzero((formula_row != oracle_row).any(axis=0))
            if len(bad) and report.witness is None:
                c = int(bad[0])
                report.witness = (
                    eta,
                    core_sc.reps[c],
                    tuple(int(x) for x in formula_row[:, c]),
                    tuple(int(x) for x in oracle_row[:, c]),
                )
            report.mismatches += len(bad)
    report.values_match = report.mismatches == 0
    if with_axioms:
        report.axioms = oracle.verify_axioms()
    return report
