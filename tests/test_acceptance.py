"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines and timings.
"""

import itertools
import time
from pathlib import Path

import numpy as np
import pytest

from superchar.catalog import (
    SIXTEEN_CLASS_MEMBERS,
    SIXTEEN_TABLE,
    class_counterexample_poset,
    corpus,
    determinant_poset,
    full_triangular,
    heisenberg,
    orbit_shape_poset,
    sixteen_group,
)
from superchar.cli import main
from superchar.core import PatternGroup
from superchar.formula import CharacterEvaluator, is_irreducible, value_chunks, value_heisenberg, value_un
from superchar.gf import CharValue, Fq, cell_exponents, rank
from superchar.oracle import DEFAULT_ORACLE_CAP, Oracle, full_check
from superchar.poset import functional, support

DATA = Path(__file__).resolve().parents[1] / "src" / "superchar" / "data"

_T0 = {}


def _report(number: int, label: str, ok: bool, started: float):
    elapsed = time.time() - started
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {label} [{elapsed:.1f}s]")
    assert ok, f"criterion {number} failed: {label}"


def test_criterion_01_oracle_equivalence_master():
    started = time.time()
    ok = True
    for entry in corpus():
        for q in entry.qs:
            G = PatternGroup(entry.J, Fq.of(q))
            report = full_check(G, oracle_cap=1 << 21)
            if not report.ok:
                print(f"  {entry.name} q={q}:")
                for line in report.lines():
                    print("   ", line)
                ok = False
    _report(1, "formula equals orbit-sum oracle on the whole corpus", ok, started)


def test_criterion_02_sixteen_group_golden_table():
    started = time.time()
    alg = sixteen_group()
    part = alg.orbit_partition()
    # identify the printed columns by a known member of each superclass
    col_of = {name: part.class_of(member) for name, member in SIXTEEN_CLASS_MEMBERS.items()}
    ok = len(part.reps) == 7 and len(set(col_of.values())) == 7
    rows = {}
    for o in alg.all_coorbit_reps():
        c = alg.corank(o.rep)
        row = tuple(
            alg.value(o.rep, part.reps[col_of[name]], corank=c).as_int(alg.field)
            for name in SIXTEEN_CLASS_MEMBERS
        )
        rows[row] = rows.get(row, 0) + 1
    expected = {}
    for char_row in SIXTEEN_TABLE.values():
        row = tuple(char_row[name] for name in SIXTEEN_CLASS_MEMBERS)
        expected[row] = expected.get(row, 0) + 1
    ok = ok and rows == expected
    degrees = sorted(o2["degree"] for o2 in _sixteen_chars(alg))
    ok = ok and degrees == [1, 1, 1, 1, 2, 2, 4]
    _report(2, "the 16-element group reproduces its printed 7x7 table", ok, started)


def _sixteen_chars(alg):
    return [
        {"degree": alg.field.q ** alg.corank(o.rep)} for o in alg.all_coorbit_reps()
    ]


def _table_rows(G, chars, classes):
    """Each character's row of ``value_chunks`` (what ``superchar table``
    emits) at the class representatives, as CharValues."""
    digits = np.array([cl.rep for cl in classes], dtype=np.int64).reshape(len(classes), G.dim)
    for _, _, codes in value_chunks(G, [ch.rep for ch in chars], digits):
        zero, q_exp, zeta_exp = cell_exponents(codes, G.field.p)
        for row in zip(zero.tolist(), q_exp.tolist(), zeta_exp.tolist()):
            yield [CharValue.zero() if z else CharValue(m, k, False) for z, m, k in zip(*row)]


def test_criterion_03_heisenberg_closed_form():
    started = time.time()
    ok = True
    for n in (2, 3, 4, 5):
        for q in (2, 3):
            F = Fq.of(q)
            G = PatternGroup(heisenberg(n), F)
            chars = G.all_coorbit_reps()
            classes = G.all_orbit_reps()
            for ch, row in zip(chars, _table_rows(G, chars, classes), strict=True):
                if not is_irreducible(G, ch.rep):
                    ok = False
                for cl, v in zip(classes, row, strict=True):
                    if v != value_heisenberg(G, ch.rep, cl.rep):
                        ok = False
            # character census: q^(2n-4) linear plus q-1 of degree q^(n-2)
            degrees = sorted(q ** G.corank(ch.rep) for ch in chars)
            expected = [1] * q ** (2 * n - 4) + [q ** (n - 2)] * (q - 1)
            if n == 2:
                expected = [1] * q  # the degenerate abelian case
            if degrees != sorted(expected):
                ok = False
            # superclasses coincide with conjugacy classes
            o = Oracle(G)
            if not np.array_equal(
                o.superclass_partition().canonical_codes(),
                o.conjugacy_partition().canonical_codes(),
            ):
                ok = False
    _report(3, "Heisenberg closed form, irreducibility, and character census", ok, started)


def test_criterion_04_full_triangular_specialization():
    started = time.time()
    ok = True
    for q in (2, 3):
        G = PatternGroup(full_triangular(4), Fq.of(q))
        chars = G.all_coorbit_reps()
        classes = G.all_orbit_reps()
        for ch, ev in zip(chars, CharacterEvaluator.batch(G, [ch.rep for ch in chars])):
            supp = support(G.J, ch.rep)
            if ev.corank != sum(k - i - 1 for i, k in supp):
                ok = False
            if ev.corank != rank(G.dual_right_action_matrix(ch.rep)):
                ok = False
            for cl in classes:
                if ev.value(cl.rep) != value_un(G, ch.rep, cl.rep):
                    ok = False
    _report(4, "full triangular monomial specialization and corank formula", ok, started)


def test_criterion_05_cautionary_orbit_sizes():
    started = time.time()
    J = orbit_shape_poset()
    G = PatternGroup(J, Fq.of(3))
    x1 = functional(J, G.field, {(1, 3): 1, (1, 4): 1, (2, 3): 1, (2, 4): 1})
    x2 = functional(J, G.field, {(1, 3): 2, (1, 4): 1, (2, 3): 1, (2, 4): 1})
    ok = G.orbit(x1).size == 3 and G.orbit(x2).size == 9
    _report(5, "same-shape superclasses of sizes 3 and 9", ok, started)


def test_criterion_06_irreducibility_criteria():
    started = time.time()
    J = determinant_poset()
    F = Fq.of(3)
    G = PatternGroup(J, F)
    ok = True
    for a, b, c, d in itertools.product((1, 2), repeat=4):
        eta = functional(J, F, {(1, 4): a, (1, 5): b, (2, 4): c, (2, 5): d, (3, 6): 1})
        det_zero = F.sub(F.mul(d, a), F.mul(b, c)) == 0
        irr = is_irreducible(G, eta)
        # norm cross-check: <chi, chi> = q^(2 corank) / |coorbit| must be 1
        norm_one = G.coorbit(eta).size == F.q ** (2 * G.corank(eta))
        if irr != det_zero or norm_one != irr:
            ok = False
    # the class-side counterexample: a single conjugacy class regardless of
    # the failed sufficient condition
    Jc = class_counterexample_poset()
    Gc = PatternGroup(Jc, Fq.of(2))
    phi = functional(Jc, Gc.field, {(1, 2): 1, (2, 4): 1, (3, 5): 1})
    o = Oracle(Gc)
    sc, conj = o.superclass_partition(), o.conjugacy_partition()
    if sc.sizes[sc.class_of(phi)] != conj.sizes[conj.class_of(phi)]:
        ok = False
    _report(6, "determinant irreducibility criterion and class counterexample", ok, started)


def _gram(oracle, V, sizes):
    """|G| <chi_a, chi_b> for rows given as (p-1, R, C) cyclotomic coefficients."""
    p = oracle.field.p
    R = V.shape[1]
    s = np.asarray(sizes, dtype=np.int64)
    buckets = np.zeros((p, R, R), dtype=np.int64)
    for i in range(p - 1):
        for j in range(p - 1):
            buckets[(i - j) % p] += (V[i] * s) @ V[j].T
    return buckets[: p - 1] - buckets[p - 1]


def test_criterion_07_orthogonality():
    started = time.time()
    ok = True
    for entry in corpus():
        for q in entry.qs:
            F = Fq.of(q)
            G = PatternGroup(entry.J, F)
            if G.order() > DEFAULT_ORACLE_CAP:
                continue
            oracle = Oracle(G)
            sc = oracle.superclass_partition()
            co = oracle.coorbit_partition()
            digits = np.array([list(r) for r in sc.reps], dtype=np.int64).reshape(
                len(sc.reps), len(entry.J)
            )
            gram = _gram(oracle, oracle.value_rows(co.reps, digits), sc.sizes)
            coranks = np.array([G.corank(eta) for eta in co.reps], dtype=np.int64)
            # gram[:, a, b] * |coorbit a| is q^(2 corank a) |G| on the diagonal's
            # constant coefficient and zero everywhere else
            got = gram * np.array(co.sizes, dtype=np.int64)[:, None]
            expected = np.zeros_like(got)
            np.fill_diagonal(expected[0], F.q ** (2 * coranks) * G.order())
            if not np.array_equal(got, expected):
                ok = False
    _report(7, "orbit-sum inner products are delta * q^(2 corank) / |coorbit|", ok, started)


def test_criterion_08_value_shape():
    started = time.time()
    ok = True
    for entry in corpus():
        for q in entry.qs:
            F = Fq.of(q)
            G = PatternGroup(entry.J, F)
            if G.order() > DEFAULT_ORACLE_CAP:
                continue
            for row in _table_rows(G, G.all_coorbit_reps(), G.all_orbit_reps()):
                for v in row:
                    if v.is_zero:
                        continue
                    # nonzero values factor as q^m * zeta_p^k with m >= 0
                    if v.q_exp < 0 or not (0 <= v.zeta_exp < F.p):
                        ok = False
                    if F.p == 2 and v.as_int(F) is None:
                        ok = False
    _report(8, "every nonzero value factors as q^m times a p-th root of unity", ok, started)


def test_criterion_09_structural_properties():
    started = time.time()
    import random

    rng = random.Random(17)
    ok = True
    for entry in corpus():
        for q in entry.qs:
            F = Fq.of(q)
            G = PatternGroup(entry.J, F)
            if G.order() > DEFAULT_ORACLE_CAP:
                continue
            classes = G.all_orbit_reps()
            chars = G.all_coorbit_reps()
            if len(classes) != len(chars):
                ok = False
            if sum(o.size for o in classes) != G.order():
                ok = False
            if sum(o.size for o in chars) != G.order():
                ok = False
            d = len(entry.J)
            for _ in range(10):
                phi = tuple(rng.randrange(q) for _ in range(d))
                eta = tuple(rng.randrange(q) for _ in range(d))
                if G.orbit_right(phi).size != q ** rank(G.right_action_matrix(phi)):
                    ok = False
                if G.orbit_left(phi).size != q ** rank(G.left_action_matrix(phi)):
                    ok = False
                rl = rank(G.dual_left_action_matrix(eta))
                rr = rank(G.dual_right_action_matrix(eta))
                if rl != rr:
                    ok = False
                if G.coorbit_right(eta).size != q ** rl:
                    ok = False
                if G.coorbit_left(eta).size != q ** rl:
                    ok = False
    _report(9, "orbit counts, size sums, and one-sided q^rank laws", ok, started)


def test_criterion_10_table_determinism(tmp_path):
    started = time.time()
    ok = True
    for spec in sorted(DATA.glob("*.txt")):
        for fmt in ("json", "csv", "pretty"):
            outputs = []
            for run in (1, 2):
                out = tmp_path / f"{spec.stem}_{run}.{fmt}"
                code = main(["table", str(spec), "--format", fmt, "--out", str(out)])
                if code != 0:
                    ok = False
                outputs.append(out.read_bytes())
            if outputs[0] != outputs[1]:
                ok = False
    _report(10, "table emission is byte-identical across separate runs", ok, started)
