"""Brute-force superclasses, orbit sums, inner products, and axiom checks."""

import itertools
import random
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_poset import _random_closed

from superchar.catalog import (
    class_counterexample_poset,
    full_triangular,
    heisenberg,
    semidirect_algebra,
    sixteen_group,
    SIXTEEN_CLASS_MEMBERS,
    SIXTEEN_TABLE,
)
from superchar import oracle as oracle_module
from superchar.core import OrbitPartition, PatternGroup, _bfs
from superchar.errors import SizeCapExceeded, SpecMismatch
from superchar.formula import CharacterEvaluator
from superchar.gf import CycInt, Fq, theta
from superchar import formula
from superchar.oracle import Oracle, _dense_product, full_check
from superchar.poset import functional, validate_closed

F2 = Fq.of(2)
F3 = Fq.of(3)


def test_trivial_supercharacter_is_constant_one():
    G = PatternGroup(heisenberg(4), F2)
    o = Oracle(G)
    values = o.supercharacter(G.zero())
    assert all(v == CycInt.integer(2, 1) for v in values.values())


def test_pattern_groups_get_the_dense_backend():
    # a PatternGroup is a StructureAlgebra too; the oracle must still build its
    # actions from dense matrix products, not from the structure constants it checks
    G = PatternGroup(full_triangular(4), F2)

    def moves():
        b = Oracle(G).backend
        return (b.mult_left, b.mult_right, b.dual_left, b.dual_right, b.conj)

    before = moves()
    G.constants = {}
    assert moves() == before


@pytest.mark.parametrize(
    "J, q",
    [(full_triangular(4), 3), (heisenberg(5), 4), (_random_closed(random.Random(7), 6), 3)],
    ids=["u4_q3", "heisenberg5_q4", "random6_q3"],
)
def test_dense_product_is_the_matrix_product(J, q):
    # the backend only ever multiplies single-entry vectors; here both
    # factors have several nonzero entries, against X_u X_v written out
    F = Fq.of(q)
    product = _dense_product(PatternGroup(J, F))
    rng = random.Random(q)
    n = J.n

    def matrix(f):
        M = [[0] * (n + 1) for _ in range(n + 1)]
        for (i, j), x in zip(J.order, f):
            M[i][j] = x
        return M

    for _ in range(40):
        u, v = (tuple(rng.randrange(q) for _ in J.order) for _ in range(2))
        X, Y = matrix(u), matrix(v)
        expected = []
        for i, k in J.order:
            acc = 0
            for j in range(1, n + 1):
                acc = F.add(acc, F.mul(X[i][j], Y[j][k]))
            expected.append(acc)
        assert product(u, v) == tuple(expected)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.sampled_from((2, 3, 4)))
def test_full_check_on_random_closed_sets(seed, n, q):
    J = _random_closed(random.Random(seed), n)
    assume(q ** len(J) <= 1 << 10)
    report = full_check(PatternGroup(J, Fq.of(q)))
    assert report.ok, list(report.lines())


def test_oracle_matches_formula_heisenberg3_q3():
    G = PatternGroup(heisenberg(3), F3)
    o = Oracle(G)
    for ch in G.all_coorbit_reps():
        ev = CharacterEvaluator(G, ch.rep)
        for rep, cyc in o.supercharacter(ch.rep).items():
            assert cyc == ev.value(rep).to_cyc(F3)


def test_sixteen_group_chi_z_row_matches_printed_table():
    alg = sixteen_group()
    o = Oracle(alg)
    part = o.superclass_partition()
    values = o.supercharacter((0, 0, 0, 1))  # the degree-4 character
    for name, member in SIXTEEN_CLASS_MEMBERS.items():
        rep = part.reps[part.class_of(member)]
        expected = SIXTEEN_TABLE["chi_z"][name]
        assert values[rep] == CycInt.integer(2, expected)


def test_conjugacy_classes_abelian_are_singletons():
    J = validate_closed(4, {(1, 2), (3, 4)})  # no chains: abelian group
    o = Oracle(PatternGroup(J, F3))
    conj = o.conjugacy_partition()
    assert all(s == 1 for s in conj.sizes)
    assert len(conj) == 9  # q ** |J|


def test_class_counterexample_orbit_is_a_single_class():
    J = class_counterexample_poset()
    G = PatternGroup(J, F2)
    phi = functional(J, F2, {(1, 2): 1, (2, 4): 1, (3, 5): 1})
    o = Oracle(G)
    sc = o.superclass_partition()
    conj = o.conjugacy_partition()
    assert sc.sizes[sc.class_of(phi)] == conj.sizes[conj.class_of(phi)]


def test_heisenberg4_q2_superclasses_are_conjugacy_classes():
    G = PatternGroup(heisenberg(4), F2)
    o = Oracle(G)
    sc = o.superclass_partition()
    conj = o.conjugacy_partition()
    assert len(conj) == 17  # q + (q^(2n-4) - 1) center cosets
    assert np.array_equal(sc.canonical_codes(), conj.canonical_codes())


def test_inner_product_examples():
    alg = sixteen_group()
    o = Oracle(alg)
    ones = [CycInt.integer(2, 1)] * 16
    acc, order = o.inner_product(ones, ones)
    assert acc == CycInt.integer(2, 16) and order == 16  # <1, 1> = 1

    part = o.superclass_partition()
    chi_z = o.supercharacter((0, 0, 0, 1))
    dense = [chi_z[part.reps[part.class_of(part.decode(c))]] for c in range(16)]
    acc, order = o.inner_product(dense, dense)
    assert acc == CycInt.integer(2, 32)  # <chi_z, chi_z> = 2


def test_supercharacters_are_orthogonal_small():
    G = PatternGroup(full_triangular(3), F3)
    o = Oracle(G)
    part = o.superclass_partition()
    chars = G.all_coorbit_reps()
    dense_rows = []
    for ch in chars:
        table = o.supercharacter(ch.rep)
        dense_rows.append(
            [table[part.reps[part.class_of(part.decode(c))]] for c in range(G.order())]
        )
    for a, ch_a in enumerate(chars):
        for b in range(len(chars)):
            acc, order = o.inner_product(dense_rows[a], dense_rows[b])
            if a == b:
                c = G.corank(ch_a.rep)
                expected = order * F3.q ** (2 * c) // G.coorbit(ch_a.rep).size
                assert acc == CycInt.integer(3, expected)
            else:
                assert not acc


def test_verify_axioms_passes_on_small_corpus():
    for J, q in (
        (heisenberg(4), 2),
        (heisenberg(3), 3),
        (full_triangular(3), 2),
        (class_counterexample_poset(), 2),
    ):
        o = Oracle(PatternGroup(J, Fq.of(q)))
        report = o.verify_axioms()
        assert report.all_ok, list(report.lines())


@pytest.mark.parametrize("name, q", [("full_u4", 2), ("heisenberg4", 3), ("full_u3", 4), ("semidirect4", 3)])
def test_coorbit_partition_groups_are_the_coorbits(name, q):
    # the axiom check sums over the partition's element groups instead of
    # enumerating each co-orbit again; both must give the same rows
    o = Oracle(_SOURCES[name](Fq.of(q)))
    reps = o.superclass_partition().reps
    digits = np.array(reps, dtype=np.int64).reshape(len(reps), o.dim)
    co = o.coorbit_partition()
    for k, eta in enumerate(co.reps):
        grouped = o.value_row(eta, digits, elements=co.elements_digits(k))
        assert np.array_equal(grouped, o.value_row(eta, digits))
    # the check passes on the superclasses and fails on a wrong partition
    assert o._check_constancy(o.superclass_partition(), co)
    assert not o._check_constancy(co, co)


def test_full_u3_counts():
    o = Oracle(PatternGroup(full_triangular(3), F2))
    assert len(o.superclass_partition()) == 5
    assert len(o.coorbit_partition()) == 5


def test_oracle_cap():
    with pytest.raises(SizeCapExceeded):
        Oracle(PatternGroup(full_triangular(4), F3), cap=100)


def test_fourier_completeness_and_regular_grouping():
    for J, q in ((heisenberg(3), 3), (full_triangular(3), 2)):
        F = Fq.of(q)
        G = PatternGroup(J, F)
        o = Oracle(G)
        d = len(J)
        part = o.superclass_partition()
        # sum over all functionals of theta(lambda_eta(X_phi)) is |G| at phi = 0,
        # and 0 elsewhere
        for k, phi in enumerate(part.reps):
            total = CycInt.zero(F.p)
            for code in range(G.order()):
                mu = part.decode(code)
                total = total + theta(F, F.dot(mu, phi)).to_cyc(F)
            expected = CycInt.integer(F.p, G.order()) if not any(phi) else CycInt.zero(F.p)
            assert total == expected
        # the same identity grouped over co-orbits with weights |O^eta| / |lambda U|
        for k, phi in enumerate(part.reps):
            total = CycInt.zero(F.p)
            for ch in G.all_coorbit_reps():
                weight = ch.size // o.right_coorbit_size(ch.rep)
                val = o.supercharacter(ch.rep)[phi]
                total = total + val * weight
            expected = CycInt.integer(F.p, G.order()) if not any(phi) else CycInt.zero(F.p)
            assert total == expected


def test_full_check_passes_on_pattern_and_algebra():
    rep = full_check(PatternGroup(heisenberg(4), F3))
    assert rep.ok and rep.classes == 83
    rep = full_check(sixteen_group())
    assert rep.ok and rep.classes == 7


def test_full_check_sweeps_each_orbit_space_once(monkeypatch):
    # superclasses, co-orbits, right co-orbits and conjugacy classes are each
    # swept once; every co-orbit and right co-orbit size is a lookup, not a BFS
    calls = {"sweep": 0, "bfs": 0}
    sweep = oracle_module.orbit_partition_from_moves

    def counted_sweep(*args):
        calls["sweep"] += 1
        return sweep(*args)

    def counted_bfs(*args):
        calls["bfs"] += 1
        return _bfs(*args)

    monkeypatch.setattr(oracle_module, "orbit_partition_from_moves", counted_sweep)
    monkeypatch.setattr(oracle_module, "_bfs", counted_bfs, raising=False)
    report = full_check(PatternGroup(heisenberg(4), F3), with_axioms=True)
    assert report.ok and report.axioms is not None
    assert calls == {"sweep": 4, "bfs": 0}


@pytest.mark.parametrize("eta", [(0, 1), (0, 1, 0, 0), (0, 2, 0), (0, -1, 0)])
def test_functionals_outside_the_space_are_rejected(eta):
    o = Oracle(PatternGroup(full_triangular(3), F2))
    digits = np.zeros((1, 3), dtype=np.int64)
    for lookup in (
        o.coorbit_partition().class_of,
        o.right_coorbit_size,
        o.coorbit_elements,
        lambda f: o.value_row(f, digits),
    ):
        with pytest.raises(SpecMismatch):
            lookup(eta)


def test_full_check_reports_disagreeing_coorbit_partitions(monkeypatch):
    # core's co-orbits replaced by its superclasses: the partitions differ, and
    # the oracle still sums each character over its own co-orbit of eta
    monkeypatch.setattr(PatternGroup, "coorbit_partition", PatternGroup.orbit_partition)
    report = full_check(PatternGroup(full_triangular(4), F2))
    assert not report.partitions_match and not report.ok
    assert report.values_match and report.characters == 15
    assert "FAIL: orbit partitions agree" in list(report.lines())


def _flip_zetas(monkeypatch, flipped):
    """Make formula.value_blocks flip the zeta exponent of each (character,
    class) in ``flipped``, a dict from character to class index."""
    value_blocks = formula.value_blocks

    def flip_one_zeta(evaluators, digits):
        zero, q_exp, zeta_exp = value_blocks(evaluators, digits)
        for i, ev in enumerate(evaluators):
            if ev.eta in flipped:
                c = flipped[ev.eta]
                zero[i, c] = False
                zeta_exp[i, c] = (zeta_exp[i, c] + 1) % 3
        return zero, q_exp, zeta_exp

    monkeypatch.setattr(formula, "value_blocks", flip_one_zeta)


def test_full_check_counts_every_mismatching_cell(monkeypatch):
    G = PatternGroup(heisenberg(4), F3)
    etas = G.coorbit_partition().reps
    _flip_zetas(monkeypatch, {etas[1]: 0, etas[-1]: 5})
    monkeypatch.setattr(formula, "_ROW_CELLS", 2 * 83)  # two rows per chunk
    report = full_check(G)
    assert report.partitions_match and not report.values_match and not report.ok
    assert report.mismatches == 2
    eta, phi, _, _ = report.witness
    assert eta == etas[1] and phi == G.orbit_partition().reps[0]
    assert "2 mismatching cells" in "\n".join(report.lines())


def test_full_check_witness_is_the_first_cell_in_eta_order(monkeypatch):
    # both mismatches in one chunk of rows: the witness is the earlier
    # character's, although the later one's class comes first
    G = PatternGroup(heisenberg(4), F3)
    etas = G.coorbit_partition().reps
    _flip_zetas(monkeypatch, {etas[1]: 5, etas[2]: 0})
    report = full_check(G, with_axioms=False)
    assert report.mismatches == 2
    eta, phi, _, _ = report.witness
    assert eta == etas[1] and phi == G.orbit_partition().reps[5]


_SOURCES = {
    "full_u3": lambda F: PatternGroup(full_triangular(3), F),
    "full_u4": lambda F: PatternGroup(full_triangular(4), F),
    "heisenberg3": lambda F: PatternGroup(heisenberg(3), F),
    "heisenberg4": lambda F: PatternGroup(heisenberg(4), F),
    "semidirect4": lambda F: semidirect_algebra(4, F),
    "sixteen": lambda F: sixteen_group(),
    "random6": lambda F: PatternGroup(_random_closed(random.Random(8), 5), F),  # |J| = 6
}


@pytest.mark.parametrize(
    "name, q",
    [("full_u3", q) for q in (4, 8, 9, 16)]
    + [("heisenberg3", 9), ("heisenberg4", 4), ("full_u4", 4), ("semidirect4", 4)],
)
def test_full_check_passes_over_extension_fields(name, q):
    report = full_check(_SOURCES[name](Fq.of(q)))
    assert report.ok, list(report.lines())


@pytest.mark.parametrize("q", [46349, 65521])
def test_value_row_is_exact_past_int32(q):
    # dim * r * (p - 1)**2 passes 2**31 from p = 46349 on; three
    # representatives, since counts over all q classes would take gigabytes
    o = Oracle(PatternGroup(validate_closed(2, {(1, 2)}), Fq.of(q)), cap=1 << 17)
    eta, reps = q - 1, (1, 2, q - 1)
    row = o.value_row((eta,), np.array(reps, dtype=np.int64).reshape(3, 1))
    for c, phi in enumerate(reps):
        assert CycInt(q, tuple(int(x) for x in row[:, c])) == CycInt.root(q, eta * phi)


def test_orbit_sums_past_the_coefficient_budget_raise_before_allocating():
    # one row over all q classes of the one-pair set would hold p * q int64
    # coefficients, about 34 GB, in each of two arrays
    o = Oracle(PatternGroup(validate_closed(2, {(1, 2)}), Fq.of(65521)), cap=1 << 17)
    started = time.perf_counter()
    with pytest.raises(SizeCapExceeded):
        o.supercharacter((1,))
    assert time.perf_counter() - started < 10


def test_full_check_splits_its_rows_to_the_coefficient_budget(monkeypatch):
    # U_3(3): 27 elements, 11 classes; a budget of two constancy rows is
    # four rows of the formula check, and one below a row raises
    G = PatternGroup(full_triangular(3), F3)
    budget = 3 * G.order() * 2
    held = []
    orbit_sums = Oracle._orbit_sums

    def recorded(self, members, starts, sizes, nright, phi):
        held.append(self.field.p * len(sizes) * phi.shape[1])
        return orbit_sums(self, members, starts, sizes, nright, phi)

    monkeypatch.setattr(Oracle, "_orbit_sums", recorded)
    monkeypatch.setattr(oracle_module, "_COEFF_CELLS", budget)
    report = full_check(G)
    assert report.ok and report.axioms is not None and report.classes == 11
    assert max(held) == budget and 3 * 4 * 11 in held
    monkeypatch.setattr(oracle_module, "_COEFF_CELLS", 3 * 11 - 1)
    with pytest.raises(SizeCapExceeded):
        full_check(G)


def _scaled_orbit_sums(o, eta, reps):
    """The reference values of chi^eta at reps: the orbit sum of theta(mu . phi)
    over the co-orbit, one CycInt term per member, scaled by |lambda U| /
    |U lambda U|; both orbits come from a BFS over the backend's moves, not
    from the sweeps."""
    F, b = o.field, o.backend
    members = _bfs(F, eta, b.dual_left + b.dual_right)
    scale = len(_bfs(F, eta, b.dual_right))
    out = []
    for phi in reps:
        total = CycInt.zero(F.p)
        for mu in members:
            total = total + theta(F, F.dot(mu, phi)).to_cyc(F)
        scaled = total * scale
        assert all(x % len(members) == 0 for x in scaled.coeffs)
        out.append(CycInt(F.p, tuple(x // len(members) for x in scaled.coeffs)))
    return out


@pytest.mark.parametrize("name, q", [("full_u3", 4), ("full_u3", 8), ("semidirect4", 4)])
def test_value_row_is_the_scaled_orbit_sum(name, q):
    F = Fq.of(q)
    o = Oracle(_SOURCES[name](F))
    reps = o.superclass_partition().reps
    digits = np.array(reps, dtype=np.int64).reshape(len(reps), o.dim)
    for eta in o.coorbit_partition().reps:
        row = o.value_row(eta, digits)
        for c, expected in enumerate(_scaled_orbit_sums(o, eta, reps)):
            assert CycInt(F.p, tuple(int(x) for x in row[:, c])) == expected


@pytest.mark.parametrize("per_block", [1, 3])
@pytest.mark.parametrize(
    "name, q",
    [("random6", 3), ("semidirect4", 4), ("sixteen", 2), ("full_u3", 4), ("full_u3", 8), ("full_u3", 9)],
)
def test_value_rows_across_block_boundaries(name, q, per_block, monkeypatch):
    # a budget of per_block members per block: rows of one co-orbit size
    # straddle blocks, and every larger co-orbit is split along its members
    F = Fq.of(q)
    o = Oracle(_SOURCES[name](F))
    reps = o.superclass_partition().reps
    monkeypatch.setattr(oracle_module, "_BLOCK_CELLS", per_block * len(reps))
    digits = np.array(reps, dtype=np.int64).reshape(len(reps), o.dim)
    etas = o.coorbit_partition().reps
    assert max(o.coorbit_partition().sizes) > per_block
    rows = o.value_rows(etas, digits)
    for i, eta in enumerate(etas):
        for c, expected in enumerate(_scaled_orbit_sums(o, eta, reps)):
            assert CycInt(F.p, tuple(int(x) for x in rows[:, i, c])) == expected


def test_constancy_check_reads_the_last_block(monkeypatch):
    # blocks of five characters over U_4(2): merging two superclasses that
    # only the last block's characters tell apart must fail the check
    o = Oracle(PatternGroup(full_triangular(4), F2))
    sc, co = o.superclass_partition(), o.coorbit_partition()
    digits = np.array(sc.reps, dtype=np.int64).reshape(len(sc), o.dim)
    table = o.value_rows(co.reps, digits)
    last = len(co) - 5
    assert last % 5 == 0
    a, b = next(
        (a, b)
        for a, b in itertools.combinations(range(len(sc)), 2)
        if np.array_equal(table[:, :last, a], table[:, :last, b])
        and not np.array_equal(table[:, :, a], table[:, :, b])
    )
    labels = sc.canonical_codes()
    labels[labels == sc.code(sc.reps[b])] = sc.code(sc.reps[a])
    rep_codes, sizes = np.unique(labels, return_counts=True)
    merged = OrbitPartition(o.field, o.dim, rep_codes, tuple(sizes), labels)
    monkeypatch.setattr(oracle_module, "_BLOCK_CELLS", 5 * o.order)
    assert o._check_constancy(sc, co)
    assert not o._check_constancy(merged, co)
