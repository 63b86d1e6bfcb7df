"""Brute-force superclasses, orbit sums, inner products, and axiom checks."""

import ast
import itertools
import random
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from backend_reference import reference_moves
from compare_reference import reference_verdict
from orbit_closure import bfs
from test_algebra import _random_matrix_algebra
from test_poset import _random_closed

from superchar.catalog import (
    class_counterexample_poset,
    corpus,
    full_triangular,
    heisenberg,
    orbit_shape_poset,
    semidirect_algebra,
    sixteen_group,
    SIXTEEN_CLASS_MEMBERS,
    SIXTEEN_TABLE,
    two_step_poset,
)
from superchar import core, gf, oracle as oracle_module
from superchar.cli import main
from superchar.core import OrbitPartition, PatternGroup
from superchar.errors import InternalInvariantViolation, NonIntegralScaling, SizeCapExceeded, SpecMismatch
from superchar.formula import CharacterEvaluator, un_monomials
from superchar.gf import CharValue, CycInt, Fq, theta
from superchar import formula
from superchar.oracle import Backend, Oracle, _dense_product, _Expected, charvalue_coeff_rows, full_check
from superchar.poset import emit_spec, functional, validate_closed

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


def _backend_sources():
    """(name, source): every corpus set at q = 2, 3, U_3 over F_4, F_8 and
    F_9, the semidirect algebras at q = 2, 3, 4, the group of order 16, and
    the seeded matrix algebras with structure constants other than 1."""
    for q in (2, 3):
        for entry in corpus():
            yield f"{entry.name}_q{q}", PatternGroup(entry.J, Fq.of(q))
    for q in (4, 8, 9):
        yield f"full_u3_q{q}", PatternGroup(full_triangular(3), Fq.of(q))
    for n in (4, 5, 6):
        for q in (2, 3, 4):
            yield f"semidirect{n}_q{q}", semidirect_algebra(n, Fq.of(q))
    yield "sixteen", sixteen_group()
    for seed in range(60):
        alg = _random_matrix_algebra(seed)
        if alg is not None:
            yield f"matrix_algebra_{seed}", alg


def test_backend_moves_equal_the_per_generator_reference():
    """The moves read off the basis-pair table equal, tuple for tuple and in
    order, the moves of fresh whole-vector products per generator."""
    checked = []
    for name, source in _backend_sources():
        product = _dense_product(source) if isinstance(source, PatternGroup) else source.product
        backend = Backend(source.field, source.dim, product)
        moves = (backend.mult_left, backend.mult_right, backend.dual_left, backend.dual_right, backend.conj)
        assert moves == reference_moves(source.field, source.dim, product), name
        checked.append(name)
    assert len(checked) > 40 and sum(name.startswith("matrix_algebra") for name in checked) >= 8


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
    with pytest.raises(SizeCapExceeded, match="^729 group elements to enumerate exceed the cap of 100$"):
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
        return bfs(*args)

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


def _scalar_orbit(G, eta):
    """The representatives of the co-orbits of t * eta, t in F_q^*, from
    field products and core's co-orbit lookup, one scalar at a time."""
    F, co = G.field, G.coorbit_partition()
    return {co.reps[co.class_of([F.mul(t, x) for x in eta])] for t in range(1, F.q)}


def _scalar_sources(G):
    """The characters the value kernels evaluate: the least of each orbit of
    co-orbit representatives under F_q^*, ascending.  Every other row of a
    table is filled from its orbit's source."""
    return [eta for eta in G.coorbit_partition().reps if eta == min(_scalar_orbit(G, eta))]


def _flip_zetas(monkeypatch, flipped):
    """Make formula._value_blocks flip the zeta exponent of each (character,
    class) in ``flipped``, a dict from character to class index: its codes
    read back, mutated and encoded again.  The kernel sees only source
    characters (:func:`_scalar_sources`), so the flip reaches every row of
    the source's scalar orbit, at one class each."""
    value_blocks = formula._value_blocks

    def flip_one_zeta(evaluators, digits):
        p = evaluators.field.p
        zero, q_exp, zeta_exp = gf.cell_exponents(value_blocks(evaluators, digits), p)
        for i, ev in enumerate(evaluators):
            if ev.eta in flipped:
                c = flipped[ev.eta]
                zero[i, c] = False
                zeta_exp[i, c] = (zeta_exp[i, c] + 1) % p
        return gf.cell_codes(zero, q_exp, zeta_exp, p, evaluators.source.dim)

    monkeypatch.setattr(formula, "_value_blocks", flip_one_zeta)


def test_full_check_counts_every_mismatching_cell(monkeypatch):
    # a flipped cell of a source reaches both rows of its free orbit under
    # F_3^* = {1, 2}: the source's cell, and the cell of the class of 2 phi in
    # the other row; at phi = 0 that is class 0 again
    G = PatternGroup(heisenberg(4), F3)
    sources = _scalar_sources(G)
    assert len(_scalar_orbit(G, sources[1])) == len(_scalar_orbit(G, sources[-1])) == 2
    _flip_zetas(monkeypatch, {sources[1]: 0, sources[-1]: 5})
    monkeypatch.setattr(formula, "_ORBIT_CELLS", 2 * 83)  # two rows per chunk
    report = full_check(G)
    assert report.partitions_match and not report.values_match and not report.ok
    assert report.mismatches == 4
    eta, phi, _, _ = report.witness
    assert eta == sources[1] and phi == G.orbit_partition().reps[0]
    assert "4 mismatching cells" in "\n".join(report.lines())


def test_full_check_witness_is_the_first_cell_in_eta_order(monkeypatch):
    # four mismatches in one chunk of rows, two per free orbit: the witness
    # is the earliest character's, although a later one's class comes first
    G = PatternGroup(heisenberg(4), F3)
    sources = _scalar_sources(G)
    assert len(_scalar_orbit(G, sources[1])) == len(_scalar_orbit(G, sources[2])) == 2
    _flip_zetas(monkeypatch, {sources[1]: 5, sources[2]: 0})
    report = full_check(G, with_axioms=False)
    assert report.mismatches == 4
    eta, phi, _, _ = report.witness
    assert eta == sources[1] and phi == G.orbit_partition().reps[5]


@pytest.mark.parametrize("name, q", [("heisenberg4", 3), ("full_u4", 3), ("semidirect4", 5), ("full_u3", 9)])
def test_full_check_judges_the_rows_filled_from_a_source(name, q, monkeypatch):
    """One cell of a row that no kernel evaluated, changed after the fill
    from its scalar orbit's source, is one mismatch, and the witness: the
    last row off a source, at its last class."""
    G = _SOURCES[name](Fq.of(q))
    p, last = G.field.p, G.coorbit_partition().reps[-1]
    assert last not in _scalar_sources(G)
    orbit_rows = formula._orbit_rows

    def corrupted(*args):
        rows, coranks, codes = orbit_rows(*args)
        if len(G.coorbit_partition()) - 1 in rows:
            zero, q_exp, zeta_exp = gf.cell_exponents(codes, p)
            zero[-1, -1], zeta_exp[-1, -1] = False, zeta_exp[-1, -1] + 1
            codes = gf.cell_codes(zero, q_exp, zeta_exp, p, G.dim)
        return rows, coranks, codes

    monkeypatch.setattr(formula, "_orbit_rows", corrupted)
    report = full_check(G, with_axioms=False)
    assert report.partitions_match and report.mismatches == 1
    assert report.witness[:2] == (last, G.orbit_partition().reps[-1])
    assert (report.mismatches, report.witness) == reference_verdict(G)


def _patch_scalar(monkeypatch, wrong):
    """Route the oracle's map of the scalar g, the first of its code maps
    at p > 2, through ``wrong(codes, scale)``, scale(codes, n) the right
    map of the codes of F_q**n."""
    code_maps = oracle_module._code_maps

    def patched(times, to, q, dim):
        images = code_maps(times, to, q, dim)
        scale = lambda codes, n: code_maps(times[:1, :n], np.arange(n)[None], q, n)(codes)[0]  # noqa: E731
        return lambda codes: np.concatenate([wrong(np.asarray(codes), scale)[None], images(codes)[1:]])

    monkeypatch.setattr(oracle_module, "_code_maps", patched)


@pytest.mark.parametrize("wrong", ["scales_codes_ending_in_0", "scales_the_low_half"])
def test_full_check_fails_loudly_on_a_wrong_scalar_map(wrong, monkeypatch):
    """The oracle relabels a source's residue counts for the row t times it
    only after its own sweep confirms that t maps the source co-orbit onto
    the row's.  A map that scales the representatives of H_4(3) (whose last
    digit is 0) and no other member fails that check; one that scales the
    low half of the digits alone maps co-orbits onto co-orbits, as a
    diagonal automorphism does, but not residue k to t k, and the relabelled
    counts mismatch."""
    G = PatternGroup(heisenberg(4), F3)
    q, n = G.field.q, G.dim

    def mapped(codes, scale):
        if wrong == "scales_codes_ending_in_0":
            return np.where(codes % q == 0, scale(codes, n), codes)
        low = q ** (n // 2)
        return scale(codes % low, n // 2) + codes // low * low

    _patch_scalar(monkeypatch, mapped)
    if wrong == "scales_codes_ending_in_0":
        with pytest.raises(InternalInvariantViolation, match="is no co-orbit of the sweep"):
            full_check(G, with_axioms=False)
    else:
        report = full_check(G, with_axioms=False)
        assert report.partitions_match and not report.values_match and report.mismatches > 0


def test_a_scalar_map_wrong_on_one_member_off_the_representatives_fails_loudly(monkeypatch):
    """The generator of F_p^* is checked on every member of every co-orbit,
    not on the representatives alone: a map that sends one member of a
    co-orbit of several members to 0, and is right everywhere else, raises."""
    G = PatternGroup(heisenberg(4), F3)
    co = Oracle(G).coorbit_partition()
    codes, bounds = co.members
    k = next(k for k, size in enumerate(co.sizes) if size > 1)
    member = codes[bounds[k] + 1]  # not the least member, the representative
    _patch_scalar(monkeypatch, lambda codes, scale: np.where(codes == member, 0, scale(codes, G.dim)))
    with pytest.raises(InternalInvariantViolation, match="is no co-orbit of the sweep"):
        full_check(G, with_axioms=False)


def test_a_scalar_map_onto_a_co_orbit_of_another_size_fails_loudly(monkeypatch):
    """g must map each co-orbit onto one of the same size: a map that sends
    every member of one co-orbit to the representative of a co-orbit of
    another size, and is right everywhere else, raises."""
    G = PatternGroup(heisenberg(4), F3)
    co = Oracle(G).coorbit_partition()
    codes, bounds = co.members
    k = next(k for k, size in enumerate(co.sizes) if size > 1)
    target = next(j for j, size in enumerate(co.sizes) if size != co.sizes[k])
    members, rep = codes[bounds[k] : bounds[k + 1]], codes[bounds[target]]
    _patch_scalar(monkeypatch, lambda codes, scale: np.where(np.isin(codes, members), rep, scale(codes, G.dim)))
    with pytest.raises(InternalInvariantViolation, match="a scalar multiple of a co-orbit differs from it in size"):
        full_check(G, with_axioms=False)


def test_value_rows_refuses_more_coefficients_than_one_call_holds(monkeypatch):
    """Between p x count and p x rows x count coefficients the residue
    tables fit, but the rows do not, and the counter raises before it
    allocates."""
    G = PatternGroup(full_triangular(3), F3)
    reps, etas = G.orbit_partition().digits, G.coorbit_partition().digits[:4]
    assert len(reps) == 11
    monkeypatch.setattr(oracle_module, "_COEFF_CELLS", 3 * 4 * 11 - 1)
    with pytest.raises(SizeCapExceeded, match="^132 orbit-sum coefficients exceed the cap of 131$"):
        Oracle(G).value_rows(etas, reps)


def _mutate_values(monkeypatch, mutation, targets, raise_q=(), un=False):
    """Make the value kernel apply ``mutation`` to every other cell it can
    take in the rows of the characters ``targets``, and add 1 to the
    q-exponent of every nonzero cell in the rows of ``raise_q``.  The
    kernel is formula._value_blocks, or with ``un`` formula.un_value_chunks,
    the one U_n tables take; its codes are read back, mutated and encoded
    again.  The kernel sees only source characters (:func:`_scalar_sources`)."""

    def mutate(G, etas, codes):
        zero, q_exp, zeta_exp = gf.cell_exponents(codes, G.field.p)
        for i, eta in enumerate(map(tuple, np.asarray(etas).tolist())):
            if eta in raise_q:
                q_exp[i][~zero[i]] += 1
            if eta not in targets or mutation == "none":
                continue
            cells = np.flatnonzero(zero[i] if mutation == "zero_to_nonzero" else ~zero[i])[::2]
            if mutation == "flip_zeta":
                zeta_exp[i, cells] = (zeta_exp[i, cells] + 1) % G.field.p
            elif mutation == "q_exp_to_dim":
                q_exp[i, cells] = G.d
            else:  # the zero mask flips; q_exp and zeta_exp stay as they were
                zero[i, cells] = mutation == "nonzero_to_zero"
        return gf.cell_codes(zero, q_exp, zeta_exp, G.field.p, G.dim)

    if un:
        un_value_chunks = formula.un_value_chunks

        def mutated_un(G, etas, phis):
            for start, codes in un_value_chunks(G, etas, phis):
                yield start, mutate(G, etas[start : start + len(codes)], codes)

        monkeypatch.setattr(formula, "un_value_chunks", mutated_un)
    else:
        value_blocks = formula._value_blocks
        monkeypatch.setattr(formula, "_value_blocks", lambda ev, digits: mutate(ev.source, ev.etas, value_blocks(ev, digits)))


@pytest.mark.parametrize("mutation", ["none", "flip_zeta", "q_exp_to_dim", "nonzero_to_zero", "zero_to_nonzero"])
@pytest.mark.parametrize("case", ["heisenberg4-3", "full_u4-2", "semidirect4-4", "factor-2"])
def test_full_check_verdict_equals_the_int64_reference(case, mutation, monkeypatch):
    """full_check compares in the domain of the oracle's narrow counters;
    the reference widens both sides to int64 coefficient rows.  Mutated
    cells of four characters, spread over co-orbits of different sizes
    (so over different counter blocks), must give the same count and the
    same first witness.  On U_4 the mutated kernel is the U_n one, which
    the table takes there.  In the factor case the zero character's right
    co-orbit size is doubled, so its block scales by factor 2, and its
    formula row by q = 2 to match, before the mutation."""
    name, q = case.split("-")
    G = _SOURCES[name if name != "factor" else "heisenberg4"](Fq.of(int(q)))
    etas = G.coorbit_partition().reps
    digits = np.array(G.orbit_partition().reps, dtype=np.int64).reshape(-1, G.dim)
    zero = formula.value_blocks(CharacterEvaluator.batch(G, etas), digits) == 0
    # the first, second, middle and last of the source characters with a cell to mutate
    sources = set(_scalar_sources(G))
    eligible = [eta for eta, row in zip(etas, zero) if eta in sources and (row if mutation == "zero_to_nonzero" else ~row).any()]
    targets = set(eligible[:2] + eligible[len(eligible) // 2 :][:1] + eligible[-1:])
    factors = []
    if name == "factor":
        zero = etas[0]
        assert not any(zero)
        runs, divided = Oracle._runs, oracle_module._divided

        def doubled(self, ks):  # co-orbit 0 is the zero character's
            members, starts, sizes, nright = runs(self, ks)
            return members, starts, sizes, np.where(ks > 0, nright, 2 * nright)

        monkeypatch.setattr(Oracle, "_runs", doubled)
        monkeypatch.setattr(oracle_module, "_divided", lambda *a: factors.append(divided(*a)[1]) or divided(*a))
    _mutate_values(monkeypatch, mutation, targets, raise_q={etas[0]} if name == "factor" else (), un=name == "full_u4")
    want = reference_verdict(G)
    assert (want == (0, None)) == (mutation == "none")
    report = full_check(G, with_axioms=False)
    assert (report.mismatches, report.witness) == want
    assert report.values_match == (mutation == "none")
    if name == "factor":
        assert 2 in factors


@pytest.mark.parametrize("n, q, cap", [(4, 2, None), (5, 3, 1 << 16)])
def test_full_check_judges_the_un_kernel_the_table_takes(n, q, cap, monkeypatch, capsys):
    """One corrupted cell of the U_n kernel, the degree of the last source
    character, is one mismatch per row of its scalar orbit, q - 1 of them,
    each at the zero class: full_check judges the rows the table emits, and
    superchar check exits 3."""
    G = PatternGroup(full_triangular(n), Fq.of(q))
    last = _scalar_sources(G)[-1]
    assert len(_scalar_orbit(G, last)) == q - 1
    un_value_chunks = formula.un_value_chunks

    def corrupted(G, etas, phis):
        for start, codes in un_value_chunks(G, etas, phis):
            zero, q_exp, zeta_exp = gf.cell_exponents(codes, q)
            for i, eta in enumerate(etas[start : start + len(codes)].tolist()):
                if tuple(eta) == last:
                    zeta_exp[i, 0] = (zeta_exp[i, 0] + 1) % q
            yield start, gf.cell_codes(zero, q_exp, zeta_exp, q, G.dim)

    monkeypatch.setattr(formula, "un_value_chunks", corrupted)
    report = full_check(G, oracle_cap=cap, with_axioms=False)
    assert report.partitions_match and not report.values_match and report.mismatches == q - 1
    assert report.witness[:2] == (last, G.zero())
    if cap is None:
        spec = Path(__file__).resolve().parents[1] / "src" / "superchar" / "data" / f"full_u{n}_q{q}.txt"
        assert main(["check", str(spec)]) == 3
        assert "FAIL: formula matches orbit sums" in capsys.readouterr().out


@pytest.mark.parametrize("count", ["size", "corank", "irreducible"])
def test_full_check_judges_the_arc_counts_the_table_takes(count, monkeypatch):
    """The class sizes, coranks and irreducibility flags of a U_n table
    come from un_arc_counts, not from the values: one wrong count of the
    last source monomial, whose corank and irreducibility flag its scalar
    orbit copies, fails "orbit partitions agree", with every value right."""
    G = PatternGroup(full_triangular(4), F3)
    arc_counts = formula.un_arc_counts
    last = [tuple(m) for m in un_monomials(G).tolist()].index(_scalar_sources(G)[-1])

    def wrong(G, monomials):
        counts = dict(zip(["size", "corank", "irreducible"], arc_counts(G, monomials)))
        counts[count][last] = not counts[count][last] if count == "irreducible" else counts[count][last] + 1
        return tuple(counts.values())

    assert full_check(G, with_axioms=False).ok
    monkeypatch.setattr(formula, "un_arc_counts", wrong)
    report = full_check(G, with_axioms=False)
    assert not report.partitions_match and report.values_match and not report.ok
    assert "FAIL: orbit partitions agree" in list(report.lines())


@pytest.mark.parametrize("J", [full_triangular(4), heisenberg(4)], ids=["U_4", "heisenberg4"])
def test_full_check_sweeps_each_core_partition_once(J, monkeypatch):
    """A check job sweeps core's superclasses and co-orbits once each: for
    the rows on any group but U_n, and for the label maps alone on U_n,
    whose rows need no sweep."""
    sweeps = []
    sweep = core.orbit_partition_from_moves
    monkeypatch.setattr(core, "orbit_partition_from_moves", lambda *args: sweeps.append(args) or sweep(*args))
    assert full_check(PatternGroup(J, F2), with_axioms=False).ok
    assert len(sweeps) == 2


@pytest.mark.parametrize("q_exp", [8])
def test_an_expected_value_past_the_counter_dtype_never_matches(q_exp):
    # class_counterexample at q = 2 (dim 9): a zero cell of a character
    # whose co-orbit has m <= 127 members, so its counters are int8, set to
    # q**8 = 256, which narrowed to int8 is 0, the oracle's value there
    G = PatternGroup(class_counterexample_poset(), F2)
    co = Oracle(G).coorbit_partition()
    etas, classes = G.coorbit_partition().reps, G.orbit_partition().reps
    digits = np.array(classes, dtype=np.int64).reshape(-1, G.dim)
    zero = formula.value_blocks(CharacterEvaluator.batch(G, etas), digits) == 0
    k = next(k for k, eta in enumerate(etas) if co.sizes[co.class_of(eta)] <= 127 and zero[k].any())
    c = int(np.flatnonzero(zero[k])[0])
    columns = _Expected(2, 2, G.dim).divided(1, np.dtype(np.int8))
    sentinels = gf.cell_codes([False] * 2, [q_exp] * 2, [0, 1], 2, G.dim)
    assert np.int64(2**8).astype(np.int8) == 0 and (columns[:, sentinels] == -128).all()

    value_blocks = formula._value_blocks

    def raised(evaluators, digits):
        zero, q_exp_, zeta_exp = gf.cell_exponents(value_blocks(evaluators, digits), 2)
        for i, eta in enumerate(map(tuple, evaluators.etas.tolist())):
            if eta == etas[k]:
                zero[i, c], q_exp_[i, c], zeta_exp[i, c] = False, q_exp, 0
        return gf.cell_codes(zero, q_exp_, zeta_exp, 2, G.dim)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(formula, "_value_blocks", raised)
        report = full_check(G, with_axioms=False)
        assert (report.mismatches, report.witness) == reference_verdict(G)
    assert report.mismatches == 1 and report.witness == (etas[k], classes[c], (2**q_exp,), (0,))


@pytest.mark.parametrize("q_exp", [4, 200])
def test_cell_codes_refuse_a_q_exponent_past_dim(q_exp):
    # dim 3, p = 2: a nonzero q**4 once took code 1 + 4 * 2 = 9, past the
    # largest value of the dimension, and q**200 wrapped in uint8 to code
    # 145, which reads as q**72; a zero cell's exponents are never read
    with pytest.raises(InternalInvariantViolation, match=f"q\\*\\*{q_exp} passes q\\*\\*3"):
        gf.cell_codes([False], [q_exp], [0], 2, 3)
    with pytest.raises(InternalInvariantViolation):
        gf.cell_codes([[True, False]], [[q_exp]], [[0, 0]], 2, 3)  # one exponent a row
    assert gf.cell_codes([True, False], [q_exp, 3], [1, 1], 2, 3).tolist() == [0, 8]


@pytest.mark.parametrize("command", ["table", "check"])
def test_a_kernel_q_exponent_past_dim_fails_table_and_check(command, monkeypatch, capsys):
    """A value kernel that hands out a q-exponent past dim (here the hard
    cells' solve) stops superchar table and superchar check with exit code
    1 and one error line, before any row is written or judged."""
    solve_hard = formula._solve_hard

    def past_dim(F, y, rows, cols, corank):
        zero, q_exp, zeta_exp = solve_hard(F, y, rows, cols, corank)
        return zero, q_exp + 200, zeta_exp

    monkeypatch.setattr(formula, "_solve_hard", past_dim)
    spec = Path(__file__).resolve().parents[1] / "src" / "superchar" / "data" / "class_counterexample_q2.txt"
    assert main([command, str(spec)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: a character value q**") and err.count("\n") == 1
    assert "Traceback" not in err


def test_a_zeta_exponent_past_p_is_read_mod_p(monkeypatch):
    # zeta**(z + p) = zeta**z: raising every zeta exponent by p changes no
    # value, and must neither wrap the narrow cell codes nor miss a match
    value_blocks = formula._value_blocks

    def raised(evaluators, digits):
        p = evaluators.field.p
        zero, q_exp, zeta_exp = gf.cell_exponents(value_blocks(evaluators, digits), p)
        zeta_exp[~zero] += p
        return gf.cell_codes(zero, q_exp, zeta_exp, p, evaluators.source.dim)

    monkeypatch.setattr(formula, "_value_blocks", raised)
    report = full_check(PatternGroup(heisenberg(4), F3), with_axioms=False)
    assert report.values_match and report.mismatches == 0

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
    residue_counts = Oracle._residue_counts

    def recorded(self, members, starts, sizes, nright, tables):
        held.append(self.field.p * len(sizes) * tables[0][1].shape[1])
        return residue_counts(self, members, starts, sizes, nright, tables)

    monkeypatch.setattr(Oracle, "_residue_counts", recorded)
    monkeypatch.setattr(oracle_module, "_COEFF_CELLS", budget)
    report = full_check(G)
    assert report.ok and report.axioms is not None and report.classes == 11
    assert max(held) == budget and 3 * 4 * 11 in held
    monkeypatch.setattr(oracle_module, "_COEFF_CELLS", 3 * 11 - 1)
    with pytest.raises(SizeCapExceeded):
        full_check(G)


def test_full_check_builds_the_residue_tables_once_per_set_of_representatives(monkeypatch):
    # orbit_shape at q = 3 takes about ten chunks of rows in the formula
    # check and several in the constancy check; the tables are built once
    # for the superclass representatives and once for all of G
    G = PatternGroup(orbit_shape_poset(), F3)
    builds, calls = [], []
    monkeypatch.setattr(formula, "_ORBIT_CELLS", 1 << 16)  # chunks of 81 rows
    residue_tables, runs = Oracle._residue_tables, Oracle._runs
    monkeypatch.setattr(Oracle, "_residue_tables", lambda o, phi: builds.append(phi.shape) or residue_tables(o, phi))
    monkeypatch.setattr(Oracle, "_runs", lambda o, ks: calls.append(len(ks)) or runs(o, ks))
    report = full_check(G, oracle_cap=1 << 13, with_axioms=True)
    assert report.ok and report.axioms is not None
    assert len(calls) >= 10
    assert builds == [(G.dim, report.classes), (G.dim, G.order())]


def test_orbit_sums_raise_on_a_member_run_that_is_not_a_co_orbit():
    # three members that are no co-orbit, summed as the zero character's,
    # whose right co-orbit has one member (nright = 1): at a representative
    # with phi_23 != 0 (the first coordinate) the residues are 0, phi_23 and
    # phi_13, so one count is 1 or 2 out of 3 and the sum is not divisible by 3
    o = Oracle(PatternGroup(full_triangular(3), F2))
    reps = o.superclass_partition().reps
    digits = np.array(reps, dtype=np.int64).reshape(len(reps), o.dim)
    elements = np.array([(0, 0, 0), (1, 0, 0), (0, 1, 0)], dtype=np.int64)
    assert any(phi[0] for phi in reps)
    with pytest.raises(NonIntegralScaling):
        o.value_row((0, 0, 0), digits, elements=elements)


@pytest.mark.parametrize("q, per_run", [(2, 2), (2, 5), (4, 3), (3, 2), (9, 2)])
def test_residue_counts_match_a_generic_count_on_random_blocks(q, per_run, monkeypatch):
    """The p = 2 kernel (exclusive or of the runs, residue 1 counted as the
    sum of the residues) and the generic one (additions folded below p,
    comparisons or bincount) against residues taken one int64 product at a
    time: random runs of random codes of U_4 (U_3 over F_9), not co-orbits,
    over random representatives, in blocks of a few members and runs of a
    few digits."""
    F = Fq.of(q)
    o = Oracle(PatternGroup(full_triangular(4 if q < 9 else 3), F))
    p, digits = F.p, o.dim * F.r
    rng = np.random.default_rng(q * 10 + per_run)
    reps = rng.integers(0, q, (13, o.dim))
    phi = o._phi_digits(reps)
    with monkeypatch.context() as mp:
        mp.setattr(oracle_module, "_COEFF_CELLS", p**per_run * len(reps))
        tables = o._residue_tables(phi)
    assert len(tables) >= -(-digits // per_run) >= 2
    monkeypatch.setattr(oracle_module, "_BLOCK_CELLS", 7 * len(reps))
    sizes = rng.integers(1, 20, 9)
    sizes[:3] = 5  # rows of one size share blocks
    members = rng.integers(0, o.order, sizes.sum())
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    seen = []
    for sel, m, nr, counts in o._residue_counts(members, starts, sizes, np.ones_like(sizes), tables):
        for j, i in enumerate(sel.tolist()):
            codes = members[starts[i] : starts[i] + m]
            code_digits = codes[:, None] // p ** np.arange(digits) % p  # least significant first
            residues = code_digits @ phi.astype(np.int64) % p
            assert np.array_equal(counts[:, j], [(residues == k).sum(axis=0) for k in range(p)])
            seen.append(i)
    assert sorted(seen) == list(range(len(sizes)))


@pytest.mark.parametrize("m", [127, 128, 255, 256, 32767, 32768])
def test_orbit_sums_scale_plus_and_minus_m_exactly(m):
    # m copies of one member, summed as the zero character's (nright = 1):
    # the differences of counts are +m at phi = 0 and -m at phi = 1, the
    # edges of the narrowest signed dtype that holds them
    o = Oracle(PatternGroup(validate_closed(2, {(1, 2)}), F2))
    row = o.value_row((0,), np.array([[0], [1]]), elements=np.ones((m, 1), dtype=np.int64))
    assert row.tolist() == [[1, -1]]


@pytest.mark.parametrize("q", [2, 4, 3, 9, 5, 7])
@pytest.mark.parametrize("shape", [(13,), (4, 6), (2, 3, 5)])
def test_charvalue_coeff_rows_is_to_cyc_cell_by_cell(q, shape):
    F = Fq.of(q)
    p = F.p
    rng = np.random.default_rng(q * 100 + len(shape))
    zero = rng.random(shape) < 0.3
    qexp = rng.integers(0, 6, shape).astype(np.uint8)
    zexp = rng.integers(0, p, shape).astype(np.uint8)
    zexp.flat[0], zero.flat[0] = p - 1, False  # zeta**(p-1), which spreads over every coefficient
    zero.flat[-1] = True
    rows = charvalue_coeff_rows(p, q, zero, qexp, zexp)
    assert rows.shape == (p - 1,) + shape
    for cell in np.ndindex(shape):
        value = CharValue.zero() if zero[cell] else CharValue.of(int(qexp[cell]), int(zexp[cell]), p)
        assert CycInt(p, tuple(int(x) for x in rows[(slice(None),) + cell])) == value.to_cyc(F), cell


def test_charvalue_coeff_rows_raises_past_int64_instead_of_wrapping():
    assert charvalue_coeff_rows(2, 2, [False], [62], [0]).tolist() == [[2**62]]
    assert charvalue_coeff_rows(3, 3, [False], [39], [2]).tolist() == [[-(3**39)], [-(3**39)]]
    for p, q, e in ((2, 2, 200), (2, 2, 63), (3, 3, 41)):
        with pytest.raises(OverflowError):
            charvalue_coeff_rows(p, q, [False], [e], [0])
    # a zero cell's q-exponent is no power at all
    assert charvalue_coeff_rows(3, 3, [True, False], [200, 2], [1, 1]).tolist() == [[0, 0], [0, 9]]


def _scaled_orbit_sums(o, eta, reps):
    """The reference values of chi^eta at reps: the orbit sum of theta(mu . phi)
    over the co-orbit, one CycInt term per member, scaled by |lambda U| /
    |U lambda U|; both orbits come from a BFS over the backend's moves, not
    from the sweeps."""
    F, b = o.field, o.backend
    members = bfs(F, eta, b.dual_left + b.dual_right)
    scale = len(bfs(F, eta, b.dual_right))
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


@pytest.mark.parametrize("q, per_run", [(8, 1), (8, 3), (9, 1), (9, 2)])
def test_value_row_over_short_digit_runs(q, per_run, monkeypatch):
    # U_3 has dim * r = 9 base-p digits over F_8 and 6 over F_9; a budget of
    # one row's table of per_run digits splits them into n / per_run runs,
    # each residue table gathered and folded into the sum of the others
    F = Fq.of(q)
    o = Oracle(_SOURCES["full_u3"](F))
    reps = o.superclass_partition().reps
    digits = np.array(reps, dtype=np.int64).reshape(len(reps), o.dim)
    monkeypatch.setattr(oracle_module, "_COEFF_CELLS", F.p**per_run * len(reps))
    for eta in o.coorbit_partition().reps:
        row = o.value_row(eta, digits)
        for c, expected in enumerate(_scaled_orbit_sums(o, eta, reps)):
            assert CycInt(F.p, tuple(int(x) for x in row[:, c])) == expected


@pytest.mark.parametrize("count", [50, 200])
def test_value_row_past_a_byte_of_residues(count):
    # p = 131: a sum of two residues needs uint16, and at eta = (1, 1) the
    # representatives near (p-1, p-1) sum past 255.  One character over 50
    # representatives is a block of fewer cells than p, counted by one
    # scatter; over 200 it is counted by one comparison pass per residue
    q = 131
    o = Oracle(PatternGroup(validate_closed(3, {(1, 2), (1, 3)}), Fq.of(q)), cap=1 << 15)
    reps = [(q - 1 - i % 10, q - 1 - i // 10 * 3) for i in range(count)]
    digits = np.array(reps, dtype=np.int64)
    for eta in [(0, 0), (1, 0), (1, 1), (0, q - 1), (57, 99)]:
        row = o.value_row(eta, digits)
        for c, expected in enumerate(_scaled_orbit_sums(o, eta, reps)):
            assert CycInt(q, tuple(int(x) for x in row[:, c])) == expected


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


# the oracle's whole share of core: its orbit-sweep plumbing, the pattern
# group type it reads J off, the conversion between functionals and codes,
# and the one array check of functionals (input validation, no arithmetic)
_ORACLE_CORE_IMPORTS = {
    "OrbitPartition",
    "PatternGroup",
    "_check_functionals",
    "_codes_to_digits",
    "_digits_to_codes",
    "orbit_partition_from_moves",
}


def test_the_oracle_takes_no_arithmetic_from_formula_or_core():
    """From formula the oracle takes only the rows it checks; from core no
    action, mesh or elimination helper.  Shared arithmetic lives in gf."""
    tree = ast.parse(Path(oracle_module.__file__).read_text())
    imports: dict = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):  # a module object would reach every helper
            assert not any(a.name.split(".")[0] == "superchar" for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level or module.split(".")[0] == "superchar":
                module = module.removeprefix("superchar").lstrip(".")
                imports.setdefault(module, set()).update(a.name for a in node.names)
    assert not imports.get("", set()) & {"core", "formula"}
    assert imports["formula"] == {"table_rows"}
    assert imports["core"] <= _ORACLE_CORE_IMPORTS


def test_formula_is_the_only_module_that_branches_on_u_n():
    """cli, oracle, table and core take no U_n kernel (un_*) from formula
    and never ask whether J is full triangular: every row, size and corank
    of U_n comes from formula's own route."""
    for module in ("cli", "oracle", "table", "core"):
        tree = ast.parse((Path(oracle_module.__file__).parent / f"{module}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                assert not [a.name for a in node.names if a.name.startswith("un_")], module
            elif isinstance(node, ast.Attribute):
                assert node.attr != "is_full_triangular" and not node.attr.startswith("un_"), module


# ---------------------------------------------------------------------------
# the vertex scalings and twin swaps


def _with_symmetries(monkeypatch):
    """Every symmetry on both sides, whatever the size of the group."""
    monkeypatch.setattr(formula, "SYMMETRY_CELLS", 0)
    monkeypatch.setattr(oracle_module, "SYMMETRY_CELLS", 0)


def test_a_swap_of_vertices_that_are_not_twins_is_refused(monkeypatch, capsys, tmp_path):
    """core handing the formula a swap of vertices 1 and 2 of
    class_counterexample, which are not twins (pairs read in either order):
    its class steps are no permutation, and the walk refuses it, so
    superchar check fails with the walk's message.  (Every such swap of the
    corpus and of random closed sets either fails so or reverses each pair
    it moves, an anti-automorphism whose rows come out right.)"""
    _with_symmetries(monkeypatch)
    J = class_counterexample_poset()
    swap = {1: 2, 2: 1}
    to = [J.index[tuple(sorted((swap.get(i, i), swap.get(j, j))))] for i, j in J.order]
    assert sorted(to) == list(range(len(J))) and to != list(range(len(J)))
    symmetries = PatternGroup.symmetries
    monkeypatch.setattr(PatternGroup, "symmetries", lambda self: symmetries(self) + [(to, [1] * self.d)])
    with pytest.raises(InternalInvariantViolation, match="a generator map does not permute the indices"):
        full_check(PatternGroup(J, F2), with_axioms=False)
    spec = tmp_path / "class_counterexample.txt"
    spec.write_text(emit_spec(J, F2))
    assert main(["check", str(spec)]) == 1
    assert "error: a generator map does not permute the indices" in capsys.readouterr().err


def test_a_class_step_that_is_no_symmetry_is_a_counted_mismatch(monkeypatch, capsys, tmp_path):
    """The formula handed class steps that are permutations but no
    symmetry's: each generator's step with the images of the first and the
    last class exchanged.  The rows filled through them are wrong, and
    full_check counts the cells that differ, so superchar check exits 3."""
    _with_symmetries(monkeypatch)
    J = two_step_poset()
    chunks = formula._orbit_chunks

    def wrong(q, char_steps, class_steps, *args):
        class_steps = class_steps.copy()
        class_steps[:, [0, -1]] = class_steps[:, [-1, 0]]
        return chunks(q, char_steps, class_steps, *args)

    monkeypatch.setattr(formula, "_orbit_chunks", wrong)
    report = full_check(PatternGroup(J, F3), oracle_cap=3**8, with_axioms=False)
    assert report.partitions_match and report.mismatches > 0 and not report.ok
    spec = tmp_path / "two_step.txt"
    spec.write_text(emit_spec(J, F3))
    assert main(["check", str(spec), "--oracle-cap", str(3**8)]) == 3
    assert "mismatching cells" in capsys.readouterr().out


def test_an_oracle_symmetry_wrong_on_one_member_fails_loudly(monkeypatch):
    """Each vertex scaling and twin swap of the oracle is checked on every
    member of every co-orbit, not on the representatives alone: a map that
    sends one member of a co-orbit of several members to 0, under one
    symmetry, and is right everywhere else, raises."""
    _with_symmetries(monkeypatch)
    G = PatternGroup(heisenberg(4), F3)
    co = Oracle(G).coorbit_partition()
    codes, bounds = co.members
    k = next(k for k, size in enumerate(co.sizes) if size > 1)
    member = codes[bounds[k] + 1]  # not the least member, the representative
    code_maps = oracle_module._code_maps

    def wrong(times, *args):  # the first of the vertex scalings and twin swaps, after the scalar
        images = code_maps(times, *args)
        return lambda codes: np.where((np.asarray(codes) == member) & (np.arange(len(times))[:, None] == 1), 0, images(codes))

    monkeypatch.setattr(oracle_module, "_code_maps", wrong)
    with pytest.raises(InternalInvariantViolation, match="under the scaling of vertex 1 is no co-orbit of the sweep"):
        full_check(G, with_axioms=False)


@pytest.mark.parametrize("name, q", [("heisenberg4", 3), ("heisenberg4", 5), ("two_step", 2)])
def test_full_check_on_every_symmetry(name, q, monkeypatch):
    """The oracle's vertex scalings and twin swaps fold its counts, and its
    check agrees with the int64 reference, axioms included."""
    _with_symmetries(monkeypatch)
    G = PatternGroup(heisenberg(4) if name == "heisenberg4" else two_step_poset(), Fq.of(q))
    o = Oracle(G, 1 << 16)
    source, (parent, via, depth), columns, power = o._orbits
    assert (via > 0).any() and len(columns) > 1  # a vertex scaling or twin swap in the tree
    report = full_check(G, oracle_cap=1 << 16, with_axioms=True)
    assert report.ok and (report.mismatches, report.witness) == reference_verdict(G, 1 << 16)
