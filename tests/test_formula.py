"""Mesh data, the character value, specializations, and irreducibility."""

import itertools
import random
from functools import lru_cache, partial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_poset import _random_closed

from superchar.catalog import (
    annihilator_example_poset,
    class_counterexample_poset,
    coorbit_shape_poset,
    determinant_poset,
    full_triangular,
    heisenberg,
    semidirect_algebra,
    two_step_poset,
)
from superchar import formula
from superchar.core import PatternGroup
from superchar.errors import InternalInvariantViolation, NonMonomialRepresentative, ShapeMismatch, SpecMismatch
from superchar.formula import (
    CharacterEvaluator,
    ann_spaces,
    degree,
    full_un_irreducible,
    irreducible_sufficient,
    is_irreducible,
    superclass_is_class_sufficient,
    table_rows,
    un_arc_counts,
    un_monomials,
    un_value_chunks,
    value,
    value_blocks,
    value_heisenberg,
    value_no4chain,
    value_un,
)
from superchar.gf import (
    CharValue,
    Fq,
    FqMatrix,
    cell_code_dtype,
    cell_exponents,
    nullspace_basis,
    perp_to_nullspace,
    rank,
    solve,
)
from superchar.oracle import Oracle
from superchar.poset import functional, support, validate_closed
from superchar.table import build_pattern_table

F2 = Fq.of(2)
F3 = Fq.of(3)


def test_mesh_data_zero_phi():
    G = PatternGroup(full_triangular(4), F2)
    M, a, b = G.mesh_data(G.zero(), tuple(1 for _ in range(6)))
    assert all(all(v == 0 for v in row) for row in M.rows)
    assert a == (0,) * 6 and b == (0,) * 6


def test_mesh_data_heisenberg_structure():
    G = PatternGroup(heisenberg(4), F3)
    J = G.J
    rng = random.Random(1)
    for _ in range(15):
        phi = tuple(rng.randrange(3) for _ in range(5))
        eta = tuple(rng.randrange(3) for _ in range(5))
        M, a, b = G.mesh_data(phi, eta)
        assert all(all(v == 0 for v in row) for row in M.rows)  # never a 4-chain
        corner = J.index[(1, 4)]
        for j in (2, 3):
            assert a[J.index[(1, j)]] == F3.mul(eta[corner], phi[J.index[(j, 4)]])
            assert b[J.index[(j, 4)]] == F3.mul(eta[corner], phi[J.index[(1, j)]])


def test_meshes_examples():
    G = PatternGroup(heisenberg(4), F2)
    eta = functional(G.J, F2, {(1, 4): 1})
    ok, b0 = G.meshes(G.zero(), eta)
    assert ok and b0 == (0,) * 5  # the identity superclass meshes with everything
    phi = functional(G.J, F2, {(1, 2): 1})
    assert G.meshes(phi, eta) == (False, None)
    eta0 = functional(G.J, F2, {(1, 2): 1})  # corner entry zero
    assert G.meshes(phi, eta0)[0]


def test_value_trivial_character():
    G = PatternGroup(full_triangular(4), F3)
    rng = random.Random(2)
    for _ in range(10):
        phi = tuple(rng.randrange(3) for _ in range(6))
        assert value(G, G.zero(), phi) == CharValue.of(0, 0, 3)


def test_value_heisenberg_frozen_cases():
    G = PatternGroup(heisenberg(3), F3)
    eta = functional(G.J, F3, {(1, 3): 1})
    assert value(G, eta, G.zero()) == CharValue.of(1, 0, 3)  # degree q^{n-2} = 3
    phi = functional(G.J, F3, {(1, 3): 1})
    # orbit-sum convention: 3 * zeta_3, pinned by the brute-force oracle
    assert value(G, eta, phi) == CharValue.of(1, 1, 3)
    off_center = functional(G.J, F3, {(1, 2): 1})
    assert value(G, eta, off_center).is_zero


def test_degree_examples():
    G = PatternGroup(heisenberg(4), F2)
    assert degree(G, G.zero()) == 1
    eta = functional(G.J, F2, {(1, 4): 1})
    assert degree(G, eta) == 4
    assert value(G, eta, G.zero()) == CharValue.of(2, 0, 2)


def test_value_block_matches_scalar_everywhere():
    for J, q in ((heisenberg(4), 3), (full_triangular(4), 2), (annihilator_example_poset(), 2)):
        G = PatternGroup(J, Fq.of(q))
        part = G.orbit_partition()
        digits = np.array([list(r) for r in part.reps], dtype=np.int64)
        for eta in G.coorbit_partition().reps:
            ev = CharacterEvaluator(G, eta)
            zero, qexp, zexp = ev.value_block(digits)
            for c, phi in enumerate(part.reps):
                got = ev.value(phi)
                assert got.is_zero == bool(zero[c])
                if not got.is_zero:
                    assert (got.q_exp, got.zeta_exp) == (int(qexp[c]), int(zexp[c]))


F512 = Fq.of(512, (1, 0, 0, 0, 1, 0, 0, 0, 0, 1))  # x^9 + x^4 + 1 over F_2
F65536 = Fq.of(65536, (1, 0, 1, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1))  # x^16 + x^5 + x^3 + x^2 + 1


def _sampled(F, n, count, seed):
    """U_n over F, where a sweep would be too large: ``count`` random sparse
    characters and superclass functionals, each list with its zero first."""
    G = PatternGroup(full_triangular(n), F)
    rng = random.Random(seed)
    etas = [G.zero()] + [_sparse_functional(rng, F.q, G.dim, 0.7) for _ in range(count)]
    phis = [G.zero()] + [_sparse_functional(rng, F.q, G.dim) for _ in range(count)]
    return G, etas, phis


def _swept(source):
    return source, [o.rep for o in source.all_coorbit_reps()], [o.rep for o in source.all_orbit_reps()]


# U_6(2) has frames from 0 x 0 to 4 x 4, and its chunks pad three or four
# of them to one frame; the counterexample has 1 x 2 frames; F_4, F_9, F_512,
# F_2^16 and the semidirect algebra need digit blocks (those of F_4 are
# symmetric, so only F_9, F_512 and F_2^16 see a missing transpose); U_4(9)
# has odd-characteristic digit blocks under hard meshes, and U_4 over F_65521
# and F_2^16 solves hard meshes with p or q past 256.  The Heisenberg set
# with n = 4 has no 4-chains, so no frame has an M section to reduce.
_BATCH_GROUPS = {
    "U6(2)": lambda: _swept(PatternGroup(full_triangular(6), F2)),
    "U5(3)": lambda: _swept(PatternGroup(full_triangular(5), F3)),
    "class_counterexample(3)": lambda: _swept(PatternGroup(class_counterexample_poset(), F3)),
    "U4(4)": lambda: _swept(PatternGroup(full_triangular(4), Fq.of(4))),
    "semidirect5(4)": lambda: _swept(semidirect_algebra(5, Fq.of(4))),
    "U3(512)": lambda: _sampled(F512, 3, 20, 5),
    "U4(512)": lambda: _sampled(F512, 4, 20, 6),
    "U4(9)": lambda: _sampled(Fq.of(9), 4, 20, 7),
    "U4(65521)": lambda: _sampled(Fq.of(65521), 4, 20, 8),
    "U4(2^16)": lambda: _sampled(F65536, 4, 20, 9),
    "one_pair(257)": lambda: _swept(PatternGroup(validate_closed(2, {(1, 2)}), Fq.of(257))),
    "heisenberg4(3)": lambda: _swept(PatternGroup(heisenberg(4), F3)),
}


@lru_cache(maxsize=None)
def _batch_case(name):
    """A group of ``_BATCH_GROUPS`` with its digit block and the scalar
    values of every cell, as (zero, q_exp, zeta_exp) arrays."""
    source, etas, phis = _BATCH_GROUPS[name]()
    digits = np.array(phis, dtype=np.int64).reshape(len(phis), source.dim)
    cells = [[ev.value(phi) for phi in phis] for ev in CharacterEvaluator.batch(source, etas)]
    expected = tuple(
        np.array([[getattr(v, attr) for v in row] for row in cells]).reshape(len(etas), len(phis))
        for attr in ("is_zero", "q_exp", "zeta_exp")
    )
    return source, etas, digits, expected


@pytest.mark.parametrize("small_batches", (False, True))
@pytest.mark.parametrize("name", sorted(_BATCH_GROUPS))
def test_value_blocks_match_value_block_and_the_scalar_value(name, small_batches, monkeypatch):
    source, etas, digits, expected = _batch_case(name)
    batches = []  # hard cells per elimination, one list per chunk
    if small_batches:
        # one character per chunk, and batches of 2 hard cells, so that a
        # batch boundary falls inside one character's hard cells
        monkeypatch.setattr(formula, "_BATCH_CELLS", 2)
        monkeypatch.setattr(formula, "_CHUNK_ENTRIES", 1)
        chunk_values, solve_hard = formula._chunk_values, formula._solve_hard
        monkeypatch.setattr(formula, "_chunk_values", lambda *a: batches.append([]) or chunk_values(*a))
        monkeypatch.setattr(formula, "_solve_hard", lambda F, y, *a: batches[-1].append(len(y)) or solve_hard(F, y, *a))
    evaluators = CharacterEvaluator.batch(source, etas)
    if name == "heisenberg4(3)":
        assert len(etas) == len(digits) == 83 and not evaluators.frames[:, :2].any()
    codes = value_blocks(evaluators, digits)
    assert codes.dtype == cell_code_dtype(source.dim, source.field.p)
    got = cell_exponents(codes, source.field.p)
    for arr, want in zip(got, expected):
        assert arr.shape == want.shape and np.array_equal(arr, want)
    for i, eta in enumerate(etas):  # each character set up on its own
        for arr, row in zip(got, CharacterEvaluator(source, eta).value_block(digits)):
            assert np.array_equal(arr[i], row)
    if not small_batches:
        # the dense mesh data, the third side: it shares no plan or frame
        for e, c in _dense_cells(len(etas), len(digits)):
            want = source.value(etas[e], tuple(int(v) for v in digits[c]))
            assert (want.is_zero, want.q_exp, want.zeta_exp) == tuple(arr[e, c] for arr in expected)
    if small_batches and name in ("U6(2)", "U5(3)", "class_counterexample(3)", "U4(4)", "semidirect5(4)"):
        assert any(len(sizes) > 1 for sizes in batches[: len(etas)])


def test_a_batch_takes_runs_of_step_1_only():
    G = PatternGroup(heisenberg(4), F3)
    evaluators = CharacterEvaluator.batch(G, G.coorbit_partition().digits[:6])
    with pytest.raises(IndexError, match="a run of characters is a slice with step 1"):
        evaluators[::2]


def test_orbit_chunks_refuse_a_kernel_that_leaves_a_source_out(monkeypatch):
    G = PatternGroup(heisenberg(4), F3)
    chunks = formula.value_chunks
    monkeypatch.setattr(formula, "value_chunks", lambda source, etas, classes: chunks(source, etas[:-1], classes))
    with pytest.raises(InternalInvariantViolation, match="the value kernel evaluated too few sources"):
        list(table_rows(G, 3**G.dim)[4])


@pytest.mark.parametrize("name", ["class_counterexample(3)", "U4(4)"])
def test_value_blocks_do_not_depend_on_the_order_of_the_characters(name, monkeypatch):
    """value_blocks runs its characters grouped by frame and writes the
    rows back in their own order: shuffled characters, set up shuffled or
    picked out of one batch by an index array, give the rows shuffled
    alike; and value_chunks gives the same arrays however its setups are
    split."""
    source, etas, digits, expected = _batch_case(name)
    etas = np.array(etas, dtype=np.int64).reshape(len(etas), source.dim)
    evaluators = CharacterEvaluator.batch(source, etas)
    frames = evaluators.frames
    assert len(np.unique(frames, axis=0)) > 2 and frames[:, 0].any()  # several frames, some with hard cells
    assert (np.lexsort(frames.T[::-1]) != np.arange(len(etas))).any()  # not in frame order already
    perm = np.random.default_rng(len(etas)).permutation(len(etas))
    for codes in (value_blocks(CharacterEvaluator.batch(source, etas[perm]), digits), value_blocks(evaluators[perm], digits)):
        for arr, want in zip(cell_exponents(codes, source.field.p), expected):
            assert np.array_equal(arr, want[perm])

    setups = []
    setup = CharacterEvaluator._setup
    monkeypatch.setattr(CharacterEvaluator, "_setup", lambda self, src, e: setups.append(len(e)) or setup(self, src, e))
    monkeypatch.setattr(formula, "_SETUP_ENTRIES", 3 * source.dim**2 * source.field.r)  # 3 characters a setup
    monkeypatch.setattr(formula, "_ROW_CELLS", 2 * len(digits))  # 2 rows a chunk
    chunks = list(formula.value_chunks(source, etas, digits))
    assert setups == [len(etas[k : k + 3]) for k in range(0, len(etas), 3)]
    assert [start for start, _, _ in chunks] == [k + j for k in range(0, len(etas), 3) for j in (0, 2) if k + j < len(etas)]
    got = cell_exponents(np.concatenate([codes for _, _, codes in chunks]), source.field.p)
    for arr, want in zip(got, expected):
        assert np.array_equal(arr, want)


# every public engine method that takes functionals, with its number of them
_ENGINE_ARITY = {
    "product": 2, "multiply": 2, "inverse": 1,
    "act_left": 2, "act_right": 2, "act_two_sided": 3, "coact": 3,
    "left_action_matrix": 1, "right_action_matrix": 1,
    "dual_left_action_matrix": 1, "dual_right_action_matrix": 1,
    "mesh_data": 2, "meshes": 2, "corank": 1, "value": 2, "is_irreducible": 1,
    "orbit": 1, "orbit_left": 1, "orbit_right": 1,
    "coorbit": 1, "coorbit_left": 1, "coorbit_right": 1,
    "one_sided_orbit_sizes": 1, "one_sided_coorbit_size": 1,
}


@pytest.mark.parametrize("bad", (3, -1))
@pytest.mark.parametrize("source", [PatternGroup(full_triangular(4), F3), semidirect_algebra(5, F3)], ids=("U4", "semidirect5"))
def test_an_entry_outside_the_field_is_a_spec_mismatch(source, bad):
    # over F_3 an entry 3 or -1 once read as 0 or 2 (or raised IndexError)
    eta, zero = (0,) * (source.dim - 1) + (1,), source.zero()
    ev = CharacterEvaluator(source, eta)
    partition, oracle = source.orbit_partition(), Oracle(source)
    digits = np.array([zero, eta])
    for k in range(source.dim):
        f = tuple(bad if i == k else 0 for i in range(source.dim))
        calls = [
            lambda: value_blocks(ev, np.array([zero, f])),
            lambda: value_blocks(ev, np.array([zero, f])[..., None]),  # as (count, dim, r) digits
            lambda: ev.value_block(np.array([f])),
            lambda: ev.value(f),
            lambda: CharacterEvaluator(source, f),
            lambda: partition.class_of(f),
            lambda: partition.classes_of([zero, f]),
            lambda: partition.code(f),
            lambda: oracle.value_rows([eta], np.array([zero, f])),
            lambda: oracle.value_rows([zero, f], digits),
            lambda: oracle.value_row(eta, np.array([f])),
            lambda: oracle.value_row(f, digits),
            lambda: oracle.value_row(eta, digits, elements=np.array([eta, f])),
        ]
        for name, arity in _ENGINE_ARITY.items():
            for slot in range(arity):
                args = [zero] * arity
                args[slot] = f
                calls.append(partial(getattr(source, name), *args))
        if isinstance(source, PatternGroup):  # the pattern-group formulas, on U_4
            one = (degree, full_un_irreducible, irreducible_sufficient, superclass_is_class_sufficient)
            calls += [partial(fn, source, f) for fn in one]
            calls += [partial(fn, source, *pair) for fn in (value, value_un) for pair in ((f, zero), (zero, f))]
            calls += [
                lambda: un_arc_counts(source, np.array([f])),
                lambda: next(un_value_chunks(source, [f], [zero])),
                lambda: next(un_value_chunks(source, [zero], [f])),
            ]
        for call in calls:
            with pytest.raises(SpecMismatch, match="is not in F_3"):
                call()
    H = PatternGroup(heisenberg(3), F3)
    for pair in (((bad, 0, 0), H.zero()), (H.zero(), (0, bad, 0))):
        with pytest.raises(SpecMismatch, match="is not in F_3"):
            value_heisenberg(H, *pair)
    # a block of the wrong length is a spec mismatch too, not a ValueError
    for width in (source.dim - 1, source.dim + 1):
        block = np.zeros((2, width), dtype=np.int64)
        for call in (
            lambda: value_blocks(ev, block),
            lambda: partition.classes_of(block),
            lambda: oracle.value_rows([eta], block),
            lambda: oracle.value_row(eta, block),
            lambda: oracle.value_row(eta, digits, elements=block),
        ):
            with pytest.raises(SpecMismatch, match=f"functional of length {width} for dimension {source.dim}"):
                call()


def _dense_cells(rows, cols, sample=400):
    """Every (character, class) cell, or a fixed sample of ``sample`` of
    them where :meth:`StructureAlgebra.value` on all of them would be slow."""
    cells = [(e, c) for e in range(rows) for c in range(cols)]
    return cells if len(cells) <= sample else random.Random(rows * cols).sample(cells, sample)


def test_an_off_frame_entry_of_a_is_zero_where_m_is_not():
    # U_4(2) at eta = E_14: M carries terms only in row (1, 2), from the one
    # 4-chain.  At phi = E_23 + E_34, M != 0 and a_13 != 0 off that frame,
    # so M x = -a has no solution; every phi of the group is checked
    G = PatternGroup(full_triangular(4), F2)
    row = G.J.index[(1, 3)]
    eta = functional(G.J, F2, {(1, 4): 1})
    phi = functional(G.J, F2, {(2, 3): 1, (3, 4): 1})
    M, a, _ = G.mesh_data(phi, eta)
    assert any(map(any, M.rows)) and a[row]
    # M is linear in phi, so its row (1, 3) has no terms if it vanishes on a basis
    units = [tuple(int(k == s) for k in range(G.dim)) for s in range(G.dim)]
    assert not any(any(G.mesh_data(u, eta)[0].rows[row]) for u in units)
    ev = CharacterEvaluator(G, eta)
    phis = list(itertools.product(range(2), repeat=G.dim))
    expected = [G.value(eta, f) for f in phis]
    assert expected[phis.index(phi)].is_zero
    assert [ev.value(f) for f in phis] == expected
    assert _block_values(ev, phis) == expected


def _sparse_functional(rng, q, d, density=0.5):
    return tuple(rng.randrange(1, q) if rng.random() < density else 0 for _ in range(d))


def _block_values(ev, phis):
    """``ev.value_block`` over the rows ``phis``, as CharValues."""
    digits = np.array(phis, dtype=np.int64).reshape(len(phis), len(ev.eta))
    zero, qexp, zexp = ev.value_block(digits)
    return [
        CharValue.zero() if z else CharValue(int(m), int(k), False)
        for z, m, k in zip(zero, qexp, zexp)
    ]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 7), st.sampled_from((2, 3, 4, 5)))
def test_value_block_matches_scalar_and_dense_algebra_on_random_closed_sets(seed, n, q):
    rng = random.Random(seed)
    J = _random_closed(rng, n)
    F = Fq.of(q)
    G = PatternGroup(J, F)
    alg = PatternGroup(J, F)
    d = len(J)
    for _ in range(3):
        eta = _sparse_functional(rng, q, d)
        phis = [_sparse_functional(rng, q, d) for _ in range(12)]
        ev = CharacterEvaluator(G, eta)
        expected = [ev.value(phi) for phi in phis]
        assert _block_values(ev, phis) == expected
        assert _block_values(CharacterEvaluator(alg, eta), phis) == expected
        assert [alg.value(eta, phi) for phi in phis] == expected


def test_value_block_matches_scalar_over_f512():
    rng = random.Random(13)
    for n in (3, 4):  # U_4 also reaches the nonzero-mesh-matrix branch
        G = PatternGroup(full_triangular(n), F512)
        d = len(G.J)
        for _ in range(4):
            eta = _sparse_functional(rng, F512.q, d, density=0.7)
            phis = [_sparse_functional(rng, F512.q, d) for _ in range(16)]
            ev = CharacterEvaluator(G, eta)
            assert _block_values(ev, phis) == [ev.value(phi) for phi in phis]


def test_value_constant_on_superclasses_sampled():
    rng = random.Random(3)
    for J, q in ((heisenberg(4), 2), (class_counterexample_poset(), 2)):
        G = PatternGroup(J, Fq.of(q))
        d = len(G.J)
        for _ in range(6):
            eta = tuple(rng.randrange(q) for _ in range(d))
            phi = tuple(rng.randrange(q) for _ in range(d))
            ev = CharacterEvaluator(G, eta)
            base = ev.value(phi)
            members = list(G.orbit(phi).elements)
            rng.shuffle(members)
            for member in members[:20]:
                assert ev.value(member) == base


def test_value_independent_of_particular_solution():
    # replay the meshed branch with randomized free variables in b0
    rng = random.Random(4)
    G = PatternGroup(determinant_poset(), F3)
    d = len(G.J)
    tried = 0
    while tried < 25:
        eta = tuple(rng.randrange(3) for _ in range(d))
        phi = tuple(rng.randrange(3) for _ in range(d))
        M, a, b = G.mesh_data(phi, eta)
        neg_a = tuple(F3.neg(x) for x in a)
        b0 = solve(M, neg_a)
        if b0 is None or not perp_to_nullspace(M, b):
            continue
        tried += 1
        base = F3.trace(F3.add(F3.dot(b0, b), F3.dot(phi, eta)))
        for v in nullspace_basis(M):
            t = rng.randrange(1, 3)
            shifted = tuple(F3.add(x, F3.mul(t, y)) for x, y in zip(b0, v))
            assert F3.trace(F3.add(F3.dot(shifted, b), F3.dot(phi, eta))) == base


def test_p2_values_are_real_integers():
    G = PatternGroup(coorbit_shape_poset(), F2)
    for eta in G.coorbit_partition().reps:
        ev = CharacterEvaluator(G, eta)
        for phi in G.orbit_partition().reps:
            v = ev.value(phi)
            assert v.as_int(F2) is not None


# -- specializations ----------------------------------------------------------


def test_value_heisenberg_shape_check():
    G = PatternGroup(full_triangular(4), F2)
    with pytest.raises(ShapeMismatch):
        value_heisenberg(G, G.zero(), G.zero())


def test_value_heisenberg_equals_generic_small():
    for n, q in ((3, 3), (4, 2)):
        G = PatternGroup(heisenberg(n), Fq.of(q))
        for ch in G.all_coorbit_reps():
            ev = CharacterEvaluator(G, ch.rep)
            for cl in G.all_orbit_reps():
                assert ev.value(cl.rep) == value_heisenberg(G, ch.rep, cl.rep)


def test_value_un_examples():
    G = PatternGroup(full_triangular(4), F2)
    eta = functional(G.J, F2, {(1, 4): 1, (2, 3): 1})  # staircase
    assert value_un(G, eta, G.zero()) == CharValue.of(2, 0, 2)  # degree 4
    with pytest.raises(NonMonomialRepresentative):
        value_un(G, functional(G.J, F2, {(1, 4): 1, (1, 2): 1}), G.zero())
    with pytest.raises(ShapeMismatch):
        value_un(PatternGroup(heisenberg(4), F2), (0,) * 5, (0,) * 5)


def test_coranks_on_u_n_take_monomials_only():
    # eta = E_14 + E_24 shares the end 4: its arcs once read corank 3,
    # though rank(A_eta) is 2; a shared start is refused alike
    G = PatternGroup(full_triangular(4), F2)
    staircase = functional(G.J, F2, {(1, 4): 1, (2, 3): 1})
    assert formula.coranks(G, np.array([G.zero(), staircase])).tolist() == [0, G.corank(staircase)] == [0, 2]
    for shared in ({(1, 4): 1, (2, 4): 1}, {(1, 4): 1, (1, 2): 1}):
        with pytest.raises(NonMonomialRepresentative):
            formula.coranks(G, np.array([G.zero(), functional(G.J, F2, shared)]))


def test_value_un_equals_generic():
    for q in (2, 3):
        G = PatternGroup(full_triangular(4), Fq.of(q))
        for ch in G.all_coorbit_reps():
            ev = CharacterEvaluator(G, ch.rep)
            for cl in G.all_orbit_reps():
                assert ev.value(cl.rep) == value_un(G, ch.rep, cl.rep)


def test_value_no4chain_examples():
    G = PatternGroup(two_step_poset(), F3)
    # W = 0: only theta factors, exponent 0
    eta = functional(G.J, F3, {(1, 2): 1, (2, 4): 2})
    v = value_no4chain(G, eta, G.zero())
    assert not v.is_zero and v.q_exp in (0, 1, 2)
    zero_block = functional(G.J, F3, {(1, 2): 1})  # no top-row entries: W vanishes
    v0 = value_no4chain(G, zero_block, functional(G.J, F3, {(1, 2): 2}))
    assert v0 == CharValue.of(0, F3.trace(2), 3)
    with pytest.raises(ShapeMismatch):
        value_no4chain(PatternGroup(full_triangular(4), F3), (0,) * 6, (0,) * 6)


def test_value_no4chain_equals_generic_including_row_restriction():
    # second poset: two disjoint chains sharing a top, where the rank blocks
    # must be restricted to positions actually present in J
    from superchar.poset import close_covers

    rng = random.Random(6)
    posets = [two_step_poset(), close_covers(6, {(1, 2), (2, 6), (3, 4), (4, 6)})]
    for J in posets:
        for q in (2, 3):
            G = PatternGroup(J, Fq.of(q))
            chars = G.all_coorbit_reps()
            classes = G.all_orbit_reps()
            evs = list(CharacterEvaluator.batch(G, [ch.rep for ch in chars]))
            for ch, ev in zip(chars, evs):
                # the block-rank exponent must reproduce the corank exactly
                v = value_no4chain(G, ch.rep, G.zero())
                assert (v.q_exp, v.zeta_exp, v.is_zero) == (ev.corank, 0, False)
            pairs = [(e, cl) for e in range(len(chars)) for cl in classes]
            if len(pairs) > 4000:
                pairs = rng.sample(pairs, 4000)
            for e, cl in pairs:
                assert evs[e].value(cl.rep) == value_no4chain(G, chars[e].rep, cl.rep)


# -- annihilators and irreducibility -------------------------------------------


def test_ann_spaces_trivial_eta():
    G = PatternGroup(full_triangular(4), F2)
    basis_r, basis_l = ann_spaces(G, G.zero())
    assert len(basis_r) == len(G.J) and len(basis_l) == len(G.J)


def test_ann_spaces_worked_example():
    J = annihilator_example_poset()
    G = PatternGroup(J, F3)
    eta = functional(J, F3, {(1, 3): 1, (1, 4): 1, (2, 5): 1})
    basis_r, _ = ann_spaces(G, eta)
    assert len(basis_r) == len(J) - 2
    i23, i24, i45 = J.index[(2, 3)], J.index[(2, 4)], J.index[(4, 5)]
    for v in basis_r:
        assert v[i45] == 0
        assert F3.add(v[i23], v[i24]) == 0  # rho_23 = -rho_24 when eta values are 1


def test_ann_spaces_definitional():
    # every basis vector annihilates lambda_eta(X_phi X_rho) for random phi
    rng = random.Random(5)
    for J, q in ((annihilator_example_poset(), 3), (full_triangular(4), 2)):
        G = PatternGroup(J, Fq.of(q))
        d = len(J)
        for _ in range(5):
            eta = tuple(rng.randrange(q) for _ in range(d))
            basis_r, basis_l = ann_spaces(G, eta)
            for _ in range(40):
                phi = tuple(rng.randrange(q) for _ in range(d))
                for rho in basis_r:
                    assert G.field.dot(eta, G.product(phi, rho)) == 0
                for rho in basis_l:
                    assert G.field.dot(eta, G.product(rho, phi)) == 0


def test_is_irreducible_determinant_poset():
    J = determinant_poset()
    G = PatternGroup(J, F3)
    eta = functional(J, F3, {(1, 4): 1, (1, 5): 1, (2, 4): 1, (2, 5): 1, (3, 6): 1})
    assert is_irreducible(G, eta)  # 1*1 - 1*1 = 0
    eta2 = functional(J, F3, {(1, 4): 1, (1, 5): 1, (2, 4): 1, (2, 5): 2, (3, 6): 1})
    assert not is_irreducible(G, eta2)  # 2*1 - 1*1 = 1 != 0


def _irreducible_by_annihilators(G, eta) -> bool:
    """The definition: ann_R(eta) + ann_L(eta) spans every functional."""
    basis_r, basis_l = ann_spaces(G, eta)
    d = len(G.J)
    return rank(FqMatrix.from_rows(G.field, basis_r + basis_l, d)) == d


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 7), st.sampled_from((2, 3, 4, 5)))
def test_is_irreducible_matches_the_annihilators_on_random_closed_sets(seed, n, q):
    rng = random.Random(seed)
    G = PatternGroup(_random_closed(rng, n), Fq.of(q))
    for density in (0.3, 0.6, 0.9):
        eta = _sparse_functional(rng, q, len(G.J), density)
        expected = _irreducible_by_annihilators(G, eta)
        assert is_irreducible(G, eta) == expected


@pytest.mark.parametrize(
    "J,q",
    [(determinant_poset(), 2), (annihilator_example_poset(), 3), (full_triangular(5), 2),
     (full_triangular(4), 4), (class_counterexample_poset(), 2)],
    ids=["determinant-2", "annihilator_example-3", "u5-2", "u4-4", "class_counterexample-2"],
)
def test_is_irreducible_matches_the_annihilators_on_every_character(J, q, monkeypatch):
    G = PatternGroup(J, Fq.of(q))
    flags = []
    for ch in G.all_coorbit_reps():
        expected = _irreducible_by_annihilators(G, ch.rep)
        assert is_irreducible(G, ch.rep) == expected
        flags.append(expected)
    assert any(flags) and not all(flags)  # both outcomes occur
    # the table reads the same flags off the co-orbit sizes, two rows a chunk
    monkeypatch.setattr(formula, "_ROW_CELLS", 2 * len(G.all_orbit_reps()))
    assert [ch["irreducible"] for ch in build_pattern_table(G).chars] == flags


def test_no_4chain_characters_always_irreducible():
    for J in (heisenberg(5), two_step_poset(), coorbit_shape_poset()):
        G = PatternGroup(J, F2)
        for ch in G.all_coorbit_reps():
            assert is_irreducible(G, ch.rep)
            assert irreducible_sufficient(G, ch.rep)


def test_sufficient_checks():
    G = PatternGroup(full_triangular(4), F2)
    eta = functional(G.J, F2, {(1, 3): 1})
    assert irreducible_sufficient(G, eta)  # singleton support
    stair = functional(G.J, F2, {(1, 4): 1, (2, 3): 1})
    assert irreducible_sufficient(G, stair)
    assert full_un_irreducible(G, stair)
    bad = functional(G.J, F2, {(1, 3): 1, (2, 4): 1})
    assert not full_un_irreducible(G, bad)

    # the class-side condition is sufficient but not necessary
    J = class_counterexample_poset()
    Gc = PatternGroup(J, F2)
    phi = functional(J, F2, {(1, 2): 1, (2, 4): 1, (3, 5): 1})
    assert not superclass_is_class_sufficient(Gc, phi)


def test_empty_closed_set_has_the_trivial_table():
    J = validate_closed(1, set())
    G = PatternGroup(J, F2)
    assert G.all_orbit_reps() == G.all_coorbit_reps()
    assert value(G, (), ()) == CharValue.of(0, 0, 2)
    assert is_irreducible(G, ())


# ---------------------------------------------------------------------------
# the scalar fill of table_rows against every character evaluated


def _every_row(source):
    """(coranks, irreducible, codes) of every character of ``source``, each
    row evaluated by the value kernel itself: the reference of the rows
    that table_rows fills from their scalar orbit's source."""
    if isinstance(source, PatternGroup) and source.J.is_full_triangular():
        monomials = un_monomials(source)
        _, coranks, crossings = un_arc_counts(source, monomials)
        codes = np.concatenate([codes for _, codes in un_value_chunks(source, monomials, monomials)])
        return coranks, crossings == 0, codes
    sc, co = source.orbit_partition(), source.coorbit_partition()
    pieces = list(formula.value_chunks(source, co.digits, sc.digits))
    coranks = np.concatenate([evaluators.coranks for _, evaluators, _ in pieces])
    irreducible = np.asarray(co.sizes) == source.field.q ** (2 * coranks)
    return coranks, irreducible, np.concatenate([codes for _, _, codes in pieces])


def _assert_fill_matches_every_row(source, rows_per_chunk):
    """The chunks of table_rows cover every row once, in whole orbits under
    F_q^*, with the codes, coranks and flags of every character evaluated:
    in chunks of ``rows_per_chunk`` rows (or the default), and again with
    setups of two characters, so that the value kernel's pieces end in the
    middle of a chunk and each chunk is cut where its piece ends."""
    coranks, irreducible, codes = _every_row(source)
    F = source.field
    classes, _, chars, _, _ = table_rows(source, None)
    step = source.coorbit_partition().classes_of(F.multiples(F.generator)[chars])  # the character of g eta
    for setup in (None, 2):
        with pytest.MonkeyPatch.context() as mp:
            if rows_per_chunk:
                mp.setattr(formula, "_ROW_CELLS", rows_per_chunk * len(classes))
            if setup:
                mp.setattr(formula, "_SETUP_ENTRIES", setup * source.dim**2 * F.r)
            chunks = list(table_rows(source, None)[4])
        rows = np.concatenate([chunk[0] for chunk in chunks])
        assert sorted(rows.tolist()) == list(range(len(chars)))
        for got_rows, got_coranks, got_irreducible, got_codes in chunks:
            assert np.array_equal(got_rows, np.sort(got_rows)) and np.isin(step[got_rows], got_rows).all()
            assert np.array_equal(got_coranks, coranks[got_rows])
            assert np.array_equal(got_irreducible, irreducible[got_rows])
            assert got_codes.dtype == codes.dtype and np.array_equal(got_codes, codes[got_rows])
    return chunks


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 6),
    st.sampled_from((3, 4, 5, 7, 8, 9)),
    st.sampled_from((None, 1, 3)),
)
def test_table_rows_fill_matches_every_character_on_random_closed_sets(seed, n, q, rows_per_chunk):
    """Random closed sets, U_n among them, over fields with F_q^* of 2 to 8
    scalars; chunks of one or three rows hold at least one whole orbit."""
    J = _random_closed(random.Random(seed), n)
    assume(q ** len(J) <= 2**12)
    chunks = _assert_fill_matches_every_row(PatternGroup(J, Fq.of(q)), rows_per_chunk)
    if rows_per_chunk == 1 and len(J):
        assert any(len(chunk[0]) > 1 for chunk in chunks)  # an orbit of several rows, whole


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
def test_table_rows_fill_matches_every_character_on_u_n(q):
    _assert_fill_matches_every_row(PatternGroup(full_triangular(3), Fq.of(q)), None)
    if q <= 5:
        _assert_fill_matches_every_row(PatternGroup(full_triangular(4), Fq.of(q)), 2)


def test_table_rows_fill_matches_every_character_on_random_matrix_algebras():
    """Algebras whose structure constants are not all 1 (the seeds of
    _random_matrix_algebra that give one), over F_3 to F_9."""
    from test_algebra import _random_matrix_algebra  # test_algebra imports this module

    fields = set()
    for seed in range(60):
        alg = _random_matrix_algebra(seed)
        if alg is None:
            continue
        _assert_fill_matches_every_row(alg, seed % 3 or None)
        fields.add(alg.field.q)
    assert fields == {3, 4, 5, 8, 9}
