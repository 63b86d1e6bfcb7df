"""Structure-constant algebras: validation, values, and the pattern reduction."""

import random
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_formula import _sparse_functional, _block_values

from superchar.algebra import (
    StructureAlgebra,
    constants_from_matrices,
    emit_algebra_spec,
    parse_algebra_spec,
    pattern_envelope,
    validate_algebra,
)
from superchar.catalog import (
    full_triangular,
    semidirect_algebra,
    sixteen_group,
    sixteen_group_basis,
    SIXTEEN_CLASS_MEMBERS,
    SIXTEEN_CLASS_SIZES,
)
from superchar import formula
from superchar.core import PatternGroup, _bfs
from superchar.errors import NotAssociative, NotNilpotent, ParseError, SpecMismatch
from superchar.formula import CharacterEvaluator
from superchar.gf import CharValue, Fq, FqMatrix, nullspace_basis, rank
from superchar.poset import validate_closed
from superchar.table import build_algebra_table

F2 = Fq.of(2)
F3 = Fq.of(3)


def test_null_product_algebra_is_valid():
    alg = validate_algebra(3, F3, {})
    assert alg.multiply((1, 0, 2), (0, 1, 1)) == (1, 1, 0)  # plain addition


def test_idempotent_direction_rejected():
    with pytest.raises(NotNilpotent):
        validate_algebra(2, F2, {(0, 0): {0: 1}})


def test_non_associative_rejected():
    # (v1 v1) v1 = v2 v1 = v3 but v1 (v1 v1) = v1 v2 = 0
    with pytest.raises(NotAssociative):
        validate_algebra(3, F2, {(0, 0): {1: 1}, (1, 0): {2: 1}})


def test_non_associative_rejected_where_only_the_right_pair_has_constants():
    # v1 v2 = 0, so (v1 v2) v2 = 0, but v1 (v2 v2) = v1 v3 = v4
    with pytest.raises(NotAssociative) as exc:
        validate_algebra(4, F2, {(1, 1): {2: 1}, (0, 2): {3: 1}})
    assert exc.value.indices == (0, 1, 1, 3)


def test_sixteen_group_constants_derived_from_matrices():
    field = F2
    constants = constants_from_matrices(4, field, sixteen_group_basis())
    assert constants == {(0, 0): {1: 1, 2: 1}, (0, 2): {3: 1}, (1, 0): {3: 1}}
    validate_algebra(4, field, constants)


def test_mesh_data_zero_and_central():
    alg = sixteen_group()
    M, a, b = alg.mesh_data((0, 0, 0, 0), (1, 1, 1, 1))
    assert all(all(v == 0 for v in row) for row in M.rows)
    assert a == (0,) * 4 and b == (0,) * 4
    # z is central: phi = eta = the dual-z direction gives vanishing data
    M, a, b = alg.mesh_data((0, 0, 0, 1), (0, 0, 0, 1))
    assert all(all(v == 0 for v in row) for row in M.rows)
    assert a == (0,) * 4 and b == (0,) * 4

    abelian = validate_algebra(3, F3, {})
    M, a, b = abelian.mesh_data((1, 2, 0), (2, 2, 1))
    assert all(all(v == 0 for v in row) for row in M.rows)
    assert a == (0,) * 3 and b == (0,) * 3


def test_corank_examples():
    alg = sixteen_group()
    assert alg.corank((0, 0, 0, 0)) == 0
    assert alg.corank((0, 0, 0, 1)) == 2  # degree 4
    assert alg.corank((0, 0, 1, 0)) == 1  # degree 2


def test_sixteen_group_spot_values():
    alg = sixteen_group()
    one = (0, 0, 0, 0)
    z = (0, 0, 0, 1)
    x = (1, 0, 0, 0)
    lr = (0, 1, 1, 0)
    l = (0, 1, 0, 0)
    dual_z = (0, 0, 0, 1)
    dual_r = (0, 0, 1, 0)
    assert alg.value((0,) * 4, x) == CharValue.of(0, 0, 2)  # trivial character
    assert alg.value(dual_z, one).as_int(F2) == 4
    assert alg.value(dual_z, z).as_int(F2) == -4
    assert alg.value(dual_z, x).as_int(F2) == 0
    assert alg.value(dual_r, lr).as_int(F2) == -2
    assert alg.value(dual_r, l).as_int(F2) == 2


def test_sixteen_group_superclasses():
    alg = sixteen_group()
    part = alg.orbit_partition()
    assert len(part.reps) == 7
    for name, member in SIXTEEN_CLASS_MEMBERS.items():
        k = part.class_of(member)
        assert part.sizes[k] == SIXTEEN_CLASS_SIZES[name]
    assert sorted(part.sizes) == [1, 1, 2, 2, 2, 4, 4]


def test_sixteen_group_irreducibility_split():
    alg = sixteen_group()
    flags = sorted(alg.is_irreducible(o.rep) for o in alg.all_coorbit_reps())
    assert flags == [False, False, False, True, True, True, True]


@pytest.mark.parametrize("n,q", [(4, 2), (4, 3), (4, 4), (5, 2), (5, 3), (None, 2)])
def test_algebra_is_irreducible_matches_the_annihilators(n, q, monkeypatch):
    """ann_R and ann_L of lambda_eta are the nullspaces of A_eta and its
    transpose; eta is irreducible iff together they span F_q**d."""
    alg = sixteen_group() if n is None else _semidirect(n, q)
    F, d = alg.field, alg.d
    flags = []
    for o in alg.all_coorbit_reps():
        A = alg._eta_matrix(o.rep)
        basis = nullspace_basis(FqMatrix.from_rows(F, A, d))
        basis += nullspace_basis(FqMatrix.from_rows(F, list(zip(*A)), d))
        expected = rank(FqMatrix.from_rows(F, basis, d)) == d
        assert alg.is_irreducible(o.rep) == expected
        flags.append(expected)
    assert any(flags) and not all(flags)  # both outcomes occur
    # the table reads the same flags off the co-orbit sizes, two rows a chunk
    monkeypatch.setattr(formula, "_ROW_CELLS", 2 * len(alg.all_orbit_reps()))
    assert [ch["irreducible"] for ch in build_algebra_table(alg).chars] == flags


def test_pattern_envelope_examples():
    basis = [{(1, 2): 1, (1, 3): 1, (2, 4): F3.neg(1), (3, 4): 1}]
    J = pattern_envelope(4, basis, F3)
    assert J.pairs == {(1, 2), (1, 3), (1, 4), (2, 4), (3, 4)}
    assert pattern_envelope(3, [{(1, 3): 1}], F2).pairs == {(1, 3)}
    # a full pattern algebra is its own envelope
    U = full_triangular(4)
    basis_full = [{pair: 1} for pair in U.order]
    assert pattern_envelope(4, basis_full, F2) == U


def test_pattern_group_constants():
    J = validate_closed(3, {(1, 3)})
    assert PatternGroup(J, F2).constants == {}
    U3 = full_triangular(3)
    alg = PatternGroup(U3, F2)
    i12, i23, i13 = U3.index[(1, 2)], U3.index[(2, 3)], U3.index[(1, 3)]
    assert alg.constants == {(i12, i23): {i13: 1}}


@lru_cache(maxsize=None)
def _semidirect(n, q):
    return semidirect_algebra(n, Fq.of(q))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from((4, 5)), st.sampled_from((2, 3, 4)))
def test_algebra_value_block_matches_dense_value(seed, n, q):
    rng = random.Random(seed)
    alg = _semidirect(n, q)
    for _ in range(3):
        eta = _sparse_functional(rng, q, alg.d)
        phis = [_sparse_functional(rng, q, alg.d) for _ in range(12)]
        ev = CharacterEvaluator(alg, eta)
        expected = [alg.value(eta, phi) for phi in phis]
        assert _block_values(ev, phis) == expected
        assert [ev.value(phi) for phi in phis] == expected


@pytest.mark.parametrize(
    "n,q", [(4, 2), (4, 3), (4, 4), (5, 2), (5, 3), (5, 4), (None, 2)]
)
def test_algebra_corank_is_the_rank_of_a_eta(n, q):
    """q**corank is the size of the right co-orbit, found here by closure."""
    alg = sixteen_group() if n is None else _semidirect(n, q)
    moves = alg._move_set("co_right")
    for o in alg.all_coorbit_reps():
        assert q ** alg.corank(o.rep) == len(_bfs(alg.field, o.rep, moves))


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


def test_mismatched_length_raises_on_an_algebra():
    alg = _semidirect(4, 2)
    assert alg.d == 5
    for name, arity in _ENGINE_ARITY.items():
        for length in (4, 6):
            for k in range(arity):
                args = [alg.zero()] * arity
                args[k] = (1,) * length
                with pytest.raises(SpecMismatch):
                    getattr(alg, name)(*args)
    with pytest.raises(SpecMismatch):
        CharacterEvaluator(alg, (1,) * 6)
    ev = CharacterEvaluator(alg, alg.zero())
    for width in (4, 6):
        with pytest.raises(SpecMismatch):
            ev.value_block(np.ones((3, width), dtype=np.int64))


def test_zero_dimensional_algebra():
    alg = StructureAlgebra(0, F2, {})  # the algebra of an empty closed set
    assert alg.order() == 1 and alg.corank(()) == 0
    assert CharacterEvaluator(alg, ()).value(()) == CharValue.of(0, 0, 2)


def test_algebra_orbit_counts_match():
    alg = sixteen_group()
    assert len(alg.all_orbit_reps()) == len(alg.all_coorbit_reps()) == 7
    assert sum(o.size for o in alg.all_orbit_reps()) == 16
    assert sum(o.size for o in alg.all_coorbit_reps()) == 16


def test_algebra_spec_round_trip():
    alg = sixteen_group()
    text = emit_algebra_spec(alg)
    alg2, embedding = parse_algebra_spec(text)
    assert embedding is None
    assert alg2.constants == alg.constants
    assert alg2.field == alg.field and alg2.d == alg.d


def test_algebra_spec_embed_section():
    text = (
        "d 1\nq 3\nconstants\nembed n 4\n"
        "1 1 2 1\n1 1 3 1\n1 2 4 2\n1 3 4 1\n"
    )
    alg, embedding = parse_algebra_spec(text)
    assert alg.d == 1 and not alg.constants
    n, basis = embedding
    J = pattern_envelope(n, basis, alg.field)
    assert J.pairs == {(1, 2), (1, 3), (1, 4), (2, 4), (3, 4)}


def test_semidirect_product_closed_form():
    """Truncated polynomials acting on a vector column: the labelled closed
    form q**max(k-2, n-1-l) * theta(ab + st on matching labels) agrees with
    the generic value on every labelled pair."""
    from superchar.catalog import semidirect_algebra

    for n, q in ((4, 2), (5, 2), (5, 3)):
        F = Fq.of(q)
        alg = semidirect_algebra(n, F)
        npoly = n - 2

        def vec(i, a, j, s):
            out = [0] * alg.d
            if i is not None:
                out[i - 2] = a
            if j is not None:
                out[npoly + j - 1] = s
            return tuple(out)

        def labels():
            yield (None, None, 0, 0)
            for i in range(2, n):
                for a in range(1, q):
                    yield (i, None, a, 0)
            for j in range(1, n):
                for t in range(1, q):
                    yield (None, j, 0, t)
            for i in range(2, n):
                for j in range(n - i + 1, n):
                    for a in range(1, q):
                        for t in range(1, q):
                            yield (i, j, a, t)

        def closed(kl, ij):
            k, l, b, t = kl
            i, j, a, s = ij
            if i is not None and k is not None and 2 <= k - i + 1 <= n - 1 and F.mul(a, b):
                return CharValue.zero()
            if i is not None and l is not None and i + l - 1 <= n - 1 and F.mul(a, t):
                return CharValue.zero()
            if j is not None and l is not None and j - l + 1 >= 2 and F.mul(s, t):
                return CharValue.zero()
            ksub = k if k is not None else 2
            lsub = l if l is not None else n - 1
            arg = 0
            if i is not None and k is not None and i == k:
                arg = F.add(arg, F.mul(a, b))
            if j is not None and l is not None and j == l:
                arg = F.add(arg, F.mul(s, t))
            return CharValue.of(max(ksub - 2, n - 1 - lsub), F.trace(arg), F.p)

        for kl in labels():
            eta = vec(kl[0], kl[2], kl[1], kl[3])
            corank = alg.corank(eta)
            for ij in labels():
                phi = vec(ij[0], ij[2], ij[1], ij[3])
                assert alg.value(eta, phi, corank=corank) == closed(kl, ij)


def test_algebra_spec_errors():
    with pytest.raises(ParseError):
        parse_algebra_spec("d 2\nconstants\n")  # q missing
    with pytest.raises(ParseError):
        parse_algebra_spec("d 2\nq 2\nconstants\n1 2\n")
    with pytest.raises(ParseError):
        parse_algebra_spec("d 2\nq 2\nconstants\n3 1 1 1\n")  # index out of range
    with pytest.raises(ParseError):
        parse_algebra_spec("d 2\nq 2\n")  # no constants section


@pytest.mark.parametrize(
    "text, line",
    [
        ("d 2\nd 3\nq 2\nconstants\n", 2),
        ("d 2\nq 2\nq 3\nconstants\n", 3),
        ("d 2\nq 4\nmodulus 1 1 1\nmodulus 1 1 1\nconstants\n", 4),
        ("d 2\nq 2\nconstants\n1 1 2 1\n1 1 2 0\n", 5),  # would override a nonzero value
        ("d 2\nq 2\nconstants\n1 1 2 0\n1 1 2 1\n", 5),  # a zero line would be ignored
        ("d 2\nq 2\nconstants\n1 1 2 1\nembed n 3\n1 1 2 1\n1 1 2 1\n", 7),
    ],
    ids=["d", "q", "modulus", "constant", "zero_constant", "embed"],
)
def test_algebra_spec_rejects_repeated_lines(text, line):
    with pytest.raises(ParseError) as info:
        parse_algebra_spec(text)
    assert info.value.line == line
