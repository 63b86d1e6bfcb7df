"""Structure-constant algebras: validation, values, and the pattern reduction."""

import random
import re
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from orbit_closure import bfs
from test_formula import _ENGINE_ARITY, _sparse_functional, _block_values

from superchar.algebra import (
    StructureAlgebra,
    constants_from_matrices,
    emit_algebra_spec,
    parse_algebra_spec,
    pattern_envelope,
    validate_algebra,
)
from superchar.catalog import (
    corpus,
    full_triangular,
    heisenberg,
    semidirect_algebra,
    sixteen_group,
    sixteen_group_basis,
    SIXTEEN_CLASS_MEMBERS,
    SIXTEEN_CLASS_SIZES,
)
from superchar import cli, formula
from superchar.core import PatternGroup
from superchar.errors import NotAssociative, NotNilpotent, ParseError, SpecMismatch
from superchar.formula import CharacterEvaluator
from superchar.gf import CharValue, Fq, FqMatrix, cell_exponents, nullspace_basis, rank
from superchar.poset import emit_spec, validate_closed
from superchar.table import build_algebra_table

F2 = Fq.of(2)
F3 = Fq.of(3)


def test_null_product_algebra_is_valid():
    alg = validate_algebra(3, F3, {})
    assert alg.multiply((1, 0, 2), (0, 1, 1)) == (1, 1, 0)  # plain addition


def test_idempotent_direction_rejected():
    with pytest.raises(NotNilpotent):
        validate_algebra(2, F2, {(0, 0): {0: 1}})


@pytest.mark.parametrize(
    "d, field, constants, witness, message",
    [
        (2, F2, {(0, 0): {0: 1}}, (0, 0, 0), "nonzero product of 3 basis elements: v1*v1*v1"),
        # v3 is a two-sided unit on v1, so v3 v1 = v1 repeats v1 v3 at every
        # level and is dropped: the witness keeps the first independent product
        (
            3,
            F3,
            {(2, 2): {2: 1}, (2, 0): {0: 1}, (0, 2): {0: 1}},
            (0, 2, 2, 2),
            "nonzero product of 4 basis elements: v1*v3*v3*v3",
        ),
        (
            3,
            Fq.of(4),
            {(2, 2): {2: 1}, (2, 0): {0: 1}, (0, 2): {0: 1}, (2, 1): {1: 1}, (1, 2): {1: 1}},
            (0, 2, 2, 2),
            "nonzero product of 4 basis elements: v1*v3*v3*v3",
        ),
    ],
)
def test_not_nilpotent_names_the_first_independent_long_product(d, field, constants, witness, message):
    with pytest.raises(NotNilpotent) as exc:
        validate_algebra(d, field, constants)
    assert exc.value.witness == witness
    assert str(exc.value) == message


def test_non_associative_rejected():
    # (v1 v1) v1 = v2 v1 = v3 but v1 (v1 v1) = v1 v2 = 0
    with pytest.raises(NotAssociative):
        validate_algebra(3, F2, {(0, 0): {1: 1}, (1, 0): {2: 1}})


def test_non_associative_rejected_where_only_the_right_pair_has_constants():
    # v1 v2 = 0, so (v1 v2) v2 = 0, but v1 (v2 v2) = v1 v3 = v4
    with pytest.raises(NotAssociative) as exc:
        validate_algebra(4, F2, {(1, 1): {2: 1}, (0, 2): {3: 1}})
    assert exc.value.indices == (0, 1, 1, 3)


@pytest.mark.parametrize("q", (2, 3))
def test_pattern_group_constants_pass_both_validators(q):
    """A PatternGroup sets its chain constants unchecked; both validators
    accept them on every corpus closed set, U_n and Heisenberg for n <= 7."""
    F = Fq.of(q)
    sets = [entry.J for entry in corpus()]
    sets += [make(n) for make in (full_triangular, heisenberg) for n in range(2, 8)]
    for J in sets:
        G = PatternGroup(J, F)
        assert validate_algebra(len(J), F, G.constants).constants == G.constants


def test_only_constants_from_outside_are_validated(monkeypatch, tmp_path):
    pattern, algebra = tmp_path / "u4.txt", tmp_path / "sixteen.txt"
    pattern.write_text(emit_spec(full_triangular(4), F3))
    algebra.write_text(emit_algebra_spec(sixteen_group()))
    calls = []
    for name in ("_validate_associative", "_validate_nilpotent"):
        check = getattr(StructureAlgebra, name)
        monkeypatch.setattr(StructureAlgebra, name, lambda self, name=name, check=check: calls.append(name) or check(self))
    assert isinstance(cli._load(str(pattern)), PatternGroup) and calls == []
    cli._load(str(algebra))
    StructureAlgebra(2, F3, {})
    assert calls == ["_validate_associative", "_validate_nilpotent"] * 2


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
        assert q ** alg.corank(o.rep) == len(bfs(alg.field, o.rep, moves))


def _matrix_product(F, x, y):
    out = {}
    for (i, j), a in x.items():
        for (jj, k), b in y.items():
            if j == jj:
                out[i, k] = F.add(out.get((i, k), 0), F.mul(a, b))
    return {pos: v for pos, v in out.items() if v}


def _random_matrix_algebra(seed):
    """The span of 2-4 random strictly upper triangular n x n matrices over
    F_q (each entry nonzero with probability 0.3), closed under products,
    as a StructureAlgebra; None unless q**d <= 2**12 and some structure
    constant is not 1."""
    rng = random.Random(seed)
    F, n = Fq.of(rng.choice((3, 4, 5, 7, 8, 9))), rng.choice((4, 5, 6))
    cells = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    basis = []
    queue = [{pos: rng.randrange(1, F.q) for pos in cells if rng.random() < 0.3} for _ in range(rng.randint(2, 4))]
    while queue and F.q ** len(basis) <= 2**12:
        m = queue.pop(0)  # kept when it raises the rank of the span
        if rank(FqMatrix.from_rows(F, [[b.get(pos, 0) for pos in cells] for b in basis + [m]], len(cells))) > len(basis):
            basis.append(m)
            queue += [_matrix_product(F, m, b) for b in basis] + [_matrix_product(F, b, m) for b in basis[:-1]]
    if F.q ** len(basis) > 2**12:
        return None
    alg = StructureAlgebra(len(basis), F, constants_from_matrices(n, F, basis))
    return alg if any(c != 1 for row in alg.constants.values() for c in row.values()) else None


def test_non_unit_structure_constants_match_the_dense_reference():
    """On random matrix algebras whose structure constants are not all 1,
    the batched coranks equal the scalar rank of A_eta and the block values
    equal the dense StructureAlgebra.value on every cell.  Algebras of more
    than 100 classes are left out, to bound the dense reference's cost."""
    checked = set()
    for seed in range(60):
        alg = _random_matrix_algebra(seed)
        if alg is None:
            continue
        etas, phis = [o.rep for o in alg.all_coorbit_reps()], [o.rep for o in alg.all_orbit_reps()]
        if len(etas) > 100:
            continue
        evs = CharacterEvaluator.batch(alg, etas)
        assert evs.coranks.tolist() == [alg.corank(eta) for eta in etas]
        codes = formula.value_blocks(evs, np.array(phis, dtype=np.int64).reshape(len(phis), alg.d))
        zero, q_exp, zeta_exp = cell_exponents(codes, alg.field.p)
        for e, eta in enumerate(etas):
            for c, phi in enumerate(phis):
                want = alg.value(eta, phi, corank=evs.coranks[e])
                if want.is_zero:
                    assert zero[e, c], (seed, eta, phi)
                else:
                    assert (zero[e, c], q_exp[e, c], zeta_exp[e, c]) == (False, want.q_exp, want.zeta_exp), (seed, eta, phi)
        checked.add((alg.field.q, alg.d))
    assert len(checked) >= 8  # several fields and dimensions


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
    "build, error, message",
    [
        (lambda: StructureAlgebra(-1, F2, {}), SpecMismatch, "dimension must be nonnegative"),
        (lambda: StructureAlgebra(2, F2, {(0, 2): {1: 1}}), SpecMismatch, "constant index (0, 2) out of range"),
        (lambda: StructureAlgebra(2, F2, {(0, 1): {2: 1}}), SpecMismatch, "constant target 2 out of range"),
        (
            lambda: constants_from_matrices(3, F2, [{(2, 1): 1}]),
            SpecMismatch,
            "matrix position (2, 1) is not strictly upper triangular",
        ),
        (
            lambda: constants_from_matrices(3, F2, [{(1, 2): 1}, {(2, 3): 1}]),
            SpecMismatch,
            "basis is not closed under products (position (1, 3))",
        ),
        (  # E12 E23 = E13 lies at the positions, but not in the span
            lambda: constants_from_matrices(3, F2, [{(1, 2): 1, (1, 3): 1}, {(2, 3): 1}]),
            SpecMismatch,
            "basis is not closed under products",
        ),
        (lambda: parse_algebra_spec("d 2\nq 2\nsize 3\nconstants\n"), ParseError, "line 3: unexpected 'size' in header"),
        (lambda: parse_algebra_spec("d 2\nq 2\nconstants\nembed 3\n"), ParseError, "line 4: expected 'embed n <int>'"),
        (
            lambda: parse_algebra_spec("d 2\nq 2\nconstants\nembed n 3\n1 1 2\n"),
            ParseError,
            "line 5: expected 'b i j v', got '1 1 2'",
        ),
        (
            lambda: parse_algebra_spec("d 2\nq 2\nconstants\nembed n 3\n3 1 2 1\n"),
            ParseError,
            "line 5: basis index out of range in '3 1 2 1'",
        ),
    ],
    ids=[
        "negative_d",
        "constant_index",
        "constant_target",
        "lower_triangular_position",
        "product_off_the_positions",
        "product_off_the_span",
        "unknown_header",
        "bad_embed_line",
        "short_embed_entry",
        "basis_index",
    ],
)
def test_each_malformed_algebra_is_refused_with_its_reason(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()


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
