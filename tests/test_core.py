"""Pattern-group multiplication, actions, action matrices, and orbits."""

import random
from functools import partial

import numpy as np
import pytest
from orbit_closure import bfs
from sweep_reference import reference_partition

from superchar.catalog import (
    class_counterexample_poset,
    coorbit_shape_poset,
    corpus,
    full_pairs,
    full_triangular,
    heisenberg,
    orbit_shape_poset,
    semidirect_algebra,
)
from superchar import core
from superchar.core import Orbit, PatternGroup, StructureAlgebra
from superchar.formula import table_rows
from superchar.errors import SizeCapExceeded, SpecMismatch
from superchar.gf import Fq, rank
from superchar.oracle import Oracle
from superchar.poset import functional, support, validate_closed

F2 = Fq.of(2)
F3 = Fq.of(3)
U3_2 = PatternGroup(full_triangular(3), F2)
U3_3 = PatternGroup(full_triangular(3), F3)


def _dense(G, f):
    """1 + X_f as a dense n x n matrix (test-local oracle representation)."""
    n = G.J.n
    M = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for (i, j), v in zip(G.J.order, f):
        M[i - 1][j - 1] = v
    return M


def _dense_mul(F, A, B):
    n = len(A)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for k in range(n):
            a = A[i][k]
            if a:
                for j in range(n):
                    if B[k][j]:
                        out[i][j] = F.add(out[i][j], F.mul(a, B[k][j]))
    return out


def _coords(G, M):
    return tuple(M[i - 1][j - 1] for i, j in G.J.order)


def test_multiply_identity():
    rng = random.Random(1)
    x = tuple(rng.randrange(2) for _ in range(3))
    assert U3_2.multiply(x, U3_2.identity()) == x
    assert U3_2.multiply(U3_2.identity(), x) == x


def test_multiply_single_chain_product():
    x = functional(U3_2.J, F2, {(1, 2): 1})
    y = functional(U3_2.J, F2, {(2, 3): 1})
    assert U3_2.multiply(x, y) == functional(U3_2.J, F2, {(1, 2): 1, (2, 3): 1, (1, 3): 1})


def test_one_parameter_subgroup_is_additive():
    # x_alpha(a) x_alpha(b) = x_alpha(a+b): no chain passes through (alpha, alpha)
    for G in (U3_3, PatternGroup(heisenberg(4), F3)):
        for k, _ in enumerate(G.J.order):
            for a in G.field.elements():
                for b in G.field.elements():
                    x = tuple(a if i == k else 0 for i in range(len(G.J)))
                    y = tuple(b if i == k else 0 for i in range(len(G.J)))
                    z = tuple(G.field.add(a, b) if i == k else 0 for i in range(len(G.J)))
                    assert G.multiply(x, y) == z


def test_multiply_matches_dense_and_is_associative():
    rng = random.Random(2)
    for G in (U3_3, PatternGroup(full_triangular(4), F2), PatternGroup(orbit_shape_poset(), F3)):
        d = len(G.J)
        for _ in range(25):
            x = tuple(rng.randrange(G.field.q) for _ in range(d))
            y = tuple(rng.randrange(G.field.q) for _ in range(d))
            z = tuple(rng.randrange(G.field.q) for _ in range(d))
            assert G.multiply(x, y) == _coords(G, _dense_mul(G.field, _dense(G, x), _dense(G, y)))
            assert G.multiply(G.multiply(x, y), z) == G.multiply(x, G.multiply(y, z))
            inv = G.inverse(x)
            assert G.multiply(x, inv) == G.identity()
            assert G.multiply(inv, x) == G.identity()


def test_inverse_examples():
    assert U3_3.inverse(U3_3.identity()) == U3_3.identity()
    x = functional(U3_3.J, F3, {(1, 2): 1, (2, 3): 1})
    assert U3_3.inverse(x) == functional(U3_3.J, F3, {(1, 2): 2, (2, 3): 2, (1, 3): 1})
    rng = random.Random(3)
    for _ in range(20):  # p = 2: inversion is an involution
        y = tuple(rng.randrange(2) for _ in range(3))
        assert U3_2.inverse(U3_2.inverse(y)) == y


def test_mismatched_length_raises():
    with pytest.raises(SpecMismatch):
        U3_2.multiply((0, 0), (0, 0, 0))


def test_act_left_examples():
    phi = functional(U3_3.J, F3, {(2, 3): 2})
    assert U3_3.act_left(U3_3.zero(), phi) == phi
    rho = functional(U3_3.J, F3, {(1, 2): 2})
    out = U3_3.act_left(rho, phi)
    assert out == functional(U3_3.J, F3, {(2, 3): 2, (1, 3): F3.mul(2, 2)})


def test_actions_match_dense_oracle():
    rng = random.Random(4)
    G = PatternGroup(full_triangular(4), F3)
    d = len(G.J)
    for _ in range(30):
        rho = tuple(rng.randrange(3) for _ in range(d))
        phi = tuple(rng.randrange(3) for _ in range(d))
        # dense: (1 + X_rho) X_phi and X_phi (1 + X_rho), read back on J
        x_rho = _dense(G, rho)
        X_phi = _dense(G, phi)
        for i in range(G.J.n):
            X_phi[i][i] = 0
        left = _dense_mul(F3, x_rho, X_phi)
        right = _dense_mul(F3, X_phi, x_rho)
        assert G.act_left(rho, phi) == _coords(G, left)
        assert G.act_right(phi, rho) == _coords(G, right)


def test_act_two_sided_matches_composition():
    rng = random.Random(5)
    for G in (PatternGroup(full_triangular(4), F3), PatternGroup(orbit_shape_poset(), F2)):
        d = len(G.J)
        for _ in range(30):
            tau, phi, rho = (
                tuple(rng.randrange(G.field.q) for _ in range(d)) for _ in range(3)
            )
            two = G.act_two_sided(tau, phi, rho)
            assert two == G.act_right(G.act_left(tau, phi), rho)
            assert two == G.act_left(tau, G.act_right(phi, rho))


def test_act_two_sided_heisenberg_moves_only_the_corner():
    G = PatternGroup(heisenberg(4), F2)
    corner = G.J.index[(1, 4)]
    rng = random.Random(6)
    for _ in range(20):
        tau, phi, rho = (tuple(rng.randrange(2) for _ in range(5)) for _ in range(3))
        out = G.act_two_sided(tau, phi, rho)
        assert all(out[k] == phi[k] for k in range(5) if k != corner)


def test_coact_examples_and_definitional_oracle():
    G = U3_3
    tau = functional(G.J, F3, {(1, 2): 2})
    eta = functional(G.J, F3, {(1, 3): 1})
    out = G.coact(tau, eta, G.zero())
    assert out == functional(G.J, F3, {(1, 3): 1, (2, 3): 2})
    assert G.coact(G.zero(), eta, G.zero()) == eta

    rng = random.Random(7)
    for Gx in (U3_3, PatternGroup(full_triangular(4), F2)):
        d = len(Gx.J)
        for _ in range(20):
            tau, eta, rho = (
                tuple(rng.randrange(Gx.field.q) for _ in range(d)) for _ in range(3)
            )
            got = Gx.coact(tau, eta, rho)
            # definitional: (x_tau^-1 lambda x_rho^-1)(X_b) = lambda(x_tau X_b x_rho),
            # with x_tau X_b x_rho = x_tau x_b x_rho - x_tau x_rho on coordinates
            for k in range(d):
                delta = tuple(1 if i == k else 0 for i in range(d))
                y1 = Gx.multiply(Gx.multiply(tau, delta), rho)
                y2 = Gx.multiply(tau, rho)
                diff = tuple(Gx.field.sub(a, b) for a, b in zip(y1, y2))
                assert got[k] == Gx.field.dot(eta, diff)


def test_action_matrix_examples():
    G = PatternGroup(heisenberg(4), F2)
    zero = G.zero()
    for build in (
        G.left_action_matrix,
        G.right_action_matrix,
        G.dual_left_action_matrix,
        G.dual_right_action_matrix,
    ):
        assert rank(build(zero)) == 0
    eta = functional(G.J, F2, {(1, 4): 1})
    assert rank(G.dual_left_action_matrix(eta)) == 2  # n - 2


def test_one_sided_orbit_sizes_match_matrix_ranks():
    rng = random.Random(8)
    for G in (
        PatternGroup(full_triangular(4), F2),
        PatternGroup(full_triangular(4), F3),
        PatternGroup(orbit_shape_poset(), F3),
        PatternGroup(heisenberg(5), F2),
    ):
        d = len(G.J)
        q = G.field.q
        for _ in range(12):
            phi = tuple(rng.randrange(q) for _ in range(d))
            eta = tuple(rng.randrange(q) for _ in range(d))
            assert G.orbit_right(phi).size == q ** rank(G.right_action_matrix(phi))
            assert G.orbit_left(phi).size == q ** rank(G.left_action_matrix(phi))
            c = G.corank(eta)
            assert G.coorbit_right(eta).size == q ** c
            assert G.coorbit_left(eta).size == q ** c
            # the uncapped size-only mode agrees with enumeration
            assert G.one_sided_orbit_sizes(phi) == (
                G.orbit_left(phi).size,
                G.orbit_right(phi).size,
            )
            assert G.one_sided_coorbit_size(eta) == q ** c


def test_corank_examples():
    for n in (3, 4, 5):
        for q in (2, 3):
            G = PatternGroup(heisenberg(n), Fq.of(q))
            eta = functional(G.J, G.field, {(1, n): 1})
            assert G.corank(eta) == n - 2
            assert G.corank(G.zero()) == 0
    G = PatternGroup(full_triangular(4), F3)
    assert G.corank(functional(G.J, F3, {(1, 4): 1})) == 2


def test_orbit_examples():
    G = PatternGroup(orbit_shape_poset(), F3)
    assert G.orbit(G.zero()).size == 1  # the identity sits alone
    x1 = functional(G.J, F3, {(1, 3): 1, (1, 4): 1, (2, 3): 1, (2, 4): 1})
    x2 = functional(G.J, F3, {(1, 3): 2, (1, 4): 1, (2, 3): 1, (2, 4): 1})
    assert G.orbit(x1).size == 3
    assert G.orbit(x2).size == 9

    H = PatternGroup(heisenberg(4), F2)
    phi = functional(H.J, F2, {(1, 2): 1})
    orb = H.orbit(phi)
    assert orb.size == 2  # a coset of the center
    corner = H.J.index[(1, 4)]
    assert {f[corner] for f in orb.elements} == {0, 1}


def test_orbit_representative_is_lexicographic_minimum():
    G = PatternGroup(orbit_shape_poset(), F3)
    rng = random.Random(9)
    for _ in range(15):
        phi = tuple(rng.randrange(3) for _ in range(8))
        orb = G.orbit(phi)
        assert orb.rep == min(orb.elements)
        assert phi in orb.elements


def test_all_reps_examples():
    J = validate_closed(3, {(1, 3)})
    G = PatternGroup(J, F2)
    classes = G.all_orbit_reps()
    chars = G.all_coorbit_reps()
    assert [o.rep for o in classes] == [(0,), (1,)]
    assert [o.rep for o in chars] == [(0,), (1,)]

    G = PatternGroup(heisenberg(3), F2)
    assert len(G.all_orbit_reps()) == 5


def test_orbit_counts_and_sizes_partition_the_space():
    for G in (
        PatternGroup(heisenberg(4), F3),
        PatternGroup(full_triangular(4), F2),
        PatternGroup(coorbit_shape_poset(), F2),
    ):
        classes = G.all_orbit_reps()
        chars = G.all_coorbit_reps()
        assert len(classes) == len(chars)
        assert sum(o.size for o in classes) == G.order()
        assert sum(o.size for o in chars) == G.order()


def test_monomial_representatives_on_full_triangular():
    from superchar.poset import is_monomial

    # the least member of every U_n class is its monomial (PatternGroup docstring)
    for n, qs in ((3, (16, 27)), (4, (2, 3, 5, 7, 8, 9)), (5, (2, 3, 4)), (6, (2,))):
        for q in qs:
            G = PatternGroup(full_triangular(n), Fq.of(q))
            for o in G.all_orbit_reps() + G.all_coorbit_reps():
                assert is_monomial(G.J, o.rep)


def test_size_cap_enforced():
    G = PatternGroup(full_triangular(4), F3)
    with pytest.raises(SizeCapExceeded, match="^729 functionals to search exceed the cap of 100$"):
        G.orbit(G.zero(), cap=100)
    with pytest.raises(SizeCapExceeded, match="^729 functionals to sweep exceed the cap of 100$"):
        G.all_orbit_reps(cap=100)


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9])
def test_partition_classes_are_single_orbit_closures(q):
    # U_4 up to q = 4 (4096 functionals), U_3 beyond
    G = PatternGroup(full_triangular(4 if q <= 4 else 3), Fq.of(q))
    for part, moves in (
        (G.orbit_partition(), G._move_set("left") + G._move_set("right")),
        (G.coorbit_partition(), G._move_set("co_left") + G._move_set("co_right")),
    ):
        covered = 0
        for k, (rep, size) in enumerate(zip(part.reps, part.sizes)):
            members = bfs(G.field, rep, moves)
            assert min(members) == rep
            assert len(members) == size
            assert all(part.class_of(m) == k for m in members)
            covered += size
        assert covered == G.order()


def _first_non_unit_matrix_algebra():
    from test_algebra import _random_matrix_algebra

    return next(alg for alg in map(_random_matrix_algebra, range(60)) if alg is not None)


F256 = Fq.of(256, (1, 1, 0, 1, 1, 0, 0, 0, 1))  # x^8 + x^4 + x^3 + x + 1
F243 = Fq.of(243, (1, 0, 0, 0, 2, 1))  # x^5 + 2 x^4 + 1

# every corpus set at q = 2 (labels of up to 16 bits), where one pass of
# the fixpoint settles every label; two sets at q = 3, where it takes two;
# the Heisenberg set with n = 10, whose 2**17 functionals take 32-bit labels;
# the full triangular and Heisenberg sets over F_4, F_8, F_9 and F_16 (H_3 is
# U_3, and H_4 over F_16 has 2**20 functionals, past the reference's reach);
# a semidirect algebra over F_4, a random matrix algebra with a constant
# other than 1, and one-constant algebras over F_2**8 and F_3**5
_SWEEP_CASES = {f"{entry.name}_q2": partial(PatternGroup, entry.J, F2) for entry in corpus()} | {
    "full_u4_q3": partial(PatternGroup, full_triangular(4), F3),
    "class_counterexample_q3": partial(PatternGroup, class_counterexample_poset(), F3),
    "heisenberg10_q2": partial(PatternGroup, heisenberg(10), F2),
    "full_u4_q4": partial(PatternGroup, full_triangular(4), Fq.of(4)),
    **{f"full_u3_q{q}": partial(PatternGroup, full_triangular(3), Fq.of(q)) for q in (8, 9, 16)},
    **{f"heisenberg4_q{q}": partial(PatternGroup, heisenberg(4), Fq.of(q)) for q in (4, 8, 9)},
    "semidirect4_q4": partial(semidirect_algebra, 4, Fq.of(4)),
    "matrix_algebra": _first_non_unit_matrix_algebra,
    "one_constant_q256": partial(StructureAlgebra, 2, F256, {(0, 0): {1: 0x53}}),
    "one_constant_q243": partial(StructureAlgebra, 2, F243, {(0, 0): {1: 100}}),
}
# the oracle's backend moves on two of those: both multiplications, both
# dual maps, the right dual map alone, and conjugation
_ORACLE_SWEEPS = ("full_u4_q4", "matrix_algebra")


@pytest.mark.parametrize("name", sorted(_SWEEP_CASES) + [f"oracle_{name}" for name in _ORACLE_SWEEPS])
def test_sweep_equals_the_fancy_index_reference(name):
    """The sweep of core equals the reference fixpoint over whole functional
    arrays on both actions of a group, or on the oracle backend's move
    kinds: labels, representatives and sizes, in the label dtype of the
    code count."""
    G = _SWEEP_CASES[name.removeprefix("oracle_")]()
    kinds, moves_of = (("left", "right"), ("co_left", "co_right")), G._move_set
    if name.startswith("oracle_"):
        kinds = (("mult_left", "mult_right"), ("dual_left", "dual_right"), ("dual_right",), ("conj",))
        moves_of = partial(getattr, Oracle(G).backend)
    dtype = np.min_scalar_type(G.order() - 1)
    assert (dtype == np.uint32) == (name == "heisenberg10_q2")
    for kind in kinds:
        moves = sum(map(moves_of, kind), ())
        part = core.orbit_partition_from_moves(G.field, G.dim, moves, None)
        labels, rep_codes, sizes = reference_partition(G.field, G.dim, moves)
        assert part._labels.dtype == dtype
        assert np.array_equal(part.canonical_codes(), labels)
        assert [part.code(rep) for rep in part.reps] == rep_codes.tolist()
        assert part.sizes == tuple(sizes.tolist())


# each single-orbit method and the backend move sets whose closure it is
_SINGLE_ORBITS = {
    "orbit": ("mult_left", "mult_right"),
    "orbit_left": ("mult_left",),
    "orbit_right": ("mult_right",),
    "coorbit": ("dual_left", "dual_right"),
    "coorbit_left": ("dual_left",),
    "coorbit_right": ("dual_right",),
}


@pytest.mark.parametrize("case", ["U4_q2", "U4_q3", "U4_q4", "U3_q8", "U3_q9", "matrix_algebra"])
def test_single_orbits_equal_the_reference_closure(case):
    """Each single-orbit method, a lookup in a kept sweep, equals the closure
    of the oracle's backend moves, read off the product alone, from random
    functionals."""
    if case == "matrix_algebra":
        G = _first_non_unit_matrix_algebra()
        assert any(c != 1 for row in G.constants.values() for c in row.values())
    else:
        n, q = map(int, case[1:].split("_q"))
        G = PatternGroup(full_triangular(n), Fq.of(q))
    backend = Oracle(G).backend
    rng = random.Random(case)
    for _ in range(8):
        f = tuple(rng.randrange(G.field.q) for _ in range(G.dim))
        for method, kinds in _SINGLE_ORBITS.items():
            members = bfs(G.field, f, sum((getattr(backend, kind) for kind in kinds), ()))
            assert getattr(G, method)(f) == Orbit(min(members), len(members), frozenset(members)), (method, f)


def test_each_action_set_is_swept_once(monkeypatch):
    """One sweep per action set, kept by the group: single orbits,
    partitions, representative lists and the table's rows all read it, and
    each keeps its own cap check before the lookup."""
    sweeps = []
    sweep = core.orbit_partition_from_moves
    monkeypatch.setattr(core, "orbit_partition_from_moves", lambda *args: sweeps.append(args) or sweep(*args))
    G = PatternGroup(heisenberg(4), F3)
    rng = random.Random(5)
    phis = [tuple(rng.randrange(3) for _ in range(G.dim)) for _ in range(5)]
    for phi in phis:
        G.orbit(phi)
    assert len(sweeps) == 1
    part = G.orbit_partition()
    assert G.orbit_partition() is part and len(sweeps) == 1
    assert [o.rep for o in G.all_orbit_reps()] == list(part.reps) and len(sweeps) == 1
    for phi in phis:
        G.coorbit(phi)
    assert len(sweeps) == 2
    classes, _, chars, _, _ = table_rows(G, None)
    assert G.coorbit_partition() is G.coorbit_partition() and len(sweeps) == 2
    assert np.array_equal(classes, part.digits) and np.array_equal(chars, G.coorbit_partition().digits)
    G.orbit_left(phis[0])
    assert len(sweeps) == 3
    with pytest.raises(SizeCapExceeded, match="functionals to search"):  # a kept sweep keeps the cap check
        G.orbit(phis[0], cap=100)
    with pytest.raises(SizeCapExceeded, match="functionals to sweep"):
        G.orbit_partition(cap=100)


def test_coorbit_sizes_depend_on_more_than_shape():
    # exhaustive witness search: same support, different co-orbit size
    G = PatternGroup(coorbit_shape_poset(), F3)
    part = G.coorbit_partition()
    seen = {}
    witness = None
    for rep, size in zip(part.reps, part.sizes):
        shape = support(G.J, rep)
        if shape in seen and seen[shape] != size:
            witness = shape
            break
        seen.setdefault(shape, size)
    assert witness is not None
