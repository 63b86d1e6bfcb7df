"""Field arithmetic, exact linear algebra, and cyclotomic integers."""

import itertools
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superchar import gf
from superchar.errors import BadField, InternalInvariantViolation, SpecMismatch
from superchar.gf import (
    CharValue,
    CycInt,
    DEFAULT_MODULI,
    Fq,
    FqMatrix,
    _solve_perp,
    nullspace_basis,
    perp_to_nullspace,
    rank,
    solve,
    theta,
    unit_orbits,
)

F2 = Fq.of(2)
F3 = Fq.of(3)
F4 = Fq.of(4)
F256 = Fq.of(256, (1, 1, 0, 1, 1, 0, 0, 0, 1))  # x^8 + x^4 + x^3 + x + 1
F512 = Fq.of(512, (1, 0, 0, 0, 1, 0, 0, 0, 0, 1))  # x^9 + x^4 + 1
F65521 = Fq.of(65521)  # the largest prime field
F65536 = Fq.of(65536, (1, 0, 1, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1))  # x^16 + x^5 + x^3 + x^2 + 1


def _field_id(F):
    return f"q{F.q}" if F.r == 1 else f"q{F.q}-" + "".join(map(str, F.modulus))


def test_prime_field_arithmetic():
    assert F3.add(2, 2) == 1
    assert F3.mul(2, 2) == 1
    assert F3.neg(1) == 2
    assert F2.inv(1) == 1
    assert F3.sub(0, 1) == 2


def test_extension_field_multiplication_follows_modulus():
    x = F4.from_coeffs([0, 1])
    assert F4.coeffs(F4.mul(x, x)) == (1, 1)  # X*X = X + 1


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        F3.inv(0)


def test_field_axioms_exhaustive_small():
    for q in (2, 3, 4, 5, 8, 9):
        F = Fq.of(q)
        for a in F.elements():
            assert F.add(a, 0) == a
            assert F.mul(a, 1) == a
            assert F.add(a, F.neg(a)) == 0
            if a:
                assert F.mul(a, F.inv(a)) == 1
        for a in F.elements():
            for b in F.elements():
                assert F.add(a, b) == F.add(b, a)
                assert F.mul(a, b) == F.mul(b, a)


def test_bad_fields_rejected():
    with pytest.raises(BadField):
        Fq.of(6)
    with pytest.raises(BadField):
        Fq.of(1)
    with pytest.raises(BadField):
        Fq.of(4, modulus=(1, 0, 1))  # X^2 + 1 = (X + 1)^2 over F_2
    with pytest.raises(BadField):
        Fq.of(4, modulus=(1, 1))  # wrong degree
    with pytest.raises(BadField):
        Fq(2, 17)  # q > 2**16
    with pytest.raises(BadField, match="exceeds the supported limit"):
        Fq.of(10**30 + 57)  # refused before sqrt(q) trial divisions
    with pytest.raises(BadField, match="only meaningful for proper prime powers"):
        Fq.of(5, (1, 1))  # a modulus for a prime field


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Fq(2, 0), "extension degree must be positive, got 0"),
        (lambda: Fq(3, 2), "q = 9 needs a modulus polynomial"),
        (lambda: Fq(3, 2, (1, 0, 4)), "modulus coefficients must be reduced mod p"),
        (lambda: Fq(3, 2, (1, 0, 2)), "modulus must be monic"),
        (lambda: Fq.of(32), "no built-in modulus for q = 32; supply one"),
    ],
    ids=["degree_0", "no_modulus", "unreduced_coefficient", "not_monic", "no_built_in_modulus"],
)
def test_each_malformed_field_is_refused_with_its_reason(build, message):
    with pytest.raises(BadField, match=f"^{re.escape(message)}$"):
        build()


def test_a_field_past_the_limit_is_refused_before_factoring(monkeypatch):
    """Fq checks p**r against MAX_Q before it factors p: trial division of
    the Mersenne prime 2**61 - 1 would take about 2**30 steps."""
    calls = []
    factors = gf._prime_factors
    monkeypatch.setattr(gf, "_prime_factors", lambda n: calls.append(n) or factors(n))
    with pytest.raises(BadField, match="exceeds the supported limit"):
        Fq(2**61 - 1, 1)
    assert calls == []
    assert Fq(65521, 1).q == 65521 and calls == [65521]  # the largest prime below 2**16
    with pytest.raises(BadField, match="is not prime"):
        Fq(65535, 1)


def _accepts(p, r, m) -> bool:
    try:
        Fq(p, r, m)
    except BadField:
        return False
    return True


def test_default_moduli_are_irreducible():
    # construction validates irreducibility; each default is the first
    # modulus accepted read from the leading coefficient down, the least
    # code sum m_i p**i: for q = 8, 1 + X**2 + X**3 is irreducible and
    # precedes the default 1 + X + X**3 as a stored tuple, but X**3 + X + 1
    # comes first from the top
    for q, default in DEFAULT_MODULI.items():
        F = Fq.of(q)
        assert F.q == q and F.modulus == default
        candidates = (high[::-1] + (1,) for high in itertools.product(range(F.p), repeat=F.r))
        assert next(m for m in candidates if _accepts(F.p, F.r, m)) == default, q


def _poly_product(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return tuple(out)


@pytest.mark.parametrize("p, degrees", [(2, range(2, 9)), (3, range(2, 5)), (5, range(2, 4)), (7, range(2, 3))])
def test_fq_refuses_exactly_the_products_of_two_monic_polynomials(p, degrees):
    """For r > 1, Fq(p, r, m) raises "reducible polynomial" iff m is a
    product of two monic polynomials of positive degree, multiplied out here
    coefficient by coefficient: the walk behind the log tables against the
    definition, on every monic m of each degree."""
    monic = {d: [tail + (1,) for tail in itertools.product(range(p), repeat=d)] for d in range(1, max(degrees))}
    for r in degrees:
        products = {_poly_product(a, b, p) for d in range(1, r // 2 + 1) for a in monic[d] for b in monic[r - d]}
        for m in (tail + (1,) for tail in itertools.product(range(p), repeat=r)):
            if m in products:
                with pytest.raises(BadField, match=re.escape(f"reducible polynomial: {list(m)} over F_{p}")):
                    Fq(p, r, m)
            else:
                assert Fq(p, r, m).modulus == m


def test_custom_modulus_accepted():
    F9 = Fq.of(9, modulus=(2, 2, 1))  # X^2 + 2X + 2
    assert F9.mul(3, 3) != 0  # X * X reduced by the custom modulus


def _schoolbook_mul(F, a, b):
    """a * b as polynomials over F_p, reduced mod the monic modulus by long division."""
    p, r = F.p, F.r
    prod, cb = [0] * (2 * r - 1), F.coeffs(b)
    for i, u in enumerate(F.coeffs(a)):
        for j, v in enumerate(cb):
            prod[i + j] = (prod[i + j] + u * v) % p
    for top in range(2 * r - 2, r - 1, -1):  # subtract prod[top] * X**(top - r) * modulus
        c = prod[top]
        for k, m in enumerate(F.modulus):
            prod[top - r + k] = (prod[top - r + k] - c * m) % p
    return F.from_coeffs(prod[:r])


def _add_digitwise(F, a, b):
    return F.from_coeffs([(x + y) % F.p for x, y in zip(F.coeffs(a), F.coeffs(b))])


def _neg_digitwise(F, a):
    return F.from_coeffs([-x % F.p for x in F.coeffs(a)])


_EXTENSIONS = [Fq.of(q) for q in sorted(DEFAULT_MODULI)] + [Fq.of(9, (2, 2, 1)), F256, F512, F65536]


@pytest.mark.parametrize("F", _EXTENSIONS, ids=_field_id)
def test_mul_matches_schoolbook_polynomial_multiplication(F):
    if F.q <= 32:
        pairs = list(itertools.product(F.elements(), repeat=2))
    else:
        rng = random.Random(F.q)
        pairs = [(rng.randrange(F.q), rng.randrange(F.q)) for _ in range(2000)]
    assert [F.mul(a, b) for a, b in pairs] == [_schoolbook_mul(F, a, b) for a, b in pairs]


@pytest.mark.parametrize("F", _EXTENSIONS, ids=_field_id)
def test_mul_is_associative_and_distributes_over_add(F):
    rng = random.Random(F.q + 1)
    for _ in range(300):
        a, b, c = (rng.randrange(F.q) for _ in range(3))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


def _frobenius_trace(F, a):
    """a + a**p + ... + a**(p**(r-1)) through the schoolbook references alone."""
    acc = frob = a
    for _ in range(F.r - 1):
        x = frob
        for _ in range(F.p - 1):
            x = _schoolbook_mul(F, x, frob)
        frob = x
        acc = _add_digitwise(F, acc, frob)
    assert F.coeffs(acc)[1:] == (0,) * (F.r - 1)
    return F.coeffs(acc)[0]


@pytest.mark.parametrize(
    "F",
    [F3, Fq.of(251)] + [Fq.of(q) for q in sorted(DEFAULT_MODULI)] + [F256, F512, F65521, F65536],
    ids=_field_id,
)
def test_derived_arrays_match_the_slow_ops_entry_by_entry(F):
    """Every scalar op, the array sums and rows of multiples, the blocks
    D(X**v), the trace form and the trace against slow test-local
    references: schoolbook multiplication, digitwise add and neg, the inverse as the b with a b = 1 by schoolbook, powers by
    repeated schoolbook products, and the Frobenius sum.  Every pair and
    element of each field up to q = 256, and 2000 sampled pairs beyond."""
    q = F.q
    if q <= 256:
        elements = list(F.elements())
        pairs = list(itertools.product(elements, repeat=2))
    else:
        rng = random.Random(q)
        pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(2000)] + [(0, 0), (0, 1), (1, 0), (q - 1, q - 1)]
        elements = sorted({a for pair in pairs for a in pair})
    mul = {pair: _schoolbook_mul(F, *pair) for pair in pairs}
    assert [F.mul(a, b) for a, b in pairs] == [mul[pair] for pair in pairs]
    assert [F.add(a, b) for a, b in pairs] == [_add_digitwise(F, a, b) for a, b in pairs]
    assert [F.sub(a, b) for a, b in pairs] == [_add_digitwise(F, a, _neg_digitwise(F, b)) for a, b in pairs]
    assert [F.neg(a) for a in elements] == [_neg_digitwise(F, a) for a in elements]
    a, b = np.array(pairs).T
    assert F.add_codes([a, b, a]).tolist() == [_add_digitwise(F, _add_digitwise(F, x, y), x) for x, y in pairs]
    units = [a for a in elements if a]
    traced = elements if q <= 256 else elements[:: len(elements) // 100]
    for c in units[:: max(1, len(units) // 8)]:
        assert F.multiples(c)[traced].tolist() == [_schoolbook_mul(F, c, x) for x in traced]
    if q <= 256:
        assert [F.inv(a) for a in units] == [next(b for b in elements if mul[a, b] == 1) for a in units]
        for a in elements:  # a**e for e in -(q - 1) .. q, with 0**e only for e >= 0
            power = 1
            for e in range(q + 1):
                assert F.power(a, e) == power
                if a:
                    assert F.power(a, -e) == F.power(F.inv(a), e)
                power = mul[power, a]
    else:
        assert all(_schoolbook_mul(F, a, F.inv(a)) == 1 for a in units)
        for a, e in pairs:
            assert F.power(a, e + 1) == _schoolbook_mul(F, F.power(a, e), a)
            if a:
                assert _schoolbook_mul(F, F.power(a, e), F.power(a, -e)) == 1
    assert F.power(0, 0) == 1 and F.power(0, q) == 0
    with pytest.raises(ZeroDivisionError):
        F.power(0, -1)
    basis = F.additive_generators()
    assert F._basis_blocks.tolist() == [[list(F.coeffs(_schoolbook_mul(F, x, y))) for y in basis] for x in basis]
    assert F.trace_form.tolist() == [[_frobenius_trace(F, _schoolbook_mul(F, x, y)) for y in basis] for x in basis]
    assert [F.trace(a) for a in traced] == [_frobenius_trace(F, a) for a in traced]


def _order(F, a):
    """The multiplicative order of a unit a by schoolbook products alone:
    start from q - 1 and divide out each prime while the power stays 1."""
    def power(x, e):
        out = 1
        while e:
            if e & 1:
                out = _schoolbook_mul(F, out, x)
            x, e = _schoolbook_mul(F, x, x), e >> 1
        return out

    order, m, l = F.q - 1, F.q - 1, 2
    while m > 1:
        if m % l:
            l += 1
            continue
        m //= l
        if power(a, order // l) == 1:
            order //= l
    return order


F3_10 = Fq(3, 10, (1, 0, 2, 0, 0, 0, 0, 0, 0, 0, 1))  # x^10 + 2x^2 + 1


@pytest.mark.parametrize("F", [F3_10, Fq.of(25), Fq.of(73)], ids=_field_id)
def test_the_log_tables_use_the_least_generator(F):
    """exp[1] is the least code of order q - 1; every code before it (at
    least four here) has a smaller order, and its powers are q - 1 units."""
    exp, log, _, _ = F._logs
    n, g = F.q - 1, exp[1]
    orders = [_order(F, a) for a in range(1, g + 1)]
    assert g > 4 and orders[-1] == n and max(orders[:-1]) < n
    assert sorted(exp[:n]) == list(range(1, F.q)) and [log[a] for a in exp[:n]] == list(range(n))
    assert _schoolbook_mul(F, exp[n - 1], g) == 1


def test_trace_examples():
    assert F3.trace(2) == 2  # r = 1: identity
    assert F4.trace(F4.from_coeffs([0, 1])) == 1
    for q in (2, 3, 4, 5, 8, 9):
        F = Fq.of(q)
        assert F.trace(0) == 0


def test_trace_matches_frobenius_sum():
    # independent recomputation: sum the r Frobenius images via power(),
    # over every element of the small fields and a sample of F_256 and F_512
    rng = random.Random(5)
    for F in [Fq.of(q) for q in (4, 8, 9, 16, 25, 27)] + [F256, F512]:
        sample = F.elements() if F.q <= 27 else [0, 1, F.q - 1] + [rng.randrange(F.q) for _ in range(40)]
        for a in sample:
            expected = 0
            for i in range(F.r):
                expected = F.add(expected, F.power(a, F.p ** i))
            assert F.coeffs(expected)[1:] == (0,) * (F.r - 1)
            assert F.coeffs(expected)[0] == F.trace(a)


def test_trace_additive():
    rng = random.Random(7)
    for q in (4, 8, 9):
        F = Fq.of(q)
        for _ in range(50):
            a, b = rng.randrange(q), rng.randrange(q)
            assert F.trace(F.add(a, b)) == (F.trace(a) + F.trace(b)) % F.p


def test_theta_examples():
    assert theta(F3, 0) == CharValue.of(0, 0, 3)
    assert theta(F3, 1) == CharValue.of(0, 1, 3)
    assert theta(F2, 1).to_cyc(F2) == CycInt(2, (-1,))  # zeta_2 = -1


def test_theta_is_a_nontrivial_homomorphism():
    for q in (2, 3, 4, 5, 8, 9):
        F = Fq.of(q)
        vals = [theta(F, t).to_cyc(F) for t in F.elements()]
        for s in F.elements():
            for t in F.elements():
                assert vals[F.add(s, t)] == vals[s] * vals[t]
        total = CycInt.zero(F.p)
        for v in vals:
            total = total + v
        assert not total  # sum over the field vanishes, so theta is nontrivial


# -- the vectorized F_p view ---------------------------------------------------

_VIEW_FIELDS = [Fq.of(q) for q in sorted(DEFAULT_MODULI)] + [F512, Fq.of(65521)]


@pytest.mark.parametrize("F", _VIEW_FIELDS, ids=lambda F: f"q{F.q}")
def test_the_digit_view_matches_the_scalar_ops(F):
    rng = random.Random(F.q)
    codes = sorted({*range(min(F.q, 32)), F.q - 1, *(rng.randrange(F.q) for _ in range(64))})
    digits = F.p_digits(codes)
    assert digits.tolist() == [list(F.coeffs(c)) for c in codes]
    # any shape: the digits go on a new last axis
    assert F.p_digits(np.array(codes[:4]).reshape(2, 2)).tolist() == digits[:4].reshape(2, 2, F.r).tolist()
    assert F.digit_blocks(digits).tolist() == [[list(F.coeffs(F.mul(c, F.p**t))) for t in range(F.r)] for c in codes]
    powers = [F.p**v for v in range(F.r)]
    assert F.trace_form.tolist() == [[F.trace(F.mul(u, v)) for v in powers] for u in powers]
    for b, x in zip(codes, reversed(codes)):
        assert digits[codes.index(b)] @ F.trace_form @ F.p_digits(x) % F.p == F.trace(F.mul(b, x))
    residues = np.arange(F.p)
    assert F.fp_inverses[0] == 0
    assert (residues[1:] * F.fp_inverses[1:] % F.p == 1).all()


def _exact_mod_p(a, b, p):
    """a @ b mod p in Python ints."""
    return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]


# inner * (p - 1)**2 against the float32 limit 2**24: 257 at 255 and 4093 at 1
# are just below it, 257 at 256 and 4093 at 2 just above; 257 at 300 and every
# p = 65521 product run far past it, where float32 would round
@pytest.mark.parametrize(
    "p, inner", [(257, 255), (257, 256), (257, 300), (4093, 1), (4093, 2), (65521, 1), (65521, 40)]
)
def test_matmul_mod_p_is_exact_on_both_sides_of_the_float32_limit(p, inner):
    F = Fq.of(p)
    rng = np.random.default_rng(p + inner)
    # entries near p - 1 keep every product near inner * (p - 1)**2
    a = rng.integers(p - 3, p, size=(6, inner))
    b = rng.integers(p - 3, p, size=(inner, 7))
    a[0], b[:, 0] = p - 1, p - 1
    a[1] = rng.integers(0, p, size=inner)
    out = F.matmul_mod_p(a, b)
    assert out.dtype == np.min_scalar_type(p - 1)
    assert out.tolist() == _exact_mod_p(a.tolist(), b.tolist(), p)
    # stacked left operands, as for many digit vectors against one trace form
    assert F.matmul_mod_p(a.reshape(2, 3, inner), b).tolist() == np.reshape(out, (2, 3, 7)).tolist()


def test_matmul_mod_p_refuses_a_product_past_float64():
    F = Fq.of(65521)
    inner = 2**53 // 65520**2 + 1
    a = np.broadcast_to(np.uint8(0), (1, inner))  # no memory behind it
    with pytest.raises(InternalInvariantViolation):
        F.matmul_mod_p(a, a.T)


def _cycles(rng, n, order):
    """A random permutation of range(n) whose cycles have lengths dividing
    ``order``, and its cycles."""
    lengths = [d for d in range(1, order + 1) if order % d == 0]
    items, cycles = rng.permutation(n).tolist(), []
    while items:
        length = int(rng.choice(lengths))
        if length > len(items):
            length = 1
        cycles.append(items[:length])
        items = items[length:]
    step = np.empty(n, dtype=np.int64)
    for cycle in cycles:
        step[cycle] = np.roll(cycle, -1)
    return step, cycles


@pytest.mark.parametrize("order", [1, 2, 4, 6, 12, 26, 80])
def test_unit_orbits_finds_each_cycle_at_its_least_member(order):
    rng = np.random.default_rng(order)
    for n in (1, 7, 60):
        step, cycles = _cycles(rng, n, order)
        source, power = unit_orbits(step, order)
        for cycle in cycles:
            assert (source[cycle] == min(cycle)).all()
        for k in range(n):
            at = source[k]
            for _ in range(power[k]):
                at = step[at]
            assert at == k


def test_unit_orbits_of_the_identity_is_power_0_everywhere():
    for order in (1, 2, 8):
        source, power = unit_orbits(np.arange(9), order)
        assert (source == np.arange(9)).all() and not power.any()


@pytest.mark.parametrize(
    "step, order",
    [([1, 1, 2], 2), ([0, 0], 2), ([1, 0, 0], 2), ([1, 2, 0], 2), ([1, 2, 3, 0], 3), ([1, 0], 1)],
    ids=["into_a_fixed_point", "onto_a_fixed_point", "into_a_cycle", "cycle_of_3_past_2", "cycle_of_4_past_3", "swap_past_1"],
)
def test_unit_orbits_refuses_a_map_that_is_no_permutation_of_short_cycles(step, order):
    with pytest.raises(InternalInvariantViolation, match="do not move the indices in cycles"):
        unit_orbits(np.array(step), order)


# -- linear algebra ----------------------------------------------------------


def _mat(F, rows, ncols=None):
    return FqMatrix.from_rows(F, rows, ncols)


def test_rank_examples():
    assert rank(FqMatrix.zero(F2, 3, 3)) == 0
    assert rank(FqMatrix.identity(F3, 3)) == 3
    assert rank(_mat(F2, [[1, 1], [1, 1]])) == 1


def test_nullspace_examples():
    assert nullspace_basis(FqMatrix.identity(F2, 2)) == []
    assert nullspace_basis(_mat(F2, [[0, 0]])) == [(1, 0), (0, 1)]
    assert nullspace_basis(_mat(F3, [[1, 1]])) == [(2, 1)]  # echelon representative


def test_solve_examples():
    assert solve(FqMatrix.identity(F3, 2), (1, 2)) == (1, 2)
    assert solve(FqMatrix.zero(F2, 2, 2), (1, 0)) is None
    assert solve(_mat(F2, [[1, 1]]), (1,)) == (1, 0)  # free variable zeroed


def test_perp_examples():
    assert perp_to_nullspace(FqMatrix.identity(F3, 2), (1, 2))
    assert not perp_to_nullspace(FqMatrix.zero(F3, 2, 2), (0, 1))
    M = _mat(F3, [[1, 0]])
    assert perp_to_nullspace(M, (1, 0))
    assert not perp_to_nullspace(M, (0, 1))


def _random_matrix(rng, F, m, n):
    return _mat(F, [[rng.randrange(F.q) for _ in range(n)] for _ in range(m)])


def test_rank_nullity_and_solve_random():
    rng = random.Random(11)
    for F in (F2, F3, F4):
        for _ in range(40):
            m, n = rng.randrange(1, 6), rng.randrange(1, 6)
            M = _random_matrix(rng, F, m, n)
            basis = nullspace_basis(M)
            assert rank(M) + len(basis) == n
            for v in basis:
                assert M.mul_vector(v) == (0,) * m
            c = tuple(rng.randrange(F.q) for _ in range(m))
            x = solve(M, c)
            if x is None:
                aug = FqMatrix.from_rows(F, [r + (ci,) for r, ci in zip(M.rows, c)], n + 1)
                assert rank(aug) > rank(M)
            else:
                assert M.mul_vector(x) == c


def test_perp_agrees_with_enumerated_nullspace():
    rng = random.Random(13)
    cases = [(F2, 8, 30), (F3, 5, 30)]
    for F, max_nullity, trials in cases:
        done = 0
        while done < trials:
            m, n = rng.randrange(1, 5), rng.randrange(1, max_nullity + 1)
            M = _random_matrix(rng, F, m, n)
            basis = nullspace_basis(M)
            if len(basis) > max_nullity:
                continue
            b = tuple(rng.randrange(F.q) for _ in range(n))
            full = []
            for coeffs in itertools.product(F.elements(), repeat=len(basis)):
                v = [0] * n
                for c, vec in zip(coeffs, basis):
                    for k in range(n):
                        v[k] = F.add(v[k], F.mul(c, vec[k]))
                full.append(tuple(v))
            brute = all(F.dot(b, v) == 0 for v in full)
            assert perp_to_nullspace(M, b) == brute
            done += 1


def test_solve_perp_against_enumeration():
    """None exactly when no x solves [M | rhs] or b is not orthogonal to all
    of null(M), both found by enumerating F_q**n; else x0 solves the system
    and q**(n - rank) counts null(M)."""
    rng = random.Random(17)
    solved = unsolved = 0
    for F in (F2, F3, F4):
        for _ in range(60):
            m, n = rng.randrange(0, 4), rng.randrange(1, 5)
            M = [[rng.choice((0, rng.randrange(F.q))) for _ in range(n)] for _ in range(m)]
            space = list(itertools.product(F.elements(), repeat=n))

            def image(x):
                return [F.dot(row, x) for row in M]

            # half the time a consistent rhs and a b in the rowspace of M
            rhs = image(rng.choice(space)) if rng.random() < 0.5 else [rng.randrange(F.q) for _ in range(m)]
            if rng.random() < 0.5:
                y = [rng.randrange(F.q) for _ in range(m)]
                b = tuple(F.dot(y, col) for col in zip(*M)) if m else (0,) * n
            else:
                b = tuple(rng.randrange(F.q) for _ in range(n))
            null = [x for x in space if not any(image(x))]
            got = _solve_perp(F, [row + [c] for row, c in zip(M, rhs)], n, b)
            if all(image(x) != rhs for x in space) or any(F.dot(b, x) for x in null):
                assert got is None
                unsolved += 1
            else:
                rank_M, x0 = got
                assert image(x0) == rhs
                assert F.q ** (n - rank_M) == len(null)
                solved += 1
    assert solved > 30 and unsolved > 30


# -- cyclotomic integers ------------------------------------------------------


def test_root_of_unity_sum_vanishes():
    total = CycInt.zero(3)
    for k in range(3):
        total = total + CycInt.root(3, k)
    assert not total


def test_p2_square():
    assert CycInt.root(2, 1) * CycInt.root(2, 1) == CycInt.integer(2, 1)


def test_conjugate_reduction():
    assert CycInt.root(3, 1).conjugate() == CycInt(3, (-1, -1))  # zeta^2 = -1 - zeta


def test_conjugate_involution_and_p2_identity():
    rng = random.Random(3)
    for p in (2, 3, 5):
        for _ in range(25):
            x = CycInt(p, tuple(rng.randrange(-9, 10) for _ in range(p - 1)))
            assert x.conjugate().conjugate() == x
            if p == 2:
                assert x.conjugate() == x


@settings(max_examples=60, deadline=None)
@given(
    st.integers(-50, 50),
    st.integers(-50, 50),
    st.integers(-50, 50),
    st.integers(-50, 50),
    st.integers(-50, 50),
    st.integers(-50, 50),
)
def test_cyc_ring_axioms_p3(a0, a1, b0, b1, c0, c1):
    x, y, z = CycInt(3, (a0, a1)), CycInt(3, (b0, b1)), CycInt(3, (c0, c1))
    assert x * (y + z) == x * y + x * z
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x


def test_cyc_overflow_is_loud():
    big = CycInt.integer(3, (1 << 62) + 1)
    with pytest.raises(OverflowError):
        _ = big + big
    with pytest.raises(OverflowError):
        _ = big * 4


def test_cyc_mismatched_p():
    with pytest.raises(SpecMismatch):
        _ = CycInt.integer(2, 1) + CycInt.integer(3, 1)


def test_cyc_json_round_trip():
    x = CycInt(3, (4, -2))
    assert CycInt.from_json(x.to_json()) == x


def test_char_value_json_and_int_rendering():
    assert CharValue.from_json(None) == CharValue.zero()
    v = CharValue.of(2, 1, 2)
    assert CharValue.from_json(v.to_json()) == v
    assert v.as_int(F2) == -4
    assert CharValue.of(1, 0, 3).as_int(F3) == 3
    assert CharValue.of(1, 1, 3).as_int(F3) is None
    assert CharValue.zero().render() == "0"
    assert v.render() == "q^2*z^1"
