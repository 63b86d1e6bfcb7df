"""Closed sets, chains, the canonical order, and the text format."""

import itertools
import random
import re

import pytest

from superchar.errors import BadField, NotClosed, PairOutOfRange, ParseError, SpecMismatch
from superchar.gf import Fq
from superchar.poset import (
    ClosedSet,
    close_covers,
    derived_subgroup,
    emit_spec,
    format_functional,
    functional,
    is_monomial,
    order_key,
    parse_field_literal,
    parse_functional,
    parse_spec,
    support,
    validate_closed,
)
from superchar.catalog import full_pairs, heisenberg_pairs


def test_not_closed_reports_witnesses():
    with pytest.raises(NotClosed) as exc:
        validate_closed(3, {(1, 2), (2, 3)})
    assert exc.value.witnesses == ((1, 2, 3),)


def test_heisenberg_and_full_sets_are_closed():
    validate_closed(4, heisenberg_pairs(4))
    validate_closed(4, full_pairs(4))


def test_pair_out_of_range():
    with pytest.raises(PairOutOfRange):
        validate_closed(3, {(2, 2)})
    with pytest.raises(PairOutOfRange):
        validate_closed(3, {(1, 4)})


def test_close_covers_examples():
    assert close_covers(3, {(1, 2), (2, 3)}).pairs == {(1, 2), (2, 3), (1, 3)}
    assert close_covers(3, set()).pairs == frozenset()
    assert close_covers(4, {(1, 2), (2, 3), (3, 4)}).pairs == frozenset(full_pairs(4))


def test_canonical_order_n4():
    J = validate_closed(4, full_pairs(4))
    assert J.order == ((3, 4), (2, 4), (2, 3), (1, 4), (1, 3), (1, 2))


def test_order_puts_sums_between_summands():
    # alpha < beta with alpha + beta a position implies alpha < alpha+beta < beta
    for n in range(2, 8):
        pairs = sorted(full_pairs(n), key=order_key)
        pos = {p: k for k, p in enumerate(pairs)}
        for a in pairs:
            for b in pairs:
                if pos[a] >= pos[b]:
                    continue
                if a[0] == b[1]:
                    s = (b[0], a[1])
                elif b[0] == a[1]:
                    s = (a[0], b[1])
                else:
                    continue
                assert pos[a] < pos[s] < pos[b]


def test_derived_subgroup_examples():
    J = validate_closed(4, full_pairs(4))
    assert derived_subgroup(J).pairs == {(1, 3), (1, 4), (2, 4)}
    H = validate_closed(4, heisenberg_pairs(4))
    assert derived_subgroup(H).pairs == {(1, 4)}
    A = validate_closed(4, {(1, 2), (3, 4)})
    assert derived_subgroup(A).pairs == frozenset()


def _random_closed(rng, n):
    covers = {
        (i, j)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if rng.random() < 0.3
    }
    return close_covers(n, covers)


def test_derived_subgroup_properties_random():
    rng = random.Random(5)
    for _ in range(40):
        J = _random_closed(rng, rng.randrange(2, 8))
        D = derived_subgroup(J)
        assert D.pairs <= J.pairs
        validate_closed(J.n, D.pairs)  # result closed


def test_chain_examples():
    H = validate_closed(5, heisenberg_pairs(5))
    assert H.chains4 == ()
    assert not H.has_4chain
    U4 = validate_closed(4, full_pairs(4))
    assert U4.chains4 == ((1, 2, 3, 4),)
    U3 = validate_closed(3, full_pairs(3))
    assert U3.chains3 == ((1, 2, 3),)


def test_chains_match_brute_force_random():
    rng = random.Random(9)
    for _ in range(30):
        J = _random_closed(rng, rng.randrange(2, 8))
        p = J.pairs
        brute3 = sorted(
            (i, j, k)
            for i, j in p
            for jj, k in p
            if jj == j
        )
        brute4 = sorted(
            (i, j, k, l)
            for i, j, k in brute3
            for kk, l in p
            if kk == k
        )
        assert sorted(J.chains3) == brute3
        assert sorted(J.chains4) == brute4
        validate_closed(J.n, J.pairs)  # close_covers output always validates


def test_parse_spec_examples():
    J, F = parse_spec("n 3\nq 2\npairs\n1 3\n")
    assert J.pairs == {(1, 3)} and F.q == 2
    J, F = parse_spec("n 4\nq 3\ncovers\n1 2\n2 3\n3 4\n")
    assert J.pairs == frozenset(full_pairs(4)) and F.q == 3
    with pytest.raises(NotClosed):
        parse_spec("n 3\nq 2\npairs\n1 2\n2 3\n")


def test_parse_spec_errors():
    with pytest.raises(ParseError):
        parse_spec("q 2\npairs\n")  # n missing before mode
    with pytest.raises(ParseError):
        parse_spec("n 3\nq 2\npairs\n1\n")
    with pytest.raises(ParseError):
        parse_spec("n 3\nq 2\n")  # no mode line
    with pytest.raises(ParseError):
        parse_spec("n 3\nq 2\nstuff\n")
    with pytest.raises(BadField):
        parse_spec("n 3\nq 6\npairs\n")
    with pytest.raises(BadField):
        parse_spec("n 3\nq 4\nmodulus 1 0 1\npairs\n")  # reducible


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: ClosedSet(0, []), PairOutOfRange, "n must be positive, got 0"),
        (lambda: close_covers(3, [(2, 5)]), PairOutOfRange, "pair (2, 5) outside 1 <= i < j <= 3"),
        (lambda: parse_field_literal(Fq.of(9), "1:x"), BadField, "bad field element literal '1:x'"),
        (lambda: parse_spec("n four\nq 2\npairs\n"), ParseError, "line 1: expected an integer, got 'four'"),
    ],
    ids=["n_0", "cover_out_of_range", "literal_not_an_integer", "header_not_an_integer"],
)
def test_each_malformed_input_is_refused_with_its_reason(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()


def test_spec_round_trip():
    for text in (
        "n 4\nq 3\ncovers\n1 2\n2 3\n3 4\n",
        "n 4\nq 4\nmodulus 1 1 1\npairs\n1 2\n",
        "# comment\nn 5\nq 2\npairs\n1 3\n",
    ):
        J, F = parse_spec(text)
        emitted = emit_spec(J, F)
        J2, F2 = parse_spec(emitted)
        assert (J2, F2) == (J, F)
        assert emit_spec(J2, F2) == emitted


def test_functional_literals_round_trip():
    J, F = parse_spec("n 4\nq 3\ncovers\n1 2\n2 3\n3 4\n")
    f = parse_functional(J, F, "1,4=2;2,3=1")
    assert support(J, f) == ((2, 3), (1, 4))
    assert format_functional(J, F, f) == "2,3=1;1,4=2"
    assert parse_functional(J, F, format_functional(J, F, f)) == f
    assert parse_functional(J, F, "0") == (0,) * 6
    assert format_functional(J, F, (0,) * 6) == "0"
    with pytest.raises(ParseError):
        parse_functional(J, F, "1,4")
    with pytest.raises(PairOutOfRange):
        parse_functional(J, F, "4,1=1")
    with pytest.raises(ParseError, match="repeated position 1,4"):
        parse_functional(J, F, "1,4=1;1,4=0")


def test_functional_literals_extension_field():
    J, F = parse_spec("n 3\nq 4\nmodulus 1 1 1\npairs\n1 3\n")
    f = parse_functional(J, F, "1,3=1:1")
    assert f == (F.from_coeffs([1, 1]),)
    assert format_functional(J, F, f) == "1,3=1:1"


def test_monomial_predicate():
    J = validate_closed(4, full_pairs(4))
    F = Fq.of(2)
    assert is_monomial(J, functional(J, F, {(1, 4): 1, (2, 3): 1}))
    assert not is_monomial(J, functional(J, F, {(1, 4): 1, (1, 2): 1}))
    assert not is_monomial(J, functional(J, F, {(1, 4): 1, (2, 4): 1}))


@pytest.mark.parametrize("f", [(1,), (0,) * 7, ()])
def test_functionals_of_the_wrong_length_are_rejected(f):
    J, F = validate_closed(4, full_pairs(4)), Fq.of(3)
    message = f"functional of length {len(f)} for dimension 6"
    for call in (lambda: support(J, f), lambda: is_monomial(J, f), lambda: format_functional(J, F, f)):
        with pytest.raises(SpecMismatch, match=message):
            call()


@pytest.mark.parametrize("v", [5, 3, -1])
def test_format_functional_rejects_entries_outside_the_field(v):
    J, F = validate_closed(4, full_pairs(4)), Fq.of(3)
    f = (v, 0, 0, 0, 0, 0)
    with pytest.raises(SpecMismatch, match=rf"functional \({v}, 0, 0, 0, 0, 0\) is not in F_3\^6"):
        format_functional(J, F, f)
    assert format_functional(J, F, (2, 0, 0, 0, 0, 0)) == "3,4=2"
