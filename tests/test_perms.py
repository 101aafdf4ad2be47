"""Permutation arithmetic and cycle-notation I/O."""

import pytest

from treeperm.errors import InputError
from treeperm.perms import Permutation, _compose, commutator, parse_cycles


def compose(a, b):
    """(a ∘ b)(x) = a(b(x))."""
    return a * b


def inverse(a):
    return a.inverse()


def test_identity_and_composition():
    p = parse_cycles("(1 2 3)", 3)
    assert compose(p, inverse(p)).is_identity()
    assert compose(inverse(p), p).is_identity()
    ident = Permutation.identity(3)
    assert compose(ident, p) == p == compose(p, ident)


def test_composition_order_is_right_to_left():
    # (a o b)(x) = a(b(x))
    a = parse_cycles("(1 2)", 3)
    b = parse_cycles("(2 3)", 3)
    ab = compose(a, b)
    assert ab(2) == a(b(2)) == a(1) == 0


def test_commutator_identity_cases():
    ident = Permutation.identity(4)
    p = parse_cycles("(1 2 3 4)", 4)
    assert commutator(ident, p).is_identity()
    assert commutator(p, p).is_identity()


def test_commutator_of_transpositions():
    # hand evaluation of g h g^-1 h^-1 under (a o b)(x) = a(b(x)):
    # 1 -> 2, 2 -> 3, 3 -> 1
    g = parse_cycles("(1 2)", 3)
    h = parse_cycles("(1 3)", 3)
    assert commutator(g, h).cycle_string() == "(1 2 3)"


def test_powers_and_order():
    p = parse_cycles("(1 2 3 4 5)", 5)
    assert (p ** 5).is_identity()
    assert p ** -1 == p.inverse()
    assert p.order() == 5
    assert parse_cycles("(1 2)(3 4 5)", 5).order() == 6


def test_cycle_string_round_trip():
    for text in ["()", "(1 2)", "(1 2 3)(4 5)", "(2 5)(3 4)"]:
        p = parse_cycles(text, 5)
        assert parse_cycles(p.cycle_string(), 5) == p


def test_parse_separators_and_degree_inference():
    assert parse_cycles("(1,2,3)").degree == 3
    assert parse_cycles("(1 2)(4 5)").degree == 5
    assert parse_cycles("()", 4) == Permutation.identity(4)


def test_parse_errors_are_located():
    with pytest.raises(InputError, match="column"):
        parse_cycles("(1 2")
    with pytest.raises(InputError, match="column"):
        parse_cycles("(1 2) junk")
    with pytest.raises(InputError):
        parse_cycles("(0 1)", 3)  # 1-indexed at the boundary
    with pytest.raises(InputError, match="repeated"):
        parse_cycles("(1 2)(2 3)", 3)


def test_degree_mismatch_is_an_input_error():
    with pytest.raises(InputError, match="degree mismatch"):
        compose(parse_cycles("(1 2)", 2), parse_cycles("(1 2)", 3))


def test_not_a_permutation_rejected():
    with pytest.raises(InputError):
        Permutation([0, 0, 1])


def test_compose_falls_back_below_degree_two():
    # itemgetter returns a scalar for one index and raises for none
    p = Permutation((0,)) * Permutation((0,))
    assert p.images == (0,) and type(p.images) is tuple
    assert p.is_identity()
    assert _compose((), ()) == ()
    assert type(_compose((0,), (0,))) is tuple
    assert Permutation(()).is_identity()
