"""Permutation arithmetic and cycle-notation I/O."""

import math
import threading

import pytest

from treeperm.errors import InputError
from treeperm.perms import Permutation, _compose, _trusted, commutator, parse_cycles


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


def test_parse_trailing_separator_inside_a_cycle():
    # a separator after a cycle's last point adds no point
    assert parse_cycles("(1 2,)", 3) == parse_cycles("(1 2)", 3)
    assert parse_cycles("(1,)(2 3)", 3) == parse_cycles("(2 3)", 3)
    assert parse_cycles("( 1, 2 ,3 , )") == parse_cycles("(1 2 3)")


def test_parse_errors_are_located():
    with pytest.raises(InputError, match="column"):
        parse_cycles("(1 2")
    with pytest.raises(InputError, match="column"):
        parse_cycles("(1 2) junk")
    with pytest.raises(InputError):
        parse_cycles("(0 1)", 3)  # 1-indexed at the boundary
    with pytest.raises(InputError, match="repeated"):
        parse_cycles("(1 2)(2 3)", 3)
    # a point repeated within one cycle, adjacent or not,
    # or across cycles, a 1-cycle's fixed point included
    for text, point in [("(1 2 2)", 2), ("(1 1)", 1), ("(3 1 2 2)", 2), ("(1 2 1)", 1),
                        ("(1)(1 2)", 1), ("(2)(1 2 3)", 2), ("(1)(1)", 1), ("(1 2)(1)", 1)]:
        with pytest.raises(InputError, match=f"^point {point} repeated in cycle notation$"):
            parse_cycles(text, 3)
    assert parse_cycles("(1)", 3).is_identity()


def test_degree_mismatch_is_an_input_error():
    with pytest.raises(InputError, match="degree mismatch"):
        compose(parse_cycles("(1 2)", 2), parse_cycles("(1 2)", 3))


def test_not_a_permutation_rejected():
    with pytest.raises(InputError):
        Permutation([0, 0, 1])


def test_cycles_of_a_non_bijection_raise():
    # an unchecked tuple with a repeated image: the cycle walk from
    # point 1 (0-indexed) never returns to it, so it must raise, not loop
    outcome = []

    def render():
        try:
            _trusted((0, 0, 1)).cycle_string()
        except ValueError as exc:
            outcome.append(str(exc))

    walk = threading.Thread(target=render, daemon=True)
    walk.start()
    walk.join(10)
    assert outcome == ["not a permutation: (0, 0, 1)"]


def test_compose_falls_back_below_degree_two():
    # itemgetter returns a scalar for one index and raises for none
    p = Permutation((0,)) * Permutation((0,))
    assert p.images == (0,) and type(p.images) is tuple
    assert p.is_identity()
    assert _compose((), ()) == ()
    assert type(_compose((0,), (0,))) is tuple
    assert Permutation(()).is_identity()


hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@hypothesis.settings(max_examples=200, deadline=None, database=None)
@hypothesis.given(st.integers(0, 12).flatmap(lambda n: st.permutations(range(n))))
def test_order_is_the_lcm_of_cycle_lengths(images):
    p = Permutation(images)
    assert p.order() == math.lcm(*map(len, p.cycles()))
    assert (p ** p.order()).is_identity()


def test_powers_and_young_groups_validate_nothing(monkeypatch):
    # identity and from_cycles build bijections by construction, so neither
    # `g ** p` in the p-residual step nor the Young group's cycles is checked
    from treeperm.groups import PermGroup, symmetric
    from treeperm.series import p_residual_series
    G, F = symmetric(5), PermGroup(5, [parse_cycles("(1 2)(3 4)", 5)])
    built = []
    init = Permutation.__init__
    monkeypatch.setattr(Permutation, "__init__",
                        lambda self, images: built.append(images) or init(self, images))
    assert [N.order() for N in p_residual_series(G, 2)] == [120, 60]
    assert F.young_group().order() == 4
    assert Permutation.identity(3).images == (0, 1, 2)
    assert built == []
