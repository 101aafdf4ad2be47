"""Portrait arithmetic and wreath towers."""

import random

import pytest

from treeperm.config import DEFAULT_CAPS
from treeperm.errors import InputError, ResourceLimitError
from treeperm.groups import alternating, klein4, symmetric
from treeperm.perms import Permutation, parse_cycles
from treeperm.portraits import (Portrait, flatten, identity_portrait,
                                portrait_compose, portrait_inverse, vertex_portrait)
from treeperm.wreath import (direct_square, rigid_stabilizer, sylow_tower,
                             tower_order, wreath_tower)


def random_portrait(arity, depth, panel_chain, rng):
    """Portrait with independent uniform panels drawn from a stabilizer chain."""
    if depth == 0:
        return identity_portrait(arity, 0)
    root = Permutation(panel_chain.random_element(rng))
    children = tuple(random_portrait(arity, depth - 1, panel_chain, rng) for _ in range(arity))
    return Portrait(arity, depth, root, children)


def test_identity_portrait_flattens_to_identity():
    assert flatten(identity_portrait(2, 2)).is_identity()
    assert flatten(identity_portrait(3, 3)).degree == 27


def test_root_swap_flattens_to_block_swap():
    p = Portrait(2, 2, parse_cycles("(1 2)", 2), (identity_portrait(2, 1),) * 2)
    assert flatten(p).cycle_string() == "(1 3)(2 4)"


def test_portrait_compose_inverse_roundtrip():
    rng = random.Random(11)
    chain = symmetric(3).chain
    for _ in range(50):
        p = random_portrait(3, 2, chain, rng)
        assert portrait_compose(p, portrait_inverse(p)).is_identity()


@pytest.mark.parametrize("d,depth,base", [(2, 2, 2), (2, 3, 2), (3, 2, 3)])
def test_flatten_is_a_homomorphism(d, depth, base):
    rng = random.Random(100 * d + depth)
    chain = symmetric(base).chain
    for _ in range(1000):
        p = random_portrait(d, depth, chain, rng)
        q = random_portrait(d, depth, chain, rng)
        assert flatten(portrait_compose(p, q)) == flatten(p) * flatten(q)


def test_portrait_shape_mismatch():
    with pytest.raises(InputError):
        portrait_compose(identity_portrait(2, 2), identity_portrait(2, 3))
    with pytest.raises(InputError):
        portrait_compose(identity_portrait(2, 2), identity_portrait(3, 2))


def test_wreath_order_examples():
    assert wreath_tower(klein4(), 2).group.order() == 1024
    assert wreath_tower(alternating(4), 2).group.order() == 248832
    assert wreath_tower(symmetric(2), 0).group.order() == 1


def test_wreath_order_law_small_grid():
    for F in [symmetric(2), symmetric(3), klein4()]:
        for n in range(3):
            T = wreath_tower(F, n, verify_order=False)
            assert T.group.order() == tower_order(F.order(), F.degree, n)


def test_wreath_nesting():
    small = wreath_tower(klein4(), 2)
    big = wreath_tower(alternating(4), 2)
    for g in small.group.generators:
        assert big.group.membership(g)


def test_sylow_tower_examples():
    T1, W1 = sylow_tower(alternating(4), 2, 1)
    assert (T1.group.order(), W1.group.order()) == (4, 12)
    assert sylow_tower(cyclic3(), 2, 2)[0].group.order() == 1


def cyclic3():
    from treeperm.groups import cyclic
    return cyclic(3)


def test_direct_square_orders():
    assert direct_square(wreath_tower(klein4(), 1)).order() == 16
    assert direct_square(wreath_tower(symmetric(2), 2)).order() == 64
    assert direct_square(wreath_tower(symmetric(2), 0)).order() == 1


def test_rigid_stabilizer_orders():
    T = wreath_tower(symmetric(2), 2)
    assert rigid_stabilizer(T, (0,)).order() == 2
    assert rigid_stabilizer(T, ()).order() == T.group.order()
    assert rigid_stabilizer(wreath_tower(klein4(), 2), (1,)).order() == 4


def test_rigid_stabilizers_at_same_depth_commute_and_meet_trivially():
    for F in [symmetric(2), klein4()]:
        T = wreath_tower(F, 2)
        ristA = rigid_stabilizer(T, (0,))
        ristB = rigid_stabilizer(T, (1,))
        for a in ristA.generators:
            for b in ristB.generators:
                assert (a * b).images == (b * a).images
        assert ristA.intersection(ristB).order() == 1


def test_rigid_stabilizer_vertex_validation():
    T = wreath_tower(symmetric(2), 2)
    with pytest.raises(InputError):
        rigid_stabilizer(T, (0, 0, 0))
    with pytest.raises(InputError):
        rigid_stabilizer(T, (5,))


def test_leaf_cap_is_loud():
    caps = DEFAULT_CAPS.with_overrides(leaf_cap=8)
    with pytest.raises(ResourceLimitError) as info:
        wreath_tower(klein4(), 2, caps)
    assert "--leaf-cap" in str(info.value)


def test_vertex_portrait_supports_only_its_cone():
    g = flatten(vertex_portrait(2, 3, (1,), parse_cycles("(1 2)", 2)))
    moved = {i for i, j in enumerate(g.images) if i != j}
    assert moved and moved <= set(range(4, 8))
