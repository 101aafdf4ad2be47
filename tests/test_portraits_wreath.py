"""Portrait arithmetic and wreath towers."""

import random

import pytest

from scan_oracles import intersection_scan
from treeperm import wreath
from treeperm.config import DEFAULT_CAPS
from treeperm.errors import InputError, ResourceLimitError
from treeperm.groups import (PermGroup, alternating, cyclic, dihedral, klein4,
                             parse_group_spec, symmetric)
from treeperm.perms import Permutation, _trusted, parse_cycles
from treeperm.portraits import (Portrait, flatten, identity_portrait,
                                portrait_compose, portrait_inverse)
from treeperm.wreath import (direct_square, rigid_stabilizer, sylow_tower,
                             tower_order, vertex_generator, wreath_tower)


def random_portrait(arity, depth, panel_chain, rng):
    """Portrait with independent uniform panels drawn from a stabilizer chain."""
    if depth == 0:
        return identity_portrait(arity, 0)
    root = Permutation(panel_chain.random_element(rng))
    children = tuple(random_portrait(arity, depth - 1, panel_chain, rng) for _ in range(arity))
    return Portrait(arity, depth, root, children)


def vertex_portrait(arity: int, depth: int, vertex: tuple[int, ...], perm: Permutation) -> Portrait:
    """Portrait acting by `perm` at the given vertex and trivially elsewhere.

    The vertex is a root path (empty tuple = root) and must lie at
    depth < `depth` so the action permutes actual subtrees.
    """
    if len(vertex) >= depth:
        raise InputError(f"vertex depth {len(vertex)} needs depth < {depth}")
    if not all(0 <= i < arity for i in vertex):
        raise InputError(f"vertex {vertex} out of range for arity {arity}")
    if not vertex:
        child = identity_portrait(arity, depth - 1)
        return Portrait(arity, depth, perm, (child,) * arity)
    children = []
    for i in range(arity):
        if i == vertex[0]:
            children.append(vertex_portrait(arity, depth - 1, vertex[1:], perm))
        else:
            children.append(identity_portrait(arity, depth - 1))
    return Portrait(arity, depth, Permutation.identity(arity), tuple(children))


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
            T = wreath_tower(F, n)
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
        assert intersection_scan(ristA, ristB).order() == 1


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


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_vertex_generator_is_the_flattened_vertex_portrait(d):
    bases = [symmetric(d), alternating(d), cyclic(d)]
    bases += [dihedral(d)] if d >= 3 else []
    bases += [klein4()] if d == 4 else []
    panels = {g for F in bases for g in F.generators} | {Permutation.identity(d)}
    for n in (1, 2, 3):
        for vertex in wreath._interior_vertices(d, n):
            for f in panels:
                assert (vertex_generator(d, n, vertex, f.images)
                        == flatten(vertex_portrait(d, n, vertex, f)).images)


# Proof obligations behind a tower's known order: every generator is a
# tree automorphism whose local actions lie in F.  Each case swaps the
# generators at one vertex for a bad one and checks that the order is refused.

def _generator_at_is(monkeypatch, site, bad):
    real = wreath.vertex_generator
    monkeypatch.setattr(wreath, "vertex_generator",
                        lambda d, n, vertex, f: bad if vertex == site else real(d, n, vertex, f))


def test_tower_generator_must_be_a_tree_automorphism(monkeypatch):
    # (2 3) on the leaves of the depth-2 binary tree splits both cones
    _generator_at_is(monkeypatch, (), (0, 2, 1, 3))
    # construction proves nothing: the first use of the chain does
    for first_use in (PermGroup.order, lambda G: G.membership(Permutation.identity(4))):
        T = wreath_tower(symmetric(2), 2)
        with pytest.raises(AssertionError, match="not a tree automorphism"):
            first_use(T.group)


def test_tower_generator_local_actions_must_lie_in_the_base(monkeypatch):
    # a 4-cycle for both root generators: the group is a tree group of
    # order 4^5, the order law holds, yet it is not W_2(Klein4)
    _generator_at_is(monkeypatch, (), vertex_generator(4, 2, (), (1, 2, 3, 0)))
    with pytest.raises(AssertionError, match=r"local action \(1 2 3 4\) outside Klein4"):
        wreath_tower(klein4(), 2).group.order()
    # generators are wrapped unchecked: a repeated image cannot sift in F's
    # chain, and the refusal shows it as 1-indexed images
    _generator_at_is(monkeypatch, (), vertex_generator(3, 2, (), (0, 0, 2)))
    T = wreath_tower(symmetric(3), 2)
    assert T.group._chain is None
    with pytest.raises(AssertionError, match=r"local action \[1 1 3\] outside Sym\(3\)"):
        T.group.order()


def _leaves_swapped(n, a, b):
    images = list(range(n))
    images[a], images[b] = b, a
    return tuple(images)


# Bad generators below the root of W_3: each map is the identity on every
# level above its vertex, where the proof stops climbing, so the fault
# must be met on the levels below.  Vertices are 0-based child paths.
NOT_AUTOMORPHISM = r"not a tree automorphism"
BELOW_THE_ROOT = {
    # leaves 11 and 12 lie below different children of vertex (1,)
    "middle, crossing": ("Sym(3)", (1,), _leaves_swapped(27, 11, 12), NOT_AUTOMORPHISM),
    # leaf 12 lies below (1, 1), leaf 15 below its sibling (1, 2)
    "leaf-parent, crossing": ("Sym(3)", (1, 1), _leaves_swapped(27, 12, 15), NOT_AUTOMORPHISM),
    "middle, 4-cycle": ("Klein4", (1,), vertex_generator(4, 3, (1,), (1, 2, 3, 0)),
                        r"local action \(1 2 3 4\) outside Klein4"),
    "leaf-parent, 4-cycle": ("Klein4", (1, 2), vertex_generator(4, 3, (1, 2), (1, 2, 3, 0)),
                             r"local action \(1 2 3 4\) outside Klein4"),
    # two children onto one: a map of the leaves that is not a bijection
    "middle, not a bijection": ("Sym(3)", (1,), vertex_generator(3, 3, (1,), (0, 0, 2)),
                                r"local action \[1 1 3\] outside Sym\(3\)"),
    "leaf-parent, not a bijection": ("Sym(3)", (1, 1), vertex_generator(3, 3, (1, 1), (0, 0, 2)),
                                     r"local action \[1 1 3\] outside Sym\(3\)"),
}


@pytest.mark.parametrize("case", BELOW_THE_ROOT)
def test_tower_proof_refuses_bad_generators_below_the_root(monkeypatch, case):
    spec, site, bad, message = BELOW_THE_ROOT[case]
    _generator_at_is(monkeypatch, site, bad)
    T = wreath_tower(parse_group_spec(spec), 3)
    assert T.group._chain is None
    with pytest.raises(AssertionError, match=message):
        T.group.order()


@pytest.mark.parametrize("spec", ["Sym(2)", "Sym(3)", "Klein4"])
def test_tower_proof_accepts_an_identity_generator(spec):
    # the identity's map is the identity on the leaf parents at once
    F = parse_group_spec(spec)
    T = wreath_tower(F, 3)
    gens = [g.images for g in T.group.generators]
    identity = tuple(range(T.leaf_count))
    for planted in ([identity] + gens, gens + [identity], [identity]):
        assert wreath._tower_order_bound(F, 3, planted) == tower_order(F.order(), F.degree, 3)


@pytest.mark.parametrize("bad, message", [
    ((1, 0, 2, 3, 4, 5), "half outside W_1"),         # odd on the left half
    ((0, 1, 2, 4, 3, 5), "half outside W_1"),         # odd on the right half
    ((3, 1, 2, 0, 4, 5), "mixes the two halves"),
    ((0, 0, 2, 3, 4, 5), "half outside W_1"),         # repeated image in the left half
    ((0, 1, 2, 3, 5, 5), "half outside W_1"),         # repeated image in the right half
    # the right half reads (4 5 0) - 3 = (1 2 -3), and -3 indexes as 0, so
    # it sifts to the identity: only the check that it keeps its half refuses it
    ((0, 1, 2, 4, 5, 0), "mixes the two halves"),
])
def test_direct_square_generators_must_lie_in_the_square(bad, message):
    square = direct_square(wreath_tower(alternating(3), 1))
    square.generators += (_trusted(bad),)
    with pytest.raises(AssertionError, match=message):
        square.order()


def test_degree_one_tower_counts_its_interior_vertices_against_the_leaf_cap():
    assert wreath_tower(symmetric(1), 5).group.order() == 1
    caps = DEFAULT_CAPS.with_overrides(leaf_cap=4)
    with pytest.raises(ResourceLimitError) as info:
        wreath_tower(symmetric(1), 5, caps)
    assert str(info.value) == ("tower interior vertices cap exceeded: requested 5, cap 4 "
                               "(raise with --leaf-cap)")
