"""PermGroup engine: orders, membership, stabilizers, normal subgroups."""

import random

import pytest

from scan_oracles import centralizer_scan, intersection_scan, normal_core_scan
from treeperm.config import DEFAULT_CAPS
from treeperm.errors import InputError, ResourceLimitError
from treeperm.groups import (PermGroup, alternating, closure_elements, cyclic,
                             dihedral, frobenius20, klein4, named_group,
                             parse_group_file, parse_group_spec, symmetric,
                             trivial)
from treeperm.localact import ball_stabilizer_group
from treeperm.perms import Permutation, parse_cycles
from treeperm.treeball import build_ball, legal_coloring
from treeperm.wreath import wreath_tower

CORPUS = [
    trivial(1), trivial(4), cyclic(5), cyclic(6), klein4(), dihedral(4),
    dihedral(6), symmetric(3), symmetric(4), symmetric(5), alternating(4),
    alternating(5), frobenius20(),
]


def test_orders_of_named_families():
    assert symmetric(5).order() == 120
    assert alternating(5).order() == 60
    assert cyclic(7).order() == 7
    assert dihedral(5).order() == 10
    assert klein4().order() == 4
    assert trivial(3).order() == 1
    assert frobenius20().order() == 20


def test_bsgs_order_matches_exhaustive_closure():
    for G in CORPUS:
        elems = closure_elements(G.degree, G.generators, DEFAULT_CAPS.element_cap)
        assert G.order() == len(elems), G


def test_membership_by_parity():
    A4 = alternating(4)
    assert parse_cycles("(1 2 3)", 4) in A4
    assert parse_cycles("(1 2)", 4) not in A4


def test_membership_matches_element_list():
    G = frobenius20()
    elems = {p.images for p in G.elements()}
    rng = random.Random(7)
    S5 = symmetric(5)
    for _ in range(100):
        p = S5.random_element(rng)
        assert G.membership(p) == (p.images in elems)


def test_orbit_stabilizer_identity():
    for G in CORPUS:
        n = G.order()
        for a in range(G.degree):
            assert n == len(G.orbit(a)) * G.point_stabilizer(a).order(), (G, a)


def test_point_stabilizer_examples():
    assert symmetric(4).point_stabilizer(3).order() == 6
    assert frobenius20().point_stabilizer(0).order() == 4


def test_orbits_partition():
    G = PermGroup(4, [parse_cycles("(1 2)", 4)])
    assert G.orbits() == [[0, 1], [2], [3]]


def test_orbit_is_in_breadth_first_discovery_order():
    # neither sorted nor depth-first: 2 and 4 are found from 1, then 3 from 2
    G = PermGroup(6, [parse_cycles("(1 2 3)", 6), parse_cycles("(1 4)(5 6)", 6)])
    assert G.orbit(0) == [0, 1, 3, 2]
    assert G.orbit(4) == [4, 5]
    assert G.orbits() == [[0, 1, 2, 3], [4, 5]]


def test_orbit_point_range_checked():
    with pytest.raises(InputError):
        symmetric(3).orbit(5)


def test_normal_closure_example():
    ncl = symmetric(4).normal_closure(PermGroup(4, [parse_cycles("(1 2 3)", 4)]))
    assert ncl.order() == 12


def test_normal_core_of_sylow_in_sym4():
    D4 = PermGroup(4, [parse_cycles("(1 2 3 4)", 4), parse_cycles("(2 4)", 4)])
    core = normal_core_scan(symmetric(4), D4)
    assert core.order() == 4
    assert all(g.order() in (1, 2) for g in core.elements())


def test_normal_core_of_whole_group():
    G = symmetric(4)
    assert normal_core_scan(G, G).order() == 24


def test_normal_outputs_are_verified_normal():
    G = symmetric(4)
    for got in [G.normal_closure(PermGroup(4, [parse_cycles("(1 2)(3 4)", 4)])),
                normal_core_scan(G, alternating(4))]:
        for x in got.generators:
            for g in G.generators:
                assert got.membership(g * x * g.inverse())


def test_non_subgroup_input_rejected():
    with pytest.raises(InputError):
        alternating(4).normal_closure(PermGroup(4, [parse_cycles("(1 2)", 4)]))


def test_derived_subgroups():
    assert symmetric(4).derived_subgroup().order() == 12
    assert symmetric(3).derived_subgroup().order() == 3
    assert klein4().derived_subgroup().order() == 1
    assert alternating(5).derived_subgroup().order() == 60


def test_center_and_centralizer():
    assert symmetric(3).centralizer(symmetric(3)).order() == 1
    assert cyclic(6).centralizer(cyclic(6)).order() == 6
    assert dihedral(4).centralizer(dihedral(4)).order() == 2
    # the Klein four group is self-centralizing in Sym(4)
    assert symmetric(4).centralizer(klein4()).order() == 4


def test_intersection():
    S4 = symmetric(4)
    assert intersection_scan(S4, alternating(4)).order() == 12
    D4 = PermGroup(4, [parse_cycles("(1 2 3 4)", 4), parse_cycles("(2 4)", 4)])
    assert intersection_scan(D4, alternating(4)).order() == 4


def _moving(rng, n, points):
    """A random permutation of `points`, fixing every other point of 0..n-1."""
    images = list(range(n))
    for a, b in zip(points, rng.sample(points, len(points))):
        images[a] = b
    return Permutation(images)


def _random_cases(count, seed):
    """(G, H) on at most 7 points: G from 1-3 generators, H from 0-3, each
    generator moving a random set of points; H sometimes inside G."""
    rng = random.Random(seed)
    for i in range(count):
        n = rng.randint(1, 7)
        moved = lambda: rng.sample(range(n), rng.randint(0, n))
        G = PermGroup(n, [_moving(rng, n, moved()) for _ in range(rng.randint(1, 3))])
        if i % 3 == 0:
            H = PermGroup(n, [G.random_element(rng) for _ in range(i % 4)])
        else:
            H = PermGroup(n, [_moving(rng, n, moved()) for _ in range(i % 4)])
        yield G, H


def test_centralizer_backtrack_matches_scan_on_random_groups():
    sizes, with_fixed_points = set(), 0
    for G, H in _random_cases(240, 20):
        C = G.centralizer(H)
        sizes.add(len(H.generators))
        if not H.generators:
            # the trivial group centralizes all of G, which comes back as it is
            assert C is G
            continue
        with_fixed_points += any(all(h(a) == a for h in H.generators) for a in range(G.degree))
        oracle = centralizer_scan(G, H)
        assert C.generators == oracle.generators and C.order() == oracle.order()
        assert C.chain.base() == oracle.chain.base()
    assert sizes == {0, 1, 2, 3} and with_fixed_points > 20


def test_centralizer_decides_past_the_element_cap():
    # the center of W_n(Sym(2)), the 2-Sylow of Sym(2^n), has order 2;
    # forced images leave one branch per first-level choice
    for n in (5, 6):
        T = wreath_tower(symmetric(2), n).group
        assert T.order() > DEFAULT_CAPS.element_cap
        Z = T.centralizer(T)
        assert Z.order() == 2
        assert [g.images for g in Z.generators] == [tuple(i ^ 1 for i in range(2 ** n))]


def test_centralizer_refuses_leaves_past_the_cap():
    S5, H = symmetric(5), PermGroup(5, [parse_cycles("(1 2)", 5)])
    caps = DEFAULT_CAPS.with_overrides(element_cap=12)
    assert S5.centralizer(H, caps).order() == 12
    with pytest.raises(ResourceLimitError) as info:
        S5.centralizer(H, DEFAULT_CAPS.with_overrides(element_cap=11))
    assert str(info.value) == ("element enumeration cap exceeded: requested 12, cap 11 "
                               "(raise with --element-cap)")


def test_intersection_matches_scan_on_random_groups():
    # the oracle sifts the smaller group through the larger one's chain;
    # a plain meet of the two element lists reads no chain at all
    rng = random.Random(21)
    contained = 0
    for i in range(200):
        n = rng.randint(3, 7)
        moved = lambda: rng.sample(range(n), rng.randint(2, n))
        G = PermGroup(n, [_moving(rng, n, moved()) for _ in range(rng.randint(1, 2))])
        K = PermGroup(n, [G.random_element(rng) if i % 3 == 0 else _moving(rng, n, moved())
                          for _ in range(rng.randint(1, 2))])
        meet = {g.images for g in G.elements()} & {g.images for g in K.elements()}
        oracle = intersection_scan(G, K)
        assert oracle.order() == len(meet)
        assert {g.images for g in oracle.elements()} == meet
        small = G if G.order() <= K.order() else K
        if small.is_subgroup_of(G) and small.is_subgroup_of(K):
            assert oracle.equals(small)
            contained += 1
    assert 40 < contained < 160


def _fixing_scan(G, points, caps=DEFAULT_CAPS):
    """The elements of G fixing every point of `points`, by a scan."""
    return {g.images for g in G.elements(caps) if all(g.images[b] == b for b in points)}


def test_pointwise_stabilizer_matches_scan_on_random_groups():
    rng = random.Random(22)
    trivial_exits = nontrivial = 0
    for _ in range(200):
        n = rng.randint(1, 8)
        moved = lambda: rng.sample(range(n), rng.randint(0, min(n, 6)))
        G = PermGroup(n, [_moving(rng, n, moved()) for _ in range(rng.randint(1, 3))])
        chain = G.chain
        base = chain.base()
        a = rng.randrange(n)
        support = [b for b in range(n) if any(g(b) != b for g in G.generators)]
        for points in ([], [a], G.orbit(a), support):
            K = G.pointwise_stabilizer(points)
            oracle = _fixing_scan(G, points)
            elems = closure_elements(n, K.generators, DEFAULT_CAPS.element_cap)
            assert {g.images for g in elems} == oracle
            assert K.order() == K.chain.order() == len(oracle)
            trivial_exits += not K.generators
            nontrivial += len(oracle) > 1
        # the group's own chain, which random_element reads, is untouched
        assert G.chain is chain and chain.base() == base
    assert trivial_exits > 200 and nontrivial > 200


def test_pointwise_stabilizer_drops_repeated_points():
    S5 = symmetric(5)
    assert S5.pointwise_stabilizer([1, 3, 1, 3]).order() == 6
    assert S5.pointwise_stabilizer([0, 1, 2, 3, 0]).order() == 1


def test_pointwise_stabilizer_point_range_checked():
    for points in ([5], [0, -1], [2, 7, 1]):
        with pytest.raises(InputError, match="out of range for degree 5"):
            symmetric(5).pointwise_stabilizer(points)


def test_transitive_free_genstabs_for_c5():
    C5 = cyclic(5)
    assert C5.is_transitive()
    assert C5.acts_freely()
    assert not C5.generated_by_point_stabilizers()


def test_generated_by_point_stabilizers_sym5():
    assert symmetric(5).generated_by_point_stabilizers()
    assert alternating(5).generated_by_point_stabilizers()
    assert not frobenius20().acts_freely()


def fixed_points(g):
    return [i for i, j in enumerate(g.images) if i == j]


def test_acts_freely_matches_exhaustive_fixed_point_scan():
    for G in CORPUS:
        if G.order() > 10_000:
            continue
        brute = all(not fixed_points(g) for g in G.elements() if not g.is_identity())
        assert G.acts_freely() == brute, G


def test_degree_one_group_is_transitive_and_free():
    T = trivial(1)
    assert T.is_transitive()
    assert T.acts_freely()


def test_young_group_examples():
    assert PermGroup(4, [parse_cycles("(1 2)", 4)]).young_group().order() == 2
    assert alternating(5).young_group().order() == 120


def test_young_group_idempotent_and_contains():
    for G in [PermGroup(4, [parse_cycles("(1 2)", 4)]), klein4(), cyclic(6),
              frobenius20(), PermGroup(5, [parse_cycles("(1 2 3)", 5)])]:
        Y = G.young_group()
        assert G.is_subgroup_of(Y)
        assert Y.young_group().equals(Y)


def test_element_cap_is_loud():
    S8 = symmetric(8)
    caps = DEFAULT_CAPS.with_overrides(element_cap=100)
    with pytest.raises(ResourceLimitError) as info:
        S8.elements(caps)
    assert "--element-cap" in str(info.value)
    assert "100" in str(info.value)


def test_cached_elements_respect_a_smaller_cap():
    S5 = symmetric(5)
    assert len(S5.elements()) == 120
    caps = DEFAULT_CAPS.with_overrides(element_cap=10)
    with pytest.raises(ResourceLimitError) as cached:
        S5.elements(caps)
    with pytest.raises(ResourceLimitError) as fresh:
        symmetric(5).elements(caps)
    assert str(cached.value) == str(fresh.value)
    assert cached.value.requested == 11
    assert len(S5.elements(DEFAULT_CAPS.with_overrides(element_cap=120))) == 120


def test_fresh_closure_refuses_only_past_the_cap():
    def cap(n):
        return DEFAULT_CAPS.with_overrides(element_cap=n)

    assert len(symmetric(5).elements(cap(120))) == 120
    with pytest.raises(ResourceLimitError) as at_119:
        symmetric(5).elements(cap(119))
    assert at_119.value.requested == 120 and at_119.value.cap_value == 119
    # the identity is always out, so the first new element is the second
    with pytest.raises(ResourceLimitError) as at_0:
        symmetric(5).elements(cap(0))
    assert at_0.value.requested == 2
    assert str(at_0.value) == ("element enumeration cap exceeded: requested 2, cap 0 "
                               "(raise with --element-cap)")


def render_group_file(G):
    lines = [f"degree: {G.degree}"]
    for g in G.generators:
        lines.append(f"gen: {g.cycle_string()}")
    if not G.generators:
        lines.append("gen: ()")
    return "\n".join(lines) + "\n"


def test_group_file_round_trip():
    for G in [klein4(), frobenius20(), trivial(2)]:
        text = render_group_file(G)
        H = parse_group_file(text)
        assert H.equals(G)


def test_group_file_errors_carry_line_numbers():
    with pytest.raises(InputError, match="line 2"):
        parse_group_file("degree: 4\ngen: (1 2")
    with pytest.raises(InputError, match="line 1"):
        parse_group_file("gen: (1 2)")
    with pytest.raises(InputError, match="degree"):
        parse_group_file("")


def test_named_specs():
    assert named_group("Sym(4)").order() == 24
    assert named_group("klein4").order() == 4
    assert parse_group_spec("F20").order() == 20
    explicit = parse_group_spec("degree: 4\ngen: (1 2)(3 4)\ngen: (1 3)(2 4)")
    assert explicit.equals(klein4())
    with pytest.raises(InputError):
        parse_group_spec("Quaternions(8)")


def test_parse_group_spec_file(tmp_path):
    path = tmp_path / "klein.grp"
    path.write_text("degree: 4\ngen: (1 2)(3 4)\ngen: (1 3)(2 4)\n")
    G = parse_group_spec(f"file:{path}")
    assert G.order() == 4 and G.name == "klein"
    with pytest.raises(InputError):
        parse_group_spec("file:/nonexistent/x.grp")


def test_random_element_lies_in_group():
    rng = random.Random(3)
    G = frobenius20()
    for _ in range(50):
        assert G.membership(G.random_element(rng))


def test_random_element_is_a_valid_permutation():
    # random_element wraps its product unchecked: the validating
    # constructor must accept every draw, and its cycles must round-trip
    ball = legal_coloring(build_ball(3, 2, "vertex"))
    groups = [wreath_tower(symmetric(3), 2).group,
              ball_stabilizer_group(ball, symmetric(3)).group, symmetric(5)]
    rng = random.Random(5)
    for G in groups:
        for _ in range(30):
            g = G.random_element(rng)
            assert g == Permutation(g.images)
            assert g.cycle_string() == Permutation(g.images).cycle_string()
            assert Permutation.from_cycles(g.cycles(), G.degree) == g
