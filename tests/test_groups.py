"""PermGroup engine: orders, membership, stabilizers, normal subgroups."""

import random

import pytest

from treeperm.config import DEFAULT_CAPS
from treeperm.errors import InputError, ResourceLimitError
from treeperm.groups import (PermGroup, alternating, closure_elements, cyclic,
                             dihedral, frobenius20, klein4, named_group,
                             parse_group_file, parse_group_spec, symmetric,
                             trivial)
from treeperm.perms import Permutation, parse_cycles

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


def test_orbit_point_range_checked():
    with pytest.raises(InputError):
        symmetric(3).orbit(5)


def test_normal_closure_example():
    ncl = symmetric(4).normal_closure(PermGroup(4, [parse_cycles("(1 2 3)", 4)]))
    assert ncl.order() == 12


def test_normal_core_of_sylow_in_sym4():
    D4 = PermGroup(4, [parse_cycles("(1 2 3 4)", 4), parse_cycles("(2 4)", 4)])
    core = symmetric(4).normal_core(D4)
    assert core.order() == 4
    assert all(g.order() in (1, 2) for g in core.elements())


def test_normal_core_of_whole_group():
    G = symmetric(4)
    assert G.normal_core(G).order() == 24


def test_normal_outputs_are_verified_normal():
    G = symmetric(4)
    for got in [G.normal_closure(PermGroup(4, [parse_cycles("(1 2)(3 4)", 4)])),
                G.normal_core(alternating(4))]:
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
    assert symmetric(3).center().order() == 1
    assert cyclic(6).center().order() == 6
    assert dihedral(4).center().order() == 2
    # the Klein four group is self-centralizing in Sym(4)
    assert symmetric(4).centralizer(klein4()).order() == 4


def test_intersection():
    S4 = symmetric(4)
    assert S4.intersection(alternating(4)).order() == 12
    D4 = PermGroup(4, [parse_cycles("(1 2 3 4)", 4), parse_cycles("(2 4)", 4)])
    assert D4.intersection(alternating(4)).order() == 4


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
