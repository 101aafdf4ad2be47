"""Local actions, panel-constrained ball groups, defects."""

import hashlib
import random
from itertools import zip_longest

import pytest

from treeperm.config import DEFAULT_CAPS
from treeperm.errors import InputError, ResourceLimitError
from treeperm.groups import (PermGroup, alternating, cyclic, parse_group_spec, symmetric,
                             trivial)
from treeperm import acceptance
from treeperm.localact import (Graft, ball_stabilizer_group, defect_set, edge_ball_group,
                               half_ball_rigid_stabilizers, in_Uc,
                               is_ball_automorphism, local_action, panel_map,
                               random_ball_automorphism)
from treeperm.perms import Permutation, _compose, parse_cycles
from treeperm.treeball import build_ball, legal_coloring


def ball(d, r, kind="vertex"):
    return legal_coloring(build_ball(d, r, kind))


def test_local_action_of_identity():
    b = ball(3, 2)
    ident = Permutation.identity(b.n_vertices)
    for v in b.interior_vertices():
        assert local_action(b, ident, v).is_identity()


def test_local_action_needs_interior():
    b = ball(3, 1)
    ident = Permutation.identity(b.n_vertices)
    with pytest.raises(InputError):
        local_action(b, ident, 1)  # boundary vertex


def test_mirror_swap_has_identity_panels():
    # with trivial local group the edge ball group is exactly {id, mirror}
    b = ball(3, 2, "edge")
    B = edge_ball_group(b, trivial(3))
    assert B.order() == 2
    mirror = next(g for g in B.group.elements() if not g.is_identity())
    assert mirror(0) == 1 and mirror(1) == 0
    assert all(sigma.is_identity() for sigma in panel_map(b, mirror).values())
    assert in_Uc(b, mirror, trivial(3))


def test_cocycle_identity_exhaustive_on_small_ball_group():
    b = ball(3, 2)
    B = ball_stabilizer_group(b, symmetric(3))
    elems = B.group.elements()
    assert len(elems) == 48
    interior = b.interior_vertices()
    for g in elems:
        for h in elems:
            gh = g * h
            for v in interior:
                assert local_action(b, gh, v) == \
                    local_action(b, g, h(v)) * local_action(b, h, v)


def test_ball_group_elements_are_automorphisms_with_panels_in_F():
    b = ball(3, 2)
    F = symmetric(3)
    B = ball_stabilizer_group(b, F)
    for g in B.group.elements():
        assert is_ball_automorphism(b, g)
        assert g(0) == 0
        assert in_Uc(b, g, F)


def test_ball_group_monotone_in_local_group():
    b = ball(3, 2)
    big = ball_stabilizer_group(b, symmetric(3))
    for E in (cyclic(3), alternating(3), trivial(3)):
        small = ball_stabilizer_group(b, E)
        assert small.group.is_subgroup_of(big.group)


def test_order_formula_transitive_cases():
    assert ball_stabilizer_group(ball(3, 1), symmetric(3)).order() == 6
    assert ball_stabilizer_group(ball(3, 2), symmetric(3)).order() == 48
    assert ball_stabilizer_group(ball(4, 1), alternating(4)).order() == 12


def test_intransitive_local_group_grafts_by_realizable_transitions():
    # F = <(1 2)> on 3 colors: stabilizer sizes 1, 1, 2 along the inward colors
    F = PermGroup(3, [parse_cycles("(1 2)", 3)])
    b = ball(3, 2)
    B = ball_stabilizer_group(b, F)
    assert B.order() == B.formula_count == 4
    for g in B.group.elements():
        assert in_Uc(b, g, F)


def test_defect_of_one_odd_panel():
    # graft one odd local action at a level-1 vertex: Alt(3) panels
    # everywhere else, so the defect set against (Alt(3), Sym(3)) is {v}
    b = ball(3, 2)
    F, Fp = alternating(3), symmetric(3)
    v = 1
    i = b.inward_color(v)
    others = [c for c in range(3) if c != i]
    sigma = parse_cycles(f"({others[0] + 1} {others[1] + 1})", 3)  # odd, fixes i
    images = list(range(b.n_vertices))
    for u in b.children[v]:
        images[u] = b.nbr_by_color[v][sigma(b.color_of[v][u])]
    g = Permutation(images)
    assert is_ball_automorphism(b, g)
    report = defect_set(b, g, F, Fp)
    assert report.defects == [v]
    assert report.violations == []
    assert report.is_valid_element
    assert not in_Uc(b, g, F)
    assert in_Uc(b, g, Fp)


def test_panel_outside_fprime_is_a_violation():
    b = ball(3, 2)
    B = ball_stabilizer_group(b, symmetric(3))
    g = next(x for x in B.group.elements()
             if not panel_map(b, x)[0].is_identity())
    report = defect_set(b, g, trivial(3), cyclic(3))
    assert not report.is_valid_element or report.defects


def test_identity_has_empty_defect_set():
    b = ball(3, 2)
    ident = Permutation.identity(b.n_vertices)
    report = defect_set(b, ident, alternating(3), symmetric(3))
    assert report.defects == [] and report.violations == []


def test_random_defect_grafting():
    b = ball(3, 2)
    rng = random.Random(5)
    graft = Graft(b, alternating(3))
    hits = 0
    for _ in range(50):
        g = random_ball_automorphism(graft, rng, defect_panels={2: symmetric(3)})
        report = defect_set(b, g, alternating(3), symmetric(3))
        assert report.violations == []
        assert set(report.defects) <= {2}
        hits += bool(report.defects)
    assert hits > 0


def test_seeded_samples_are_pinned():
    # sha256 of 50 seeded samples over vertex, edge, swap and defect grafts;
    # pins the draw order that criterion 6 relies on
    configs = [(ball(3, 2), symmetric(3), False, None),
               (ball(4, 2), alternating(4), False, None),
               (ball(3, 2, "edge"), symmetric(3), False, None),
               (ball(3, 2, "edge"), symmetric(3), True, None),
               (ball(3, 2), alternating(3), False, {2: symmetric(3)})]
    rng = random.Random(7)
    digest = hashlib.sha256()
    for b, F, swap, defects in configs:
        graft = Graft(b, F)
        for _ in range(10):
            g = random_ball_automorphism(graft, rng, swap=swap, defect_panels=defects)
            digest.update(repr(g.images).encode())
    assert digest.hexdigest() == \
        "a5d5088ec23881877a01c7ecb27b77329e4aa966fa67178acac108078d6ca5fc"


def test_criterion_6_builds_one_graft_per_configuration(monkeypatch):
    built = []
    init = Graft.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Graft, "__init__", counting_init)
    assert acceptance.criterion_06_cocycle().ok
    assert len(built) == 8


def test_edge_ball_group_structure():
    B = edge_ball_group(ball(3, 1, "edge"), symmetric(3))
    tp = B.type_preserving
    assert (B.order(), tp.order()) == (8, 4)
    h0, h1 = half_ball_rigid_stabilizers(B)
    assert h0.order() == h1.order() == 2
    assert h0.intersection(h1).order() == 1
    assert h0.order() * h1.order() == tp.order()


def test_d5_edge_ball_halves_match_wreath_pattern():
    # endpoint-fixing subgroup factors as two point-stabilizer wreath
    # copies: Sym(4)^2 under Sym(5), Alt(4)^2 under Alt(5), at radius 1
    for F, half_order in [(symmetric(5), 24), (alternating(5), 12)]:
        B = edge_ball_group(ball(5, 1, "edge"), F)
        tp = B.type_preserving
        h0, h1 = half_ball_rigid_stabilizers(B)
        assert h0.order() == h1.order() == half_order
        assert tp.order() == half_order ** 2
        assert B.order() == 2 * tp.order()


def test_swap_count_equals_fixing_count_for_legal_colorings():
    for r in (1, 2):
        b = ball(3, r, "edge")
        B = edge_ball_group(b, symmetric(3))
        assert B.fixing_count == B.swap_count == B.order() // 2
        assert B.type_preserving.order() == B.fixing_count


def test_edge_ball_group_enumerates_each_leaf_once(monkeypatch):
    leaves = []
    enumerate_leaves = Graft._leaves

    def counting_leaves(self, *args, **kwargs):
        for leaf, inverse in enumerate_leaves(self, *args, **kwargs):
            leaves.append(leaf)
            yield leaf, inverse

    monkeypatch.setattr(Graft, "_leaves", counting_leaves)
    B = edge_ball_group(ball(4, 2, "edge"), cyclic(4))
    assert B.type_preserving.order() * 2 == B.order()
    assert len(leaves) == B.enumerated_count == B.order()
    assert len(set(leaves)) == len(leaves)


def recursive_leaves(b, F, swap, forced_identity=frozenset()):
    """The recursive graft enumerator, kept as the oracle of the walk:
    depth first over the interior vertices in BFS order, panels in the
    order of F.elements(), children placed as each panel dictates."""
    elems = F.elements()
    interior = sorted(b.interior_vertices(), key=lambda v: (b.depth[v], v))
    images = [None] * b.n_vertices
    if b.center_kind == "vertex":
        images[0] = 0
    else:
        images[0], images[1] = (1, 0) if swap else (0, 1)
    ident = Permutation.identity(b.d)

    def choices(v):
        if b.parent[v] is None:
            out = elems
        else:
            i = b.inward_color(v)
            j = b.color_of[images[v]][images[b.parent[v]]]
            out = [sigma for sigma in elems if sigma(i) == j]
        if v in forced_identity:
            return [ident] if ident in out else []
        return out

    def rec(idx):
        if idx == len(interior):
            yield tuple(images)
            return
        v = interior[idx]
        for sigma in choices(v):
            for u in b.children[v]:
                images[u] = b.nbr_by_color[images[v]][sigma(b.color_of[v][u])]
            yield from rec(idx + 1)

    yield from rec(0)


def half(b, endpoint):
    """Interior vertices whose root path leads to `endpoint` of the center edge."""
    def side(v):
        while v not in (0, 1):
            v = b.parent[v]
        return v
    return frozenset(v for v in b.interior_vertices() if side(v) == endpoint)


# every ball group of the benchmark's balls workload: (d, radius, F, center)
BALL_POOL = [(3, 2, "Sym(3)", "vertex"), (3, 2, "Sym(3)", "edge"), (3, 3, "Cyc(3)", "vertex"),
             (3, 3, "Cyc(3)", "edge"), (4, 2, "Alt(4)", "vertex"), (4, 2, "Dih(4)", "vertex"),
             (4, 2, "Cyc(4)", "vertex"), (4, 3, "Klein4", "vertex"),
             (4, 2, "Klein4", "edge"), (5, 2, "Dih(5)", "vertex"), (5, 2, "Cyc(5)", "vertex"),
             (5, 1, "Sym(5)", "vertex"), (4, 2, "Dih(4)", "edge"), (5, 1, "Sym(5)", "edge"),
             (3, 3, "Sym(3)", "vertex"), (5, 2, "Dih(5)", "edge"), (4, 2, "Sym(4)", "vertex"),
             (4, 2, "Alt(4)", "edge"), (5, 2, "F20", "vertex"), (3, 3, "Sym(3)", "edge")]


@pytest.mark.parametrize("d, r, spec, center", BALL_POOL,
                         ids=[f"d{d}r{r}-{spec}-{c}" for d, r, spec, c in BALL_POOL])
def test_walk_yields_the_recursive_leaves_with_their_inverses(d, r, spec, center):
    b = ball(d, r, center)
    F = parse_group_spec(spec)
    graft = Graft(b, F)
    ident = tuple(range(b.n_vertices))
    branches = [(False, frozenset())]
    if center == "edge":
        branches += [(True, frozenset()), (False, half(b, 0)), (False, half(b, 1))]
    for swap, forced in branches:
        n = 0
        for got, expected in zip_longest(graft._leaves(swap, forced),
                                         recursive_leaves(b, F, swap, forced)):
            assert got is not None and expected is not None
            leaf, inverse = got
            assert leaf == expected
            assert _compose(leaf, inverse) == ident == _compose(inverse, leaf)
            n += 1
        assert n > 0
        if not forced:
            assert n == graft.count(swap)


def test_radius_zero_and_boundary_freedom():
    # radius 1: only the center carries a panel, so the group is F itself
    for F in (symmetric(3), cyclic(3)):
        assert ball_stabilizer_group(ball(3, 1), F).order() == F.order()


def test_ball_order_cap_suggests_radius():
    caps = DEFAULT_CAPS.with_overrides(ball_order_cap=10)
    with pytest.raises(ResourceLimitError) as info:
        ball_stabilizer_group(ball(3, 2), symmetric(3), caps)
    assert "radius" in str(info.value)


def test_formula_order_matches_enumeration_on_grid():
    for d, r, F in [(3, 1, symmetric(3)), (3, 2, cyclic(3)), (4, 1, alternating(4))]:
        b = ball(d, r)
        B = ball_stabilizer_group(b, F)
        assert B.enumerated_count == Graft(b, F).count() == B.order()


def test_degree_mismatch_rejected():
    with pytest.raises(InputError):
        ball_stabilizer_group(ball(3, 1), symmetric(4))


def test_illegal_coloring_still_generates_a_group():
    # swap two colors at one endpoint of the central edge: valid, illegal
    from treeperm.treeball import coloring_from_edges, is_legal
    legal = ball(3, 1, "edge")
    colors = {}
    for v in range(legal.n_vertices):
        for u in legal.neighbors(v):
            colors[(v, u)] = legal.color_of[v][u]
    others = [u for u in legal.neighbors(0) if u != 1]
    colors[(0, 1)], colors[(0, others[0])] = colors[(0, others[0])], colors[(0, 1)]
    illegal = coloring_from_edges(legal, colors)
    assert not is_legal(illegal)[0]
    B = edge_ball_group(illegal, symmetric(3))
    # enumeration and BSGS agree by construction; panels still land in F
    assert B.order() == B.enumerated_count == B.formula_count
    for g in B.group.elements():
        assert in_Uc(illegal, g, symmetric(3))
