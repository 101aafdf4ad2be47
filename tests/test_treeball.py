"""Tree balls, colorings, legality."""

import time

import pytest

from treeperm.config import DEFAULT_CAPS
from treeperm.errors import InputError, ResourceLimitError
from treeperm.treeball import (ball_to_json, build_ball, coloring_from_edges,
                               coloring_from_json, is_legal, is_valid_coloring,
                               legal_coloring)


def test_radius_one_star_counts():
    b = build_ball(3, 1)
    assert b.n_vertices == 4
    assert len(b.directed_edges()) == 6


def test_level_counts_vertex_center():
    # d (d-1)^(k-1) vertices at distance k
    for d in (3, 4):
        for r in (1, 2, 3):
            b = build_ball(d, r)
            for k in range(1, r + 1):
                level = [v for v in range(b.n_vertices) if b.depth[v] == k]
                assert len(level) == d * (d - 1) ** (k - 1)


def test_edge_center_counts():
    b = build_ball(3, 1, "edge")
    assert b.n_vertices == 6
    assert b.interior_flags[0] and b.interior_flags[1]
    b2 = build_ball(3, 2, "edge")
    assert b2.n_vertices == 2 + 2 * (2 + 4)


def test_interior_boundary_split():
    b = build_ball(3, 2)
    interior = b.interior
    assert len(interior) == 4  # center + 3 at level 1
    assert all(b.depth[v] <= 1 for v in interior)


def test_legal_coloring_is_valid_and_legal():
    for d, r, kind in [(3, 1, "vertex"), (3, 2, "vertex"), (4, 2, "vertex"),
                       (3, 1, "edge"), (3, 2, "edge")]:
        ball = legal_coloring(build_ball(d, r, kind))
        assert is_valid_coloring(ball) == (True, None)
        assert is_legal(ball) == (True, None)
        assert ball.legality == (True, None) and ball.legality is ball.legality


def test_center_star_gets_all_colors():
    ball = legal_coloring(build_ball(3, 1))
    colors = sorted(ball.color_of[0].values())
    assert colors == [0, 1, 2]
    for u in (1, 2, 3):
        assert ball.color_of[u][0] == ball.color_of[0][u]


def test_legal_coloring_is_deterministic():
    a = legal_coloring(build_ball(4, 2))
    b = legal_coloring(build_ball(4, 2))
    assert a.color_of == b.color_of


def test_legal_coloring_is_linear_in_the_arity():
    # a vertex builds its free colors in one pass, and a leaf builds none;
    # a sorted set difference at every vertex made this quadratic in d
    d = 20000
    t0 = time.perf_counter()
    ball = legal_coloring(build_ball(d, 1))
    assert time.perf_counter() - t0 < 2.0
    assert ball.color_of[0] == {u: u - 1 for u in range(1, d + 1)}
    assert ball.nbrs_in_color_order[0] == tuple(range(1, d + 1))
    assert ball.nbrs_in_color_order[1] is None


def test_broken_reversal_is_located():
    ball = legal_coloring(build_ball(3, 1))
    colors = {}
    for v in range(ball.n_vertices):
        for u in ball.neighbors(v):
            colors[(v, u)] = ball.color_of[v][u]
    # swap two colors at the center only: still valid, no longer legal
    colors[(0, 1)], colors[(0, 2)] = colors[(0, 2)], colors[(0, 1)]
    broken = coloring_from_edges(ball, colors)
    assert is_valid_coloring(broken)[0]
    legal, witness = is_legal(broken)
    assert not legal and witness is not None
    assert broken.legality == (legal, witness)
    # an uncolored ball has no legal coloring: the cached check says so too
    assert build_ball(3, 1).legality == (False, "ball has no coloring")


def test_constant_coloring_is_invalid():
    ball = build_ball(3, 1)
    colors = {}
    for v in range(ball.n_vertices):
        for u in ball.neighbors(v):
            colors[(v, u)] = 0
    with pytest.raises(InputError, match=r"^vertex 0: color 1 used twice$"):
        coloring_from_edges(ball, colors)


def test_json_round_trip():
    ball = legal_coloring(build_ball(3, 2, "edge"))
    doc = ball_to_json(ball)
    assert doc["d"] == 3 and doc["radius"] == 2 and doc["center"] == "edge"
    recolored = coloring_from_json(legal_coloring(build_ball(3, 2, "edge")), doc)
    assert recolored.color_of == ball.color_of
    # reversal involution with o(e) != o(reverse)
    by_id = {e[0]: e for e in ball.directed_edges()}
    for eid, origin, target in ball.directed_edges():
        rid = eid ^ 1
        assert by_id[rid][1] == target and by_id[rid][2] == origin


def test_arity_and_radius_validation():
    with pytest.raises(InputError):
        build_ball(2, 1)
    with pytest.raises(InputError):
        build_ball(3, -1)
    with pytest.raises(InputError):
        build_ball(3, 1, "face")


def test_vertex_cap_is_loud():
    caps = DEFAULT_CAPS.with_overrides(tree_vertex_cap=5)
    with pytest.raises(ResourceLimitError) as info:
        build_ball(3, 2, "vertex", caps)
    assert "--tree-vertex-cap" in str(info.value)
