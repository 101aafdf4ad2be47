"""Finite balls of the d-regular tree with edge colorings.

Graphs follow the directed-edge convention: every adjacency is a pair
of mutually reversed directed edges.  A coloring assigns each directed
edge a color in {0..d-1} (rendered 1-based at I/O), bijectively around
every vertex; it is *legal* when each edge and its reversal share a
color.  The canonical legal coloring walks the ball as the Cayley
graph of a free product of d order-2 generators, labelling each step
by its generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .config import DEFAULT_CAPS, Caps
from .errors import InputError, ResourceLimitError


@dataclass
class TreeBall:
    d: int
    radius: int
    center_kind: str                      # "vertex" | "edge"
    parent: list[int | None]
    depth: list[int]                      # distance to the (nearer) center vertex
    children: list[list[int]]
    # colors: color_of[v][u] = color of the directed edge v -> u
    color_of: list[dict[int, int]] | None = None
    # per interior vertex of a colored ball, its neighbors in color order; None elsewhere
    nbrs_in_color_order: list[tuple[int, ...] | None] | None = None

    @property
    def n_vertices(self) -> int:
        return len(self.parent)

    def neighbors(self, v: int) -> list[int]:
        out = list(self.children[v])
        if self.parent[v] is not None:
            out.append(self.parent[v])
        return out

    @cached_property
    def interior_flags(self) -> list[bool]:
        """Per vertex: are all d of its neighbors in the ball?"""
        return [len(kids) + (par is not None) == self.d
                for kids, par in zip(self.children, self.parent)]

    @cached_property
    def legality(self) -> tuple[bool, str | None]:
        """`is_legal(self)`, checked once per ball."""
        return is_legal(self)

    @cached_property
    def interior(self) -> tuple[int, ...]:
        """The interior vertices, in index order."""
        return tuple(v for v, inside in enumerate(self.interior_flags) if inside)

    def is_colored(self) -> bool:
        return self.color_of is not None

    def directed_edges(self) -> list[tuple[int, int, int]]:
        """(id, origin, target); reversal of edge e is e ^ 1."""
        out = []
        eid = 0
        for v in range(self.n_vertices):
            for u in self.children[v]:
                out.append((eid, v, u))
                out.append((eid + 1, u, v))
                eid += 2
        if self.center_kind == "edge":
            # the central edge is not a parent/child pair; list it first
            out = [(-2, 0, 1), (-1, 1, 0)] + out
            out = [(i, o, t) for i, (_, o, t) in enumerate(out)]
        return out


def _vertex_count(d: int, radius: int, center_kind: str, cap: int) -> tuple[int, int]:
    """(vertices within radius k of the center, k), adding one sphere at a
    time and stopping at the first k whose count passes `cap`, so a huge
    radius costs a few steps and never builds a huge integer."""
    n = 1 if center_kind == "vertex" else 2
    for k in range(1, radius + 1):
        if center_kind == "vertex":
            n += d * (d - 1) ** (k - 1)
        else:
            n += 2 * (d - 1) ** k
        if n > cap:
            return n, k
    return n, radius


def build_ball(d: int, radius: int, center_kind: str = "vertex",
               caps: Caps = DEFAULT_CAPS) -> TreeBall:
    """Uncolored radius-r ball of the d-regular tree."""
    if d < 3:
        raise InputError(f"tree arity must be >= 3, got {d}")
    if radius < 0:
        raise InputError(f"radius must be >= 0, got {radius}")
    if center_kind not in ("vertex", "edge"):
        raise InputError(f"center must be 'vertex' or 'edge', got {center_kind!r}")
    total, reached = _vertex_count(d, radius, center_kind, caps.tree_vertex_cap)
    if total > caps.tree_vertex_cap:
        what = "tree vertices" if reached == radius else \
            f"tree vertices (radius {reached} of {radius})"
        raise ResourceLimitError(what, caps.tree_vertex_cap, total, "--tree-vertex-cap")

    parent: list[int | None] = []
    depth: list[int] = []
    children: list[list[int]] = []

    def new_vertex(par: int | None, dep: int) -> int:
        parent.append(par)
        depth.append(dep)
        children.append([])
        return len(parent) - 1

    if center_kind == "vertex":
        frontier = [new_vertex(None, 0)]
    else:
        u0 = new_vertex(None, 0)
        v0 = new_vertex(None, 0)
        # endpoints are mutual pseudo-parents across the central edge
        parent[u0] = v0
        parent[v0] = u0
        frontier = [u0, v0]

    for k in range(1, radius + 1):
        nxt = []
        for v in frontier:
            # the center vertex fans out d ways, everything else d-1
            fan = d if (center_kind == "vertex" and k == 1) else d - 1
            for _ in range(fan):
                w = new_vertex(v, k)
                children[v].append(w)
                nxt.append(w)
        frontier = nxt
    return TreeBall(d=d, radius=radius, center_kind=center_kind,
                    parent=parent, depth=depth, children=children)


def legal_coloring(ball: TreeBall) -> TreeBall:
    """Canonical legal coloring by the free-product Cayley rule.

    The center edge (or the center's first edge) gets color 0; each
    vertex hands the remaining colors to its children in increasing
    order.  Deterministic: identical inputs give identical colorings.
    """
    d = ball.d
    color_of: list[dict[int, int]] = [dict() for _ in range(ball.n_vertices)]

    def paint(v: int, u: int, c: int) -> None:
        color_of[v][u] = c
        color_of[u][v] = c

    if ball.center_kind == "edge":
        paint(0, 1, 0)
    order = sorted(range(ball.n_vertices), key=lambda v: (ball.depth[v], v))
    for v in order:
        kids = ball.children[v]
        if not kids:
            continue
        if ball.center_kind == "vertex" and v == 0:
            free = range(d)
        else:
            inward = color_of[v][ball.parent[v]]
            free = [c for c in range(d) if c != inward]
        for u, c in zip(kids, free):
            paint(v, u, c)
    return _with_colors(ball, color_of)


def _with_colors(ball: TreeBall, color_of: list[dict[int, int]]) -> TreeBall:
    """`ball` colored by `color_of`, refused if a vertex uses a color twice."""
    inside = ball.interior_flags
    nbrs: list[tuple[int, ...] | None] = []
    for v, colors in enumerate(color_of):
        by_color: dict[int, int] = {}
        for u, c in colors.items():
            if by_color.setdefault(c, u) != u:
                raise InputError(f"vertex {v}: color {c + 1} used twice")
        nbrs.append(tuple(by_color[c] for c in range(ball.d)) if inside[v] else None)
    return TreeBall(d=ball.d, radius=ball.radius, center_kind=ball.center_kind,
                    parent=ball.parent, depth=ball.depth, children=ball.children,
                    color_of=color_of, nbrs_in_color_order=nbrs)


def coloring_from_edges(ball: TreeBall, edge_colors: dict[tuple[int, int], int]) -> TreeBall:
    """Apply an explicit (possibly illegal) coloring given per directed edge."""
    color_of: list[dict[int, int]] = [dict() for _ in range(ball.n_vertices)]
    for v in range(ball.n_vertices):
        for u in ball.neighbors(v):
            if (v, u) not in edge_colors:
                raise InputError(f"missing color for edge {v}->{u}")
            c = edge_colors[(v, u)]
            if not 0 <= c < ball.d:
                raise InputError(f"color {c + 1} out of range on edge {v}->{u}")
            color_of[v][u] = c
    return _with_colors(ball, color_of)


def is_valid_coloring(ball: TreeBall) -> tuple[bool, str | None]:
    """Per-vertex injectivity onto the colors of the edges present."""
    if not ball.is_colored():
        return False, "ball has no coloring"
    for v in range(ball.n_vertices):
        nbrs = ball.neighbors(v)
        cols = [ball.color_of[v].get(u) for u in nbrs]
        if None in cols:
            u = nbrs[cols.index(None)]
            return False, f"edge {v}->{u} uncolored"
        if len(set(cols)) != len(cols):
            return False, f"vertex {v}: colors {sorted(c + 1 for c in cols)} not injective"
    return True, None


def is_legal(ball: TreeBall) -> tuple[bool, str | None]:
    """Valid and reversal-symmetric: c(e) = c(reversed e) on every edge."""
    ok, witness = is_valid_coloring(ball)
    if not ok:
        return False, witness
    for v in range(ball.n_vertices):
        for u in ball.neighbors(v):
            if ball.color_of[v][u] != ball.color_of[u][v]:
                return False, (f"edge {v}<->{u}: colors "
                               f"{ball.color_of[v][u] + 1} vs {ball.color_of[u][v] + 1}")
    return True, None


def ball_to_json(ball: TreeBall) -> dict:
    edges = []
    for eid, v, u in ball.directed_edges():
        rec = {"id": eid, "origin": v, "reverse": eid ^ 1}
        if ball.is_colored():
            rec["color"] = ball.color_of[v][u] + 1
        edges.append(rec)
    return {"d": ball.d, "radius": ball.radius, "center": ball.center_kind, "edges": edges}


def _is_int(value) -> bool:
    """An integer as JSON reads one: bool is an int subclass, so refuse it."""
    return isinstance(value, int) and not isinstance(value, bool)


def coloring_from_json(ball: TreeBall, data: dict) -> TreeBall:
    """Recolor `ball` from a JSON ball document with matching shape."""
    for key in ("d", "radius"):
        if key in data and not _is_int(data[key]):
            raise InputError(f"coloring file: {key!r} {data[key]!r} is not an integer")
    if data.get("d") != ball.d or data.get("radius") != ball.radius \
            or data.get("center") != ball.center_kind:
        raise InputError("coloring file does not match the ball shape")
    directed = {eid: (v, u) for eid, v, u in ball.directed_edges()}
    edge_colors: dict[tuple[int, int], int] = {}
    edges = data.get("edges", [])
    if not isinstance(edges, list):
        raise InputError("coloring file: 'edges' must be a list")
    for rec in edges:
        if not isinstance(rec, dict):
            raise InputError(f"coloring file: edge record {rec!r} is not an object")
        eid = rec.get("id")
        if not _is_int(eid):
            raise InputError(f"coloring file: edge id {eid!r} is not an integer")
        if eid not in directed:
            raise InputError(f"unknown edge id {eid} in coloring file")
        if directed[eid] in edge_colors:
            raise InputError(f"coloring file: edge id {eid} appears twice")
        if "color" not in rec:
            raise InputError(f"edge id {eid} has no color")
        color = rec["color"]
        if not _is_int(color):
            raise InputError(f"edge id {eid}: color {color!r} is not an integer")
        edge_colors[directed[eid]] = color - 1
    return coloring_from_edges(ball, edge_colors)
