"""Boolean algebras of leaf subsets with rigid-stabilizer maps.

Subsets of the ground set (leaves of a wreath tower, or any permutation
domain) are bitmasks.  rist(alpha) is the subgroup acting trivially off
alpha.  For wreath towers rist is computed structurally: at each vertex
the allowed panel is the pointwise stabilizer in the base group of the
children whose cones stick out of alpha, with full subtrees below
swallowed children.  A memoized counting recursion over the same
portrait decomposition provides an order oracle that never builds the
group.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import DEFAULT_CAPS, Caps
from .errors import InputError, ResourceLimitError
from .groups import PermGroup
from .perms import Permutation
from .portraits import vertex_portrait, flatten
from .wreath import WreathTower, rigid_stabilizer, tower_order


@dataclass(frozen=True)
class SubsetAlgebra:
    """Finite Boolean algebra of subsets of {0..size-1} as bitmasks."""

    size: int

    @property
    def full(self) -> int:
        return (1 << self.size) - 1

    def meet(self, a: int, b: int) -> int:
        return a & b

    def join(self, a: int, b: int) -> int:
        return a | b

    def complement(self, a: int) -> int:
        return self.full ^ a

    def members(self, a: int) -> list[int]:
        return [i for i in range(self.size) if a >> i & 1]

    def from_members(self, points) -> int:
        bits = 0
        for i in points:
            if not 0 <= i < self.size:
                raise InputError(f"point {i} outside ground set of size {self.size}")
            bits |= 1 << i
        return bits


def act_on_subset(g: Permutation, bits: int) -> int:
    out = 0
    i = 0
    while bits >> i:
        if bits >> i & 1:
            out |= 1 << g(i)
        i += 1
    return out


def support(g: Permutation) -> int:
    bits = 0
    for i in g.moved_points():
        bits |= 1 << i
    return bits


# -- rigid stabilizers --------------------------------------------------------

def rist_exhaustive(G: PermGroup, bits: int, caps: Caps = DEFAULT_CAPS) -> PermGroup:
    """Pointwise stabilizer of the complement, by element scan."""
    return PermGroup.from_elements(
        G.degree, (g.images for g in G.elements(caps) if support(g) & ~bits == 0))


def cone_bits(T: WreathTower, vertex: tuple[int, ...]) -> int:
    leaves = T.cone_leaves(vertex)
    return ((1 << len(leaves)) - 1) << leaves.start


def _panel_stabilizer_gens(F: PermGroup, fixed: list[int],
                           caps: Caps) -> tuple[Permutation, ...]:
    """Generators of the pointwise stabilizer of `fixed` in F."""
    return PermGroup.from_elements(
        F.degree, (s.images for s in F.elements(caps) if all(s(j) == j for j in fixed))
    ).generators


def rist_tower(T: WreathTower, bits: int, caps: Caps = DEFAULT_CAPS) -> PermGroup:
    """Structural rist for a wreath tower; exact for arbitrary leaf subsets."""
    d, n = T.arity, T.depth
    ground = T.leaf_count
    if bits >> ground:
        raise InputError("subset has bits beyond the leaf set")
    gens: list[Permutation] = []

    def rec(vertex: tuple[int, ...]) -> None:
        k = len(vertex)
        cone = cone_bits(T, vertex)
        sub = bits & cone
        if sub == cone:
            gens.extend(rigid_stabilizer(T, vertex).generators)
            return
        if sub == 0 or k == n:
            return
        kids = [vertex + (i,) for i in range(d)]
        covered = [i for i in range(d) if bits & cone_bits(T, kids[i]) == cone_bits(T, kids[i])]
        outside = [i for i in range(d) if i not in covered]
        for sigma in _panel_stabilizer_gens(T.base, outside, caps):
            gens.append(flatten(vertex_portrait(d, n, vertex, sigma)))
        for kid in kids:
            rec(kid)

    if n > 0:
        rec(())
    return PermGroup.from_elements(max(ground, 1), (g.images for g in gens))


def rist(G: PermGroup | WreathTower, bits: int, caps: Caps = DEFAULT_CAPS) -> PermGroup:
    if isinstance(G, WreathTower):
        return rist_tower(G, bits, caps)
    return rist_exhaustive(G, bits, caps)


# -- support-counting oracle ---------------------------------------------------

def count_supported(T: WreathTower, *subsets: int, caps: Caps = DEFAULT_CAPS) -> int:
    """Number of tower elements supported inside every given subset.

    Independent of the rist construction: a memoized recursion over
    portrait shapes that multiplies panel choices and child counts.
    """
    d, n = T.arity, T.depth
    base_elems = T.base.elements(caps)
    base_order = len(base_elems)
    memo: dict[tuple, int] = {}

    def full_below(k: int) -> int:
        return tower_order(base_order, d, n - k)

    def rec(k: int, rel: tuple[int, ...]) -> int:
        if all(r == 0 for r in rel):
            return 1
        if k == n:
            return 1
        key = (k, rel)
        if key in memo:
            return memo[key]
        width = d ** (n - k - 1)
        full = (1 << width) - 1
        child_rel = [tuple((r >> (i * width)) & full for r in rel) for i in range(d)]
        movable = [i for i in range(d) if all(c == full for c in child_rel[i])]
        fixed_pts = [i for i in range(d) if i not in movable]
        total = 0
        for sigma in base_elems:
            if any(sigma(j) != j for j in fixed_pts):
                continue
            prod = 1
            for i in range(d):
                if sigma(i) != i:
                    prod *= full_below(k + 1)
                else:
                    prod *= rec(k + 1, child_rel[i])
                if prod == 0:
                    break
            total += prod
        memo[key] = total
        return total

    if n == 0:
        return 1
    return rec(0, tuple(subsets))


# -- invariant subsets ----------------------------------------------------------

def fixed_subsets(G: PermGroup, max_count: int = 1 << 20) -> list[int]:
    """All G-invariant subsets of the domain (unions of orbits)."""
    orbits = G.orbits()
    if 1 << len(orbits) > max_count:
        raise ResourceLimitError("fixed subsets", max_count, 1 << len(orbits),
                                 "max_count=")
    masks = []
    for orb in orbits:
        m = 0
        for i in orb:
            m |= 1 << i
        masks.append(m)
    out = []
    for pick in range(1 << len(masks)):
        bits = 0
        for i, m in enumerate(masks):
            if pick >> i & 1:
                bits |= m
        out.append(bits)
    return sorted(set(out), key=lambda b: (bin(b).count("1"), b))


# -- pairwise checks -------------------------------------------------------------

@dataclass
class PairCheck:
    subset_a: int
    subset_b: int
    rist_a_order: int
    rist_b_order: int
    meet_rist_order: int
    intersection_order: int
    intersection_method: str
    meet_identity_holds: bool
    disjoint: bool
    disjoint_commutes: bool | None
    complement_centralizer_contains: bool
    complement_centralizer_equals: bool | None


def _commute_groupwise(A: PermGroup, B: PermGroup) -> bool:
    return all((a * b).images == (b * a).images
               for a in A.generators for b in B.generators)


def lattice_check_pair(G: PermGroup | WreathTower, alpha: int, beta: int,
                       caps: Caps = DEFAULT_CAPS,
                       rist_cache: dict[int, PermGroup] | None = None,
                       centralizer_cache: dict[int, PermGroup] | None = None) -> PairCheck:
    """rist meet identity, disjoint-support commuting, complement centralizing."""
    group = G.group if isinstance(G, WreathTower) else G
    algebra = SubsetAlgebra(group.degree)

    def rist_of(bits: int) -> PermGroup:
        if rist_cache is None:
            return rist(G, bits, caps)
        if bits not in rist_cache:
            rist_cache[bits] = rist(G, bits, caps)
        return rist_cache[bits]

    A = rist_of(alpha)
    B = rist_of(beta)
    L = rist_of(alpha & beta)
    contained = all(A.membership(g) and B.membership(g) for g in L.generators)
    # |A ∩ B|: exhaustively when one side is small, else the counting oracle
    small = min(A.order(), B.order())
    if small <= (5000 if isinstance(G, WreathTower) else caps.element_cap):
        inter = A.intersection(B, caps).order()
        method = "exhaustive"
    elif isinstance(G, WreathTower):
        inter = count_supported(G, alpha, beta, caps=caps)
        method = "portrait-count"
    else:
        raise ResourceLimitError("element enumeration", caps.element_cap,
                                 small, "--element-cap")
    meet_holds = contained and inter == L.order()

    disjoint = alpha & beta == 0
    commutes = _commute_groupwise(A, B) if disjoint else None

    comp = rist_of(algebra.complement(alpha))
    contains = _commute_groupwise(comp, A)
    equals = None
    if group.order() <= caps.element_cap:
        if centralizer_cache is not None and alpha in centralizer_cache:
            cent = centralizer_cache[alpha]
        else:
            cent = group.centralizer(A, caps)
            if centralizer_cache is not None:
                centralizer_cache[alpha] = cent
        equals = cent.equals(comp)
    return PairCheck(
        subset_a=alpha, subset_b=beta,
        rist_a_order=A.order(), rist_b_order=B.order(),
        meet_rist_order=L.order(), intersection_order=inter,
        intersection_method=method, meet_identity_holds=meet_holds,
        disjoint=disjoint, disjoint_commutes=commutes,
        complement_centralizer_contains=contains,
        complement_centralizer_equals=equals,
    )


def cone_union_pool(T: WreathTower, caps: Caps = DEFAULT_CAPS) -> list[int]:
    """Deterministic pool of cone-union subsets, coarsest level first:
    per level all unions of that level's cones while they number at most
    2^12, single cones otherwise; empty and full lead the pool."""
    pool: list[int] = []
    seen = set()

    def add(bits: int) -> None:
        if bits not in seen:
            seen.add(bits)
            pool.append(bits)

    add(0)
    add(cone_bits(T, ()))
    for k in range(1, T.depth + 1):
        cones = [cone_bits(T, v) for v in _level_vertices(T.arity, k)]
        if 1 << len(cones) <= 1 << 12:
            for pick in range(1 << len(cones)):
                bits = 0
                for i, c in enumerate(cones):
                    if pick >> i & 1:
                        bits |= c
                add(bits)
        else:
            for c in cones:
                add(c)
    return pool


def _level_vertices(d: int, k: int) -> list[tuple[int, ...]]:
    out = [()]
    for _ in range(k):
        out = [v + (i,) for v in out for i in range(d)]
    return out


def lattice_checks(G: PermGroup | WreathTower, subsets: list[int],
                   caps: Caps = DEFAULT_CAPS) -> list[PairCheck]:
    """All unordered pair checks over an explicit subset list."""
    rist_cache: dict[int, PermGroup] = {}
    centralizer_cache: dict[int, PermGroup] = {}
    return [lattice_check_pair(G, subsets[i], subsets[j], caps,
                               rist_cache, centralizer_cache)
            for i in range(len(subsets)) for j in range(i, len(subsets))]


def lattice_sweep(T: WreathTower, caps: Caps = DEFAULT_CAPS,
                  pool: list[int] | None = None) -> list[PairCheck]:
    """Pairwise checks over the cone-union pool, up to the pair cap.

    Pairs are taken along diagonals of the (coarse-first) pool so a cap
    still sees every granularity level, not just the first entries.
    """
    if pool is None:
        pool = cone_union_pool(T, caps)
    rist_cache: dict[int, PermGroup] = {}
    centralizer_cache: dict[int, PermGroup] = {}
    checks = []
    n = len(pool)
    for diag in range(2 * n - 1):
        for i in range(min(diag // 2 + 1, n)):
            j = diag - i
            if j < i or j >= n:
                continue
            if len(checks) >= caps.pair_cap:
                return checks
            checks.append(lattice_check_pair(T, pool[i], pool[j], caps,
                                             rist_cache, centralizer_cache))
    return checks
