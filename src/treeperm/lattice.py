"""Boolean algebra of the leaf subsets of a wreath tower, with its
rigid-stabilizer map.

Subsets of the leaves of W_n(F) are bitmasks.  rist(alpha) is the
subgroup acting trivially off alpha, computed structurally: at each
vertex the allowed panel is the pointwise stabilizer in the base group
of the children whose cones stick out of alpha, with full subtrees below
swallowed children.  A memoized counting recursion over the same
portrait decomposition, `count_supported`, counts elements without
building a group: it gives every pair check its |rist(alpha) ∩
rist(beta)|, from one memo shared across a sweep.  Both are checked
against exhaustive oracles: rist in tests/test_lattice.py, the
intersection scan in tests/scan_oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

from .config import DEFAULT_CAPS, Caps
from .errors import InputError
from .groups import PermGroup
from .perms import Permutation, _compose
from .wreath import (WreathTower, _interior_vertices, rigid_stabilizer, tower_order,
                     vertex_generator)


# -- rigid stabilizers --------------------------------------------------------

def cone_bits(T: WreathTower, vertex: tuple[int, ...]) -> int:
    leaves = T.cone_leaves(vertex)
    return ((1 << len(leaves)) - 1) << leaves.start


def _panel_stabilizer_gens(F: PermGroup, fixed: list[int],
                           caps: Caps) -> tuple[Permutation, ...]:
    """Generators of the pointwise stabilizer of `fixed` in F."""
    found = [s.images for s in F.elements(caps) if all(s(j) == j for j in fixed)]
    return PermGroup.from_elements(F.degree, found, len(found)).generators


def rist(T: WreathTower, bits: int, caps: Caps = DEFAULT_CAPS) -> PermGroup:
    """Rigid stabilizer of the leaf subset `bits` (the elements fixing every
    leaf outside it), built structurally; exact for arbitrary leaf subsets."""
    d, n = T.arity, T.depth
    ground = T.leaf_count
    if bits >> ground:
        raise InputError("subset has bits beyond the leaf set")
    gens: list[tuple] = []

    def rec(vertex: tuple[int, ...]) -> None:
        k = len(vertex)
        cone = cone_bits(T, vertex)
        sub = bits & cone
        if sub == cone:
            gens.extend(g.images for g in rigid_stabilizer(T, vertex).generators)
            return
        if sub == 0 or k == n:
            return
        kids = [vertex + (i,) for i in range(d)]
        covered = [i for i in range(d) if bits & cone_bits(T, kids[i]) == cone_bits(T, kids[i])]
        outside = [i for i in range(d) if i not in covered]
        for sigma in _panel_stabilizer_gens(T.base, outside, caps):
            gens.append(vertex_generator(d, n, vertex, sigma.images))
        for kid in kids:
            rec(kid)

    if n > 0:
        rec(())
    return PermGroup.from_elements(max(ground, 1), gens)


# -- support-counting oracle ---------------------------------------------------

def count_supported(T: WreathTower, *subsets: int, caps: Caps = DEFAULT_CAPS,
                    memo: dict[tuple, int] | None = None) -> int:
    """Number of tower elements supported inside every given subset.

    Independent of the rist construction: a memoized recursion over
    portrait shapes that multiplies panel choices and child counts.
    Base elements are enumerated only when a vertex has a panel to count.
    Each memo entry depends only on T and its key, so calls on one
    tower may share a `memo`.
    """
    d, n = T.arity, T.depth
    memo = {} if memo is None else memo

    def full_below(k: int) -> int:
        return tower_order(T.base.order(), d, n - k)

    def rec(k: int, rel: tuple[int, ...]) -> int:
        # only the identity is supported in the empty set
        if k == n or 0 in rel:
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
        for sigma in T.base.elements(caps):
            if any(sigma(j) != j for j in fixed_pts):
                continue
            prod = 1
            for i in range(d):
                if sigma(i) != i:
                    prod *= full_below(k + 1)
                else:
                    prod *= rec(k + 1, child_rel[i])
            total += prod
        memo[key] = total
        return total

    return rec(0, tuple(subsets))


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
    return all(_compose(a.images, b.images) == _compose(b.images, a.images)
               for a in A.generators for b in B.generators)


def lattice_check_pair(T: WreathTower, alpha: int, beta: int,
                       caps: Caps = DEFAULT_CAPS,
                       rist_cache: dict[int, PermGroup] | None = None,
                       complement_cache: dict[int, tuple[bool, bool | None]] | None = None,
                       count_memo: dict[tuple, int] | None = None) -> PairCheck:
    """rist meet identity, disjoint-support commuting, complement centralizing;
    the complement checks depend on alpha alone, kept in `complement_cache`."""
    rist_cache = {} if rist_cache is None else rist_cache
    complement_cache = {} if complement_cache is None else complement_cache

    def rist_of(bits: int) -> PermGroup:
        if bits not in rist_cache:
            rist_cache[bits] = rist(T, bits, caps)
        return rist_cache[bits]

    A = rist_of(alpha)
    B = rist_of(beta)
    L = rist_of(alpha & beta)
    contained = all(A.membership(g) and B.membership(g) for g in L.generators)
    inter = count_supported(T, alpha, beta, caps=caps, memo=count_memo)
    meet_holds = contained and inter == L.order()

    disjoint = alpha & beta == 0
    commutes = _commute_groupwise(A, B) if disjoint else None

    if alpha not in complement_cache:
        comp = rist_of(cone_bits(T, ()) ^ alpha)
        contains = _commute_groupwise(comp, A)
        equals = None
        if T.group.order() <= caps.element_cap:
            # a centralizing comp lies in C_T(A): equal exactly when as large
            equals = contains and T.group.centralizer(A, caps).order() == comp.order()
        complement_cache[alpha] = contains, equals
    contains, equals = complement_cache[alpha]
    return PairCheck(
        subset_a=alpha, subset_b=beta,
        rist_a_order=A.order(), rist_b_order=B.order(),
        meet_rist_order=L.order(), intersection_order=inter,
        intersection_method="portrait-count", meet_identity_holds=meet_holds,
        disjoint=disjoint, disjoint_commutes=commutes,
        complement_centralizer_contains=contains,
        complement_centralizer_equals=equals,
    )


def cone_union_pool(T: WreathTower) -> list[int]:
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
    # the vertices below the root, one level at a time
    for _, level in groupby(_interior_vertices(T.arity, T.depth + 1)[1:], key=len):
        cones = [cone_bits(T, v) for v in level]
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


def lattice_sweep(T: WreathTower, caps: Caps = DEFAULT_CAPS) -> list[PairCheck]:
    """Pairwise checks over the cone-union pool, up to the pair cap.

    Pairs are taken along diagonals of the (coarse-first) pool so a cap
    still sees every granularity level, not just the first entries.
    """
    pool = cone_union_pool(T)
    rist_cache: dict[int, PermGroup] = {}
    complement_cache: dict[int, tuple[bool, bool | None]] = {}
    count_memo: dict[tuple, int] = {}
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
                                             rist_cache, complement_cache, count_memo))
    return checks
