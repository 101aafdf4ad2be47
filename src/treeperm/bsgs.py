"""Deterministic Schreier-Sims stabilizer chains.

No randomization anywhere: base points are the smallest point moved by
the strong generator that forces the level, orbits grow in BFS
discovery order, and generator lists are append-only.  Identical
generator sequences therefore produce identical chains, orders, and
transversals across runs.

The chain works on raw image tuples for speed; `groups.PermGroup`
wraps it with `Permutation` values.
"""

from __future__ import annotations

import random
from typing import Iterable

from .perms import _compose, _invert

Raw = tuple  # image tuple of a permutation


class _Level:
    __slots__ = ("point", "gens", "orbit", "transversal", "inv_transversal",
                 "points_scanned", "gens_scanned", "pending")

    def __init__(self, point: int, ident: Raw):
        self.point = point
        # strong generators fixing all earlier base points
        self.gens: list[Raw] = []
        self.orbit: list[int] = [point]
        self.transversal: dict[int, Raw] = {point: ident}
        self.inv_transversal: dict[int, Raw] = {point: ident}
        # watermark of Schreier pairs already queued: [0,points)x[0,gens)
        self.points_scanned = 0
        self.gens_scanned = 0
        self.pending: list[tuple[int, int]] = []  # (orbit index, gen index)


class StabilizerChain:
    """Base and strong generating set for a permutation group."""

    def __init__(self, degree: int):
        self.degree = degree
        self.ident: Raw = tuple(range(degree))
        self.levels: list[_Level] = []

    @classmethod
    def from_generators(cls, degree: int, gens: Iterable[Raw]) -> "StabilizerChain":
        chain = cls(degree)
        for g in gens:
            chain.add_generator(g)
        return chain

    # -- queries ---------------------------------------------------------

    def order(self) -> int:
        n = 1
        for lev in self.levels:
            n *= len(lev.orbit)
        return n

    def base(self) -> list[int]:
        return [lev.point for lev in self.levels]

    def contains(self, g: Raw) -> bool:
        h, i = self._strip(g, 0)
        return i == len(self.levels) and h == self.ident

    def random_element(self, rng: random.Random) -> Raw:
        """Uniformly random element via one transversal pick per level."""
        g = self.ident
        for lev in self.levels:
            u = lev.orbit[rng.randrange(len(lev.orbit))]
            g = _compose(g, lev.transversal[u])
        return g

    # -- construction ----------------------------------------------------

    def add_generator(self, g: Raw) -> bool:
        """Adjoin a generator; returns True when the group grows."""
        if len(g) != self.degree:
            raise ValueError(f"degree mismatch: {len(g)} vs {self.degree}")
        h, i = self._strip(g, 0)
        if i == len(self.levels) and h == self.ident:
            return False
        self._register(h, found_at=i, from_level=0)
        self._complete(i)
        return True

    def _strip(self, g: Raw, start: int) -> tuple[Raw, int]:
        h = g
        for i in range(start, len(self.levels)):
            lev = self.levels[i]
            u = h[lev.point]
            t_inv = lev.inv_transversal.get(u)
            if t_inv is None:
                return h, i
            h = _compose(t_inv, h)
        return h, len(self.levels)

    def _register(self, h: Raw, found_at: int, from_level: int) -> None:
        # h fixes the base points of all levels < found_at
        if found_at == len(self.levels):
            point = min(i for i, j in enumerate(h) if i != j)
            self.levels.append(_Level(point, self.ident))
        for i in range(from_level, found_at + 1):
            self.levels[i].gens.append(h)

    def _complete(self, start: int) -> None:
        i = min(start, len(self.levels) - 1)
        while i >= 0:
            j = self._process_level(i)
            i = j if j is not None else i - 1

    def _extend_orbit(self, i: int) -> None:
        """Grow orbit/transversal after generator additions; queue new pairs."""
        lev = self.levels[i]
        gens = lev.gens
        orbit = lev.orbit
        tr = lev.transversal
        itr = lev.inv_transversal
        old_points = lev.points_scanned
        old_gens = lev.gens_scanned
        if old_points == len(orbit) and old_gens == len(gens):
            return
        # new generators applied to already-scanned points
        for idx in range(old_points):
            u = orbit[idx]
            tu = tr[u]
            for g in gens[old_gens:]:
                v = g[u]
                if v not in tr:
                    tv = _compose(g, tu)
                    tr[v] = tv
                    itr[v] = _invert(tv)
                    orbit.append(v)
        # all generators applied to unscanned points
        idx = old_points
        while idx < len(orbit):
            u = orbit[idx]
            tu = tr[u]
            for g in gens:
                v = g[u]
                if v not in tr:
                    tv = _compose(g, tu)
                    tr[v] = tv
                    itr[v] = _invert(tv)
                    orbit.append(v)
            idx += 1
        # queue Schreier pairs not seen before
        for u_idx in range(old_points):
            for g_idx in range(old_gens, len(gens)):
                lev.pending.append((u_idx, g_idx))
        for u_idx in range(old_points, len(orbit)):
            for g_idx in range(len(gens)):
                lev.pending.append((u_idx, g_idx))
        lev.points_scanned = len(orbit)
        lev.gens_scanned = len(gens)

    def _process_level(self, i: int) -> int | None:
        """Sift queued Schreier generators of level i.

        Returns the level that received a new strong generator, or None
        once every Schreier generator of this level sifts to identity.
        """
        lev = self.levels[i]
        while True:
            self._extend_orbit(i)
            if not lev.pending:
                return None
            u_idx, g_idx = lev.pending.pop()
            u = lev.orbit[u_idx]
            g = lev.gens[g_idx]
            v = g[u]
            schreier = _compose(lev.inv_transversal[v], _compose(g, lev.transversal[u]))
            if schreier == self.ident:
                continue
            h, j = self._strip(schreier, i + 1)
            if not (j == len(self.levels) and h == self.ident):
                self._register(h, found_at=j, from_level=i + 1)
                return j


def reduce_generators(degree: int, elements: Iterable[Raw]) -> tuple[list[Raw], StabilizerChain]:
    """Sift-reduce: keep only elements that grow the group so far.

    Returns the kept generators and the chain of the generated group.
    Deterministic given the iteration order of `elements`.
    """
    chain = StabilizerChain(degree)
    kept: list[Raw] = []
    for g in elements:
        if chain.add_generator(g):
            kept.append(g)
    return kept, chain
