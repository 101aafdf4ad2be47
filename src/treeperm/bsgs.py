"""Deterministic Schreier-Sims stabilizer chains.

No randomization anywhere: base points after any given prefix are the
smallest point moved by the strong generator that forces the level, orbits grow in BFS
discovery order, and generator lists are append-only.  Identical
generator sequences therefore produce identical chains, orders, and
transversals across runs.  The inverse of a transversal element is
computed the first time a sift or a Schreier generator needs it.

The chain works on raw image tuples for speed; `groups.PermGroup`
wraps it with `Permutation` values.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator

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
        # inverses of transversal elements, each computed on first use
        self.inv_transversal: dict[int, Raw] = {point: ident}
        # watermark of Schreier pairs already queued: [0,points)x[0,gens)
        self.points_scanned = 0
        self.gens_scanned = 0
        self.pending: list[tuple[int, int]] = []  # (orbit index, gen index)

    def inverse(self, u: int) -> Raw:
        """The inverse of `transversal[u]`, cached on first use."""
        t_inv = self.inv_transversal.get(u)
        if t_inv is None:
            t_inv = self.inv_transversal[u] = _invert(self.transversal[u])
        return t_inv


class StabilizerChain:
    """Base and strong generating set for a permutation group."""

    def __init__(self, degree: int):
        self.degree = degree
        self.ident: Raw = tuple(range(degree))
        self.levels: list[_Level] = []

    @classmethod
    def from_generators(cls, degree: int, gens: Iterable[Raw],
                        base: Iterable[int] = ()) -> "StabilizerChain":
        """Schreier-Sims chain whose base starts with the distinct points
        `base`: each gets a level before any sifting, and a residue that
        moves one registers there.  Later base points are chosen as usual."""
        chain = cls(degree)
        chain.levels = [_Level(b, chain.ident) for b in base]
        for g in gens:
            chain.add_generator(g)
        return chain

    @classmethod
    def up_to_order(cls, degree: int, gens: Iterable[Raw], order: int) -> "StabilizerChain":
        """Chain of the group generated by `gens`, given `order` >= its order.

        Sifts each generator and grows the orbit of every level its
        residue joins, without queuing Schreier generators.  The orbits
        of such a partial chain multiply to at most the group order
        (Seress, ch. 4), so once their product reaches the proved upper
        bound `order` the chain is complete.  Otherwise Schreier-Sims
        completes the same chain, queuing every Schreier pair of a level.
        """
        chain = cls(degree)
        for g in gens:
            if chain.order() == order:
                break
            if len(g) != degree:
                raise ValueError(f"degree mismatch: {len(g)} vs {degree}")
            h, i = chain._strip(g, 0)
            if i == len(chain.levels) and h == chain.ident:
                continue
            chain._register(h, found_at=i, from_level=0)
            for lev in chain.levels[:i + 1]:
                # lev.orbit is closed under every generator but the new last one
                chain._grow_orbit(lev, len(lev.orbit), len(lev.gens) - 1)
        if chain.order() != order:
            chain._complete(len(chain.levels) - 1)
        return chain

    # -- queries ---------------------------------------------------------

    def order(self) -> int:
        n = 1
        for lev in self.levels:
            n *= len(lev.orbit)
        return n

    def base(self) -> list[int]:
        return [lev.point for lev in self.levels]

    def strong_generators(self) -> list[Raw]:
        """The strong generators of every level, each once, top level first."""
        return list(dict.fromkeys(g for lev in self.levels for g in lev.gens))

    def tail(self, k: int) -> "StabilizerChain":
        """Chain of the pointwise stabilizer of the first k base points:
        the levels from k on, shared with this chain."""
        chain = StabilizerChain(self.degree)
        chain.levels = self.levels[k:]
        return chain

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
        levels = self.levels
        for i in range(start, len(levels)):
            lev = levels[i]
            u = h[lev.point]
            if u == lev.point:
                continue  # the level's transversal element is the identity
            t_inv = lev.inv_transversal.get(u)
            if t_inv is None:
                if u not in lev.transversal:
                    return h, i
                t_inv = lev.inverse(u)
            h = _compose(t_inv, h)
        return h, len(levels)

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
        old_points = lev.points_scanned
        old_gens = lev.gens_scanned
        if old_points == len(orbit) and old_gens == len(gens):
            return
        self._grow_orbit(lev, old_points, old_gens)
        # queue Schreier pairs not seen before
        for u_idx in range(old_points):
            for g_idx in range(old_gens, len(gens)):
                lev.pending.append((u_idx, g_idx))
        for u_idx in range(old_points, len(orbit)):
            for g_idx in range(len(gens)):
                lev.pending.append((u_idx, g_idx))
        lev.points_scanned = len(orbit)
        lev.gens_scanned = len(gens)

    @staticmethod
    def _grow_orbit(lev: _Level, old_points: int, old_gens: int) -> None:
        """Close the orbit under the level's generators, given that its
        first `old_points` points were scanned with its first `old_gens`.

        An orbit that already holds every point is closed as it stands.
        Otherwise the first `old_points` points are scanned with the new
        generators only, then the points after them, new ones included,
        with every generator: one breadth-first pass over the orbit list,
        so its discovery order fixes every orbit list and transversal.
        """
        gens = lev.gens
        orbit = lev.orbit
        tr = lev.transversal
        if len(orbit) == len(tr[lev.point]):
            return
        new_gens = gens[old_gens:]
        for u in orbit[:old_points]:
            for g in new_gens:
                v = g[u]
                if v not in tr:
                    tr[v] = _compose(g, tr[u])
                    orbit.append(v)
        idx = old_points
        while idx < len(orbit):
            u = orbit[idx]
            tu = tr[u]
            for g in gens:
                v = g[u]
                if v not in tr:
                    tr[v] = _compose(g, tu)
                    orbit.append(v)
            idx += 1

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
            schreier = _compose(lev.inverse(v), _compose(g, lev.transversal[u]))
            if schreier == self.ident:
                continue
            h, j = self._strip(schreier, i + 1)
            if not (j == len(self.levels) and h == self.ident):
                self._register(h, found_at=j, from_level=i + 1)
                return j


def _schreier_generators(degree: int, gens: list[Raw], point: int) -> tuple[int, Iterator[Raw]]:
    """Orbit length of `point` under `gens`, and a lazy stream of the
    non-identity Schreier generators of its stabilizer (Schreier's lemma)."""
    ident = tuple(range(degree))
    lev = _Level(point, ident)
    lev.gens = gens
    StabilizerChain._grow_orbit(lev, 0, 0)
    tr = lev.transversal
    schreier = (_compose(lev.inverse(g[u]), _compose(g, tr[u])) for u in lev.orbit for g in gens)
    return len(lev.orbit), (s for s in schreier if s != ident)


def reduce_generators(degree: int, elements: Iterable[Raw],
                      order: int | None = None) -> tuple[list[Raw], StabilizerChain]:
    """Sift-reduce: keep only elements that grow the group so far.

    Returns the kept generators and the chain of the generated group.
    Deterministic given the iteration order of `elements`.

    With `order`, the proved order of the generated group (for instance
    the size of a scanned subgroup), the pass stops once the chain
    reaches it.  The chain is complete after every kept element, so no
    later element could grow it: the kept list and the chain are those
    of a full pass.  A chain that ends at any other order raises
    AssertionError, which checks the count against the chain.
    """
    chain = StabilizerChain(degree)
    kept: list[Raw] = []
    for g in elements:
        if chain.add_generator(g):
            kept.append(g)
            if chain.order() == order:
                break
    if order is not None and chain.order() != order:
        raise AssertionError(f"elements generate a group of order {chain.order()}, "
                             f"not the expected {order}")
    return kept, chain
