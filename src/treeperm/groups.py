"""Finitely generated permutation groups with BSGS backing.

Covers group arithmetic, membership, order, orbits, point and pointwise
stabilizers, normal closures, centralizers, and the transitivity /
free-action / stabilizer-generation predicates used by the tree-group
criteria.

One breadth-first search, `_bfs`, walks every orbit and closure here:
point orbits, the element closure behind `elements` (under the element
cap), and the subgroup conjugacy orbits of `subgroups`.

Centralizers come from a base-image backtrack over the group's own
chain, pruned by the images that commuting with H forces.  It works on
raw image tuples and counts its subgroup exactly, so it passes the
count to `from_elements` as the proved order: sifting stops once the
chain reaches it, and a chain that ends elsewhere raises.  Point
stabilizers stop at |G| / |orbit| and are cached per point.  A
pointwise stabilizer is the tail of a fresh chain whose base starts
with its points.
"""

from __future__ import annotations

import sys
from operator import attrgetter
from pathlib import Path
from typing import Callable, Hashable, Iterable, Sequence

from .bsgs import StabilizerChain, _schreier_generators, reduce_generators
from .config import DEFAULT_CAPS, Caps
from .errors import InputError, ResourceLimitError, read_input_file
from .perms import Permutation, _compose, _trusted, commutator, parse_cycles


class PermGroup:
    """Permutation group on {0,...,degree-1} given by generators.

    Immutable after construction except the lazily built stabilizer
    chain, element list and point stabilizers.
    """

    def __init__(self, degree: int, generators: Iterable[Permutation], name: str | None = None,
                 *, order_bound: Callable[[list[tuple]], int] | None = None):
        if degree < 1:
            raise InputError(f"degree must be positive, got {degree}")
        gens = []
        seen = set()
        for g in generators:
            if g.degree != degree:
                raise InputError(f"generator degree {g.degree} != group degree {degree}")
            if g.is_identity() or g.images in seen:
                continue
            seen.add(g.images)
            gens.append(g)
        self.degree = degree
        self.generators: tuple[Permutation, ...] = tuple(gens)
        self.name = name
        self._chain: StabilizerChain | None = None
        self._elements: tuple[Permutation, ...] | None = None
        self._stabilizers: dict[int, PermGroup] = {}
        # from a construction that can prove an upper bound on the order: maps
        # the raw generators to the bound, raising if the proof fails
        self._order_bound = order_bound

    @classmethod
    def from_elements(cls, degree: int, elements: Iterable[tuple],
                      order: int | None = None) -> "PermGroup":
        """Group generated by image tuples, keeping only those that grow it.

        The sift chain built on the way becomes the group's chain.  A
        proved `order` stops the sifting once the chain reaches it and
        is checked against the chain.
        """
        kept, chain = reduce_generators(degree, elements, order)
        group = cls(degree, [Permutation(t) for t in kept])
        group._chain = chain
        return group

    # -- BSGS ------------------------------------------------------------

    @property
    def chain(self) -> StabilizerChain:
        """Built on first use; a chain short of a proved `_order_bound` raises."""
        if self._chain is None:
            gens = [g.images for g in self.generators]
            if self._order_bound is None:
                self._chain = StabilizerChain.from_generators(self.degree, gens)
            else:
                bound = self._order_bound(gens)
                chain = StabilizerChain.up_to_order(self.degree, gens, bound)
                if chain.order() != bound:
                    raise AssertionError(f"{self.name or 'group'} has order {chain.order()}, "
                                         f"not its proved bound {bound}")
                self._chain = chain
        return self._chain

    def order(self) -> int:
        return self.chain.order()

    def membership(self, p: Permutation) -> bool:
        if p.degree != self.degree:
            return False
        return self.chain.contains(p.images)

    __contains__ = membership

    def random_element(self, rng) -> Permutation:
        # a product of transversal elements is a bijection by construction
        return _trusted(self.chain.random_element(rng))

    # -- element enumeration (independent of the chain) -------------------

    def elements(self, caps: Caps = DEFAULT_CAPS) -> tuple[Permutation, ...]:
        """All elements by BFS closure over the generators, sorted.

        Deliberately does not consult the BSGS, so closure counts can
        serve as an independent oracle for chain orders.  A cached list
        larger than `caps.element_cap` is refused as a fresh run would be.
        """
        if self._elements is None:
            self._elements = tuple(sorted(
                closure_elements(self.degree, self.generators, caps.element_cap),
                key=attrgetter("images")))
        elif len(self._elements) > caps.element_cap:
            raise ResourceLimitError("element enumeration", caps.element_cap,
                                     caps.element_cap + 1, "--element-cap")
        return self._elements

    # -- orbits and stabilizers -------------------------------------------

    def orbit(self, point: int) -> list[int]:
        if not 0 <= point < self.degree:
            raise InputError(f"point {point} out of range for degree {self.degree}")
        return _bfs(point, [g.images for g in self.generators], lambda u, g: g[u])

    def orbits(self) -> list[list[int]]:
        """Orbit partition of {0..degree-1}, each orbit sorted, ordered by minimum."""
        remaining = set(range(self.degree))
        parts = []
        while remaining:
            a = min(remaining)
            orb = sorted(self.orbit(a))
            remaining.difference_update(orb)
            parts.append(orb)
        return parts

    def point_stabilizer(self, point: int) -> "PermGroup":
        """Stabilizer of a point, generated via Schreier's lemma, sift-reduced.

        Sifting stops at the orbit-stabilizer order |G| / |orbit|, so
        Schreier generators past it are never formed.  Cached per point.
        """
        if not 0 <= point < self.degree:
            raise InputError(f"point {point} out of range for degree {self.degree}")
        if point in self._stabilizers:
            return self._stabilizers[point]
        n, schreier = _schreier_generators(self.degree, [g.images for g in self.generators], point)
        stab = PermGroup.from_elements(self.degree, schreier, self.order() // n)
        self._stabilizers[point] = stab
        return stab

    def pointwise_stabilizer(self, points: Iterable[int]) -> "PermGroup":
        """Elements fixing every point of `points` (repeats count once).

        Read off a fresh chain whose base starts with `points`: its levels
        after that prefix are a chain of the stabilizer (Seress, ch. 4).
        The group's own chain is left alone.
        """
        prefix = list(dict.fromkeys(points))
        for b in prefix:
            if not 0 <= b < self.degree:
                raise InputError(f"point {b} out of range for degree {self.degree}")
        gens = [g.images for g in self.generators]
        fixed = set(prefix)
        outside = [i for i in range(self.degree) if i not in fixed]
        if all(g[i] == i for g in gens for i in outside):
            # every support, so every product's, lies in `points`
            return PermGroup(self.degree, [])
        chain = StabilizerChain.from_generators(self.degree, gens, prefix).tail(len(prefix))
        stab = PermGroup(self.degree, [_trusted(g) for g in chain.strong_generators()])
        stab._chain = chain
        return stab

    # -- predicates --------------------------------------------------------

    def is_transitive(self) -> bool:
        return len(self.orbit(0)) == self.degree

    def acts_freely(self) -> bool:
        """True when every point stabilizer is trivial."""
        n = self.order()
        return all(n == len(self.orbit(a)) for a in range(self.degree))

    def generated_by_point_stabilizers(self) -> bool:
        gens = []
        for a in range(self.degree):
            gens.extend(self.point_stabilizer(a).generators)
        return PermGroup(self.degree, gens).order() == self.order()

    def is_subgroup_of(self, other: "PermGroup") -> bool:
        return self.degree == other.degree and all(other.membership(g) for g in self.generators)

    def equals(self, other: "PermGroup") -> bool:
        return self.is_subgroup_of(other) and other.is_subgroup_of(self)

    # -- constructions -----------------------------------------------------

    def young_group(self) -> "PermGroup":
        """All permutations preserving each orbit setwise (the orbit Young group)."""
        gens = []
        for orb in self.orbits():
            if len(orb) >= 2:
                gens.append(Permutation.from_cycles([orb[:2]], self.degree))
            if len(orb) >= 3:
                gens.append(Permutation.from_cycles([orb], self.degree))
        return PermGroup(self.degree, gens)

    def normal_closure(self, K: "PermGroup") -> "PermGroup":
        """Smallest normal subgroup of self containing K."""
        if K.degree != self.degree:
            raise InputError("normal_closure: degree mismatch")
        for g in K.generators:
            if not self.membership(g):
                raise InputError(f"normal_closure: generator {g.cycle_string()} "
                                 "not in the ambient group")
        chain = StabilizerChain(self.degree)
        gens: list[Permutation] = []
        for g in K.generators:
            if chain.add_generator(g.images):
                gens.append(g)
        for x in gens:
            for g in self.generators:
                y = g * x * g.inverse()
                if chain.add_generator(y.images):
                    gens.append(y)
        result = PermGroup(self.degree, gens)
        result._chain = chain
        return result

    def derived_subgroup(self) -> "PermGroup":
        """Commutator subgroup: normal closure of generator-pair commutators."""
        comms = []
        for a in self.generators:
            for b in self.generators:
                c = commutator(a, b)
                if not c.is_identity():
                    comms.append(c)
        return self.normal_closure(PermGroup(self.degree, comms))

    def centralizer(self, H: "PermGroup", caps: Caps = DEFAULT_CAPS) -> "PermGroup":
        """Centralizer of H in self, by base-image backtrack on self's chain
        (Seress, ch. 9).

        An element is t_1 o ... o t_k, one transversal element per level,
        so a partial product p of j of them fixes the images of the first
        j base points.  An x commuting with H satisfies x(h(y)) = h(x(y)),
        so x(b) = c forces x on the whole <H>-orbit of b: a branch dies
        once that forced map stops being a well-defined injection, and a
        base point whose image is already forced has a single branch.
        Each leaf is tested against H's generators.  The leaves found are
        sorted by image tuple, as a scan of `elements` would list them, and
        their count is the proved order.  Leaves past `caps.element_cap`,
        found or not, are refused as an element enumeration.
        """
        if H.degree != self.degree:
            raise InputError("centralizer: degree mismatch")
        hs = [h.images for h in H.generators]
        if not hs:
            return self
        levels = self.chain.levels
        cap = caps.element_cap
        img = [-1] * self.degree  # forced image of each point, -1 while free
        pre = [-1] * self.degree  # the inverse of the forced map
        trail: list[int] = []     # points forced so far, undone on return
        found: list[tuple] = []
        leaves = 0

        def force(b: int, c: int) -> bool:
            # b -> c and everything it forces along <H>; False on a clash
            todo = [(b, c)]
            for y, z in todo:
                if img[y] == z:
                    continue
                if img[y] != -1 or pre[z] != -1:
                    return False
                img[y], pre[z] = z, y
                trail.append(y)
                todo.extend((h[y], h[z]) for h in hs)
            return True

        def search(j: int, p: tuple) -> None:
            nonlocal leaves
            if j == len(levels):
                if leaves >= cap:
                    raise ResourceLimitError("element enumeration", cap, leaves + 1,
                                             "--element-cap")
                leaves += 1
                if all(_compose(p, h) == _compose(h, p) for h in hs):
                    found.append(p)
                return
            lev = levels[j]
            c = img[lev.point]
            if c != -1:
                # the image p(u) of the base point is forced: u = p^-1(c)
                t = lev.transversal.get(p.index(c))
                if t is not None:
                    search(j + 1, _compose(p, t))
                return
            for u in lev.orbit:
                mark = len(trail)
                if force(lev.point, p[u]):
                    search(j + 1, _compose(p, lev.transversal[u]))
                while len(trail) > mark:
                    y = trail.pop()
                    pre[img[y]] = -1
                    img[y] = -1
        search(0, self.chain.ident)
        found.sort()
        return PermGroup.from_elements(self.degree, found, len(found))

    def __repr__(self) -> str:
        label = self.name or f"degree {self.degree}"
        gens = ", ".join(g.cycle_string() for g in self.generators) or "()"
        return f"PermGroup<{label}: {gens}>"


# -- the one breadth-first search, no PermGroup machinery -----------------

def _bfs(start: Hashable, gens: Sequence, act: Callable, cap: int | None = None) -> list:
    """`start` and every value reached from it by `act(x, g)`, g in
    `gens`, in breadth-first discovery order (Holt-Eick-O'Brien, §4.1).

    With a `cap`, a new value arriving when `cap` values are already
    out is refused as an element enumeration past `--element-cap`.
    """
    out = [start]
    seen = {start}
    for x in out:
        for g in gens:
            y = act(x, g)
            if y not in seen:
                if cap is not None and len(out) >= cap:
                    raise ResourceLimitError("element enumeration", cap, len(out) + 1,
                                             "--element-cap")
                seen.add(y)
                out.append(y)
    return out


def closure_elements(degree: int, gens: Sequence[Permutation], cap: int) -> list[Permutation]:
    """Exhaustive closure oracle: `_bfs` from the identity over image tuples."""
    out = _bfs(tuple(range(degree)), [g.images for g in gens], _compose, cap)
    # products of permutations need no bijection check
    return [_trusted(u) for u in out]


# -- named families and group specs -----------------------------------------

def symmetric(n: int) -> PermGroup:
    gens = []
    if n >= 2:
        gens.append(Permutation.from_cycles([[0, 1]], n))
    if n >= 3:
        gens.append(Permutation.from_cycles([list(range(n))], n))
    return PermGroup(n, gens, name=f"Sym({n})")

def alternating(n: int) -> PermGroup:
    gens = []
    if n >= 3:
        gens.append(Permutation.from_cycles([[0, 1, 2]], n))
    if n >= 4:
        cycle = list(range(n)) if n % 2 == 1 else list(range(1, n))
        gens.append(Permutation.from_cycles([cycle], n))
    return PermGroup(n, gens, name=f"Alt({n})")

def cyclic(n: int) -> PermGroup:
    if n < 1:
        raise InputError(f"Cyc(n) needs n >= 1, got {n}")
    gens = [Permutation.from_cycles([list(range(n))], n)] if n >= 2 else []
    return PermGroup(n, gens, name=f"Cyc({n})")

def dihedral(n: int) -> PermGroup:
    """Dihedral group of order 2n on n points (n >= 3)."""
    if n < 3:
        raise InputError(f"Dih(n) needs n >= 3, got {n}")
    rot = Permutation.from_cycles([list(range(n))], n)
    refl = Permutation([(-i) % n for i in range(n)])
    return PermGroup(n, [rot, refl], name=f"Dih({n})")

def klein4() -> PermGroup:
    return PermGroup(4, [parse_cycles("(1 2)(3 4)", 4), parse_cycles("(1 3)(2 4)", 4)],
                     name="Klein4")

def trivial(n: int) -> PermGroup:
    return PermGroup(n, [], name=f"Triv({n})")

def frobenius20() -> PermGroup:
    return PermGroup(5, [parse_cycles("(1 2 3 4 5)", 5), parse_cycles("(2 3 5 4)", 5)],
                     name="F20")


_FAMILY_BUILDERS = {
    "sym": symmetric,
    "alt": alternating,
    "cyc": cyclic,
    "dih": dihedral,
    "triv": trivial,
}


def named_group(spec: str) -> PermGroup:
    """Resolve a named family: Sym(n), Alt(n), Cyc(n), Dih(n), Klein4, Triv(n), F20."""
    text = spec.strip()
    low = text.lower()
    if low == "klein4":
        return klein4()
    if low == "f20":
        return frobenius20()
    if "(" in text and text.endswith(")"):
        head, _, arg = text[:-1].partition("(")
        key = head.strip().lower()
        if key in _FAMILY_BUILDERS:
            try:
                n = int(arg)
            except ValueError as exc:
                raise InputError(f"bad family argument in {spec!r}") from exc
            if n > sys.maxsize:
                raise InputError(f"degree must be at most {sys.maxsize}, got {n}")
            return _FAMILY_BUILDERS[key](n)
    raise InputError(f"not a recognized group spec: {spec!r}")


def parse_group_file(text: str, name: str | None = None) -> PermGroup:
    """Parse the group-spec text format:

        degree: <n>
        gen: <cycle notation>     (one line per generator; identity is ``()``)
    """
    degree = None
    gens = []
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition(":")
        if not sep:
            raise InputError(f"line {lineno}: expected 'degree:' or 'gen:' in {line!r}")
        key = key.strip().lower()
        value = value.strip()
        if key == "degree":
            if degree is not None:
                raise InputError(f"line {lineno}: repeated 'degree:' line")
            try:
                degree = int(value)
            except ValueError as exc:
                raise InputError(f"line {lineno}: bad degree {value!r}") from exc
            if degree < 1:
                raise InputError(f"line {lineno}: degree must be positive")
            if degree > sys.maxsize:
                raise InputError(f"line {lineno}: degree must be at most {sys.maxsize}")
        elif key == "gen":
            if degree is None:
                raise InputError(f"line {lineno}: 'degree:' must come before 'gen:'")
            try:
                gens.append(parse_cycles(value, degree))
            except InputError as exc:
                raise InputError(f"line {lineno}: {exc}") from exc
        else:
            raise InputError(f"line {lineno}: unknown key {key!r}")
    if degree is None:
        raise InputError("missing 'degree:' line")
    return PermGroup(degree, gens, name=name)


def parse_group_spec(text: str) -> PermGroup:
    """Named family, `file:<path>` group file, or inline group-file text."""
    if text.startswith("file:"):
        return parse_group_file(read_input_file(text[5:], "group file"),
                                name=Path(text[5:]).stem)
    if ":" in text:
        return parse_group_file(text)
    return named_group(text)
