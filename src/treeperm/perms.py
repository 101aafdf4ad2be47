"""Permutations of {0,...,n-1} as image tuples.

Points are 0-indexed internally; cycle notation at I/O boundaries is
1-indexed, e.g. ``(1 2 3)(4 5)``.  The identity renders as ``()``.
"""

from __future__ import annotations

import math
import re
from operator import itemgetter
from typing import Iterable

from .errors import InputError


def _compose(a: tuple, b: tuple) -> tuple:
    """(a ∘ b)(x) = a(b(x)) on image tuples; itemgetter needs two or more indices."""
    return itemgetter(*b)(a) if len(b) > 1 else tuple(a[x] for x in b)


def _invert(a: tuple) -> tuple:
    """Inverse of an image tuple."""
    out = [0] * len(a)
    for i, j in enumerate(a):
        out[j] = i
    return tuple(out)


class Permutation:
    """Bijection of {0,...,degree-1} stored as a tuple of images."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        images = tuple(images)
        seen = [False] * len(images)
        for x in images:
            if not isinstance(x, int) or not 0 <= x < len(images) or seen[x]:
                raise InputError(f"not a permutation of 0..{len(images) - 1}: {images!r}")
            seen[x] = True
        self.images = images

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return _trusted(tuple(range(degree)))

    @classmethod
    def from_cycles(cls, cycles: Iterable[Iterable[int]], degree: int) -> "Permutation":
        """Build from 0-indexed cycles: in range and disjoint, so a bijection."""
        images = list(range(degree))
        seen = set()  # points of every cycle so far, 1-cycles included
        for cycle in cycles:
            cycle = list(cycle)
            for a in cycle:
                if not 0 <= a < degree:
                    raise InputError(f"cycle point {a + 1} out of range for degree {degree}")
                if a in seen:
                    raise InputError(f"point {a + 1} repeated in cycle notation")
                seen.add(a)
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                images[a] = b
        return _trusted(tuple(images))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition: (a * b)(x) = a(b(x))."""
        if self.degree != other.degree:
            raise InputError(f"degree mismatch: {self.degree} vs {other.degree}")
        return _trusted(_compose(self.images, other.images))

    def inverse(self) -> "Permutation":
        return _trusted(_invert(self.images))

    def __pow__(self, n: int) -> "Permutation":
        if n < 0:
            return self.inverse() ** (-n)
        result = Permutation.identity(self.degree)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def is_identity(self) -> bool:
        return self.images == tuple(range(len(self.images)))

    def order(self) -> int:
        """Least common multiple of the cycle lengths."""
        images = self.images
        seen = bytearray(len(images))
        result = 1
        for i in range(len(images)):
            if seen[i]:
                continue
            length = 0
            j = i
            while not seen[j]:
                seen[j] = 1
                j = images[j]
                length += 1
            result = math.lcm(result, length)
        return result

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, 0-indexed, each starting at its least point.

        Raises ValueError on an image tuple that is not a bijection, such
        as one wrapped unchecked by `_trusted`."""
        seen = set()
        out = []
        for i in range(self.degree):
            if i in seen or self.images[i] == i:
                continue
            cycle = [i]
            j = self.images[i]
            while j != i:
                if j in seen:
                    # the walk from i never returns to it
                    raise ValueError(f"not a permutation: {self.images!r}")
                seen.add(j)
                cycle.append(j)
                j = self.images[j]
            out.append(tuple(cycle))
        return out

    def cycle_string(self) -> str:
        """1-indexed cycle notation, ``()`` for the identity."""
        cycles = self.cycles()
        if not cycles:
            return "()"
        return "".join("(" + " ".join(str(x + 1) for x in c) + ")" for c in cycles)

    def __repr__(self) -> str:
        return f"Permutation[{self.cycle_string()}]"

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __lt__(self, other: "Permutation") -> bool:
        return self.images < other.images


def _trusted(images: tuple) -> Permutation:
    """Wrap an image tuple known to be a bijection, such as a product, an
    inverse or a graft placement, without the check of `Permutation()`."""
    p = Permutation.__new__(Permutation)
    p.images = images
    return p


def _shown(images: tuple) -> str:
    """Cycle notation for a message; 1-indexed images if not a bijection."""
    try:
        return _trusted(images).cycle_string()
    except ValueError:
        return "[" + " ".join(str(x + 1) for x in images) + "]"


def commutator(g: Permutation, h: Permutation) -> Permutation:
    """g h g^-1 h^-1."""
    return g * h * g.inverse() * h.inverse()


_CYCLE_RE = re.compile(r"\(\s*((?:\d+[\s,]*)*)\)")


def parse_cycles(text: str, degree: int | None = None) -> Permutation:
    """Parse 1-indexed cycle notation like ``(1 2 3)(4 5)``.

    With no explicit degree the degree is the largest point mentioned.
    Raises InputError with the offending column on malformed input.
    """
    text = text.strip()
    cycles: list[list[int]] = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _CYCLE_RE.match(text, pos)
        if m is None:
            raise InputError(f"malformed cycle notation at column {pos + 1}: {text!r}")
        body = m.group(1).strip()
        if body:
            points = [int(tok) for tok in re.findall(r"\d+", body)]
            if any(p < 1 for p in points):
                raise InputError(f"cycle points are 1-indexed, got {points} at column {pos + 1}")
            cycles.append([p - 1 for p in points])
        pos = m.end()
    if degree is None:
        degree = max((p for c in cycles for p in c), default=-1) + 1
    return Permutation.from_cycles(cycles, degree)

