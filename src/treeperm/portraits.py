"""Rooted-tree automorphisms as portraits.

A portrait of depth n over arity d is a root permutation of the d
children plus one depth-(n-1) portrait per child.  Leaves of the
depth-n tree are words over {0..d-1}, flattened in lexicographic order,
so `flatten` is a fixed group embedding into Sym(d^n).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .perms import Permutation


@dataclass(frozen=True)
class Portrait:
    arity: int
    depth: int
    root: Permutation
    children: tuple["Portrait", ...]

    def __post_init__(self):
        if self.root.degree != self.arity:
            raise InputError(f"root permutation degree {self.root.degree} != arity {self.arity}")
        if self.depth == 0:
            if self.children:
                raise InputError("depth-0 portrait cannot have children")
        else:
            if len(self.children) != self.arity:
                raise InputError(f"expected {self.arity} children, got {len(self.children)}")
            for c in self.children:
                if c.depth != self.depth - 1 or c.arity != self.arity:
                    raise InputError("child portrait shape mismatch")

    def is_identity(self) -> bool:
        return self.root.is_identity() and all(c.is_identity() for c in self.children)


def identity_portrait(arity: int, depth: int) -> Portrait:
    if depth == 0:
        return Portrait(arity, 0, Permutation.identity(arity), ())
    child = identity_portrait(arity, depth - 1)
    return Portrait(arity, depth, Permutation.identity(arity), (child,) * arity)


def portrait_compose(p: Portrait, q: Portrait) -> Portrait:
    """(p ∘ q) acting leaf-wise as p(q(leaf))."""
    if (p.arity, p.depth) != (q.arity, q.depth):
        raise InputError(f"portrait shape mismatch: ({p.arity},{p.depth}) vs ({q.arity},{q.depth})")
    if p.depth == 0:
        return p
    children = tuple(
        portrait_compose(p.children[q.root(i)], q.children[i]) for i in range(p.arity)
    )
    return Portrait(p.arity, p.depth, p.root * q.root, children)


def portrait_inverse(p: Portrait) -> Portrait:
    if p.depth == 0:
        return p
    root_inv = p.root.inverse()
    children = tuple(portrait_inverse(p.children[root_inv(i)]) for i in range(p.arity))
    return Portrait(p.arity, p.depth, root_inv, children)


def flatten(p: Portrait) -> Permutation:
    """Leaf permutation on d^depth points, leaves ordered lexicographically."""
    return Permutation(_flatten_images(p))


def _flatten_images(p: Portrait) -> list[int]:
    if p.depth == 0:
        return [0]
    block = p.arity ** (p.depth - 1)
    images = []
    for i in range(p.arity):
        offset = p.root(i) * block
        images.extend(offset + x for x in _flatten_images(p.children[i]))
    return images

