"""Size caps and run provenance defaults.

All expensive operations fail loudly against these caps instead of
silently degrading; the CLI exposes one flag per cap.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

TOOL_VERSION = "0.1.0"
DEFAULT_SEED = 20260810


@dataclass(frozen=True)
class Caps:
    # exhaustive element enumeration (closure, centralizer leaves)
    element_cap: int = 100_000
    # ambient order for subgroup enumeration up to conjugacy
    subgroup_cap: int = 1000
    # leaves of a flattened wreath tower
    leaf_cap: int = 4096
    # exhaustive generation of tree-ball automorphism groups
    ball_order_cap: int = 10_000_000
    ball_vertex_cap: int = 120
    # structural vertex count of a tree ball
    tree_vertex_cap: int = 100_000
    # subset pairs examined by a lattice sweep
    pair_cap: int = 400

    def with_overrides(self, **kwargs) -> "Caps":
        return replace(self, **{k: v for k, v in kwargs.items() if v is not None})


DEFAULT_CAPS = Caps()
