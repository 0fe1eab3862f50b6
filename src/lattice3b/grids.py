"""Uniform quadrature grids on the torus (-pi, pi]^3.

The mesh is shifted by half a cell so the origin is never a node; threshold
integrands stay finite at every node without special-casing.  The node set is
still closed under q -> -q, which the parity checks rely on, and its order
reads every flip as a view: the nodes are the C-order product of axis_nodes,
and axis node n - 1 - i is axis node i negated, exactly.  So negating every
coordinate is the reversal of the flat node order, and negating the
coordinate on one axis reverses that axis of the (n, n, n) view of values on
the nodes.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidResolutionError

TWO_PI = 2.0 * np.pi


def axis_nodes(n: int) -> np.ndarray:
    """1D shifted nodes -pi + (i + 1/2) * (2 pi / n).

    Written as (2i + 1 - n) * pi/n so negation closure is exact in floating
    point: the integer factors negate exactly and n even keeps them nonzero.
    """
    return (2 * np.arange(n) + 1 - n) * (np.pi / n)


@dataclass(frozen=True)
class TorusGrid:
    """Product quadrature mesh on (-pi, pi]^3 with constant weight (2 pi / n)^3."""

    n: int
    nodes: np.ndarray = field(repr=False)   # (n^3, 3)
    weight: float

    @property
    def size(self) -> int:
        return self.nodes.shape[0]

    @property
    def axis(self) -> np.ndarray:
        """axis_nodes(n), read off the last coordinate of the first n nodes."""
        return self.nodes[:self.n, 2]


def product_nodes(lists) -> np.ndarray:
    """The C-order product of three per-axis node lists as (points, 3)."""
    nodes = np.empty(tuple(len(x) for x in lists) + (3,))
    for a, x in enumerate(lists):
        nodes[..., a] = x[(slice(None),) + (None,) * (2 - a)]
    return nodes.reshape(-1, 3)


def build_grid(n: int) -> TorusGrid:
    """Build the shifted n^3 grid.

    Requires even n >= 2: for odd n the half-cell shift puts the origin in the
    node set, and no other shift keeps the nodes closed under negation.
    """
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise InvalidResolutionError(f"grid resolution must be an integer >= 2, got {n!r}")
    if n % 2:
        raise InvalidResolutionError(
            f"grid resolution must be even (odd n places a node at the origin), got {n}")
    nodes = product_nodes((axis_nodes(n),) * 3)
    nodes.setflags(write=False)
    return TorusGrid(n=int(n), nodes=nodes, weight=(TWO_PI / n) ** 3)


def wrap_to_torus(q: np.ndarray) -> np.ndarray:
    """Map coordinates to the fundamental cell (-pi, pi]."""
    return np.pi - np.mod(np.pi - np.asarray(q, dtype=float), TWO_PI)
