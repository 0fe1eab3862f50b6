import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lattice3b import InvalidResolutionError, build_grid
from lattice3b.grids import axis_nodes


def test_n2_weights():
    grid = build_grid(2)
    assert grid.size == 8
    assert grid.weight == pytest.approx(np.pi ** 3)
    assert grid.weight * grid.size == pytest.approx((2 * np.pi) ** 3, rel=1e-12)


def test_no_origin_node():
    grid = build_grid(4)
    assert grid.size == 64
    norms = np.linalg.norm(grid.nodes, axis=1)
    assert norms.min() > 0.1


def test_negation_closure():
    grid = build_grid(8)
    idx = grid.negation_index()
    assert np.array_equal(grid.nodes[idx], -grid.nodes)


@pytest.mark.parametrize("n", [2, 4, 6, 10])
def test_reflection_index_matches_multi_index(n):
    grid = build_grid(n)
    for k in range(4):
        for axes in itertools.combinations(range(3), k):
            ijk = list(np.unravel_index(np.arange(grid.size), (n,) * 3))
            for a in axes:
                ijk[a] = n - 1 - ijk[a]
            assert np.array_equal(grid.reflection_index(axes),
                                  np.ravel_multi_index(ijk, (n,) * 3))


@pytest.mark.parametrize("n", [2, 14])
def test_nodes_match_meshgrid(n):
    x = axis_nodes(n)
    X, Y, Z = np.meshgrid(x, x, x, indexing="ij")
    nodes = build_grid(n).nodes
    assert np.array_equal(nodes, np.stack([X.ravel(), Y.ravel(), Z.ravel()], axis=1))
    assert not nodes.flags.writeable


@pytest.mark.parametrize("bad", [0, 1, -4, 3, 7])
def test_invalid_resolution(bad):
    with pytest.raises(InvalidResolutionError):
        build_grid(bad)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=1, max_value=15).map(lambda k: 2 * k))
def test_invariants_any_even_n(n):
    grid = build_grid(n)
    assert grid.size == n ** 3
    assert grid.weight * grid.size == pytest.approx((2 * np.pi) ** 3, rel=1e-12)
    assert np.linalg.norm(grid.nodes, axis=1).min() > 1e-12
    assert np.all(grid.nodes > -np.pi) and np.all(grid.nodes <= np.pi)
    idx = grid.negation_index()
    assert np.array_equal(grid.nodes[idx], -grid.nodes)
