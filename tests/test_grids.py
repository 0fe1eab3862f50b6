import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lattice3b import InvalidResolutionError, build_grid
from lattice3b.grids import axis_nodes
from lattice3b.model import has_flip_parity


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
    # negation is the reversal of the flat node order, exactly
    grid = build_grid(8)
    assert np.array_equal(grid.nodes[::-1], -grid.nodes)


@pytest.mark.parametrize("n", [2, 4, 6, 10])
def test_flip_is_a_view_of_the_node_order(n):
    # values at the nodes negated on `axes` are the (n, n, n) view of the
    # values reversed on those axes, bit for bit, and the parity reader sees it
    grid = build_grid(n)
    weights = np.array([1.0, 10.0, 100.0])
    v = np.sin(grid.nodes) @ weights
    for k in range(4):
        for axes in itertools.combinations(range(3), k):
            moved = grid.nodes.copy()
            moved[:, list(axes)] *= -1
            flipped = np.flip(v.reshape((n,) * 3), axes).ravel()
            assert np.array_equal(np.sin(moved) @ weights, flipped)
    cube = (np.sin(grid.nodes[:, 0]) * (2.0 + np.cos(grid.nodes[:, 2]))).reshape((n,) * 3)
    for axes, sign in (((0,), -1), ((1,), 1), ((2,), 1), ((0, 2), -1), ((0, 1, 2), -1)):
        assert has_flip_parity(cube, axes, sign) and not has_flip_parity(cube, axes, -sign)


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
    assert np.array_equal(grid.nodes[::-1], -grid.nodes)
