import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lattice3b import (DegenerateModelError, HypothesisViolationError,
                       ModelDataError, NotProductFormError, build_grid,
                       builtin_dispersion, builtin_epsilon, builtin_model,
                       check_conditionally_negative_definite,
                       custom_pair_energy, extrema, form_factor,
                       hessian_at_minimum, make_model, pair_energy_sum,
                       sin_axis_form_factor, tabulated_dispersion)
from lattice3b.model import Dispersion, pair_matrix


def test_builtin_epsilon_values():
    assert builtin_epsilon(np.zeros(3)) == 0.0
    assert builtin_epsilon(np.array([np.pi, np.pi, np.pi])) == pytest.approx(6.0)
    assert builtin_epsilon(np.array([np.pi / 2, 0.0, 0.0])) == pytest.approx(1.0)


def test_pair_energy_sum_values():
    pair = pair_energy_sum(builtin_dispersion())
    zero = np.zeros((1, 3))
    assert pair(zero, zero)[0] == 0.0
    p = np.array([[np.pi, np.pi, np.pi]])
    assert pair(p, zero)[0] == pytest.approx(12.0)


def test_global_max_grid_oracle():
    # exhaustive separable scan at n=48 plus refinement must land on 13.5
    # at p = (2pi/3,)*3, q = -p
    pair = pair_energy_sum(builtin_dispersion())
    m, M, _ = extrema(pair, build_grid(48))
    assert m == pytest.approx(0.0, abs=1e-12)
    assert M == pytest.approx(13.5, abs=1e-9)
    p = np.array([[2 * np.pi / 3] * 3])
    assert pair(p, -p)[0] == pytest.approx(13.5, rel=1e-14)


def test_constant_pair_energy_rejected():
    pair = custom_pair_energy(lambda p, q: np.full(np.broadcast(p, q).shape[:-1], 2.5))
    with pytest.raises(DegenerateModelError):
        make_model(pair, 4, 0.0, 0.0)


def test_extrema_custom_matches_separable():
    disp = builtin_dispersion()
    pair_c = custom_pair_energy(
        lambda p, q: builtin_epsilon(p) + builtin_epsilon(p - q) + builtin_epsilon(q))
    m1, M1, _ = extrema(pair_c, build_grid(8))
    m2, M2, _ = extrema(pair_energy_sum(disp), build_grid(8))
    assert m1 == pytest.approx(m2, abs=1e-9)
    assert M1 == pytest.approx(M2, abs=1e-7)


def test_extrema_difference_scan_matches_separable():
    # route the same dispersion through the non-separable sum-form path
    disp_generic = Dispersion(kind="custom", fn=builtin_epsilon)
    m1, M1, _ = extrema(pair_energy_sum(disp_generic, 2.0), build_grid(8))
    m2, M2, _ = extrema(pair_energy_sum(builtin_dispersion(), 2.0), build_grid(8))
    assert m1 == pytest.approx(m2, abs=1e-9)
    assert M1 == pytest.approx(M2, abs=1e-7)


def test_hessian_builtin(spec8):
    h = hessian_at_minimum(spec8)
    assert h.l1 == pytest.approx(2.0, abs=1e-7)
    assert h.l2 == pytest.approx(2.0, abs=1e-7)
    assert h.l == pytest.approx(-1.0, abs=1e-7)
    assert np.allclose(h.U, np.eye(3), atol=1e-7)
    assert h.detU == pytest.approx(1.0, rel=1e-12)
    assert h.n1 == pytest.approx(1.5, abs=1e-7)
    assert h.n2 == pytest.approx(1.5, abs=1e-7)
    assert h.residual < 1e-6


def test_hessian_anisotropic():
    spec = builtin_model(8, 0.0, 0.0, axis_weights=(1.0, 1.0, 2.0))
    h = hessian_at_minimum(spec)
    target_U = np.diag([1.0, 1.0, 2.0]) / 2.0 ** (1.0 / 3.0)
    assert np.allclose(h.U, target_U, atol=1e-6)
    assert h.l1 == pytest.approx(2.0 * 2.0 ** (1.0 / 3.0), rel=1e-6)
    assert h.l == pytest.approx(-(2.0 ** (1.0 / 3.0)), rel=1e-6)
    # blocks reconstruct within 1e-6
    assert abs(h.l1 * h.U[2, 2] - 4.0) < 1e-6
    assert h.residual < 1e-6


def test_hessian_cross_weight():
    spec = builtin_model(8, 0.0, 0.0, cross_weight=6.0)
    h = hessian_at_minimum(spec)
    assert h.l1 == pytest.approx(7.0, rel=1e-7)
    assert h.l == pytest.approx(-6.0, rel=1e-7)
    assert h.n1 == pytest.approx(13.0 / 7.0, rel=1e-7)


def test_hessian_rejects_non_product_form():
    # p1^2 couples to q2: blocks are not multiples of one U
    def u(p, q):
        base = builtin_epsilon(p) + builtin_epsilon(p - q) + builtin_epsilon(q)
        return base + 0.3 * np.sin(p[..., 0]) * np.sin(q[..., 1]) * np.cos(p[..., 2])

    spec = make_model(custom_pair_energy(u), 8, 0.0, 0.0)
    with pytest.raises((NotProductFormError, HypothesisViolationError)):
        hessian_at_minimum(spec)


def test_hessian_tabulated_refused():
    grid = build_grid(8)
    disp = tabulated_dispersion(grid, builtin_epsilon(grid.nodes))
    spec = make_model(pair_energy_sum(disp), 8, 0.0, 0.0)
    with pytest.raises(NotProductFormError):
        hessian_at_minimum(spec)


def test_tabulated_dispersion_nodal_and_midcell():
    grid = build_grid(16)
    disp = tabulated_dispersion(grid, builtin_epsilon(grid.nodes))
    # exact at nodes
    assert np.max(np.abs(disp(grid.nodes) - builtin_epsilon(grid.nodes))) < 1e-12
    # trilinear mid-cell error is O(h^2)
    rng = np.random.default_rng(0)
    pts = rng.uniform(-np.pi, np.pi, size=(200, 3))
    err = np.max(np.abs(disp(pts) - builtin_epsilon(pts)))
    assert err < 0.1


def test_odd_form_factor_requires_zero_origin():
    with pytest.raises(ModelDataError):
        form_factor(1, "odd", lambda q: np.cos(q[..., 0]))
    ff = sin_axis_form_factor(1, 0)
    assert ff.value_at_origin == 0.0


def test_declared_parity_checked():
    bad = form_factor(1, "even", lambda q: np.sin(q[..., 0]) + 1e-3)
    with pytest.raises(HypothesisViolationError):
        builtin_model(4, 0.0, 0.0, phi1=bad)


def test_cnd_builtin_passes():
    rep = check_conditionally_negative_definite(builtin_dispersion(), 200, seed=1)
    assert rep.passed
    assert rep.worst <= 1e-10


def test_cnd_flipped_fails():
    neg = Dispersion(kind="custom", fn=lambda q: -builtin_epsilon(q))
    rep = check_conditionally_negative_definite(neg, 200, seed=1)
    assert not rep.passed
    assert rep.worst > 1e-6


def test_cnd_two_point_reduction():
    # k=2, z=(1,-1): form = 2 eps(0) - 2 eps(p1 - p2) = -2 eps(p1-p2) <= 0
    rng = np.random.default_rng(5)
    p = rng.uniform(-np.pi, np.pi, size=(2, 3))
    z = np.array([1.0, -1.0])
    diffs = p[:, None, :] - p[None, :, :]
    form = np.einsum("ij,i,j->", builtin_epsilon(diffs), z, z)
    assert form == pytest.approx(-2.0 * builtin_epsilon(p[0] - p[1]))
    assert form <= 1e-10


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_pair_evenness_property(seed):
    pair = pair_energy_sum(builtin_dispersion())
    rng = np.random.default_rng(seed)
    p = rng.uniform(-np.pi, np.pi, size=(8, 3))
    q = rng.uniform(-np.pi, np.pi, size=(8, 3))
    assert np.allclose(pair(p, q), pair(-p, -q), atol=1e-12)


def test_local_quadratic_bounds_discoverable(spec8):
    rng = np.random.default_rng(2)
    d = rng.normal(size=(300, 6))
    d /= np.linalg.norm(d, axis=1)[:, None]
    rad = rng.uniform(1e-3, 1.0 / np.sqrt(2.0), size=300)
    pq = d * rad[:, None]
    vals = spec8.pair(pq[:, :3], pq[:, 3:]) - spec8.m
    rho2 = np.sum(pq ** 2, axis=1)
    c1 = np.min(vals / rho2)
    c2 = np.max(vals / rho2)
    assert 0 < c1 < c2 < np.inf
    # outside the delta-ball the energy is bounded away from m
    nodes = spec8.grid.nodes
    mask = np.sum(nodes ** 2, axis=1) >= 1.0
    c3 = np.min(spec8.pair(nodes[mask], nodes[mask]) - spec8.m)
    assert c3 > 0


def test_pair_matrix_matches_evaluator(spec8):
    U = pair_matrix(spec8)
    nodes = spec8.grid.nodes
    rng = np.random.default_rng(3)
    ii = rng.integers(0, nodes.shape[0], size=50)
    jj = rng.integers(0, nodes.shape[0], size=50)
    direct = spec8.pair(nodes[ii], nodes[jj])
    assert np.allclose(U[ii, jj], direct, atol=1e-12)


def test_pair_matrix_generic_chunks_bit_identical(monkeypatch):
    # the tabulated band takes the generic evaluator path: row chunks of any
    # size give exactly the one-shot broadcast evaluation
    from lattice3b import model
    grid = build_grid(6)
    spec = make_model(pair_energy_sum(tabulated_dispersion(grid, builtin_epsilon(grid.nodes))),
                      6, 0.0, 0.0)
    rng = np.random.default_rng(5)
    rows, cols = rng.uniform(-np.pi, np.pi, (40, 3)), rng.uniform(-np.pi, np.pi, (30, 3))
    for chunk in (model._EVAL_CHUNK_BYTES, 24 * 7 * grid.size):     # one chunk; 7 rows
        monkeypatch.setattr(model, "_EVAL_CHUNK_BYTES", chunk)
        for t, p in ((None, None), (rows, cols)):
            tt = grid.nodes if t is None else t
            pp = grid.nodes if p is None else p
            direct = spec.pair(tt[:, None, :], pp[None, :, :])
            assert np.array_equal(pair_matrix(spec, rows=t, cols=p), direct)
