from pathlib import Path

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
from lattice3b.modelio import load_model
from lattice3b.grids import product_nodes
from lattice3b.model import (Dispersion, _fd_stencil, _validate_symmetries,
                             evenness_deviation, pair_matrix)

MODELS = Path(__file__).resolve().parent.parent / "models"


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
    # the closed-form maximum of the builtin band, W (2 + 2c + 1/(2c)) at c = 1,
    # is 13.5, attained at p = (2pi/3,)*3, q = -p
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


@pytest.mark.parametrize("mu", [float("nan"), float("inf"), -1.0])
def test_make_model_rejects_bad_coupling(mu):
    pair = pair_energy_sum(builtin_dispersion())
    for mu1, mu2 in ((mu, 0.0), (0.0, mu)):
        with pytest.raises(ModelDataError, match="finite and nonnegative"):
            make_model(pair, 4, mu1, mu2)


@pytest.mark.parametrize("weights", [(1.0, 1.0, 1.0), (1.0, 2.0, 3.0)],
                         ids=["w111", "w123"])
@pytest.mark.parametrize("c", [0.25, 0.5, 0.75, 1.0, 6.0])
def test_extrema_custom_matches_separable(c, weights):
    # oracle: the same band through the custom path (grid scan + Nelder-Mead)
    eps = builtin_dispersion(weights)
    pair_c = custom_pair_energy(lambda p, q: eps(p) + c * eps(p - q) + eps(q))
    m1, M1, _ = extrema(pair_c, build_grid(8))
    m2, M2, (p2, q2) = extrema(pair_energy_sum(eps, c), build_grid(8))
    assert m2 == 0.0
    assert np.array_equal(p2, np.zeros(3)) and np.array_equal(q2, np.zeros(3))
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


@pytest.mark.parametrize("case", ["resonance_strong", "builtin_critical", "eigenvalue_case",
                                  "custom-asymmetric"])
def test_hessian_stencil_in_one_evaluator_call(case):
    """hessian_at_minimum evaluates the pair energy once, on both stencils
    (h and h/2), and those values equal one evaluator call per point bit for
    bit, so the Hessian data is that of the pointwise differences."""
    eps = builtin_dispersion().fn
    calls = []

    def u(t, p):
        calls.append(t.shape)
        return eps(t) + eps(t - p) + 2.0 * eps(p)

    spec = (make_model(custom_pair_energy(u), 8, 0.0, 0.0) if case == "custom-asymmetric"
            else load_model(str(MODELS / f"{case}.json"), 8).spec)
    points = np.concatenate([_fd_stencil(1e-3), _fd_stencil(5e-4)])
    batch = spec.pair.evaluator(points[:, :3], points[:, 3:])
    pointwise = [spec.pair.evaluator(v[:3][None, :], v[3:][None, :])[0] for v in points]
    assert np.array_equal(batch, pointwise)
    calls.clear()
    hessian_at_minimum(spec)
    assert calls == ([(146, 3)] if case == "custom-asymmetric" else [])


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
    # non-finite values fail the check rather than pass it
    nan = form_factor(1, "even", lambda q: np.full(np.shape(q)[:-1], np.nan))
    for phi in (bad, nan):
        with pytest.raises(HypothesisViolationError):
            builtin_model(4, 0.0, 0.0, phi1=phi)


def test_pair_evenness_checked():
    """A pair energy that is not even is rejected, and the shared sampler is
    the direct two-call max |u(p, q) - u(-p, -q)| on the same seeded draws."""
    eps = builtin_dispersion().fn
    pair = custom_pair_energy(
        lambda p, q: eps(p) + eps(p - q) + eps(q) + 1e-3 * np.sin(np.asarray(p)[..., 0]))
    with pytest.raises(HypothesisViolationError, match="pair energy is not even"):
        make_model(pair, 4, 0.0, 0.0)
    spec = builtin_model(4).with_params(pair=pair)
    for samples, seed in ((512, 0), (2048, 3)):
        idx = np.random.default_rng(seed).integers(0, spec.grid.size, size=(samples, 2))
        p, q = spec.grid.nodes[idx[:, 0]], spec.grid.nodes[idx[:, 1]]
        direct = float(np.max(np.abs(pair(p, q) - pair(-p, -q))))
        assert evenness_deviation(spec, samples, seed) == direct > 1e-4


def test_symmetry_read_from_views():
    """Grid symmetry has one reader each: no index arrays on the grid, no
    sampling options on the model check, and no node pairs drawn by the CLI."""
    import ast
    import inspect

    from lattice3b import cli
    from lattice3b.grids import TorusGrid
    assert not hasattr(TorusGrid, "reflection_index")
    assert not hasattr(TorusGrid, "negation_index")
    assert list(inspect.signature(_validate_symmetries).parameters) == ["spec"]
    validate = next(node for node in ast.walk(ast.parse(inspect.getsource(cli)))
                    if isinstance(node, ast.FunctionDef) and node.name == "cmd_validate")
    evenness = next(node for node in ast.walk(validate)
                    if isinstance(node, ast.FunctionDef) and node.name == "_evenness")
    called = {node.func.attr if isinstance(node.func, ast.Attribute) else node.func.id
              for node in ast.walk(evenness) if isinstance(node, ast.Call)}
    assert "evenness_deviation" in called and "default_rng" not in called


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
    # the builtin band is summed from per-axis tables in the evaluator's
    # order: every entry is the model's own u, bit for bit, on the grid and
    # on per-axis lists of different lengths
    rng = np.random.default_rng(3)
    rows = [rng.uniform(-np.pi, np.pi, k) for k in (2, 3, 4)]
    cols = [rng.uniform(-np.pi, np.pi, k) for k in (5, 1, 3)]
    t, p = product_nodes(rows), product_nodes(cols)
    for spec in (spec8, builtin_model(8, 0.0, 0.0, cross_weight=6.0,
                                      axis_weights=(1.0, 2.0, 3.0))):
        nodes = spec.grid.nodes
        assert np.array_equal(pair_matrix(spec),
                              spec.pair(nodes[:, None, :], nodes[None, :, :]))
        assert np.array_equal(pair_matrix(spec, rows=rows, cols=cols),
                              spec.pair(t[:, None, :], p[None, :, :]))


def test_pair_matrix_writes_strided_out(spec8):
    # the builtin sum is written through a view of `out` split into the six
    # per-axis dimensions, which exists for any strides: nothing is copied
    N = spec8.grid.size
    for out in (np.empty((2 * N, N))[::2], np.empty((N, N)).T):
        assert pair_matrix(spec8, out=out) is out
        assert np.array_equal(out, pair_matrix(spec8))


def test_pair_matrix_generic_chunks_bit_identical(monkeypatch):
    # the tabulated band takes the generic evaluator path: row chunks of any
    # size give exactly the one-shot broadcast evaluation
    from lattice3b import model
    grid = build_grid(6)
    spec = make_model(pair_energy_sum(tabulated_dispersion(grid, builtin_epsilon(grid.nodes))),
                      6, 0.0, 0.0)
    rng = np.random.default_rng(5)
    rows = [rng.uniform(-np.pi, np.pi, k) for k in (4, 2, 5)]
    cols = [rng.uniform(-np.pi, np.pi, k) for k in (3, 5, 2)]
    for chunk in (model._EVAL_CHUNK_BYTES, 24 * 7 * grid.size):     # one chunk; 7 rows
        monkeypatch.setattr(model, "_EVAL_CHUNK_BYTES", chunk)
        for t, p in ((None, None), (rows, cols)):
            tt = grid.nodes if t is None else product_nodes(t)
            pp = grid.nodes if p is None else product_nodes(p)
            direct = spec.pair(tt[:, None, :], pp[None, :, :])
            assert np.array_equal(pair_matrix(spec, rows=t, cols=p), direct)
