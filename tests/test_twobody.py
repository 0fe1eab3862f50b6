import re
from pathlib import Path

import numpy as np
import pytest

from helpers import lambda_exact_builtin, richardson_1_over_n
from lattice3b import (OutOfDomainError, ThresholdClass, build_grid,
                       builtin_dispersion, builtin_epsilon, builtin_model,
                       channel_eigenvalue, channel_range, classify_threshold,
                       const_form_factor, coupling_threshold,
                       custom_pair_energy, delta_at_threshold_bounds,
                       expansion_fit, form_factor, fredholm_det,
                       lambda_integral, lambda_on_grid, make_model,
                       pair_energy_sum, resonance_function_norm,
                       sin_axis_form_factor, tabulated_dispersion)
from lattice3b import twobody
from lattice3b.modelio import load_model
from lattice3b.model import ModelSpec
from lattice3b.threebody import _BSWorkspace
from lattice3b.twobody import _fold_flips, _lambda_line, expansion_slope_extrapolated

Z3 = np.zeros(3)
MODELS = Path(__file__).resolve().parent.parent / "models"


def _unfolded_line(spec, alpha, p, zs):
    """Oracle: the quadrature sum over every node, with no fold."""
    vals, phi2 = spec.channel_values(alpha, p), spec.phi_values(alpha) ** 2
    return [float(spec.grid.weight * np.sum(phi2 / (vals - z))) for z in zs]


def test_lambda_deep_below_bracket(spec8):
    val = lambda_integral(spec8, 1, Z3, -1e6)
    lo = (2 * np.pi) ** 3 / (spec8.M + 1e6)
    hi = (2 * np.pi) ** 3 / (spec8.m + 1e6)
    assert lo <= val <= hi
    assert val == pytest.approx(2.4805e-4, rel=1e-3)


def test_lambda_evenness(spec8):
    rng = np.random.default_rng(7)
    for _ in range(5):
        p = rng.uniform(-np.pi, np.pi, size=3)
        for alpha in (1, 2):
            a = lambda_integral(spec8, alpha, p, -0.3)
            b = lambda_integral(spec8, alpha, -p, -0.3)
            assert a == pytest.approx(b, rel=1e-12)


def test_lambda_out_of_domain(spec8):
    with pytest.raises(OutOfDomainError):
        lambda_integral(spec8, 1, Z3, spec8.m + 1e-3)


def test_lambda_line_equals_pointwise(spec8):
    zs = spec8.m - np.geomspace(1e-3, 2.0, 7)
    for alpha in (1, 2):
        for p in (Z3, spec8.grid.nodes[17]):
            line = _lambda_line(spec8, alpha, p, zs)
            assert line == [lambda_integral(spec8, alpha, p, z) for z in zs]


@pytest.mark.parametrize("n", [8, 14])
@pytest.mark.parametrize("name", ["builtin_critical", "eigenvalue_case", "resonance_strong"])
def test_lambda_line_fold_shipped_models(name, n):
    # the p = 0 line of every shipped model folds on all three axes
    spec = load_model(str(MODELS / f"{name}.json"), n).spec
    zs = [spec.m, *(spec.m - np.geomspace(1e-4, 2.0, 6))]
    for alpha in (1, 2):
        vals, phi2 = spec.channel_values(alpha, Z3), spec.phi_values(alpha) ** 2
        assert _fold_flips(n, vals, phi2)[2] == 3
        np.testing.assert_allclose(_lambda_line(spec, alpha, Z3, zs),
                                   _unfolded_line(spec, alpha, Z3, zs), rtol=1e-13, atol=0)


def test_lambda_line_without_fold_is_the_full_sum(spec8):
    zs = spec8.m - np.geomspace(1e-3, 2.0, 7)
    for alpha in (1, 2):
        for i in (0, 17, 300):
            p = spec8.grid.nodes[i]
            vals, phi2 = spec8.channel_values(alpha, p), spec8.phi_values(alpha) ** 2
            assert _fold_flips(8, vals, phi2)[2] == 0
            assert _lambda_line(spec8, alpha, p, zs) == _unfolded_line(spec8, alpha, p, zs)


def test_lambda_line_partial_fold():
    # u(t, 0) is flip-invariant on every axis, sin^2(q1 + q2) on axis 3 only
    spec = builtin_model(8, 0.0, 0.0, phi1=form_factor(
        1, "odd", lambda q: np.sin(q[..., 0] + q[..., 1])))
    vals, phi2 = spec.channel_values(1, Z3), spec.phi_values(1) ** 2
    half, half_phi2, k = _fold_flips(8, vals, phi2)
    assert k == 1 and half.shape == half_phi2.shape == (8, 8, 4)
    zs = [spec.m, *(spec.m - np.geomspace(1e-4, 2.0, 6))]
    np.testing.assert_allclose(_lambda_line(spec, 1, Z3, zs),
                               _unfolded_line(spec, 1, Z3, zs), rtol=1e-13, atol=0)


def test_lambda_line_out_of_domain(spec8):
    # at p = 0 the channel bottom m_alpha = m sits below the grid minimum of u
    vmin = float(spec8.channel_values(1, Z3).min())
    m_alpha = channel_range(spec8, 1, Z3).m_alpha
    assert m_alpha + 1e-6 < vmin
    for bad in (m_alpha + 1e-6, vmin):
        with pytest.raises(OutOfDomainError, match=re.escape(f"z = {bad} ")):
            _lambda_line(spec8, 1, Z3, [-1.0, bad, m_alpha - 0.5])


def test_expansion_fit_builds_channel_once(monkeypatch):
    # mu0 and the window come from one channel line: one channel build, and
    # no Nelder-Mead refinement of its bottom since no z exceeds m
    spec = builtin_model(8, 0.0, 0.0)
    calls = {"values": 0, "minimize": 0}
    values, minimize = ModelSpec.channel_values, twobody.minimize

    def count_values(self, alpha, p):
        calls["values"] += 1
        return values(self, alpha, p)

    def count_minimize(*args, **kwargs):
        calls["minimize"] += 1
        return minimize(*args, **kwargs)

    monkeypatch.setattr(ModelSpec, "channel_values", count_values)
    monkeypatch.setattr(twobody, "minimize", count_minimize)
    for npoints in (5, 25):
        calls.update(values=0, minimize=0)
        expansion_fit(spec, 1, npoints=npoints)
        assert calls == {"values": 1, "minimize": 0}


@pytest.mark.parametrize("phi1", [None, sin_axis_form_factor(1, 0)], ids=["const", "sin"])
def test_expansion_fit_mu0_is_coupling_threshold(phi1):
    spec = builtin_model(16, 0.0, 0.0, phi1=phi1)
    for alpha in (1, 2):
        assert expansion_fit(spec, alpha).mu0 == coupling_threshold(spec, alpha)


def test_lambda_threshold_richardson_matches_oracle():
    # independent oracle: Bessel reduction of the body-centered Watson-type integral
    exact = lambda_exact_builtin(0.0)
    assert exact == pytest.approx(62.690, abs=2e-3)
    vals = []
    for n in (16, 32, 64):
        spec = builtin_model(n, 0.0, 0.0)
        vals.append(lambda_integral(spec, 1, Z3, spec.m))
    extrap = richardson_1_over_n((16, 32, 64), vals)
    assert extrap == pytest.approx(exact, rel=5e-3)


def test_mu0_value_and_scaling():
    vals = []
    for n in (16, 32, 64):
        spec = builtin_model(n, 0.0, 0.0)
        vals.append(coupling_threshold(spec, 1))
    extrap = richardson_1_over_n((16, 32, 64), vals)
    assert extrap == pytest.approx(0.015951, rel=1e-2)
    # phi -> 2 phi divides mu0 by 4
    spec = builtin_model(16, 0.0, 0.0)
    spec2 = builtin_model(16, 0.0, 0.0, phi1=const_form_factor(1, 2.0))
    assert coupling_threshold(spec2, 1) == pytest.approx(coupling_threshold(spec, 1) / 4)


def test_mu0_odd_form_factor_finite():
    spec = builtin_model(32, 0.0, 0.0, phi1=sin_axis_form_factor(1, 0))
    mu0 = coupling_threshold(spec, 1)
    assert np.isfinite(mu0) and mu0 > 0
    assert mu0 == pytest.approx(0.038424, rel=3e-3)


def test_fredholm_det_basics(critical8):
    assert fredholm_det(critical8, 1, Z3, -0.5, mu=0.0) == 1.0
    # at the critical coupling the determinant vanishes at (0, m) by construction
    assert fredholm_det(critical8, 1, Z3, critical8.m) == pytest.approx(0.0, abs=1e-12)
    # and is strictly positive at p != 0
    p = critical8.grid.nodes[3]
    assert fredholm_det(critical8, 1, p, critical8.m) > 0


def test_delta_monotone_in_z_and_mu(spec8):
    zs = np.sort(spec8.m - np.geomspace(1e-4, 1.0, 12))
    vals = [fredholm_det(spec8, 1, Z3, z) for z in zs]
    assert np.all(np.diff(vals) < 0)  # Delta strictly decreasing in z
    mus = np.linspace(0.0, 0.05, 6)
    vals_mu = [fredholm_det(spec8, 2, Z3, -0.2, mu=m) for m in mus]
    assert np.all(np.diff(vals_mu) < 0)


def test_lambda_on_grid_matches_pointwise(spec8):
    # three reductions: the builtin model on flip axes (0, 1, 2), a form
    # factor sin(q1+q2) on axis 3 only, and a tabulated band on none
    sin_q1_q2 = builtin_model(8, 0.0, 0.0, phi1=form_factor(
        1, "odd", lambda q: np.sin(q[..., 0] + q[..., 1])))
    grid = build_grid(8)
    tab = make_model(pair_energy_sum(tabulated_dispersion(grid, builtin_epsilon(grid.nodes))),
                     8, 0.0, 0.0)
    for spec, axes in ((spec8, (0, 1, 2)), (sin_q1_q2, (2,)), (tab, ())):
        assert _BSWorkspace(spec).axes == axes
        for alpha in (1, 2):
            vec = lambda_on_grid(spec, alpha, -0.7)
            for i in (0, 17, 100, 300, 511):
                p = spec.grid.nodes[i]
                assert vec[i] == pytest.approx(lambda_integral(spec, alpha, p, -0.7),
                                               rel=1e-12)


def test_channel_range_origin(spec8):
    rng_a = channel_range(spec8, 1, Z3)
    assert rng_a.m_alpha == pytest.approx(spec8.m, abs=1e-9)
    assert spec8.m <= rng_a.m_alpha <= rng_a.M_alpha <= spec8.M + 1e-9


def test_channel_range_corner_constant(spec8):
    # u(p, q) at p = (pi,pi,pi) is identically 12 for the cosine model
    p = np.array([np.pi, np.pi, np.pi])
    rng_a = channel_range(spec8, 2, p)
    assert rng_a.m_alpha == pytest.approx(12.0, abs=1e-10)
    assert rng_a.M_alpha == pytest.approx(12.0, abs=1e-10)


@pytest.mark.parametrize("weights", [(1.0, 1.0, 1.0), (1.0, 2.0, 3.0)],
                         ids=["unit", "weighted"])
@pytest.mark.parametrize("c", [0.25, 1.0, 6.0])
def test_channel_range_closed_form_matches_custom(c, weights):
    # oracle: the same band through a custom pair energy (grid values refined
    # by Nelder-Mead), as test_extrema_custom_matches_separable does for m, M
    eps = builtin_dispersion(weights)
    builtin = make_model(pair_energy_sum(eps, c), 8, 0.0, 0.0)
    custom = make_model(custom_pair_energy(lambda p, q: eps(p) + c * eps(p - q) + eps(q)),
                        8, 0.0, 0.0)
    points = np.random.default_rng(7).uniform(-np.pi, np.pi, size=(4, 3))
    for p in [Z3, np.array([np.pi, -0.5, 2.0]), *points]:
        for alpha in (1, 2):
            got, ref = channel_range(builtin, alpha, p), channel_range(custom, alpha, p)
            assert got.m_alpha == pytest.approx(ref.m_alpha, abs=1e-10)
            assert got.M_alpha == pytest.approx(ref.M_alpha, abs=1e-10)


def test_channel_bottom_quadratic_expansion(spec16_critical):
    # m_alpha(p) - m = (n_alpha/2)(Up,p) + O(|p|^3); builtin: 0.75 |p|^2
    for r in (0.05, 0.1):
        p = np.array([r, 0.0, 0.0])
        got = channel_range(spec16_critical, 1, p).m_alpha - spec16_critical.m
        assert got == pytest.approx(0.75 * r * r, abs=2.0 * r ** 3)


def test_channel_eigenvalue_cases(spec16_critical):
    spec = spec16_critical
    mu0 = spec.mu1
    assert channel_eigenvalue(spec, 1, Z3, mu=0.0) is None
    assert channel_eigenvalue(spec, 1, Z3, mu=mu0) is None      # resonance, not eigenvalue
    z = channel_eigenvalue(spec, 1, Z3, mu=2 * mu0)
    assert z is not None and z < spec.m
    assert abs(fredholm_det(spec, 1, Z3, z, mu=2 * mu0)) <= 1e-9
    # when no root is reported the determinant stays positive on sampled chains
    for zs in np.sort(spec.m - np.geomspace(1e-6, 5.0, 12)):
        assert fredholm_det(spec, 1, Z3, zs, mu=0.7 * mu0) > 0
    assert channel_eigenvalue(spec, 1, Z3, mu=0.7 * mu0) is None


def test_classification_triple(spec16_critical):
    spec = spec16_critical
    assert classify_threshold(spec, 1) is ThresholdClass.RESONANCE
    assert classify_threshold(spec, 1, mu=0.5 * spec.mu1) is ThresholdClass.REGULAR
    spec_sin = builtin_model(16, 0.0, 0.0, phi1=sin_axis_form_factor(1, 0))
    mu0s = coupling_threshold(spec_sin, 1)
    assert classify_threshold(spec_sin, 1, mu=mu0s) is ThresholdClass.THRESHOLD_EIGENVALUE
    assert classify_threshold(spec_sin, 2, mu=coupling_threshold(spec_sin, 2)) \
        is ThresholdClass.RESONANCE


def test_resonance_norm_divergence(critical8):
    norms = resonance_function_norm(critical8, 1)
    assert norms[0] < norms[1] < norms[2]
    assert 1.6 < norms[1] / norms[0] < 2.4
    assert 1.6 < norms[2] / norms[1] < 2.4


def test_resonance_norm_convergence_sin():
    spec = builtin_model(8, 0.0, 0.0, phi1=sin_axis_form_factor(1, 0))
    norms = resonance_function_norm(spec, 1)
    assert abs(norms[2] / norms[1] - 1.0) < 0.1
    assert abs(norms[2] / norms[0] - 1.0) < 0.25


def test_resonance_norm_zero_form_factor():
    spec = builtin_model(8, 0.0, 0.0, phi1=const_form_factor(1, 0.0))
    norms = resonance_function_norm(spec, 1)
    assert norms == [0.0, 0.0, 0.0]


def test_expansion_fit_machinery_on_exact_data():
    # feed the fit basis exact threshold data from the Bessel oracle: the
    # sqrt coefficient must come out at 2 pi^2 mu0 to a fraction of a percent
    exact0 = lambda_exact_builtin(0.0)
    s_vals = np.geomspace(3e-2, 3e-1, 25)
    y = np.array([1.0 - lambda_exact_builtin(s) / exact0 for s in s_vals])
    X = np.stack([np.sqrt(s_vals), s_vals, s_vals ** 1.5], axis=1)
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    target = 2 * np.pi ** 2 / exact0
    assert coef[0] == pytest.approx(target, rel=5e-3)


def test_expansion_fit_resonance_vs_eigenvalue():
    spec = builtin_model(32, 0.0, 0.0)
    fit_res = expansion_fit(spec, 1)
    spec_sin = builtin_model(32, 0.0, 0.0, phi1=sin_axis_form_factor(1, 0))
    fit_sin = expansion_fit(spec_sin, 1)
    assert fit_res.sqrt_slope > 0
    assert abs(fit_sin.sqrt_slope) < 0.05 * fit_res.sqrt_slope
    assert fit_res.residual < 0.05
    assert fit_sin.residual < 0.05


def test_expansion_fit_residual_gate():
    from lattice3b import ExpansionMismatchError
    spec = builtin_model(16, 0.0, 0.0)
    with pytest.raises(ExpansionMismatchError):
        expansion_fit(spec, 1, residual_tol=1e-12)


def test_expansion_slope_extrapolation_small():
    slope = expansion_slope_extrapolated(lambda n: builtin_model(n, 0.0, 0.0),
                                         ns=(24, 32, 48))
    # moderate grids already land within a few percent of 2 pi^2 mu0
    assert slope == pytest.approx(0.3149, rel=0.05)


def test_threshold_bounds_discovery():
    spec = builtin_model(16, 0.0, 0.0)
    lin, _ = delta_at_threshold_bounds(spec, 1)
    assert lin.min() > 0
    assert lin.max() / lin.min() < 10.0   # c1 |p| <= Delta(p, m) <= c2 |p|
    spec_sin = builtin_model(16, 0.0, 0.0, phi1=sin_axis_form_factor(1, 0))
    _, quad = delta_at_threshold_bounds(spec_sin, 1)
    assert quad.min() > 0                 # Delta(p, m) >= c p^2


def test_hypothesis_lambda_max_at_origin(spec16_critical):
    spec = spec16_critical
    lam0 = lambda_integral(spec, 1, Z3, spec.m)
    vec = lambda_on_grid(spec, 1, spec.m - 1e-14)
    assert vec.max() < lam0
    # quadratic domination near the origin
    rng = np.random.default_rng(11)
    for _ in range(10):
        p = rng.uniform(-0.5, 0.5, size=3)
        drop = lam0 - lambda_integral(spec, 1, p, spec.m)
        assert drop > 0.05 * np.sum(p ** 2)
