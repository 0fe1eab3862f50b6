"""Acceptance suite.

One test per criterion; each prints a `[criterion N] PASS/FAIL` line (run with
pytest -s to see them).  Criterion 9 is a reported diagnostic and never gates:
the eigenvalue-accumulation slope is only marginally reachable at desk-scale
grids, so its comparison is printed but not asserted.

Heavy configurations:
  * resonance counting uses the cross-weight-6 pair energy (u = eps(p) +
    6 eps(p-q) + eps(q)); for the plain sum the accumulation rate U(1) ~ 0.066
    gives one new eigenvalue per ~e^15 shrinkage of m - z, invisible on any
    grid.  The stronger cross coupling keeps every structural hypothesis
    (checked here) and makes the growth measurable.
  * HS-norm log fits use the trusted rows (m - z >= (2 pi/n)^2/10): below the
    grid scale the discretized norms saturate instead of growing.
"""
import numpy as np
import pytest

from helpers import sphere_nystrom_count
from oracles import (assemble_bs_matrix, count_above, direct_count_below,
                     finite_dim_bs_identity_check)
from lattice3b import (builtin_model, check_conditionally_negative_definite,
                       builtin_dispersion, count_eigenvalues_below, count_report,
                       coupling_threshold, delta_at_threshold_bounds,
                       efimov_params, fredholm_det, hessian_at_minimum,
                       legendre_mode, mode_table, sin_axis_form_factor,
                       sobolev_finite, trust_floor, ucoef)
from lattice3b.efimov import asymptotic_slope
from lattice3b.threebody import _BSWorkspace, hs_diagnostics
from lattice3b.twobody import expansion_slope_extrapolated

Z3 = np.zeros(3)


def _line(num, ok, detail):
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def _critical(spec):
    return spec.with_params(mu1=coupling_threshold(spec, 1),
                            mu2=coupling_threshold(spec, 2))


def test_criterion_1_finite_dim_bs_exactness():
    spec = builtin_model(4, 0.0, 0.0)
    mu0 = coupling_threshold(spec, 1)
    spec = spec.with_params(mu1=0.9 * mu0, mu2=0.9 * mu0)
    zs = (-0.5, -0.1, -0.01)
    direct = direct_count_below(spec, zs)
    bs = [count_eigenvalues_below(spec, z) for z in zs]
    ok = direct == bs
    assert _line(1, ok, f"direct counts {direct} == sandwich counts {bs} "
                        f"(n=4, mu=0.9 mu0, exact integers)")


def test_criterion_2_threshold_determinant_identity(spec8):
    residuals = [finite_dim_bs_identity_check(spec8, z) for z in (-1.0, -0.1)]
    ok = max(residuals) <= 1e-12
    assert _line(2, ok, f"identity residuals {['%.2e' % r for r in residuals]} "
                        f"<= 1e-12 (n=8, z in {{-1, -0.1}})")


def test_criterion_3_resonance_expansion_coefficient():
    ns = (32, 48, 64)
    slope = expansion_slope_extrapolated(lambda n: builtin_model(n, 0.0, 0.0), ns=ns)
    mu0s = [coupling_threshold(builtin_model(n, 0.0, 0.0), 1) for n in ns]
    A = np.stack([np.ones(3), 1.0 / np.asarray(ns, float)], axis=1)
    mu0_ext = float(np.linalg.lstsq(A, np.asarray(mu0s), rcond=None)[0][0])
    h = hessian_at_minimum(builtin_model(32, 0.0, 0.0))
    target = 4 * np.sqrt(2) * np.pi ** 2 * mu0_ext * 1.0 \
        / (h.l2 ** 1.5 * np.sqrt(h.detU))
    rel = abs(slope - target) / target
    ok = rel <= 0.05
    assert _line(3, ok, f"sqrt-slope {slope:.5f} vs 4*sqrt(2)*pi^2*mu0/(l_b^1.5 "
                        f"sqrt(detU)) = {target:.5f}, rel err {rel:.2%} <= 5% "
                        f"(Richardson over n in {ns})")


def test_criterion_4_eigenvalue_case_flatness():
    ns = (32, 48, 64)
    slope_res = expansion_slope_extrapolated(
        lambda n: builtin_model(n, 0.0, 0.0), ns=ns)
    slope_sin = expansion_slope_extrapolated(
        lambda n: builtin_model(n, 0.0, 0.0, phi1=sin_axis_form_factor(1, 0)), ns=ns)
    ratio = abs(slope_sin) / slope_res
    spec_sin = builtin_model(32, 0.0, 0.0, phi1=sin_axis_form_factor(1, 0))
    _, quad = delta_at_threshold_bounds(spec_sin, 1, radii=(0.05, 0.3),
                                        directions=40)
    c = float(quad.min())
    ok = ratio < 0.05 and c > 0
    assert _line(4, ok, f"sin-channel sqrt-slope ratio {ratio:.3%} < 5% and "
                        f"Delta(p,m) >= c p^2 with c = {c:.4f} > 0 on |p| <= 0.3")


def test_criterion_5_sobolev_limit():
    h = hessian_at_minimum(builtin_model(16, 0.0, 0.0))
    params = efimov_params(h)
    tbl = mode_table(params)
    u1 = ucoef(params, 1.0, table=tbl)
    r = 800.0
    nr = sobolev_finite(params, r, 1.0, table=tbl)
    rel = abs(0.5 * nr / r - u1) / u1
    ok = u1 > 0 and rel <= 0.10
    assert _line(5, ok, f"U(1) = {u1:.5f} > 0, (1/2) r^-1 n(1, S_r) = "
                        f"{0.5 * nr / r:.5f} at r = 800, rel gap {rel:.2%} <= 10% "
                        f"(u12 = {params.u12:.5f}, s12 = {params.s12:.3f}, "
                        f"r12 = {params.r12:.1g})")


@pytest.fixture(scope="module")
def resonance24_report():
    spec = _critical(builtin_model(24, 0.0, 0.0, cross_weight=6.0))
    s_values = 10.0 ** (-np.arange(0, 9, dtype=float))
    return count_report(spec, s_values, with_hs=False)


def test_criterion_6_finiteness_dichotomy(resonance24_report):
    # eigenvalue case: one odd channel, counts constant deep into the threshold
    spec_e = _critical(builtin_model(16, 0.0, 0.0,
                                     phi1=sin_axis_form_factor(1, 0)))
    counts_e = [count_eigenvalues_below(spec_e, spec_e.m - 10.0 ** (-k))
                for k in range(4, 9)]
    const_ok = len(set(counts_e)) == 1

    # resonance case: strict growth over at least three consecutive exponents
    rep = resonance24_report
    counts_r = [int(c) for c in rep.counts[np.argsort(-rep.m_minus_z)]]  # k = 0..8
    grows = any(counts_r[i] < counts_r[i + 1] < counts_r[i + 2]
                for i in range(len(counts_r) - 2))
    monotone = bool(np.all(np.diff(counts_r) >= 0))
    ok = const_ok and grows and monotone
    assert _line(6, ok, f"eigenvalue case N = {counts_e} constant (n=16, k=4..8); "
                        f"resonance case N = {list(counts_r)} strictly increasing "
                        f"over three consecutive k (n=24, cross-weight 6)")


def test_criterion_7_hs_diagnostics():
    spec = _critical(builtin_model(24, 0.0, 0.0))
    hess = hessian_at_minimum(spec)
    ws = _BSWorkspace(spec)
    s_vals = np.geomspace(1e-4, 1e-1, 16)
    hs = np.empty(16)
    diff = np.empty(16)
    for i, s in enumerate(s_vals):
        hs[i], diff[i] = hs_diagnostics(spec, spec.m - s, delta=1.0,
                                        hess=hess, workspace=ws)
    trusted = s_vals >= trust_floor(24)
    x = np.abs(np.log(s_vals[trusted]))
    y = hs[trusted] ** 2
    A = np.stack([x, np.ones_like(x)], axis=1)
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    pred = A @ coef
    r2 = 1.0 - np.sum((y - pred) ** 2) / np.sum((y - y.mean()) ** 2)
    variation = float(diff.max() / diff.min())
    ok = coef[0] > 0 and r2 > 0.99 and variation < 2.0
    assert _line(7, ok, f"||T||_HS^2 ~ a + b|log(m-z)|: slope {coef[0]:.3f} > 0, "
                        f"R^2 = {r2:.4f} > 0.99 on {int(trusted.sum())} trusted "
                        f"rows; ||T - T_model||_HS varies {variation:.3f}x < 2x "
                        f"over m-z in [1e-4, 1e-1] (n=24)")


def test_criterion_8_property_suites(spec8, spec16_critical):
    rng = np.random.default_rng(2024)
    weyl_ok = True
    for _ in range(100):
        dim = int(rng.integers(2, 24))
        A = rng.normal(size=(dim, dim))
        A = 0.5 * (A + A.T)
        B = rng.normal(size=(dim, dim))
        B = 0.5 * (B + B.T)
        l1, l2 = rng.uniform(0.05, 2.0, size=2)
        if count_above(A + B, l1 + l2) > count_above(A, l1) + count_above(B, l2):
            weyl_ok = False
            break

    bs = assemble_bs_matrix(spec8, -0.37)
    ev = np.linalg.eigvalsh(bs.full())
    sym = float(np.max(np.abs(ev + ev[::-1])))
    sym_ok = sym <= 1e-10

    mono_ok = True
    for alpha, mu_scale in ((1, 0.4), (2, 0.9)):
        zs = np.sort(spec8.m - np.geomspace(1e-4, 2.0, 10))
        mu = mu_scale * coupling_threshold(spec8, alpha)
        vals = [fredholm_det(spec8, alpha, spec8.grid.nodes[7], z, mu=mu)
                for z in zs]
        mono_ok &= bool(np.all(np.diff(vals) < 0))

    params = efimov_params(hessian_at_minimum(spec8))
    sphere_ok = True
    checked = 0
    smax = abs(legendre_mode(params, 0, 0.0))
    for _ in range(20):
        lam = float(rng.uniform(0.0, 2.0))
        mu = float(rng.uniform(0.1, 1.2)) * smax
        modes = np.array([legendre_mode(params, l, lam) for l in range(20)])
        if np.min(np.abs(np.abs(modes) - mu)) < 1e-3 * mu:
            continue
        cnt_m = int(np.sum((np.abs(modes) > mu) * (2 * np.arange(20) + 1)))
        if cnt_m != sphere_nystrom_count(params, lam, mu):
            sphere_ok = False
            break
        checked += 1
    sphere_ok &= checked >= 15

    cnd = check_conditionally_negative_definite(builtin_dispersion(), 200, seed=9)

    ok = weyl_ok and sym_ok and mono_ok and sphere_ok and cnd.passed
    assert _line(8, ok, f"Weyl inequality on 100 pairs: {weyl_ok}; T(z) +/- "
                        f"symmetry {sym:.1e} <= 1e-10: {sym_ok}; determinant "
                        f"monotonicity: {mono_ok}; Legendre-vs-sphere counts on "
                        f"{checked} pairs: {sphere_ok}; CND: {cnd.passed}")


def test_criterion_9_efimov_slope_diagnostic(resonance24_report):
    """Reported, non-gating: the asymptotic regime is marginal at desk scale."""
    spec = _critical(builtin_model(24, 0.0, 0.0, cross_weight=6.0))
    floor = trust_floor(24)
    s_values = np.geomspace(1.0, floor, 8)
    rep = count_report(spec, s_values, with_hs=False)
    slope, resid = asymptotic_slope(rep)
    params = efimov_params(hessian_at_minimum(spec))
    u1 = ucoef(params, 1.0)
    rel = abs(slope - u1) / u1
    within = rel <= 0.40
    _line(9, within,
          f"asymptotic slope {slope:.4f} (residual {resid:.3f}) vs U(1) = "
          f"{u1:.4f}, rel gap {rel:.1%} {'<=' if within else '>'} 40% "
          f"[diagnostic only, does not gate: the log-asymptotic regime is "
          f"marginal at n=24; reported per the acceptance contract]")
    assert np.isfinite(slope) and u1 > 0
