import numpy as np
import pytest

from helpers import sphere_nystrom_count
from lattice3b import (CountReport, DegenerateCouplingError, EfimovParams,
                       HessianData, ModelDataError, InsufficientDataError, asymptotic_slope,
                       count_sphere_operator, efimov_params, hessian_at_minimum,
                       legendre_mode, mode_table, sobolev_finite, ucoef)


def make_hessian(l1, l2, l):
    return HessianData(U=np.eye(3), l1=l1, l2=l2, l=l, detU=1.0,
                       n1=(l1 * l2 - l * l) / l2, n2=(l1 * l2 - l * l) / l1,
                       residual=0.0)


BUILTIN = efimov_params(make_hessian(2.0, 2.0, -1.0))


def test_params_builtin():
    assert BUILTIN.u12 == pytest.approx(np.sqrt(4.0 / 3.0), rel=1e-14)
    assert BUILTIN.s12 == pytest.approx(-0.5, rel=1e-14)
    assert BUILTIN.r12 == 0.0


def test_params_asymmetric():
    p = efimov_params(make_hessian(8.0, 2.0, 1.0))
    assert p.r12 == pytest.approx(np.log(2.0), rel=1e-14)
    assert p.u12 == pytest.approx(np.sqrt(16.0 / 15.0), rel=1e-14)
    assert p.s12 == pytest.approx(0.25, rel=1e-14)


def test_params_degenerate_coupling():
    with pytest.raises(DegenerateCouplingError):
        efimov_params(make_hessian(2.0, 2.0, 0.0))


def test_params_from_builtin_model(spec8):
    p = efimov_params(hessian_at_minimum(spec8))
    assert p.u12 == pytest.approx(1.1547005, rel=1e-6)
    assert p.s12 == pytest.approx(-0.5, abs=1e-7)
    assert abs(p.r12) < 1e-7


def test_mode_zero_frequency_closed_form():
    # shat_0(0) = (u/pi) * (1/(2s)) [arccos(-s)^2 - arccos(s)^2]; builtin: pi u /3
    got = legendre_mode(BUILTIN, 0, 0.0)
    s = BUILTIN.s12
    closed = BUILTIN.u12 / np.pi * (np.arccos(-s) ** 2 - np.arccos(s) ** 2) / (2 * s)
    assert got == pytest.approx(closed, rel=1e-12)
    assert got == pytest.approx(np.pi * BUILTIN.u12 / 3.0, rel=1e-12)
    assert got == pytest.approx(1.2091996, rel=1e-6)


def test_mode_large_lambda_decay():
    vals = [abs(legendre_mode(BUILTIN, 0, lam)) for lam in (1.0, 5.0, 10.0, 40.0)]
    assert vals[0] > vals[1] > vals[2] > vals[3]
    assert vals[3] < 1e-12


def test_mode_s_zero_kills_higher_degrees():
    p = EfimovParams(u12=1.5, r12=0.0, s12=0.0)
    assert legendre_mode(p, 0, 0.7) > 0
    for ell in (1, 2, 3, 7):
        assert abs(legendre_mode(p, ell, 0.7)) < 1e-14


def test_mode_table_decay_at_edges():
    tbl = mode_table(BUILTIN, ell_max=12, lam_max=30.0, n_lam=3001)
    assert np.abs(tbl.values[:, -1]).max() < 1e-10       # lambda edge
    assert np.abs(tbl.values[-1]).max() < np.abs(tbl.values[0]).max() * 1e-3
    text = tbl.to_csv()
    assert text.splitlines()[0] == "ell,lam,value"
    assert len(text.splitlines()) == 1 + 13 * 3001


@pytest.mark.parametrize("args", [dict(ell_max=-1), dict(lam_max=0.0),
                                  dict(lam_max=-3.0), dict(n_lam=1)])
def test_mode_table_rejects_bad_range(args):
    # a one-point lambda grid would make U(mu) a zero-width trapezoid, 0
    with pytest.raises(ModelDataError):
        mode_table(BUILTIN, **args)


@pytest.mark.parametrize("mu", [0.0, -1.0, np.nan])
def test_level_mu_must_be_positive(mu):
    # NaN fails every comparison, so it is refused like a nonpositive level
    tbl = mode_table(BUILTIN, ell_max=2)
    with pytest.raises(ModelDataError):
        ucoef(BUILTIN, mu, table=tbl)
    with pytest.raises(ModelDataError):
        sobolev_finite(BUILTIN, 10.0, mu, table=tbl)
    with pytest.raises(ModelDataError):
        count_sphere_operator(BUILTIN, 0.5, mu, ell_max=2)


def test_open_channel_mode_exceeds_one():
    # the degree-0 mode tops 1 for the reference parameters (u12 > 1), which
    # is what makes U(1) positive
    tbl = mode_table(BUILTIN, ell_max=2)
    assert tbl.mode_max()[0] > 1.0
    assert tbl.values[0].max() == pytest.approx(np.pi * BUILTIN.u12 / 3.0, rel=1e-9)


def test_sphere_counts_match_nystrom_oracle():
    rng = np.random.default_rng(42)
    smax = abs(legendre_mode(BUILTIN, 0, 0.0))
    checked = 0
    for _ in range(20):
        lam = rng.uniform(0.0, 2.0)
        mu = rng.uniform(0.1, 1.2) * smax
        modes = np.array([legendre_mode(BUILTIN, l, lam) for l in range(20)])
        if np.min(np.abs(np.abs(modes) - mu)) < 1e-3 * mu:
            continue    # resample-free tie guard
        ours = count_sphere_operator(BUILTIN, lam, mu)
        oracle = sphere_nystrom_count(BUILTIN, lam, mu)
        assert ours == oracle
        checked += 1
    assert checked >= 15


def test_count_monotone_in_mu():
    for lam in (0.0, 0.3, 1.0):
        counts = [count_sphere_operator(BUILTIN, lam, mu)
                  for mu in (0.05, 0.2, 0.8, 1.5)]
        assert counts == sorted(counts, reverse=True)
    assert count_sphere_operator(BUILTIN, 0.5, 100.0) == 0


def test_ucoef_reference_and_convergence():
    u1 = ucoef(BUILTIN, 1.0)
    assert u1 == pytest.approx(0.0659, rel=0.01)
    u1_fine = ucoef(BUILTIN, 1.0, ell_max=80, lam_max=100.0, n_lam=40001)
    assert abs(u1_fine - u1) / u1 < 0.005
    assert ucoef(BUILTIN, 1e3) == 0.0


def test_ucoef_monotone():
    vals = [ucoef(BUILTIN, mu) for mu in (0.5, 0.8, 1.0, 1.21)]
    assert vals == sorted(vals, reverse=True)
    assert vals[-1] == 0.0      # mu above the spectral radius 1.209...


def test_sobolev_gershgorin_bound_zero_count():
    r = 10.0
    mu_big = BUILTIN.u12 / (2 * np.pi) ** 2 * 4 * np.pi \
        / (1.0 - abs(BUILTIN.s12)) * r
    assert sobolev_finite(BUILTIN, r, mu_big, ell_max=6) == 0


def test_sobolev_linear_growth_and_limit():
    tbl = mode_table(BUILTIN)
    n100 = sobolev_finite(BUILTIN, 100.0, 1.0, table=tbl)
    n200 = sobolev_finite(BUILTIN, 200.0, 1.0, table=tbl)
    n400 = sobolev_finite(BUILTIN, 400.0, 1.0, table=tbl)
    assert 1.8 <= n200 / n100 <= 2.2
    assert 1.8 <= n400 / n200 <= 2.2
    # the normalized sequence n(1, S_r)/r is Cauchy within 5%
    seq = [n100 / 100.0, n200 / 200.0, n400 / 400.0]
    assert abs(seq[1] / seq[0] - 1.0) <= 0.05
    assert abs(seq[2] / seq[1] - 1.0) <= 0.05
    u1 = ucoef(BUILTIN, 1.0, table=tbl)
    assert abs(0.5 * n400 / 400.0 - u1) / u1 < 0.1


def test_sobolev_phase_irrelevance():
    p_pos = EfimovParams(u12=BUILTIN.u12, r12=0.4, s12=BUILTIN.s12)
    p_neg = EfimovParams(u12=BUILTIN.u12, r12=-0.4, s12=BUILTIN.s12)
    for r in (20.0, 40.0):
        assert sobolev_finite(p_pos, r, 1.0, ell_max=6) == \
            sobolev_finite(p_neg, r, 1.0, ell_max=6)
    # modes only ever enter through their modulus
    assert legendre_mode(p_pos, 0, 0.8) == legendre_mode(p_neg, 0, 0.8)


def _report(counts, s_vals, trusted=None):
    n = len(counts)
    return CountReport(
        m_minus_z=np.asarray(s_vals, dtype=float),
        counts=np.asarray(counts, dtype=int),
        det_min=np.ones(n), hs_norm=np.full(n, np.nan),
        hs_diff=np.full(n, np.nan),
        trusted=np.ones(n, dtype=bool) if trusted is None else np.asarray(trusted))


def test_asymptotic_slope_flat_and_synthetic():
    s_vals = np.geomspace(1e-1, 1e-6, 8)
    slope, _ = asymptotic_slope(_report([3] * 8, s_vals))
    assert slope == pytest.approx(0.0, abs=1e-12)
    counts = np.round(0.3 * np.abs(np.log(s_vals)))
    slope, resid = asymptotic_slope(_report(counts, s_vals))
    assert slope == pytest.approx(0.3, abs=0.05)
    assert resid < 0.5


def test_asymptotic_slope_needs_trusted_points():
    s_vals = np.geomspace(1e-1, 1e-4, 6)
    trusted = [True, True, True, False, False, False]
    with pytest.raises(InsufficientDataError):
        asymptotic_slope(_report([1] * 6, s_vals, trusted))
