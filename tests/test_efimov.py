import numpy as np
import pytest
from scipy.linalg import toeplitz

from helpers import (sinh_ratio_modes, sobolev_toeplitz_count, sphere_nystrom_count,
                     traced_peak)
from lattice3b import efimov
from lattice3b.efimov import ModeTable
from lattice3b import (CountReport, DegenerateCouplingError, EfimovParams,
                       HessianData, ModelDataError, InsufficientDataError,
                       ResourceCapError, asymptotic_slope,
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


def test_mode_s_zero_odd_degrees_exactly_zero():
    # at s12 = 0, beta = arcsin(0) = 0 and the odd sums vanish term by term
    p = EfimovParams(u12=1.5, r12=0.0, s12=0.0)
    tbl = mode_table(p, ell_max=9, n_lam=1001)
    assert np.all(tbl.values[1::2] == 0.0)
    assert all(legendre_mode(p, ell, lam) == 0.0 for ell in (1, 3, 7) for lam in (0.0, 0.7))


def test_mode_table_decay_at_edges():
    tbl = mode_table(BUILTIN, ell_max=12, lam_max=30.0, n_lam=3001)
    assert np.abs(tbl.values[:, -1]).max() < 1e-10       # lambda edge
    assert np.abs(tbl.values[-1]).max() < np.abs(tbl.values[0]).max() * 1e-3
    text = tbl.to_csv()
    assert text.splitlines()[0] == "ell,lam,value"
    assert len(text.splitlines()) == 1 + 13 * 3001


@pytest.mark.parametrize("args", [dict(ell_max=-1), dict(lam_max=0.0),
                                  dict(lam_max=-3.0), dict(n_lam=1),
                                  dict(lam_max=np.inf)])
def test_mode_table_rejects_bad_range(args):
    # a one-point lambda grid would make U(mu) a zero-width trapezoid, 0; an
    # infinite lam_max would make it nan
    with pytest.raises(ModelDataError):
        mode_table(BUILTIN, **args)


def test_oversized_requests_refused_before_allocation():
    tbl = mode_table(BUILTIN, ell_max=2)
    with pytest.raises(ResourceCapError):
        sobolev_finite(BUILTIN, 1e12, 1.0, table=tbl)
    with pytest.raises(ResourceCapError):
        mode_table(BUILTIN, ell_max=10 ** 7)
    with pytest.raises(ResourceCapError):
        legendre_mode(BUILTIN, 10 ** 7, 0.5)


@pytest.mark.parametrize("n_lam", [2, 513, 1025, 20001])
def test_mode_table_slabs_equal_one_product(n_lam):
    # 513, 1025 and 20001 end in a partial slab, so a slab loop that drops its
    # last slab, writes it to the wrong columns or lets its width change the
    # product's bits fails here
    assert n_lam == 2 or n_lam % efimov.LAMBDA_SLAB != 0
    tbl = mode_table(BUILTIN, n_lam=n_lam)
    for j, lam in enumerate(tbl.lams):
        one = efimov._modes(BUILTIN, tbl.lams[j:j + 1], efimov.ELL_MAX).values
        assert np.array_equal(one[:, 0], tbl.values[:, j]), (j, lam)


@pytest.mark.parametrize("s12", [-0.5, 0.0, 0.3, 0.95, -0.95])
def test_folded_modes_match_sinh_ratio_rule(s12):
    # the fold onto the positive nodes is exact in arithmetic: it moves the
    # 64-node rule's values by rounding only, and no count or U(mu) moves
    p = EfimovParams(u12=BUILTIN.u12, r12=0.0, s12=s12)
    for ell_max in (2, 12, 40, 80):
        tbl = mode_table(p, ell_max=ell_max)
        ref = ModeTable(params=p, ells=tbl.ells, lams=tbl.lams,
                        values=sinh_ratio_modes(p, tbl.lams, ell_max))
        assert np.abs(tbl.values - ref.values).max() <= 4e-15, ell_max
        for mu in (0.05, 0.2, 0.5, 1.0, 1.2):
            assert np.array_equal(tbl.counts(mu), ref.counts(mu)), (ell_max, mu)
            assert ucoef(p, mu, table=tbl) == ucoef(p, mu, table=ref), (ell_max, mu)


def test_mode_table_traced_peak():
    # the table and one slab's buffers, not a whole-table integrand
    tbl = mode_table(BUILTIN)
    assert traced_peak(lambda: mode_table(BUILTIN)) <= tbl.values.nbytes + 2 ** 21


def test_legendre_mode_is_a_table_entry():
    tbl = mode_table(BUILTIN)
    for j in (0, 1, 137, 2000, 20000):
        for ell in range(tbl.ells.size):
            assert legendre_mode(BUILTIN, ell, tbl.lams[j]) == tbl.values[ell, j]


def test_table_fixes_params_and_degrees():
    other = EfimovParams(u12=1.5, r12=0.0, s12=0.3)
    tbl = mode_table(BUILTIN, ell_max=2)
    with pytest.raises(ModelDataError):
        ucoef(other, 1.0, table=mode_table(BUILTIN))
    with pytest.raises(ModelDataError):
        sobolev_finite(other, 10.0, 0.3, table=tbl)


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
    assert tbl.mode_max[0] > 1.0
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
    u1_fine = ucoef(BUILTIN, 1.0,
                    table=mode_table(BUILTIN, ell_max=80, lam_max=100.0, n_lam=40001))
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
    assert sobolev_finite(BUILTIN, r, mu_big, table=mode_table(BUILTIN, ell_max=6)) == 0


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


@pytest.mark.parametrize("r12", [0.0, 0.4, -0.4])
def test_sobolev_matches_toeplitz_oracle(r12):
    p = EfimovParams(u12=BUILTIN.u12, r12=r12, s12=BUILTIN.s12)
    tbl = mode_table(p, ell_max=3)
    for r in (5.0, 10.0, 20.0, 50.0, 100.0):
        for mu in (1.0, 0.3, 0.1):
            oracle, margin = sobolev_toeplitz_count(p, r, mu, ell_max=3)
            assert margin > 1e-6, (r, mu)
            assert sobolev_finite(p, r, mu, table=tbl) == oracle, (r, mu)


def test_sobolev_pinned_counts_monotone_in_mu():
    # the counts of the dense eigvalsh path on the builtin parameters
    tbl = mode_table(BUILTIN)
    pinned = {100.0: 13, 150.0: 20, 200.0: 26, 400.0: 52, 800.0: 105}
    assert {r: sobolev_finite(BUILTIN, r, 1.0, table=tbl) for r in pinned} == pinned
    counts = [sobolev_finite(BUILTIN, 150.0, mu, table=tbl)
              for mu in (0.3, 0.5, 0.9, 1.0, 1.1, 1.2)]
    assert counts[:2] == [66, 48]
    assert counts == sorted(counts, reverse=True)


def _sobolev_column(params, ell, r):
    """h s_l(d h), d = 0..nn-1: the first column of the degree-l block of S_r."""
    nn = int(np.ceil(8 * r))
    step = r / nn
    x = (np.arange(nn) + 0.5) * step
    return step * efimov.sobolev_1d_kernel(params, ell, x - x[0])


@pytest.mark.parametrize("case", ["diagonal", "near_diagonal", "leading_minor"])
def test_sobolev_pivot_guard_counts_densely(monkeypatch, case):
    # mu = h s_0(0) makes E_0 of K - mu I exactly 0 and mu = h s_0(0) (1 + 1e-12)
    # makes it a rounding error; mu = c_0 + |c_1| zeroes the leading 2 x 2
    # minor, so E_1 is a rounding error.  Degree 0 must go to eigvalsh.
    r, ell_max = 20.0, 3
    c = _sobolev_column(BUILTIN, 0, r)
    mu = float({"diagonal": c[0], "near_diagonal": c[0] * (1.0 + 1e-12),
                "leading_minor": c[0] + abs(c[1])}[case])
    dense, calls = efimov._dense_count, []
    monkeypatch.setattr(efimov, "_dense_count", lambda *a: calls.append(a) or dense(*a))
    with np.errstate(divide="raise", invalid="raise"):
        got = sobolev_finite(BUILTIN, r, mu, table=mode_table(BUILTIN, ell_max=ell_max))
    assert len(calls) == 1 and type(got) is int
    eigs = [np.linalg.eigvalsh(toeplitz(_sobolev_column(BUILTIN, ell, r)))
            for ell in range(ell_max + 1)]
    assert min(np.min(np.abs(np.abs(e) - mu)) for e in eigs) > 1e-9 * mu
    assert got == sum((2 * ell + 1) * int(np.sum(np.abs(e) > mu))
                      for ell, e in enumerate(eigs))


def test_sobolev_degree0_needs_one_pass():
    # at s12 = +0.5, r = 10, mu = 0.02 degree 1 has eigenvalues below -mu, so
    # only degree 0 may skip the K + mu I pass
    p = EfimovParams(u12=BUILTIN.u12, r12=0.0, s12=0.5)
    r, mu = 10.0, 0.02
    below = [int(np.sum(np.linalg.eigvalsh(toeplitz(_sobolev_column(p, ell, r))) < -mu))
             for ell in (0, 1)]
    assert below[0] == 0 and below[1] == 9
    oracle, margin = sobolev_toeplitz_count(p, r, mu, ell_max=2)
    assert margin > 1e-6
    assert sobolev_finite(p, r, mu, table=mode_table(p, ell_max=2)) == oracle


@pytest.mark.parametrize("s12", [BUILTIN.s12, 0.5])
def test_sobolev_degree0_block_within_psd_bound(s12):
    p = EfimovParams(u12=BUILTIN.u12, r12=0.0, s12=s12)
    col = _sobolev_column(p, 0, 50.0)
    bound = efimov._degree0_psd_bound(p, col)
    assert 0.0 < bound < 1e-9
    assert np.linalg.eigvalsh(toeplitz(col))[0] >= -bound


def test_sobolev_phase_irrelevance():
    p_pos = EfimovParams(u12=BUILTIN.u12, r12=0.4, s12=BUILTIN.s12)
    p_neg = EfimovParams(u12=BUILTIN.u12, r12=-0.4, s12=BUILTIN.s12)
    tbl_pos, tbl_neg = mode_table(p_pos, ell_max=6), mode_table(p_neg, ell_max=6)
    for r in (20.0, 40.0):
        assert sobolev_finite(p_pos, r, 1.0, table=tbl_pos) == \
            sobolev_finite(p_neg, r, 1.0, table=tbl_neg)
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
