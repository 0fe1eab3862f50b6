import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lattice3b import (InvalidSpectralPointError, OutOfDomainError,
                       ResourceCapError, assemble_bs_matrix,
                       assemble_direct_hamiltonian, build_grid,
                       builtin_epsilon, builtin_model, channel_eigenvalue,
                       cos_axis_form_factor, count_above,
                       count_eigenvalues_below, count_report,
                       coupling_threshold, direct_count_below,
                       essential_spectrum, finite_dim_bs_identity_check,
                       form_factor, hs_diagnostics, lambda_on_grid, make_model,
                       pair_energy_sum, sin_axis_form_factor,
                       tabulated_dispersion, trust_floor)
from lattice3b.model import hessian_at_minimum, pair_matrix
from lattice3b.threebody import _BSWorkspace, _count_block_singular_above


def test_count_above_examples():
    B = np.diag([3.0, 2.0, 0.5])
    assert count_above(B, 1.0) == 2
    assert count_above(B, 5.0) == 0
    assert count_above(B, 0.0) == 3


def test_count_above_rejects_nonsymmetric():
    with pytest.raises(ValueError):
        count_above(np.array([[0.0, 1.0], [0.0, 0.0]]), 0.5)
    with pytest.raises(ValueError):
        count_above(np.zeros((2, 3)), 0.5)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 12))
def test_weyl_inequality(seed, dim):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(dim, dim))
    A = 0.5 * (A + A.T)
    B = rng.normal(size=(dim, dim))
    B = 0.5 * (B + B.T)
    l1, l2 = rng.uniform(0.05, 2.0, size=2)
    assert count_above(A + B, l1 + l2) <= count_above(A, l1) + count_above(B, l2)


def test_bs_zero_coupling_is_zero_matrix():
    spec = builtin_model(4, 0.0, 0.0)
    bs = assemble_bs_matrix(spec, -0.5)
    assert bs.dimension == 2 * 64
    assert np.all(bs.block12 == 0.0)
    assert count_above(bs.full(), 1.0) == 0


def test_bs_decay_far_below(spec8):
    bs = assemble_bs_matrix(spec8, -1e6)
    assert bs.hs_norm() < 1e-3


def test_bs_spectral_symmetry(spec8):
    bs = assemble_bs_matrix(spec8, -0.37)
    ev = np.linalg.eigvalsh(bs.full())
    assert np.max(np.abs(ev + ev[::-1])) <= 1e-10


def test_bs_out_of_domain(spec8):
    with pytest.raises(OutOfDomainError):
        assemble_bs_matrix(spec8, spec8.m + 0.1)


def test_bs_invalid_spectral_point():
    spec = builtin_model(8, 0.0, 0.0)
    mu0 = coupling_threshold(spec, 1)
    spec = spec.with_params(mu1=3 * mu0, mu2=3 * mu0)
    # far below the branches this is fine
    assemble_bs_matrix(spec, -30.0)
    # close to threshold a channel determinant crosses zero
    with pytest.raises(InvalidSpectralPointError):
        assemble_bs_matrix(spec, spec.m - 1e-6)


def test_identity_check_n8(spec8):
    for z in (-1.0, -0.1):
        assert finite_dim_bs_identity_check(spec8, z) <= 1e-12


def test_identity_check_z_sweep(spec8):
    vals = [finite_dim_bs_identity_check(spec8, z) for z in (-2.0, -0.5, -0.03)]
    assert max(vals) <= 1e-12


def test_identity_check_zero_coupling():
    spec = builtin_model(4, 0.0, 0.0)
    assert finite_dim_bs_identity_check(spec, -1.0) == 0.0


def test_direct_hamiltonian_zero_coupling():
    spec = builtin_model(4, 0.0, 0.0)
    H = assemble_direct_hamiltonian(spec)
    ev = np.linalg.eigvalsh(H)
    grid_vals = np.sort(pair_matrix(spec).ravel())
    assert np.allclose(ev, grid_vals, atol=1e-12)


def test_direct_hamiltonian_bounded_by_M():
    spec = builtin_model(4, 0.0, 0.0)
    mu0 = coupling_threshold(spec, 1)
    spec = spec.with_params(mu1=0.9 * mu0, mu2=0.9 * mu0)
    ev = np.linalg.eigvalsh(assemble_direct_hamiltonian(spec))
    assert ev.max() <= spec.M + 1e-12


def test_direct_hamiltonian_cap():
    spec = builtin_model(8, 0.0, 0.0)
    with pytest.raises(ResourceCapError):
        assemble_direct_hamiltonian(spec)


def test_bs_dense_cap():
    spec = builtin_model(24, 0.0, 0.0)
    with pytest.raises(ResourceCapError):
        assemble_bs_matrix(spec, -1.0)


@pytest.mark.parametrize("phi1_sin", [False, True])
def test_finite_dim_bs_exactness_n4(phi1_sin):
    phi1 = sin_axis_form_factor(1, 0) if phi1_sin else None
    spec = builtin_model(4, 0.0, 0.0, phi1=phi1)
    mu1 = 0.9 * coupling_threshold(spec, 1)
    mu2 = 0.9 * coupling_threshold(spec, 2)
    spec = spec.with_params(mu1=mu1, mu2=mu2)
    zs = (-0.5, -0.1, -0.01)
    direct = direct_count_below(spec, zs)
    bs = [count_eigenvalues_below(spec, z) for z in zs]
    assert direct == bs


def _intermediate_count(spec, z):
    """n(1, M(z)) for the independently assembled sandwich M(z): the
    quadrature-symmetrized Phi_a R0 Phi_b* blocks, sparse, never the cross
    block of T(z)."""
    import scipy.sparse as sp
    N = spec.grid.size
    sw = np.sqrt(spec.grid.weight)
    f1 = spec.phi_values(1)
    f2 = spec.phi_values(2)
    Phi1 = sp.kron(sp.csr_matrix(sw * f1[None, :]), sp.eye(N), format="csr")
    Phi2 = sp.kron(sp.eye(N), sp.csr_matrix(sw * f2[None, :]), format="csr")
    R0 = sp.diags(1.0 / (pair_matrix(spec).ravel() - z))
    blocks = {}
    for (a, Pa, ma) in ((1, Phi1, spec.mu1), (2, Phi2, spec.mu2)):
        for (b, Pb, mb) in ((1, Phi1, spec.mu1), (2, Phi2, spec.mu2)):
            blocks[a, b] = np.sqrt(ma * mb) * (Pa @ R0 @ Pb.T).toarray()
    M = np.block([[blocks[1, 1], blocks[1, 2]],
                  [blocks[2, 1], blocks[2, 2]]])
    return count_above(M, 1.0)


def test_intermediate_sandwich_same_counts():
    # counts of the direct Hamiltonian below z = n(1, M(z)) = n(1, T(z))
    spec = builtin_model(4, 0.0, 0.0)
    mu0 = coupling_threshold(spec, 1)
    spec = spec.with_params(mu1=0.9 * mu0, mu2=0.9 * mu0)
    for z in (-0.5, -0.05):
        n_m = _intermediate_count(spec, z)
        n_t = count_eigenvalues_below(spec, z)
        n_direct = direct_count_below(spec, [z])[0]
        assert n_direct == n_m == n_t


# sin-a-b: phi1 odd on axis a, phi2 odd on axis b; each model with its flip axes
SIN_Q1_PLUS_Q2 = form_factor(1, "odd", lambda q: np.sin(q[..., 0] + q[..., 1]))
SECTOR_MODELS = {
    "const": ({}, (0, 1, 2)),
    "sin-0-1": (dict(phi1=sin_axis_form_factor(1, 0), phi2=sin_axis_form_factor(2, 1)),
                (0, 1, 2)),
    "sin-1-2": (dict(phi1=sin_axis_form_factor(1, 1), phi2=sin_axis_form_factor(2, 2)),
                (0, 1, 2)),
    "sin-2-0": (dict(phi1=sin_axis_form_factor(1, 2), phi2=sin_axis_form_factor(2, 0)),
                (0, 1, 2)),
    "cos": (dict(phi1=cos_axis_form_factor(1, 1), phi2=cos_axis_form_factor(2, 2)),
            (0, 1, 2)),
    "axis-weights": (dict(axis_weights=(1.0, 2.0, 3.0), phi1=cos_axis_form_factor(1, 0),
                          phi2=sin_axis_form_factor(2, 1)), (0, 1, 2)),
    "cross-weight": (dict(cross_weight=6.0), (0, 1, 2)),
    "sin-q1+q2": (dict(phi1=SIN_Q1_PLUS_Q2), (2,)),
    "sin-q2-q3": (dict(axis_weights=(1.0, 2.0, 3.0), phi2=form_factor(
        2, "odd", lambda q: np.sin(q[..., 1] - q[..., 2]))), (0,)),
}


def _tabulated_band(n):
    """The cosine band as a tabulated (trilinear) dispersion: not separable."""
    grid = build_grid(n)
    return make_model(pair_energy_sum(tabulated_dispersion(grid, builtin_epsilon(grid.nodes))),
                      n, 0.0, 0.0)


@pytest.mark.parametrize("n", [4, 6])
@pytest.mark.parametrize("case", sorted(SECTOR_MODELS))
def test_sector_count_exact(case, n):
    """The 2^|A| reflection-sector blocks of the flip axes A reproduce the full
    cross block exactly: counts equal the dense oracle and the direct
    Hamiltonian (n = 4; at n = 6 the n^6 matrix needs 17 GB, so the sparse
    M(z) assembly stands in), the sector singular values are those of the
    full block, and the flip-reduced determinants satisfy the sparse identity
    I - mu Phi R0 Phi* = D at every node."""
    kwargs, axes = SECTOR_MODELS[case]
    spec = builtin_model(n, 0.0, 0.0, **kwargs)
    spec = spec.with_params(mu1=coupling_threshold(spec, 1),
                            mu2=coupling_threshold(spec, 2))
    ws = _BSWorkspace(spec)
    assert ws.axes == axes
    zs = [spec.m - s for s in (1.0, 1e-2, 1e-6)]
    counts = [count_eigenvalues_below(spec, z, ws) for z in zs]
    assert counts == [count_above(assemble_bs_matrix(spec, z).full(), 1.0) for z in zs]
    if n == 4:
        assert counts == direct_count_below(spec, zs)
    else:
        assert counts == [_intermediate_count(spec, z) for z in zs]
    for z in zs:
        assert finite_dim_bs_identity_check(spec, z) <= 1e-12
        blocks, _, _ = ws.blocks_into(z, ws.axes)
        assert blocks.shape == (2 ** len(axes),) + (spec.grid.size >> len(axes),) * 2
        sv_sectors = np.sort(np.concatenate(
            [np.linalg.svd(b, compute_uv=False) for b in blocks]))
        sv_full = np.sort(np.linalg.svd(assemble_bs_matrix(spec, z).block12,
                                        compute_uv=False))
        assert np.max(np.abs(sv_sectors - sv_full)) <= 1e-12 * sv_full[-1]


def test_no_axis_parity_takes_full_block():
    # sin(q1+q2) has a parity on axis 3 only and sin(q2+q3) on axis 1 only
    phi2 = form_factor(2, "odd", lambda q: np.sin(q[..., 1] + q[..., 2]))
    spec = builtin_model(4, 0.0, 0.0, phi1=SIN_Q1_PLUS_Q2, phi2=phi2)
    spec = spec.with_params(mu1=coupling_threshold(spec, 1),
                            mu2=coupling_threshold(spec, 2))
    tab = _tabulated_band(4)
    lam = max(lambda_on_grid(tab, a, tab.m - 0.2).max() for a in (1, 2))
    tab = tab.with_params(mu1=0.95 / lam, mu2=0.95 / lam)
    for model, s_values in ((spec, (1.0, 1e-2, 1e-6)), (tab, (1.0, 0.5, 0.2))):
        ws = _BSWorkspace(model)
        assert ws.axes == ()
        zs = [model.m - s for s in s_values]
        counts = [count_eigenvalues_below(model, z, ws) for z in zs]
        assert counts == direct_count_below(model, zs)
    assert counts == [0, 1, 8]


def test_count_monotone_and_zero_far_below(spec8):
    norm_v = (2 * np.pi) ** 3   # ||V_alpha|| for phi == 1
    z_deep = spec8.m - (spec8.M - spec8.m) - (spec8.mu1 + spec8.mu2) * norm_v
    assert count_eigenvalues_below(spec8, z_deep) == 0
    counts = [count_eigenvalues_below(spec8, z) for z in (-2.0, -0.5, -0.05)]
    assert counts == sorted(counts)


def test_block_counter_matches_dense(spec8):
    for z in (-0.9, -0.2):
        bs = assemble_bs_matrix(spec8, z)
        dense = count_above(bs.full(), 1.0)
        blockwise = _count_block_singular_above(bs.block12, 1.0)
        assert dense == blockwise


def test_essential_spectrum_critical(spec16_critical):
    rep = essential_spectrum(spec16_critical)
    assert rep.band == pytest.approx((0.0, 13.5), abs=1e-9)
    assert rep.branch_points(1).size == 0
    assert rep.branch_points(2).size == 0
    assert rep.lower_edge == pytest.approx(spec16_critical.m, abs=1e-12)


def test_essential_spectrum_zero_coupling():
    spec = builtin_model(8, 0.0, 0.0)
    rep = essential_spectrum(spec)
    assert rep.branch_points(1).size == 0
    assert rep.lower_edge == spec.m


def test_essential_spectrum_overcritical():
    spec = builtin_model(8, 0.0, 0.0)
    mu0 = coupling_threshold(spec, 1)
    spec = spec.with_params(mu1=2 * mu0, mu2=0.5 * mu0)
    rep = essential_spectrum(spec)
    b1 = rep.branch_points(1)
    assert b1.size > 0
    assert rep.lower_edge < spec.m
    assert rep.branch_points(2).size == 0
    # every branch value lies below its channel bottom, hence below m + band
    assert b1.max() < spec.m


@pytest.mark.parametrize("kwargs,axes", [({}, (0, 1, 2)), ({"phi1": SIN_Q1_PLUS_Q2}, (2,)),
                                         (None, ())], ids=["const", "sin-q1+q2", "tabulated"])
def test_essential_spectrum_matches_channel_eigenvalue(kwargs, axes):
    """The bisection on the flip representatives, spread to all nodes, finds a
    root below m at the same nodes as the pointwise channel_eigenvalue, and
    the same root to 1e-9, on overcritical models of every reduction."""
    if kwargs is None:
        spec = _tabulated_band(4)
        lam = max(lambda_on_grid(spec, a, spec.m - 0.2).max() for a in (1, 2))
        spec = spec.with_params(mu1=3 / lam, mu2=2 / lam)
    else:
        spec = builtin_model(4, 0.0, 0.0, **kwargs)
        spec = spec.with_params(mu1=3 * coupling_threshold(spec, 1),
                                mu2=1.5 * coupling_threshold(spec, 2))
    assert _BSWorkspace(spec).axes == axes
    rep = essential_spectrum(spec)
    for alpha in (1, 2):
        ref = np.array([np.nan if r is None else r for r in
                        (channel_eigenvalue(spec, alpha, p) for p in spec.grid.nodes)])
        got = rep.branch_values[alpha]
        assert np.array_equal(np.isfinite(got), ref < spec.m)
        assert np.isfinite(got).any()
        below = np.isfinite(got)
        assert np.max(np.abs(got[below] - ref[below])) <= 1e-9


def test_hs_diagnostics_delta_limit(spec16_critical):
    hess = hessian_at_minimum(spec16_critical)
    z = spec16_critical.m - 1e-2
    hs, diff_tiny = hs_diagnostics(spec16_critical, z, delta=1e-9, hess=hess)
    assert diff_tiny == pytest.approx(hs, rel=1e-12)
    hs2, diff1 = hs_diagnostics(spec16_critical, z, delta=1.0, hess=hess)
    assert hs2 == pytest.approx(hs, rel=1e-12)
    assert diff1 < hs


def test_count_report_columns_and_trust(spec16_critical):
    s_vals = np.geomspace(1e-3, 1e-1, 5)
    rep = count_report(spec16_critical, s_vals, with_hs=True)
    assert rep.m_minus_z[0] > rep.m_minus_z[-1]
    assert np.all(np.diff(rep.counts) >= 0)            # counts grow toward threshold
    floor = trust_floor(16)
    assert np.array_equal(rep.trusted, rep.m_minus_z >= floor)
    assert np.all(np.isfinite(rep.hs_norm))
    assert np.all(rep.det_min > 0)
    # one blocks_into call per row gives the count and det_min of the
    # standalone counter and of the determinants on every node
    ws = _BSWorkspace(spec16_critical)
    for s, count, det_min in zip(rep.m_minus_z, rep.counts, rep.det_min):
        z = spec16_critical.m - s
        assert count == count_eigenvalues_below(spec16_critical, z, ws)
        assert det_min == min(float(d.min()) for d in ws.determinants(z))
    text = rep.to_csv()
    assert text.splitlines()[0] == "m_minus_z,count,det_min,hs_norm,hs_diff,trusted"
